"""Anomaly detection (Algorithm 2).

Given the trained relationship graph and a testing log, every valid
pair model re-translates the test sentences; window ``t``'s test BLEU
``f(i, j)`` is compared to the break threshold ``T(i, j)``.  A pair is
*broken* when ``f < T``; the anomaly score ``a_t`` is the fraction of
valid pairs broken at ``t`` and ``W_t`` records which pairs broke.

:meth:`AnomalyDetector.score_block` is the only implementation of that
rule; batch detection and the online detector both score through it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from ..graph.mvrg import MultivariateRelationshipGraph
from ..graph.ranges import DETECTION_RANGE, ScoreRange
from ..lang.events import MultivariateEventLog
from ..obs import Histogram, MetricsRegistry, Stopwatch, get_logger
from ..translation.bleu import sentence_bleu
from .validity import valid_detection_pairs

__all__ = ["AnomalyDetector", "DetectionResult", "SENTENCE_CACHE_KEY"]

logger = get_logger(__name__)

#: Reserved ``sentence_cache`` key holding the fingerprint of the test
#: log the cached sentences were generated from.
SENTENCE_CACHE_KEY = "__log_fingerprint__"


@dataclass
class DetectionResult:
    """Output of Algorithm 2 over ``L`` detection windows.

    Attributes
    ----------
    valid_pairs:
        The directed pairs whose training BLEU fell in the detector's
        score range (``p_t`` of Algorithm 2 is their count).
    anomaly_scores:
        ``a_t`` per window, each in ``[0, 1]``.
    alerts:
        Boolean matrix ``(L, P)``: ``W_t`` — which pairs broke when.
    test_scores:
        Test BLEU ``f(i, j)`` per window and pair, shape ``(L, P)``.
    training_scores:
        ``s(i, j)`` per valid pair, shape ``(P,)``.
    """

    valid_pairs: list[tuple[str, str]]
    anomaly_scores: np.ndarray
    alerts: np.ndarray
    test_scores: np.ndarray
    training_scores: np.ndarray

    @property
    def num_windows(self) -> int:
        return int(self.anomaly_scores.shape[0])

    @property
    def num_valid_pairs(self) -> int:
        return len(self.valid_pairs)

    def broken_pairs(self, window: int) -> list[tuple[str, str]]:
        """Pairs whose relationship is broken at ``window``."""
        flags = self.alerts[window]
        return [pair for pair, broken in zip(self.valid_pairs, flags) if broken]

    def anomalous_windows(self, threshold: float = 0.5) -> list[int]:
        """Windows whose anomaly score meets ``threshold``."""
        return [int(t) for t in np.nonzero(self.anomaly_scores >= threshold)[0]]

    def max_score(self) -> float:
        return float(self.anomaly_scores.max()) if self.num_windows else 0.0


class AnomalyDetector:
    """Applies Algorithm 2 using models from a relationship graph.

    Parameters
    ----------
    graph:
        Trained :class:`MultivariateRelationshipGraph`.
    score_range:
        Validity range for models (the paper finds ``[80, 90)`` best).
    margin:
        Optional slack: a pair breaks when ``f < T - margin``.  The
        paper uses ``margin=0``.
    threshold:
        How the break threshold ``T(i, j)`` is derived from training:
        ``"train"`` (paper-literal, ``T = s(i, j)``), ``"dev-min"`` or
        ``"dev-quantile"`` (robust variants based on the per-sentence
        development-set BLEU distribution; see
        :meth:`repro.graph.PairwiseRelationship.threshold`).
    quantile:
        The quantile used by ``"dev-quantile"``.
    metrics:
        Optional :class:`~repro.obs.MetricsRegistry` the detector
        records into (windows scored, pairs evaluated, broken-pair
        counts, scoring latency); a private registry is created when
        omitted.  Always available as :attr:`metrics`.
    """

    def __init__(
        self,
        graph: MultivariateRelationshipGraph,
        score_range: ScoreRange = DETECTION_RANGE,
        *,
        margin: float = 0.0,
        threshold: str = "dev-quantile",
        quantile: float = 0.05,
        metrics: MetricsRegistry | None = None,
    ) -> None:
        if margin < 0:
            raise ValueError("margin must be non-negative")
        if threshold not in ("train", "dev-min", "dev-quantile"):
            raise ValueError(f"unknown threshold strategy {threshold!r}")
        if not 0.0 <= quantile <= 1.0:
            raise ValueError("quantile must be in [0, 1]")
        self.graph = graph
        self.score_range = score_range
        self.margin = margin
        self.threshold = threshold
        self.quantile = quantile
        if metrics is not None:
            self._metrics = metrics

    @property
    def metrics(self) -> MetricsRegistry:
        """The registry detection metrics land in (created lazily, so
        detectors unpickled from pre-observability saves work too)."""
        registry = self.__dict__.get("_metrics")
        if registry is None:
            registry = MetricsRegistry()
            self._metrics = registry
        return registry

    def valid_pairs(self, sensors: Sequence[str] | None = None) -> list[tuple[str, str]]:
        """Directed pairs whose training score lies in the range.

        Delegates to :func:`~repro.detection.validity.valid_detection_pairs`
        — the shared definition both the batch and online detectors use,
        including the dev-BLEU-0.0 exclusion.
        """
        return valid_detection_pairs(self.graph, self.score_range, sensors)

    def scoring_pairs(
        self, sensors: Sequence[str] | None = None
    ) -> tuple[list[tuple[str, str]], np.ndarray]:
        """The valid pairs and their break thresholds ``T(i, j)``; raises
        ``ValueError`` when no pair model lies in the score range."""
        pairs = self.valid_pairs(sensors)
        if not pairs:
            raise ValueError(
                f"no valid pair models in range {self.score_range}; "
                "choose a different score range or retrain"
            )
        thresholds = np.array(
            [self.graph[pair].threshold(self.threshold, self.quantile) for pair in pairs],
            dtype=float,
        )
        return pairs, thresholds

    def score_block(
        self,
        pairs: Sequence[tuple[str, str]],
        thresholds: np.ndarray,
        sentences: Mapping[str, Sequence],
        window_count: int,
        pair_seconds: Histogram | None = None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Algorithm 2 over a block of ``window_count`` windows.

        ``sentences`` maps each sensor of ``pairs`` to time-aligned
        sentences; each pair translates the block in one call and breaks
        where its test BLEU falls below ``thresholds - margin``.  Returns
        ``(test_scores, alerts)``, both ``(window_count, len(pairs))``.
        ``pair_seconds`` observes each pair's translate+score seconds.
        """
        test_scores = np.zeros((window_count, len(pairs)))
        watch = Stopwatch()
        for column, (source, target) in enumerate(pairs):
            translations = self.graph[(source, target)].model.translate(
                sentences[source][:window_count]
            )
            references = sentences[target]
            for window in range(window_count):
                test_scores[window, column] = sentence_bleu(
                    translations[window], references[window]
                )
            if pair_seconds is not None:
                pair_seconds.observe(watch.split())
        alerts = test_scores < (thresholds[None, :] - self.margin)
        return test_scores, alerts

    def detect(
        self,
        test_log: MultivariateEventLog,
        sentence_cache: dict[str, list] | None = None,
    ) -> DetectionResult:
        """Run Algorithm 2 over a testing log, scored as one block.

        Sentences are generated with the *training* languages in their
        native representation — packed integer words on the columnar
        path, character strings on the legacy path — and fitted
        encoders handle unseen states via the unknown code/character,
        so window ``t`` is time-aligned across sensors.  ``sentence_cache``
        (sensor → sentence list) lets callers share the encrypted test
        corpus across detectors for the same log: missing sensors are
        encrypted into the cache, present ones are reused.  The cache is
        stamped with the test log's content fingerprint (under
        :data:`SENTENCE_CACHE_KEY`); passing a cache built from a
        *different* log raises ``ValueError`` instead of silently
        scoring stale windows.
        """
        from ..pipeline.artifacts import fingerprint_log

        watch = Stopwatch()
        pairs, thresholds = self.scoring_pairs(test_log.sensors)
        corpus = self.graph.corpus
        involved = sorted({sensor for pair in pairs for sensor in pair})
        sentences = {} if sentence_cache is None else sentence_cache
        digest = fingerprint_log(test_log)
        cached_digest = sentences.get(SENTENCE_CACHE_KEY)
        if cached_digest is None:
            sentences[SENTENCE_CACHE_KEY] = digest
        elif cached_digest != digest:
            raise ValueError(
                "sentence_cache was built from a different test log "
                f"(fingerprint {cached_digest[:12]}… != {digest[:12]}…); "
                "reusing it would silently score stale windows — pass a "
                "fresh cache dict per test log"
            )
        for name in involved:
            if name not in sentences:
                sentences[name] = corpus[name].sentences_for(test_log[name])
        window_count = min(len(sentences[name]) for name in involved)
        if window_count == 0:
            raise ValueError(
                "testing log is too short to produce a single sentence window"
            )

        metrics = self.metrics
        test_scores, alerts = self.score_block(
            pairs,
            thresholds,
            sentences,
            window_count,
            pair_seconds=metrics.histogram("detect.pair_seconds"),
        )
        anomaly_scores = alerts.mean(axis=1)

        seconds = watch.elapsed
        metrics.counter("detect.runs").inc()
        metrics.counter("detect.windows_scored").inc(window_count)
        metrics.counter("detect.pairs_evaluated").inc(len(pairs))
        metrics.counter("detect.pair_windows_broken").inc(int(alerts.sum()))
        metrics.gauge("detect.valid_pairs").set(len(pairs))
        metrics.gauge("detect.broken_pair_rate").set(float(alerts.mean()))
        metrics.histogram("detect.seconds").observe(seconds)
        metrics.gauge("detect.seconds_per_window").set(seconds / window_count)
        logger.debug(
            "scored %d windows over %d valid pairs in %.3fs "
            "(broken-pair rate %.4f)",
            window_count,
            len(pairs),
            seconds,
            float(alerts.mean()),
            extra={
                "windows": window_count,
                "valid_pairs": len(pairs),
                "seconds": seconds,
                "broken_pair_rate": float(alerts.mean()),
            },
        )
        return DetectionResult(
            valid_pairs=pairs,
            anomaly_scores=anomaly_scores,
            alerts=alerts,
            test_scores=test_scores,
            training_scores=np.array(
                [self.graph[pair].score for pair in pairs], dtype=float
            ),
        )
