"""Streaming anomaly detection.

Production deployments receive sensor events incrementally, not as a
complete testing log.  :class:`OnlineAnomalyDetector` wraps the batch
Algorithm 2 with a sliding buffer: push one multivariate sample at a
time; whenever enough samples have accumulated to complete new
sentence windows, they are scored and a :class:`WindowScore` is
emitted per window.  Scoring goes through the batch detector's
:meth:`~repro.detection.anomaly.AnomalyDetector.score_block`: the
windows one ingest call completes form one block, so each pair makes
one ``translate`` call per ingest.

The detection latency therefore equals the sentence span (the paper's
"granularity of detection"): with the plant settings, one score every
20 minutes.

For chunked transports — a tailer draining a file, a consumer pulling
batches off a queue — :meth:`OnlineAnomalyDetector.push_chunk` ingests
a block of samples with one vectorised encode per sensor, and
:meth:`OnlineAnomalyDetector.stream_from_reader` drives a whole
chunked reader (e.g. :func:`repro.datasets.io.iter_event_chunks`)
without ever materialising the full test log.

Lifecycle contract (the streaming service in :mod:`repro.service`
relies on all three):

- **Failure atomicity** — if scoring raises mid-call (e.g. a translate
  error), :meth:`push`/:meth:`push_chunk` roll the detector back to its
  pre-call state (buffers, sample clock, window clock, metrics), so a
  caller may retry the same call without double-scoring a window or
  desynchronising the window clock.
- **Residual visibility** — samples that arrive after the last
  completed window are reported by :attr:`pending_samples` and can be
  explicitly discarded with :meth:`flush` at end-of-stream; they are
  never dropped silently.
- **Snapshot/restore** — :meth:`state_dict` captures the mutable stream
  state (buffers and clocks) as a JSON-serialisable dict and
  :meth:`load_state_dict` restores it onto a detector built from the
  same graph/configuration, so a restarted consumer resumes mid-stream
  without re-scoring or skipping windows.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import Any, Iterable, Iterator, Mapping, Sequence

import numpy as np

from ..graph.mvrg import MultivariateRelationshipGraph
from ..graph.ranges import DETECTION_RANGE, ScoreRange
from ..obs import MetricsRegistry, Stopwatch, get_logger
from .anomaly import AnomalyDetector

__all__ = ["OnlineAnomalyDetector", "WindowScore"]

logger = get_logger(__name__)


@dataclass(frozen=True)
class WindowScore:
    """One emitted detection window."""

    window_index: int
    start_sample: int
    anomaly_score: float
    broken_pairs: tuple[tuple[str, str], ...]


class OnlineAnomalyDetector:
    """Incremental Algorithm 2 over a stream of multivariate samples.

    Parameters
    ----------
    graph:
        Trained relationship graph (Algorithm 1 output).
    score_range, margin, threshold, quantile:
        As in :class:`~repro.detection.anomaly.AnomalyDetector`.
    metrics:
        Optional :class:`~repro.obs.MetricsRegistry` the detector
        records into (samples ingested, windows scored, broken pairs,
        per-window scoring latency — the serving hot path); a private
        registry is created when omitted.

    The valid pairs and their thresholds come from the wrapped
    :class:`~repro.detection.anomaly.AnomalyDetector`, computed once at
    construction, so the streaming path scores exactly the pairs the
    batch path scores.
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
        self.graph = graph
        self.score_range = score_range
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self._detector = AnomalyDetector(
            graph, score_range, margin=margin, threshold=threshold, quantile=quantile
        )
        self._pairs, self._thresholds = self._detector.scoring_pairs()
        self._sensors = sorted({s for pair in self._pairs for s in pair})
        # The sliding buffers assume every monitored sensor shares one
        # windowing config; divergent per-sensor configs would let the
        # buffers desynchronise silently, so they are rejected here.
        configs = {name: graph.corpus[name].config for name in self._sensors}
        reference = configs[self._sensors[0]]
        divergent = [name for name, c in configs.items() if c != reference]
        if divergent:
            raise ValueError(
                "monitored sensors carry divergent language configs; the "
                "online sliding buffers require a single config "
                f"(sensor {self._sensors[0]!r} has {reference!r}, but "
                f"{divergent} disagree)"
            )
        self._config = reference
        # Samples are interned to encoder codes at push time, so each
        # buffered sample costs one small int and window scoring never
        # re-encodes strings.  Unseen states land on the unknown code.
        self._encoders = {name: graph.corpus[name].encoder for name in self._sensors}
        self._buffers: dict[str, list[int]] = {name: [] for name in self._sensors}
        self._samples_seen = 0
        self._windows_emitted = 0
        self._trimmed = 0  # samples dropped from the front of the buffers
        self.metrics.gauge("online.valid_pairs").set(len(self._pairs))
        for name in (
            "online.samples_ingested",
            "online.windows_scored",
            "online.pairs_evaluated",
            "online.pairs_broken",
            "online.samples_flushed",
        ):
            self.metrics.counter(name)

    # ------------------------------------------------------------------
    def valid_pairs(self) -> list[tuple[str, str]]:
        """The directed pairs every window is scored over, in order."""
        return list(self._pairs)

    @property
    def window_span(self) -> int:
        """Samples covered by one sentence window."""
        return self._config.samples_per_sentence()

    @property
    def window_stride(self) -> int:
        """Samples between consecutive windows (detection granularity)."""
        return self._config.effective_sentence_stride * self._config.word_stride

    @property
    def samples_seen(self) -> int:
        """Samples ingested over the detector's lifetime."""
        return self._samples_seen

    @property
    def windows_emitted(self) -> int:
        """Windows scored over the detector's lifetime."""
        return self._windows_emitted

    @property
    def pending_samples(self) -> int:
        """Buffered samples no emitted window has started from yet.

        This is the residual tail a finite stream leaves behind: samples
        at or after the next window's start that have not completed that
        window.  At end-of-stream these would otherwise sit in the
        buffers invisibly — report them, or discard them explicitly with
        :meth:`flush`.
        """
        return self._samples_seen - self._next_window_start()

    def _next_window_start(self) -> int:
        return self._windows_emitted * self.window_stride

    # ------------------------------------------------------------------
    def push(self, sample: Mapping[str, str]) -> list[WindowScore]:
        """Feed one multivariate sample; return any newly completed windows.

        ``sample`` maps sensor name → categorical state.  Sensors the
        detector does not use are ignored; missing monitored sensors
        raise, since silent gaps would desynchronise the windows.

        Unseen states are interned to the unknown code by the same
        :class:`~repro.core.StateTable` mapping :meth:`push_chunk`'s
        vectorised encode uses, so both ingest paths score never-seen
        states identically.
        """
        missing = [name for name in self._sensors if name not in sample]
        if missing:
            raise KeyError(f"sample is missing monitored sensors: {missing}")
        codes = {
            name: [self._encoders[name].table.code_of(str(sample[name]))]
            for name in self._sensors
        }
        return self._ingest(codes, 1)

    def push_chunk(self, chunk: "Mapping[str, Sequence[str]]") -> list[WindowScore]:
        """Feed a block of consecutive samples; return completed windows.

        ``chunk`` maps sensor name → a column of categorical states, as
        yielded by :func:`repro.datasets.io.iter_event_chunks`.  The
        whole block is interned with one vectorised
        :meth:`~repro.core.StateTable.encode` call per sensor, then
        every window that the new samples complete is scored — exactly
        the windows :meth:`push` would have emitted sample by sample.
        """
        missing = [name for name in self._sensors if name not in chunk]
        if missing:
            raise KeyError(f"chunk is missing monitored sensors: {missing}")
        lengths = {name: len(chunk[name]) for name in self._sensors}
        if len(set(lengths.values())) > 1:
            raise ValueError(f"chunk columns are not aligned; lengths={lengths}")
        length = next(iter(lengths.values()))
        if length == 0:
            return []
        codes = {
            name: self._encoders[name]
            .table.encode([str(event) for event in chunk[name]])
            .tolist()
            for name in self._sensors
        }
        return self._ingest(codes, length)

    def stream_from_reader(
        self, chunks: "Iterable[Mapping[str, Sequence[str]]]"
    ) -> Iterator[WindowScore]:
        """Score a chunked reader's stream without materialising the log.

        ``chunks`` is any iterable of ``{sensor: [state, ...]}`` blocks
        — typically ``iter_event_chunks(path, chunk_size)`` — consumed
        one chunk at a time; windows are yielded as soon as the samples
        completing them arrive, so peak memory is one chunk of strings
        plus the detector's trimmed code buffers, never the full test
        log.  Samples the stream leaves behind without completing a
        window remain visible via :attr:`pending_samples`.
        """
        for chunk in chunks:
            yield from self.push_chunk(chunk)

    def flush(self) -> int:
        """Discard the residual tail that can never complete a window.

        Finite streams end between window boundaries; the trailing
        samples are reported by :attr:`pending_samples` and dropped here
        explicitly (recorded as ``online.samples_flushed``).  The sample
        clock rewinds to the last window boundary, so a detector that
        keeps ingesting after a flush continues with a consistent window
        clock — as if the discarded samples never arrived.  Returns the
        number of samples discarded.
        """
        dropped = self.pending_samples
        if dropped:
            boundary = self._next_window_start()
            for name in self._sensors:
                del self._buffers[name][boundary - self._trimmed :]
            self._samples_seen = boundary
        self.metrics.counter("online.samples_flushed").inc(dropped)
        self.metrics.gauge("online.pending_samples").set(0)
        return dropped

    # ------------------------------------------------------------------
    def _ingest(self, codes: Mapping[str, list[int]], count: int) -> list[WindowScore]:
        """Commit ``count`` interned samples and score completed windows.

        Failure-atomic: appends, the sample clock, the window clock and
        all metrics either commit together after every completed window
        scored cleanly, or roll back together when scoring raises — so a
        retried ``push``/``push_chunk`` neither double-scores a window
        nor skips one.  Trimming is deferred to the commit point, which
        keeps rollback a pure tail truncation (the dropped prefix never
        has to be reconstructed).
        """
        base_length = self._samples_seen - self._trimmed
        clocks = (self._samples_seen, self._windows_emitted)
        try:
            for name in self._sensors:
                self._buffers[name].extend(codes[name])
            self._samples_seen += count
            emitted, seconds = self._score_block()
        except BaseException:
            for name in self._sensors:
                del self._buffers[name][base_length:]
            self._samples_seen, self._windows_emitted = clocks
            raise
        self._trim_buffers()
        self._commit_metrics(count, emitted, seconds)
        return emitted

    def _score_block(self) -> tuple[list[WindowScore], float]:
        """Score every due window as one block; returns them and its seconds.

        Only the window clock advances: metrics commit in
        :meth:`_commit_metrics`, so a failing block records nothing."""
        span, stride = self.window_span, self.window_stride
        due = (self._samples_seen - span) // stride + 1 - self._windows_emitted
        if due <= 0:
            return [], 0.0
        watch = Stopwatch()
        first = self._next_window_start()
        low = first - self._trimmed
        high = low + (due - 1) * stride + span
        sentences = {
            name: self.graph.corpus[name].sentences_from_codes(self._buffers[name][low:high])
            for name in self._sensors
        }
        _, alerts = self._detector.score_block(
            self._pairs, self._thresholds, sentences, due
        )
        emitted = []
        for offset, flags in enumerate(alerts):
            broken = tuple(self._pairs[column] for column in np.flatnonzero(flags))
            emitted.append(
                WindowScore(
                    window_index=self._windows_emitted + offset,
                    start_sample=first + offset * stride,
                    anomaly_score=len(broken) / len(self._pairs),
                    broken_pairs=broken,
                )
            )
        self._windows_emitted += due
        seconds = watch.elapsed
        breaks = int(alerts.sum())
        logger.debug(
            "windows %d-%d (start sample %d) scored as one block in %.4fs: "
            "%d pair breaks over %d pairs",
            emitted[0].window_index,
            emitted[-1].window_index,
            first,
            seconds,
            breaks,
            len(self._pairs),
            extra={
                "window_index": emitted[0].window_index,
                "windows": due,
                "pairs_broken": breaks,
                "seconds": seconds,
            },
        )
        return emitted, seconds

    def _commit_metrics(
        self, count: int, emitted: list[WindowScore], seconds: float
    ) -> None:
        """Record one successful ingest call's counters in one pass."""
        self.metrics.counter("online.samples_ingested").inc(count)
        if emitted:
            self.metrics.counter("online.windows_scored").inc(len(emitted))
            self.metrics.counter("online.pairs_evaluated").inc(
                len(self._pairs) * len(emitted)
            )
            self.metrics.counter("online.pairs_broken").inc(
                sum(len(window.broken_pairs) for window in emitted)
            )
            window_seconds = self.metrics.histogram("online.window_seconds")
            for _ in emitted:
                # The serving hot path: one observation per emitted
                # window, each the block's seconds over its window count.
                window_seconds.observe(seconds / len(emitted))
        self.metrics.gauge("online.pending_samples").set(self.pending_samples)

    def _trim_buffers(self) -> None:
        """Drop samples no future window can reference (bounded memory)."""
        keep_from = self._next_window_start()
        drop = keep_from - self._trimmed
        if drop <= 0:
            return
        for name in self._sensors:
            del self._buffers[name][:drop]
        self._trimmed = keep_from

    # ------------------------------------------------------------------
    # Snapshot / restore
    # ------------------------------------------------------------------
    def stream_fingerprint(self) -> str:
        """Digest of everything the stream state depends on.

        Covers the monitored sensors, window geometry, valid pairs and
        break thresholds — a snapshot taken from one detector only loads
        onto another with the same fingerprint, so state can never be
        restored onto a differently-trained or differently-configured
        model without an explicit error.
        """
        payload = {
            "sensors": list(self._sensors),
            "window_span": self.window_span,
            "window_stride": self.window_stride,
            "pairs": [list(pair) for pair in self._pairs],
            "thresholds": (self._thresholds - self._detector.margin).tolist(),
        }
        blob = json.dumps(payload, sort_keys=True).encode("utf-8")
        return hashlib.sha256(blob).hexdigest()

    def state_dict(self) -> dict[str, Any]:
        """JSON-serialisable snapshot of the mutable stream state.

        Captures the code buffers and the sample/window/trim clocks plus
        the :meth:`stream_fingerprint`; everything else (models,
        thresholds, valid pairs) is a pure function of the graph and
        construction arguments and is *not* serialised — rebuild the
        detector, then :meth:`load_state_dict` this dict onto it.
        """
        return {
            "fingerprint": self.stream_fingerprint(),
            "buffers": {name: list(self._buffers[name]) for name in self._sensors},
            "samples_seen": self._samples_seen,
            "windows_emitted": self._windows_emitted,
            "trimmed": self._trimmed,
        }

    def load_state_dict(self, state: Mapping[str, Any]) -> None:
        """Restore a :meth:`state_dict` onto this detector.

        The snapshot's fingerprint must match this detector's
        :meth:`stream_fingerprint` and the buffers must be internally
        consistent with the clocks; a detector resumed this way emits
        exactly the windows the original would have emitted — no window
        is re-scored and none is skipped.
        """
        expected = self.stream_fingerprint()
        recorded = state.get("fingerprint")
        if recorded != expected:
            raise ValueError(
                "snapshot fingerprint mismatch: state was captured from a "
                f"detector with fingerprint {str(recorded)[:12]}…, this "
                f"detector is {expected[:12]}… (different graph, score "
                "range, thresholds or windowing)"
            )
        samples_seen = int(state["samples_seen"])
        windows_emitted = int(state["windows_emitted"])
        trimmed = int(state["trimmed"])
        buffers = state["buffers"]
        missing = [name for name in self._sensors if name not in buffers]
        if missing:
            raise ValueError(f"snapshot is missing sensor buffers: {missing}")
        expected_length = samples_seen - trimmed
        for name in self._sensors:
            if len(buffers[name]) != expected_length:
                raise ValueError(
                    f"snapshot buffer for sensor {name!r} holds "
                    f"{len(buffers[name])} samples, clocks imply "
                    f"{expected_length}"
                )
        if not 0 <= trimmed <= samples_seen:
            raise ValueError(
                f"snapshot clocks are inconsistent: trimmed={trimmed}, "
                f"samples_seen={samples_seen}"
            )
        self._buffers = {name: [int(c) for c in buffers[name]] for name in self._sensors}
        self._samples_seen = samples_seen
        self._windows_emitted = windows_emitted
        self._trimmed = trimmed
        self.metrics.gauge("online.pending_samples").set(self.pending_samples)
