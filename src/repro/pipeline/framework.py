"""The end-to-end analytics framework (Figure 1).

``fit`` runs the stage-graph pipeline — sensor encryption, language
generation and Algorithm 1 — to build the multivariate relationship
graph, optionally through a content-addressed artifact cache so
unchanged inputs train nothing; ``detect`` runs Algorithm 2 over a
testing log via a memoized :class:`~repro.pipeline.stages.DetectStage`;
``diagnose`` traces broken relationships through the local subgraph
(Figure 9); the knowledge-discovery accessors expose global/local
subgraphs, popular sensors, clusters and Table I rows.
"""

from __future__ import annotations

from pathlib import Path
from typing import Callable

import networkx as nx

from ..detection.anomaly import AnomalyDetector, DetectionResult
from ..detection.diagnosis import FaultDiagnosis, diagnose
from ..graph.community import connected_component_clusters, walktrap_communities
from ..graph.mvrg import MultivariateRelationshipGraph
from ..graph.ranges import ScoreRange
from ..graph.subgraphs import (
    SubgraphStats,
    global_subgraph,
    local_subgraph,
    popular_sensors,
    subgraph_statistics,
)
from ..lang.events import MultivariateEventLog
from ..lang.windows import num_windows
from ..obs import MetricsRegistry
from .artifacts import ArtifactStore
from .config import FrameworkConfig
from .stages.detect import DetectStage

__all__ = ["AnalyticsFramework"]


class AnalyticsFramework:
    """Knowledge discovery and anomaly detection for discrete sequences."""

    def __init__(self, config: FrameworkConfig | None = None) -> None:
        self.config = config or FrameworkConfig()
        self.graph: MultivariateRelationshipGraph | None = None
        self._detect_stage: DetectStage | None = None
        self._metrics = MetricsRegistry()

    @property
    def metrics(self) -> MetricsRegistry:
        """The framework's metrics registry.

        Every ``fit`` and ``detect`` through this framework reports
        into the same registry — stage timings, cache hit/miss counts,
        pair-training counters and detection gauges — so one
        ``metrics.snapshot()`` (or ``metrics.write_json(path)``)
        describes the whole run.  Created lazily so frameworks pickled
        before the observability layer keep working after
        :func:`~repro.pipeline.persistence.load_framework`.
        """
        registry = self.__dict__.get("_metrics")
        if registry is None:
            registry = MetricsRegistry()
            self._metrics = registry
        return registry

    # ------------------------------------------------------------------
    # Training (Algorithm 1)
    # ------------------------------------------------------------------
    def fit(
        self,
        training_log: MultivariateEventLog,
        development_log: MultivariateEventLog,
        progress: Callable[[str, str, float], None] | None = None,
        n_jobs: int | str | None = None,
        backend: str | None = None,
        cache_dir: "str | Path | ArtifactStore | bool | None" = None,
    ) -> "AnalyticsFramework":
        """Build the relationship graph from normal-operation logs.

        ``n_jobs``/``backend`` override the config's executor settings
        for this fit.  ``cache_dir`` overrides the config's artifact
        cache: a path or :class:`~repro.pipeline.artifacts.ArtifactStore`
        enables content-addressed incremental rebuilds, ``False``
        disables caching even when the config names a cache directory.
        Pairs are saved to the cache as they finish, so rerunning an
        interrupted fit with the same cache resumes it.  The resulting
        :attr:`build_report` records completed, cached, skipped and
        (when ``config.prescreen`` is enabled) pruned pairs.
        """
        self.graph = MultivariateRelationshipGraph.build(
            training_log,
            development_log,
            config=self.config.language,
            engine=self.config.engine,
            nmt_config=self.config.nmt,
            progress=progress,
            n_jobs=self.config.n_jobs if n_jobs is None else n_jobs,
            backend=self.config.executor_backend if backend is None else backend,
            train_engine=getattr(self.config, "train_engine", "looped"),
            cohort_size=getattr(self.config, "train_cohort_size", None),
            store=self._resolve_store(cache_dir),
            representation=getattr(self.config, "representation", "codes"),
            metrics=self.metrics,
            prescreen=self._resolve_prescreen(),
        )
        self._detect_stage = DetectStage(self.graph, self.config, metrics=self.metrics)
        return self

    def _resolve_prescreen(self):
        """The config's prescreen selection as a build argument.

        ``getattr`` defaults keep frameworks pickled before the
        prescreen existed working; an explicit ``prescreen_floor``
        upgrades the method string to a full
        :class:`~repro.graph.prescreen.PrescreenConfig`.
        """
        method = getattr(self.config, "prescreen", "off")
        floor = getattr(self.config, "prescreen_floor", None)
        if method == "off" or floor is None:
            return method
        from ..graph.prescreen import PrescreenConfig

        return PrescreenConfig(method=method, floor=floor)

    def _resolve_store(
        self, cache_dir: "str | Path | ArtifactStore | bool | None"
    ) -> ArtifactStore | None:
        if cache_dir is False:
            return None
        if cache_dir is None or cache_dir is True:
            cache_dir = self.config.cache_dir
        if cache_dir is None:
            return None
        if isinstance(cache_dir, ArtifactStore):
            return cache_dir
        return ArtifactStore(cache_dir)

    @property
    def build_report(self):
        """The last fit's :class:`~repro.pipeline.executor.BuildReport`."""
        return None if self.graph is None else self.graph.build_report

    def _stage(self) -> DetectStage:
        """The detection stage bound to the fitted graph.

        Created lazily so frameworks pickled before the stage-graph
        refactor (which stored a bare detector) keep working after
        :func:`~repro.pipeline.persistence.load_framework`.
        """
        stage = getattr(self, "_detect_stage", None)
        if stage is None:
            stage = DetectStage(self._require_graph(), self.config, metrics=self.metrics)
            self._detect_stage = stage
        return stage

    def _require_graph(self) -> MultivariateRelationshipGraph:
        if self.graph is None:
            raise RuntimeError("framework has not been fitted")
        return self.graph

    # ------------------------------------------------------------------
    # Knowledge discovery (Section II-B)
    # ------------------------------------------------------------------
    def global_subgraph(self, score_range: ScoreRange | None = None) -> nx.DiGraph:
        """Edges in a BLEU range (default: the detection range)."""
        return global_subgraph(
            self._require_graph(), score_range or self.config.detection_range
        )

    def local_subgraph(self, score_range: ScoreRange | None = None) -> nx.DiGraph:
        """Global subgraph with popular sensors removed."""
        return local_subgraph(
            self.global_subgraph(score_range), self.config.popular_threshold
        )

    def popular_sensors(self, score_range: ScoreRange | None = None) -> list[str]:
        """Critical health-indicator sensors (high in-degree)."""
        return popular_sensors(
            self.global_subgraph(score_range), self.config.popular_threshold
        )

    def clusters(
        self, score_range: ScoreRange | None = None, method: str = "components"
    ) -> list[set[str]]:
        """Sensor clusters in the local subgraph.

        ``method="components"`` reads connected components (Figure 7);
        ``method="walktrap"`` runs random-walk community detection.
        """
        local = self.local_subgraph(score_range)
        if method == "components":
            return connected_component_clusters(local)
        if method == "walktrap":
            return walktrap_communities(local)
        raise ValueError(f"unknown clustering method {method!r}")

    def subgraph_statistics(self) -> list[SubgraphStats]:
        """Table I: per-range subgraph statistics."""
        return subgraph_statistics(
            self._require_graph(),
            self.config.score_ranges,
            self.config.popular_threshold,
        )

    # ------------------------------------------------------------------
    # Anomaly detection (Algorithm 2) and diagnosis
    # ------------------------------------------------------------------
    @property
    def detector(self) -> AnomalyDetector:
        if self.graph is None:
            raise RuntimeError("framework has not been fitted")
        return self._stage().detector_for()

    def detect(
        self, test_log: MultivariateEventLog, score_range: ScoreRange | None = None
    ) -> DetectionResult:
        """Anomaly scores ``a_t`` and alert matrix ``W_t`` for a test log.

        Detectors are memoized per score range and the encrypted test
        corpus is shared across ranges, so sweeping ``score_range``
        over the same log re-encrypts nothing.
        """
        self._require_graph()
        return self._stage().detect(test_log, score_range)

    def diagnose(
        self,
        result: DetectionResult,
        window: int,
        score_range: ScoreRange | None = None,
    ) -> FaultDiagnosis:
        """Fault diagnosis of one detection window on the local subgraph."""
        return diagnose(result, self.local_subgraph(score_range), window)

    # ------------------------------------------------------------------
    def windows_per_sample_count(self, num_samples: int) -> int:
        """How many detection windows a test log of ``num_samples`` yields."""
        lang = self.config.language
        words = num_windows(num_samples, lang.word_size, lang.word_stride)
        return num_windows(words, lang.sentence_length, lang.effective_sentence_stride)
