"""Integration tests: metrics flow through the pipeline layers.

One registry owned by the framework must end up holding stage timings,
artifact-store hit/miss counts, pair-training counters (merged out of
the executor) and detection gauges — and a warm-cache rebuild must
prove itself via ``pair_train.trained == 0`` in the snapshot.
"""

from __future__ import annotations

import threading

import pytest

from repro.graph import MultivariateRelationshipGraph, ScoreRange
from repro.lang import LanguageConfig
from repro.obs import SNAPSHOT_SCHEMA, MetricsRegistry
from repro.pipeline import AnalyticsFramework, FrameworkConfig, PairExecutor
from repro.pipeline.persistence import load_framework, save_framework
from repro.translation.ngram import NGramTranslator

FULL_RANGE = ScoreRange(0, 100, inclusive_high=True)


def make_framework(cache_dir=None):
    return AnalyticsFramework(
        FrameworkConfig(
            language=LanguageConfig(
                word_size=4, word_stride=1, sentence_length=5, sentence_stride=5
            ),
            detection_range=FULL_RANGE,
            popular_threshold=10,
            cache_dir=cache_dir,
        )
    )


@pytest.fixture(scope="module")
def small_log(executor_log):
    return executor_log.select(["sA", "sB", "sC"])


class TestFitMetrics:
    def test_fit_records_stage_executor_and_store_metrics(self, small_log, tmp_path):
        framework = make_framework(cache_dir=tmp_path / "cache")
        framework.fit(small_log.slice(0, 360), small_log.slice(360, 480))
        snapshot = framework.metrics.snapshot()
        assert snapshot["schema"] == SNAPSHOT_SCHEMA
        metrics = snapshot["metrics"]

        for stage in ("encrypt", "corpus", "pair-train", "graph-assemble"):
            assert metrics[f"stage.{stage}.runs"]["value"] == 1
            assert metrics[f"stage.{stage}.seconds"]["count"] == 1

        trained = len(framework.build_report.completed)
        assert trained == 6
        assert metrics["pair_train.trained"]["value"] == trained
        assert metrics["pair_train.cached"]["value"] == 0
        assert metrics["pair_train.retries"]["value"] == 0
        assert metrics["pair_train.skipped"]["value"] == 0
        assert metrics["pair_train.train_seconds"]["count"] == trained
        assert metrics["pair_train.eval_seconds"]["count"] == trained
        assert metrics["pair_train.wall_seconds"]["count"] == 1

        # Cold cache: every pair lookup missed, every artifact written.
        assert metrics["store.misses"]["value"] >= trained
        assert metrics["store.writes"]["value"] >= trained

    def test_warm_rebuild_trains_zero_pairs(self, small_log, tmp_path):
        cache = tmp_path / "cache"
        make_framework(cache_dir=cache).fit(
            small_log.slice(0, 360), small_log.slice(360, 480)
        )

        warm = make_framework(cache_dir=cache)
        warm.fit(small_log.slice(0, 360), small_log.slice(360, 480))
        metrics = warm.metrics.snapshot()["metrics"]
        # The acceptance check: the warm snapshot *contains* the counter
        # and it reads zero — caching proves itself in the metrics.
        assert metrics["pair_train.trained"]["value"] == 0
        assert metrics["pair_train.cached"]["value"] == 6
        assert metrics["store.hits"]["value"] >= 6
        assert len(warm.build_report.cached) == 6

    def test_build_accepts_caller_registry(self, small_log):
        registry = MetricsRegistry()
        MultivariateRelationshipGraph.build(
            small_log.slice(0, 360),
            small_log.slice(360, 480),
            FrameworkConfig(
                language=LanguageConfig(
                    word_size=4, word_stride=1, sentence_length=5, sentence_stride=5
                )
            ),
            metrics=registry,
        )
        assert registry.value("pair_train.trained") == 6
        assert registry.value("stage.corpus.runs") == 1


class TestDetectMetrics:
    def test_detect_records_into_framework_registry(self, small_log):
        framework = make_framework()
        framework.fit(small_log.slice(0, 360), small_log.slice(360, 480))
        result = framework.detect(small_log.slice(240, 480))
        metrics = framework.metrics.snapshot()["metrics"]

        assert metrics["detect.runs"]["value"] == 1
        assert metrics["detect.windows_scored"]["value"] == result.num_windows
        assert metrics["detect.pairs_evaluated"]["value"] == result.num_valid_pairs
        assert metrics["detect.pair_windows_broken"]["value"] == int(result.alerts.sum())
        assert metrics["detect.valid_pairs"]["value"] == result.num_valid_pairs
        assert metrics["detect.pair_seconds"]["count"] == result.num_valid_pairs
        assert metrics["detect.seconds"]["count"] == 1
        assert metrics["stage.detect.runs"]["value"] == 1
        assert 0.0 <= metrics["detect.broken_pair_rate"]["value"] <= 1.0
        assert metrics["detect.seconds_per_window"]["value"] > 0.0

    def test_online_detector_records_serving_metrics(self, small_log):
        from repro.detection import OnlineAnomalyDetector

        framework = make_framework()
        framework.fit(small_log.slice(0, 360), small_log.slice(360, 480))
        registry = MetricsRegistry()
        online = OnlineAnomalyDetector(
            framework.graph, FULL_RANGE, metrics=registry
        )
        test = small_log.slice(240, 480)
        pushed = online.window_span + 3 * online.window_stride
        emitted = []
        for t in range(pushed):
            emitted.extend(
                online.push({name: test[name].events[t] for name in test.sensors})
            )

        assert registry.value("online.samples_ingested") == pushed
        assert registry.value("online.windows_scored") == len(emitted)
        assert registry.value("online.pairs_evaluated") == len(emitted) * len(
            online.valid_pairs()
        )
        assert registry.value("online.valid_pairs") == len(online.valid_pairs())
        assert registry.histogram("online.window_seconds").count == len(emitted)


class FlakyThenOk:
    """Model factory whose models fail their first fit per pair."""

    def __init__(self) -> None:
        self.failed: set[tuple[str, str]] = set()
        self._lock = threading.Lock()

    def __call__(self):
        factory = self

        class _Model(NGramTranslator):
            def fit(self, corpus):
                pair = (corpus.source_sensor, corpus.target_sensor)
                with factory._lock:
                    first_attempt = pair not in factory.failed
                    factory.failed.add(pair)
                if first_attempt:
                    raise RuntimeError("transient failure")
                return super().fit(corpus)

        return _Model()


class AlwaysFailsFor:
    """Factory whose models refuse to fit pairs from one source sensor."""

    def __init__(self, source: str) -> None:
        self.source = source

    def __call__(self):
        doomed = self.source

        class _Model(NGramTranslator):
            def fit(self, corpus):
                if corpus.source_sensor == doomed:
                    raise RuntimeError("permanently broken")
                return super().fit(corpus)

        return _Model()


class TestExecutorFailureMetrics:
    def test_retries_counted_and_merged(self, small_log):
        registry = MetricsRegistry()
        graph = MultivariateRelationshipGraph.build(
            small_log.slice(0, 360),
            small_log.slice(360, 480),
            FrameworkConfig(
                language=LanguageConfig(
                    word_size=4, word_stride=1, sentence_length=5, sentence_stride=5
                )
            ),
            model_factory=FlakyThenOk(),
            metrics=registry,
        )
        assert graph.build_report.ok
        assert registry.value("pair_train.retries") == 6
        assert registry.value("pair_train.trained") == 6
        assert registry.value("pair_train.skipped") == 0

    def test_skips_counted_and_merged(self, small_log):
        registry = MetricsRegistry()
        graph = MultivariateRelationshipGraph.build(
            small_log.slice(0, 360),
            small_log.slice(360, 480),
            FrameworkConfig(
                language=LanguageConfig(
                    word_size=4, word_stride=1, sentence_length=5, sentence_stride=5
                )
            ),
            model_factory=AlwaysFailsFor("sA"),
            metrics=registry,
        )
        assert len(graph.build_report.skipped) == 2  # sA->sB, sA->sC
        assert registry.value("pair_train.skipped") == 2
        assert registry.value("pair_train.retries") == 2
        assert registry.value("pair_train.trained") == 4

    def test_executor_without_registry_still_runs(self):
        executor = PairExecutor()
        results, report = executor.run([], ("engine", "ngram", None))
        assert results == {} and report.ok


class TestPersistenceCompat:
    def test_saved_framework_round_trips_with_metrics(self, small_log, tmp_path):
        framework = make_framework()
        framework.fit(small_log.slice(0, 360), small_log.slice(360, 480))
        path = save_framework(framework, tmp_path / "model.pkl")

        restored = load_framework(path)
        result = restored.detect(small_log.slice(240, 480))
        assert restored.metrics.value("detect.runs") == 1
        assert result.num_windows > 0

    def test_pre_observability_pickles_get_lazy_registry(self, small_log):
        framework = make_framework()
        framework.fit(small_log.slice(0, 360), small_log.slice(360, 480))
        # Simulate a framework saved before this PR: no registry attribute.
        framework.__dict__.pop("_metrics", None)
        registry = framework.metrics
        assert isinstance(registry, MetricsRegistry)
        assert framework.metrics is registry
