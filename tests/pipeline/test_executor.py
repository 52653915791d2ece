"""Determinism, fault-tolerance and resume tests for the pair executor.

The headline correctness requirement of the parallel Algorithm 1 build:
results arrive out of completion order and workers carry their own RNG
state, yet serial and parallel builds must produce identical edge
scores, graphs and anomaly decisions.
"""

from __future__ import annotations

import pickle
import threading

import numpy as np
import pytest

from repro.detection import AnomalyDetector
from repro.graph import MultivariateRelationshipGraph, ScoreRange
from repro.pipeline import ArtifactStore, FrameworkConfig, PairExecutor
from repro.translation.ngram import NGramTranslator
from repro.translation.seq2seq import NMTConfig

FULL_RANGE = ScoreRange(0, 100, inclusive_high=True)


def build_graph(
    log, language, model_factory=None, pairs=None, progress=None, store=None, **fields
):
    """Build over the log's first 360/next 120 samples; ``fields`` go to
    the :class:`FrameworkConfig`."""
    train = log.slice(0, 360)
    dev = log.slice(360, 480)
    return MultivariateRelationshipGraph.build(
        train,
        dev,
        FrameworkConfig(language=language, **fields),
        model_factory=model_factory,
        pairs=pairs,
        progress=progress,
        store=store,
    )


def detect_scores(graph, log):
    detector = AnomalyDetector(graph, FULL_RANGE)
    return detector.detect(log.slice(240, 480)).anomaly_scores


class CountingFactory:
    """Thread-safe factory counting how many models were instantiated."""

    def __init__(self) -> None:
        self.calls = 0
        self._lock = threading.Lock()

    def __call__(self) -> NGramTranslator:
        with self._lock:
            self.calls += 1
        return NGramTranslator()


class CachedCountingFactory(CountingFactory):
    """Counting factory that opts into artifact caching via cache_token."""

    cache_token = "ngram-default"


class KillAfter(CachedCountingFactory):
    """Cached factory simulating a killed build: interrupts after ``k`` pairs."""

    def __init__(self, k: int) -> None:
        super().__init__()
        self.k = k

    def __call__(self) -> NGramTranslator:
        with self._lock:
            if self.calls >= self.k:
                raise KeyboardInterrupt
            self.calls += 1
        return NGramTranslator()


class TestSerialParallelEquivalence:
    def test_ngram_scores_byte_identical(self, executor_log, executor_language_config):
        serial = build_graph(executor_log, executor_language_config, n_jobs=1)
        parallel = build_graph(
            executor_log, executor_language_config, n_jobs=4, executor_backend="thread"
        )
        assert pickle.dumps(serial.scores()) == pickle.dumps(parallel.scores())
        for pair in serial.relationships:
            np.testing.assert_array_equal(
                serial[pair].dev_sentence_scores, parallel[pair].dev_sentence_scores
            )

    def test_ngram_detection_identical(self, executor_log, executor_language_config):
        serial = build_graph(executor_log, executor_language_config, n_jobs=1)
        parallel = build_graph(
            executor_log, executor_language_config, n_jobs=4, executor_backend="thread"
        )
        np.testing.assert_array_equal(
            detect_scores(serial, executor_log), detect_scores(parallel, executor_log)
        )

    def test_process_backend_matches_serial(self, executor_log, executor_language_config):
        log = executor_log.select(["sA", "sB", "sC"])
        serial = build_graph(log, executor_language_config, n_jobs=1)
        parallel = build_graph(
            log, executor_language_config, n_jobs=2, executor_backend="process"
        )
        assert pickle.dumps(serial.scores()) == pickle.dumps(parallel.scores())

    def test_seq2seq_scores_and_detection_identical(
        self, executor_log, executor_language_config
    ):
        log = executor_log.select(["sA", "sB"])
        nmt = NMTConfig(
            embedding_size=8,
            hidden_size=8,
            num_layers=1,
            dropout=0.0,
            training_steps=10,
            batch_size=4,
            seed=3,
        )
        kwargs = dict(engine="seq2seq", nmt=nmt)
        serial = build_graph(log, executor_language_config, n_jobs=1, **kwargs)
        parallel = build_graph(
            log, executor_language_config, n_jobs=4, executor_backend="thread", **kwargs
        )
        assert pickle.dumps(serial.scores()) == pickle.dumps(parallel.scores())
        np.testing.assert_array_equal(
            detect_scores(serial, log), detect_scores(parallel, log)
        )

    def test_progress_streams_every_pair(self, executor_log, executor_language_config):
        seen: list[tuple[str, str, float]] = []
        graph = build_graph(
            executor_log,
            executor_language_config,
            n_jobs=4,
            executor_backend="thread",
            progress=lambda s, t, score: seen.append((s, t, score)),
        )
        assert {(s, t) for s, t, _ in seen} == set(graph.relationships)
        assert all(score == graph.score(s, t) for s, t, score in seen)

    def test_build_report_attached(self, executor_log, executor_language_config):
        graph = build_graph(
            executor_log, executor_language_config, n_jobs=2, executor_backend="thread"
        )
        report = graph.build_report
        assert report.ok
        assert report.n_jobs == 2 and report.backend == "thread"
        assert sorted(report.completed) == sorted(graph.relationships)
        assert not report.cached and not report.skipped
        assert report.wall_seconds > 0


class TestExecutorConfiguration:
    def test_auto_n_jobs_resolves_to_cpu_count(self):
        import os

        executor = PairExecutor(n_jobs="auto")
        assert executor.n_jobs == (os.cpu_count() or 1)

    @pytest.mark.parametrize("n_jobs", [0, -1, 1.5, "many"])
    def test_bad_n_jobs_rejected(self, n_jobs):
        with pytest.raises(ValueError, match="n_jobs"):
            PairExecutor(n_jobs=n_jobs)

    def test_bad_backend_rejected(self):
        with pytest.raises(ValueError, match="backend"):
            PairExecutor(backend="fibers")

    def test_negative_retries_rejected(self):
        with pytest.raises(ValueError, match="retries"):
            PairExecutor(retries=-1)

    def test_auto_backend_selection(self):
        executor = PairExecutor(n_jobs=4)
        assert executor.resolve_backend(("engine", "ngram", None)) == "thread"
        assert executor.resolve_backend(("engine", "seq2seq", None)) == "process"
        assert executor.resolve_backend(("factory", NGramTranslator)) == "thread"
        assert PairExecutor(n_jobs=1).resolve_backend(("engine", "ngram", None)) == "serial"


class TestKilledBuildResume:
    """A killed cached build keeps every finished pair; a rerun resumes it."""

    @pytest.mark.parametrize("k", [1, 5, 11])
    def test_killed_build_resumes_from_the_store(
        self, executor_log, executor_language_config, tmp_path, k
    ):
        log = executor_log.select(["sA", "sB", "sC", "sD"])  # 12 ordered pairs
        store = ArtifactStore(tmp_path / "cache")
        with pytest.raises(KeyboardInterrupt):
            build_graph(
                log,
                executor_language_config,
                model_factory=KillAfter(k),
                n_jobs=1,
                store=store,
            )
        # Each pair was saved the moment it finished.
        assert len(list(store.keys("pair"))) == k

        counting = CachedCountingFactory()
        resumed = build_graph(
            log,
            executor_language_config,
            model_factory=counting,
            n_jobs=1,
            store=store,
        )
        # No completed pair is retrained.
        assert counting.calls == 12 - k
        assert resumed.build_report.num_trained == 12 - k
        assert len(resumed.build_report.cached) == k

        uninterrupted = build_graph(
            log, executor_language_config, model_factory=CountingFactory(), n_jobs=1
        )
        assert pickle.dumps(resumed.scores()) == pickle.dumps(uninterrupted.scores())
        assert np.array_equal(
            detect_scores(resumed, log), detect_scores(uninterrupted, log)
        )

    def test_interrupted_thread_build_resumes(
        self, executor_log, executor_language_config, tmp_path
    ):
        log = executor_log.select(["sA", "sB", "sC", "sD"])
        store = ArtifactStore(tmp_path / "cache")
        with pytest.raises(KeyboardInterrupt):
            build_graph(
                log,
                executor_language_config,
                model_factory=KillAfter(5),
                n_jobs=2,
                executor_backend="thread",
                store=store,
            )
        stored = len(list(store.keys("pair")))
        resumed = build_graph(
            log,
            executor_language_config,
            model_factory=CachedCountingFactory(),
            n_jobs=2,
            executor_backend="thread",
            store=store,
        )
        report = resumed.build_report
        assert report.num_trained + len(report.cached) == 12
        assert len(report.cached) == stored

    @pytest.mark.parametrize("backend", ["serial", "thread"])
    def test_store_write_error_aborts_the_build(
        self, executor_log, executor_language_config, tmp_path, backend
    ):
        class FullDiskStore(ArtifactStore):
            def save(self, key, payload):
                if key.kind == "pair":
                    raise OSError("no space left on device")
                return super().save(key, payload)

        log = executor_log.select(["sA", "sB", "sC", "sD"])
        counting = CachedCountingFactory()
        with pytest.raises(OSError, match="no space left"):
            build_graph(
                log,
                executor_language_config,
                model_factory=counting,
                n_jobs=1 if backend == "serial" else 2,
                executor_backend=backend,
                store=FullDiskStore(tmp_path / "cache"),
            )
        # Not retried, not degraded to skipped edges (twelve skips would
        # end in "all pair models failed", not the store's OSError).
        if backend == "serial":
            assert counting.calls == 1
        assert counting.calls < 12
