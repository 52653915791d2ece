"""Pipeline wiring of the batched pair-training engine.

Covers the ``batched`` executor backend, the ``train_engine`` /
``train_cohort_size`` configuration knobs, cache sharing between the
looped and batched engines, metric emission and the refusal of
non-seq2seq engines.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.graph import MultivariateRelationshipGraph
from repro.lang import LanguageConfig, MultivariateEventLog
from repro.obs import MetricsRegistry
from repro.pipeline import AnalyticsFramework, FrameworkConfig, PairExecutor
from repro.translation.ngram import NGramTranslator
from repro.translation.seq2seq import NMTConfig

LANG = LanguageConfig(word_size=4, word_stride=1, sentence_length=5, sentence_stride=5)


def _nmt(**overrides) -> NMTConfig:
    base = NMTConfig.small(seed=0)
    values = {**base.__dict__, "training_steps": 10, "hidden_size": 10, "embedding_size": 8}
    values.update(overrides)
    return NMTConfig(**values)


@pytest.fixture(scope="module")
def logs():
    rng = np.random.default_rng(5)
    total = 480
    a = [("ON" if (t // 6) % 2 == 0 else "OFF") for t in range(total)]
    b = ["OFF"] + a[:-1]
    c = [str(rng.integers(0, 2)) for _ in range(total)]
    log = MultivariateEventLog.from_mapping({"sA": a, "sB": b, "sC": c})
    return log.slice(0, 300), log.slice(300, 480)


def _build(logs, store=None, metrics=None, **fields):
    train, dev = logs
    config = FrameworkConfig(language=LANG, engine="seq2seq", nmt=_nmt(), **fields)
    return MultivariateRelationshipGraph.build(
        train, dev, config, store=store, metrics=metrics
    )


class TestBatchedBuild:
    def test_same_graph_as_looped(self, logs):
        looped = _build(logs)
        metrics = MetricsRegistry()
        batched = _build(
            logs, train_engine="batched", train_cohort_size=4, metrics=metrics
        )

        assert set(looped.relationships) == set(batched.relationships)
        for pair, relationship in looped.relationships.items():
            other = batched.relationships[pair]
            # Cohorts are grouped by corpus shape *and* vocabulary
            # widths, so pipeline builds are bit-identical to looped.
            assert relationship.score == other.score
            np.testing.assert_array_equal(
                relationship.dev_sentence_scores, other.dev_sentence_scores
            )
        report = batched.build_report
        assert report.backend == "batched"
        assert report.cohorts >= 1
        assert len(report.completed) == 6
        assert metrics.value("train.cohorts") == report.cohorts
        assert "cohorts" in report.to_dict()

    def test_cohort_size_one_still_works(self, logs):
        graph = _build(logs, train_engine="batched", train_cohort_size=1)
        assert graph.build_report.cohorts == 6
        assert len(graph.build_report.completed) == 6

    def test_shares_artifact_cache_with_looped(self, logs, tmp_path):
        # Caching keys ignore the executor, so a batched build can
        # restore everything a looped build trained (and vice versa).
        _build(logs, store=str(tmp_path / "cache"))
        rebuilt = _build(
            logs, store=str(tmp_path / "cache"), train_engine="batched"
        )
        assert len(rebuilt.build_report.cached) == 6
        assert not rebuilt.build_report.completed

    def test_rejects_non_seq2seq_engines(self, logs):
        train, dev = logs
        with pytest.raises(ValueError, match="batched"):
            MultivariateRelationshipGraph.build(
                train,
                dev,
                FrameworkConfig(language=LANG, engine="ngram", train_engine="batched"),
            )
        with pytest.raises(ValueError, match="train engine"):
            _build(logs, train_engine="vectorised")
        with pytest.raises(ValueError, match="model_factory"):
            MultivariateRelationshipGraph.build(
                train,
                dev,
                FrameworkConfig(language=LANG, engine="seq2seq", train_engine="batched"),
                model_factory=NGramTranslator,
            )


class TestExecutorBackend:
    def test_backend_resolution(self):
        executor = PairExecutor(backend="batched")
        assert executor.resolve_backend(("engine", "seq2seq", None)) == "batched"
        # Non-seq2seq specs are refused rather than trained looped.
        with pytest.raises(ValueError, match="seq2seq"):
            executor.resolve_backend(("engine", "ngram", None))

    def test_rejects_bad_cohort_size(self):
        with pytest.raises(ValueError, match="cohort_size"):
            PairExecutor(backend="batched", cohort_size=0)


class TestFrameworkConfig:
    def test_defaults_to_looped(self):
        assert FrameworkConfig().train_engine == "looped"

    def test_batched_requires_seq2seq(self):
        with pytest.raises(ValueError, match="seq2seq"):
            FrameworkConfig(train_engine="batched")
        config = FrameworkConfig(engine="seq2seq", train_engine="batched")
        assert config.train_cohort_size is None

    def test_validates_knobs(self):
        with pytest.raises(ValueError, match="train engine"):
            FrameworkConfig(train_engine="turbo")
        with pytest.raises(ValueError, match="translation engine"):
            FrameworkConfig(engine="bogus")
        with pytest.raises(ValueError, match="train_cohort_size"):
            FrameworkConfig(
                engine="seq2seq", train_engine="batched", train_cohort_size=0
            )

    def test_batched_is_selected_by_train_engine_only(self):
        # The executor's "batched" backend is reached only through
        # train_engine; naming it as the executor backend is an error
        # for every engine instead of a silent batched or serial build.
        for engine in ("seq2seq", "ngram"):
            with pytest.raises(ValueError, match="train_engine='batched'"):
                FrameworkConfig(engine=engine, executor_backend="batched")
        for backend in ("auto", "serial", "thread", "process"):
            assert FrameworkConfig(executor_backend=backend).executor_backend == backend

    def test_framework_fit_uses_batched_engine(self, logs):
        train, dev = logs
        config = FrameworkConfig(
            language=LANG,
            engine="seq2seq",
            nmt=_nmt(),
            train_engine="batched",
            train_cohort_size=4,
        )
        framework = AnalyticsFramework(config).fit(train, dev)
        assert framework.build_report.backend == "batched"
        assert framework.build_report.cohorts >= 1

    def test_looped_config_never_trains_batched(self, logs):
        # The config is the only engine selector: fit has no per-call
        # backend override that could switch a looped build to batched.
        train, dev = logs
        config = FrameworkConfig(
            language=LANG, engine="seq2seq", nmt=_nmt(), train_engine="looped"
        )
        framework = AnalyticsFramework(config)
        with pytest.raises(TypeError):
            framework.fit(train, dev, backend="batched")
        framework.fit(train, dev)
        assert framework.build_report.backend != "batched"
        assert framework.build_report.cohorts == 0

    def test_build_rejects_a_language_config(self, logs):
        train, dev = logs
        with pytest.raises(TypeError, match="FrameworkConfig"):
            MultivariateRelationshipGraph.build(train, dev, config=LANG)
