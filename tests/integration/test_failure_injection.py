"""Failure-injection tests: the pipeline degrades loudly, not silently."""

from __future__ import annotations

import threading
from collections import Counter

import numpy as np
import pytest

from repro.graph import MultivariateRelationshipGraph, ScoreRange
from repro.lang import LanguageConfig, MultivariateEventLog
from repro.pipeline import AnalyticsFramework, FrameworkConfig
from repro.translation.ngram import NGramTranslator


def small_config() -> FrameworkConfig:
    return FrameworkConfig(
        language=LanguageConfig(word_size=4, word_stride=1, sentence_length=5, sentence_stride=5),
        engine="ngram",
        popular_threshold=10,
    )


def healthy_log(total: int) -> MultivariateEventLog:
    rng = np.random.default_rng(1)
    a = [("ON" if (t // 6) % 2 == 0 else "OFF") for t in range(total)]
    b = ["OFF"] + a[:-1]
    return MultivariateEventLog.from_mapping({"sA": a, "sB": b})


class TestTrainingFailures:
    def test_all_constant_training_log_fails_clearly(self):
        log = MultivariateEventLog.from_mapping({"a": ["x"] * 100, "b": ["y"] * 100})
        with pytest.raises(ValueError, match="non-constant sensors"):
            AnalyticsFramework(small_config()).fit(log, log)

    def test_too_short_development_log_rejected(self):
        train = healthy_log(400)
        tiny_dev = healthy_log(6)  # shorter than one sentence
        with pytest.raises(ValueError, match="development log too short"):
            AnalyticsFramework(small_config()).fit(train, tiny_dev)

    def test_development_missing_sensor_rejected(self):
        train = healthy_log(400)
        dev = healthy_log(200).select(["sA"])
        with pytest.raises(KeyError):
            AnalyticsFramework(small_config()).fit(train, dev)


class InjectedFailureFactory:
    """Model factory whose models raise mid-fit for one targeted pair.

    ``fail_attempts`` controls how many consecutive fit attempts on the
    target pair blow up: 1 exercises the executor's retry, a large
    value exhausts it so the pair is recorded as skipped.
    """

    def __init__(self, pair: tuple[str, str], fail_attempts: int) -> None:
        self.pair = pair
        self.fail_attempts = fail_attempts
        self.attempts: Counter = Counter()
        self.lock = threading.Lock()

    def __call__(self) -> NGramTranslator:
        factory = self

        class _Model(NGramTranslator):
            def fit(self, corpus):
                key = (corpus.source_sensor, corpus.target_sensor)
                if key == factory.pair:
                    with factory.lock:
                        factory.attempts[key] += 1
                        if factory.attempts[key] <= factory.fail_attempts:
                            raise RuntimeError("injected mid-fit failure")
                return super().fit(corpus)

        return _Model()


def three_sensor_log(total: int) -> MultivariateEventLog:
    a = [("ON" if (t // 6) % 2 == 0 else "OFF") for t in range(total)]
    return MultivariateEventLog.from_mapping(
        {"sA": a, "sB": ["OFF"] + a[:-1], "sC": ["OFF", "OFF"] + a[:-2]}
    )


class TestPairFailureInjection:
    """Algorithm 1 degrades per pair: retry once, then skip — never abort."""

    def build(self, factory, n_jobs=4):
        return MultivariateRelationshipGraph.build(
            three_sensor_log(400),
            three_sensor_log(200),
            FrameworkConfig(
                language=LanguageConfig(
                    word_size=4, word_stride=1, sentence_length=5, sentence_stride=5
                ),
                n_jobs=n_jobs,
                executor_backend="thread",
            ),
            model_factory=factory,
        )

    def test_transient_failure_is_retried_once_and_recovers(self):
        factory = InjectedFailureFactory(("sA", "sB"), fail_attempts=1)
        graph = self.build(factory)
        assert factory.attempts[("sA", "sB")] == 2  # failed once, retried once
        assert ("sA", "sB") in graph.relationships
        assert graph.build_report.ok
        assert len(graph.relationships) == 6

    def test_persistent_failure_skips_pair_but_completes_others(self):
        factory = InjectedFailureFactory(("sA", "sB"), fail_attempts=99)
        graph = self.build(factory)
        assert factory.attempts[("sA", "sB")] == 2  # one retry, then give up
        assert ("sA", "sB") not in graph.relationships
        assert len(graph.relationships) == 5  # the other pairs still complete

        report = graph.build_report
        assert not report.ok
        [skipped] = report.skipped
        assert skipped.pair == ("sA", "sB")
        assert "injected mid-fit failure" in skipped.error
        assert skipped.attempts == 2
        assert "skipped sA->sB" in report.summary()

    def test_skipped_pair_build_still_detects(self):
        factory = InjectedFailureFactory(("sA", "sB"), fail_attempts=99)
        graph = self.build(factory)
        from repro.detection import AnomalyDetector

        result = AnomalyDetector(graph, ScoreRange(0, 100, inclusive_high=True)).detect(
            three_sensor_log(150)
        )
        assert result.num_windows > 0
        assert ("sA", "sB") not in result.valid_pairs

    def test_every_pair_failing_aborts_loudly(self):
        class _Broken(NGramTranslator):
            def fit(self, corpus):
                raise RuntimeError("injected total failure")

        with pytest.raises(RuntimeError, match="all 2 pair models failed"):
            MultivariateRelationshipGraph.build(
                three_sensor_log(400).select(["sA", "sB"]),
                three_sensor_log(200).select(["sA", "sB"]),
                FrameworkConfig(
                    language=LanguageConfig(
                        word_size=4, word_stride=1, sentence_length=5, sentence_stride=5
                    ),
                    n_jobs=2,
                    executor_backend="thread",
                ),
                model_factory=_Broken,
            )


class TestDetectionFailures:
    @pytest.fixture(scope="class")
    def framework(self):
        return AnalyticsFramework(
            FrameworkConfig(
                language=LanguageConfig(word_size=4, sentence_length=5),
                engine="ngram",
                detection_range=ScoreRange(0, 100, inclusive_high=True),
                popular_threshold=10,
            )
        ).fit(healthy_log(400), healthy_log(200))

    def test_unseen_states_do_not_crash_detection(self, framework):
        """A sensor reporting a brand-new state maps to <unk> and is
        simply a (very) broken relationship, not an exception."""
        corrupted = MultivariateEventLog.from_mapping(
            {
                "sA": ["MELTDOWN"] * 120,
                "sB": ["OFF"] * 120,
            }
        )
        result = framework.detect(corrupted)
        assert result.num_windows > 0
        assert result.anomaly_scores.max() > 0.4  # clearly anomalous

    def test_test_log_with_extra_sensor_is_fine(self, framework):
        log = healthy_log(120)
        extra = MultivariateEventLog.from_mapping(
            {
                "sA": list(log["sA"].events),
                "sB": list(log["sB"].events),
                "sNEW": ["1", "2"] * 60,
            }
        )
        result = framework.detect(extra)  # unknown sensors ignored
        assert result.num_windows > 0

    def test_missing_required_sensor_raises(self, framework):
        """Detection over a log missing a monitored sensor fails with a
        clear error (no pairs remain) rather than returning quietly."""
        log = healthy_log(120).select(["sA"])
        with pytest.raises(ValueError, match="no valid pair models"):
            framework.detect(log)


class TestCsvCorruption:
    def test_ragged_csv_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b\n1,2\n3\n")
        with pytest.raises(ValueError, match="ragged"):
            MultivariateEventLog.from_csv(path)
