"""Tests for Algorithm 2: anomaly scoring over a testing log."""

from __future__ import annotations

import numpy as np
import pytest

from repro.detection import AnomalyDetector, OnlineAnomalyDetector
from repro.graph import PairwiseRelationship, ScoreRange


class TestValidPairs:
    def test_pairs_filtered_by_range(self, fitted_plant_framework):
        graph = fitted_plant_framework.graph
        detector = AnomalyDetector(graph, ScoreRange(80, 90))
        for source, target in detector.valid_pairs():
            assert 80 <= graph.score(source, target) < 90

    def test_pairs_restricted_to_available_sensors(self, fitted_plant_framework):
        graph = fitted_plant_framework.graph
        detector = AnomalyDetector(graph, ScoreRange(0, 100, inclusive_high=True))
        subset = graph.sensors[:3]
        pairs = detector.valid_pairs(subset)
        assert all(s in subset and t in subset for s, t in pairs)

    def test_zero_score_pair_is_never_a_valid_edge(self, fitted_plant_framework):
        """Regression: a pair whose dev BLEU is exactly 0.0 (e.g. an
        empty/degenerate dev corpus) must not enter Algorithm 2's
        broken-pair ratio even when the score range starts at 0."""
        import copy

        graph = copy.copy(fitted_plant_framework.graph)
        graph.relationships = dict(graph.relationships)
        graph.relationships[("zX", "zY")] = PairwiseRelationship(
            source="zX", target="zY", model=None, score=0.0
        )
        detector = AnomalyDetector(graph, ScoreRange(0, 100, inclusive_high=True))
        pairs = detector.valid_pairs()
        assert ("zX", "zY") not in pairs
        assert pairs  # the real pairs are unaffected

    def test_zero_score_pair_does_not_dilute_anomaly_ratio(
        self, fitted_plant_framework, plant_dataset
    ):
        import copy

        _, _, test = plant_dataset.split(10, 3)
        score_range = ScoreRange(0, 100, inclusive_high=True)
        baseline = AnomalyDetector(fitted_plant_framework.graph, score_range).detect(test)

        graph = copy.copy(fitted_plant_framework.graph)
        graph.relationships = dict(graph.relationships)
        degenerate = next(iter(graph.relationships))
        rel = graph.relationships[degenerate]
        graph.relationships[degenerate] = PairwiseRelationship(
            source=rel.source, target=rel.target, model=rel.model, score=0.0
        )
        result = AnomalyDetector(graph, score_range).detect(test)
        assert degenerate not in result.valid_pairs
        assert result.num_valid_pairs == baseline.num_valid_pairs - 1

    def test_empty_range_raises_on_detect(self, fitted_plant_framework, plant_dataset):
        _, _, test = plant_dataset.split(10, 3)
        graph = fitted_plant_framework.graph
        # A range guaranteed empty: scores are never negative.
        empty_range = ScoreRange(0, 1e-9)
        detector = AnomalyDetector(graph, empty_range)
        with pytest.raises(ValueError, match="no valid pair models"):
            detector.detect(test)


class TestDetectionResult:
    def test_scores_bounded_zero_one(self, plant_detection):
        scores = plant_detection.anomaly_scores
        assert (scores >= 0).all() and (scores <= 1).all()

    def test_score_equals_broken_fraction(self, plant_detection):
        result = plant_detection
        for window in range(0, result.num_windows, 17):
            broken = len(result.broken_pairs(window))
            expected = broken / result.num_valid_pairs
            assert result.anomaly_scores[window] == pytest.approx(expected)

    def test_alert_matrix_shape(self, plant_detection):
        result = plant_detection
        assert result.alerts.shape == (result.num_windows, result.num_valid_pairs)
        assert result.test_scores.shape == result.alerts.shape

    def test_alerts_consistent_with_thresholds(self, fitted_plant_framework, plant_dataset):
        _, _, test = plant_dataset.split(10, 3)
        detector = AnomalyDetector(
            fitted_plant_framework.graph,
            fitted_plant_framework.config.detection_range,
            threshold="train",
        )
        result = detector.detect(test)
        expected = result.test_scores < result.training_scores[None, :]
        np.testing.assert_array_equal(result.alerts, expected)

    def test_anomalous_windows_threshold(self, plant_detection):
        windows = plant_detection.anomalous_windows(0.5)
        for w in windows:
            assert plant_detection.anomaly_scores[w] >= 0.5

    def test_max_score(self, plant_detection):
        assert plant_detection.max_score() == plant_detection.anomaly_scores.max()


class TestDetectorValidation:
    def test_negative_margin_rejected(self, fitted_plant_framework):
        with pytest.raises(ValueError):
            AnomalyDetector(fitted_plant_framework.graph, margin=-1.0)

    def test_bad_threshold_strategy_rejected(self, fitted_plant_framework):
        with pytest.raises(ValueError):
            AnomalyDetector(fitted_plant_framework.graph, threshold="vibes")

    def test_bad_quantile_rejected(self, fitted_plant_framework):
        with pytest.raises(ValueError):
            AnomalyDetector(fitted_plant_framework.graph, quantile=1.5)

    @pytest.mark.parametrize(
        "bad",
        [{"margin": -1.0}, {"threshold": "vibes"}, {"quantile": 1.5}],
        ids=["margin", "threshold", "quantile"],
    )
    def test_online_detector_raises_the_same_errors(self, fitted_plant_framework, bad):
        graph = fitted_plant_framework.graph
        with pytest.raises(ValueError) as batch_error:
            AnomalyDetector(graph, **bad)
        with pytest.raises(ValueError) as online_error:
            OnlineAnomalyDetector(graph, **bad)
        assert str(online_error.value) == str(batch_error.value)

    @pytest.mark.parametrize("detector", [AnomalyDetector, OnlineAnomalyDetector])
    def test_threshold_arguments_are_keyword_only(self, fitted_plant_framework, detector):
        r = fitted_plant_framework.config.detection_range
        with pytest.raises(TypeError):
            detector(fitted_plant_framework.graph, r, 0.0)

    def test_short_test_log_rejected(self, fitted_plant_framework, plant_dataset):
        tiny = plant_dataset.log.slice(0, 3)
        with pytest.raises(ValueError, match="too short"):
            fitted_plant_framework.detector.detect(tiny)


class TestDetectionQuality:
    def test_anomaly_days_score_above_normal_days(
        self, fitted_plant_framework, plant_dataset, plant_detection
    ):
        """The injected anomalies dominate the anomaly-score timeline."""
        config = fitted_plant_framework.config.language
        per_day_max: dict[int, float] = {}
        spd = plant_dataset.config.samples_per_day
        for window in range(plant_detection.num_windows):
            start = window * config.effective_sentence_stride * config.word_stride
            day = 14 + start // spd
            score = plant_detection.anomaly_scores[window]
            per_day_max[day] = max(per_day_max.get(day, 0.0), score)
        anomaly_peak = min(per_day_max[d] for d in (21, 28))
        normal_days = [
            d for d in per_day_max
            if d not in plant_dataset.anomaly_days and d not in plant_dataset.precursor_days
        ]
        normal_peak = max(per_day_max[d] for d in normal_days)
        assert anomaly_peak > normal_peak

    def test_margin_reduces_alerts(self, fitted_plant_framework, plant_dataset):
        _, _, test = plant_dataset.split(10, 3)
        graph = fitted_plant_framework.graph
        r = fitted_plant_framework.config.detection_range
        strict = AnomalyDetector(graph, r, margin=0.0).detect(test)
        slack = AnomalyDetector(graph, r, margin=20.0).detect(test)
        assert slack.alerts.sum() <= strict.alerts.sum()

    def test_dev_min_threshold_quieter_than_train(
        self, fitted_plant_framework, plant_dataset
    ):
        _, _, test = plant_dataset.split(10, 3)
        graph = fitted_plant_framework.graph
        r = fitted_plant_framework.config.detection_range
        train_alerts = AnomalyDetector(graph, r, threshold="train").detect(test)
        devmin_alerts = AnomalyDetector(graph, r, threshold="dev-min").detect(test)
        assert devmin_alerts.alerts.sum() <= train_alerts.alerts.sum()
