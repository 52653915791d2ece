"""Tests for framework persistence."""

from __future__ import annotations

import pickle

import numpy as np
import pytest

from repro.pipeline import AnalyticsFramework, load_framework, save_framework


class TestPersistence:
    def test_roundtrip_preserves_graph_and_detection(
        self, fitted_plant_framework, plant_dataset, tmp_path
    ):
        path = save_framework(fitted_plant_framework, tmp_path / "model.pkl")
        loaded = load_framework(path)
        assert loaded.graph.num_edges == fitted_plant_framework.graph.num_edges
        assert loaded.graph.scores() == fitted_plant_framework.graph.scores()
        _, _, test = plant_dataset.split(10, 3)
        original = fitted_plant_framework.detect(test)
        restored = loaded.detect(test)
        np.testing.assert_allclose(original.anomaly_scores, restored.anomaly_scores)

    def test_unfitted_framework_roundtrip(self, tmp_path):
        path = save_framework(AnalyticsFramework(), tmp_path / "empty.pkl")
        loaded = load_framework(path)
        assert loaded.graph is None

    def test_foreign_pickle_rejected(self, tmp_path):
        path = tmp_path / "other.pkl"
        with path.open("wb") as handle:
            pickle.dump({"something": "else"}, handle)
        with pytest.raises(ValueError, match="not a saved analytics framework"):
            load_framework(path)

    def test_wrong_payload_type_rejected(self, tmp_path):
        path = tmp_path / "bad.pkl"
        with path.open("wb") as handle:
            pickle.dump(
                {"format": "repro-analytics-framework-v1", "framework": 42}, handle
            )
        with pytest.raises(ValueError):
            load_framework(path)

    def test_creates_parent_directories(self, tmp_path):
        path = save_framework(AnalyticsFramework(), tmp_path / "a" / "b" / "m.pkl")
        assert path.exists()
