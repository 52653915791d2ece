"""Warm start: a restarting service rebuilds its graph from the artifact
cache and trains no pair model."""

from __future__ import annotations

import itertools
import pickle

from repro.pipeline import AnalyticsFramework, ArtifactStore, FrameworkConfig
from repro.service import warm_start_graph


def test_warm_start_trains_no_pair(executor_log, executor_language_config, tmp_path):
    train = executor_log.slice(0, 360)
    dev = executor_log.slice(360, 480)
    config = FrameworkConfig(language=executor_language_config)
    cold = AnalyticsFramework(config).fit(
        train, dev, cache_dir=ArtifactStore(tmp_path / "cache")
    )
    pairs = sorted(itertools.permutations(train.sensors, 2))
    assert sorted(cold.build_report.completed) == pairs

    # A fresh store over the same directory, as a restarted process sees it.
    graph = warm_start_graph(config, train, dev, ArtifactStore(tmp_path / "cache"))
    report = graph.build_report
    assert report.num_trained == 0
    assert sorted(report.cached) == pairs
    assert pickle.dumps(graph.scores()) == pickle.dumps(cold.graph.scores())
