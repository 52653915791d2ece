"""Ablation — redundant-sensor filtering (Section III-A2).

Paper: "many sensors actually share similar event sequences.  If
redundant sensors are further filtered out, then models are trained on
representative sensors only and training time reduces significantly."

Reproduction: group near-duplicate sensors on the plant training log,
build the graph over representatives only, and measure the model-count
and wall-clock reduction; verify the representative graph preserves the
strong-pair structure.
"""

from __future__ import annotations

import time

import numpy as np

from conftest import plant_framework_config, run_once
from repro.graph import MultivariateRelationshipGraph, find_redundant_sensors
from repro.report import ascii_table


def test_ablation_redundancy_filtering(benchmark, plant_dataset, plant_study):
    config = plant_framework_config()
    train, dev, _ = plant_dataset.split(plant_study.train_days, plant_study.dev_days)

    def regenerate():
        groups = find_redundant_sensors(train, similarity=0.95)
        representatives = [
            name for name in groups.representatives
            if not train[name].is_constant()
        ]
        start = time.perf_counter()
        reduced_graph = MultivariateRelationshipGraph.build(
            train.select(representatives),
            dev.select(representatives),
            config,
        )
        reduced_seconds = time.perf_counter() - start
        return groups, reduced_graph, reduced_seconds

    groups, reduced_graph, reduced_seconds = run_once(benchmark, regenerate)
    full_graph = plant_study.framework.graph
    full_seconds = sum(full_graph.runtimes())

    rows = [
        {
            "configuration": "all sensors (paper default)",
            "sensors": len(full_graph.sensors),
            "pair models": full_graph.num_edges,
            "train+score seconds": f"{full_seconds:.2f}",
        },
        {
            "configuration": "representatives only",
            "sensors": len(reduced_graph.sensors),
            "pair models": reduced_graph.num_edges,
            "train+score seconds": f"{reduced_seconds:.2f}",
        },
    ]
    print("\n" + ascii_table(rows, title="Ablation — redundant-sensor filtering"))
    print(
        f"redundant sensors: {groups.num_redundant}; "
        f"model-count reduction factor {groups.reduction_factor():.2f}x"
    )

    # The filter only ever shrinks the problem.
    assert reduced_graph.num_edges <= full_graph.num_edges
    # Strong relationships survive: the reduced graph still contains
    # high-BLEU pairs.
    reduced_scores = np.asarray(list(reduced_graph.scores().values()))
    if reduced_scores.size:
        assert reduced_scores.max() > 60
