"""Pair-training throughput — batched tensor-program engine vs looped.

Algorithm 1's cost is ``N(N-1)`` seq2seq fits; the looped engine pays
Python-level autograd overhead per model per step, while the batched
engine advances whole cohorts in lockstep through stacked BLAS calls
(see ``repro.translation.batched``).  This bench builds the same
plant-style relationship graph with both engines and records pair
throughput in ``BENCH_train.json`` (schema ``repro-train-v1``),
asserting the batched engine trains pairs at least
``REPRO_BENCH_TRAIN_MIN_SPEEDUP``x (default 4x) faster while producing
the same valid-pair set and edge weights.

Knobs: ``REPRO_BENCH_TRAIN_SENSORS`` (plant size, default 8),
``REPRO_BENCH_TRAIN_STEPS`` (per-pair step budget, default 80),
``REPRO_BENCH_TRAIN_COHORT`` (cohort size, default 64).
"""

from __future__ import annotations

import json
import os
from pathlib import Path

import numpy as np
import pytest

from repro.datasets import PlantConfig, generate_plant_dataset
from repro.graph import MultivariateRelationshipGraph
from repro.lang import LanguageConfig
from repro.pipeline import FrameworkConfig
from repro.translation.seq2seq import NMTConfig

BENCH_SCHEMA = "repro-train-v1"
BENCH_PATH = Path(__file__).resolve().parent.parent / "BENCH_train.json"

NUM_SENSORS = int(os.environ.get("REPRO_BENCH_TRAIN_SENSORS", "8"))
TRAINING_STEPS = int(os.environ.get("REPRO_BENCH_TRAIN_STEPS", "80"))
COHORT_SIZE = int(os.environ.get("REPRO_BENCH_TRAIN_COHORT", "64"))
MIN_SPEEDUP = float(os.environ.get("REPRO_BENCH_TRAIN_MIN_SPEEDUP", "4.0"))

LANG = LanguageConfig(word_size=6, word_stride=1, sentence_length=8, sentence_stride=8)


def _nmt() -> NMTConfig:
    base = NMTConfig.small(seed=0)
    return NMTConfig(**{**base.__dict__, "training_steps": TRAINING_STEPS})


def _logs():
    dataset = generate_plant_dataset(
        PlantConfig(
            num_sensors=NUM_SENSORS,
            days=30,
            samples_per_day=96,
            num_components=4,
            seed=7,
        )
    )
    train, dev, _ = dataset.split(10, 3)
    return train, dev


def _build(train, dev, **fields):
    config = FrameworkConfig(language=LANG, engine="seq2seq", nmt=_nmt(), **fields)
    return MultivariateRelationshipGraph.build(train, dev, config)


@pytest.mark.slow
def test_batched_engine_throughput():
    train, dev = _logs()

    looped = _build(train, dev)
    looped_report = looped.build_report
    batched = _build(train, dev, train_engine="batched", train_cohort_size=COHORT_SIZE)
    batched_report = batched.build_report

    assert set(looped.relationships) == set(batched.relationships)
    score_diffs = [
        abs(looped.relationships[pair].score - batched.relationships[pair].score)
        for pair in looped.relationships
    ]
    max_score_diff = max(score_diffs) if score_diffs else 0.0
    assert max_score_diff == 0.0, max_score_diff

    pairs = len(looped_report.completed)
    assert pairs == len(batched_report.completed) > 0
    looped_rate = pairs / looped_report.wall_seconds
    batched_rate = pairs / batched_report.wall_seconds
    speedup = batched_rate / looped_rate

    payload = {
        "schema": BENCH_SCHEMA,
        "benchmark": "train_engine_throughput",
        "dataset": "seeded-plant",
        "sensors": NUM_SENSORS,
        "pairs": pairs,
        "language_config": {
            "word_size": LANG.word_size,
            "word_stride": LANG.word_stride,
            "sentence_length": LANG.sentence_length,
            "sentence_stride": LANG.sentence_stride,
        },
        "nmt": {
            "training_steps": TRAINING_STEPS,
            "hidden_size": _nmt().hidden_size,
            "embedding_size": _nmt().embedding_size,
            "batch_size": _nmt().batch_size,
        },
        "cohort_size": COHORT_SIZE,
        "looped": {
            "wall_seconds": looped_report.wall_seconds,
            "pairs_per_second": looped_rate,
        },
        "batched": {
            "wall_seconds": batched_report.wall_seconds,
            "pairs_per_second": batched_rate,
            "cohorts": batched_report.cohorts,
        },
        "speedup": speedup,
        "max_score_diff": max_score_diff,
        "pair_sets_identical": True,
    }
    BENCH_PATH.write_text(json.dumps(payload, indent=2) + "\n")
    print(
        f"\npair-train throughput: looped {looped_rate:.2f} pairs/s, "
        f"batched {batched_rate:.2f} pairs/s "
        f"({batched_report.cohorts} cohort(s)) -> {speedup:.1f}x"
    )
    assert speedup >= MIN_SPEEDUP, (
        f"batched engine achieved only {speedup:.2f}x "
        f"(required {MIN_SPEEDUP:.1f}x): {payload}"
    )
