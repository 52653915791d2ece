"""Prescreen scaling — trained-model count and wall-clock vs. fleet size.

Algorithm 1 trains all ``N(N-1)`` ordered pair models, so the build is
quadratic in sensor count no matter how weakly coupled the fleet is.
The affinity prescreen spends a vectorised sub-quadratic pass to drop
pairs that cannot reach an informative BLEU range before any model is
trained.  This bench builds the relationship graph over a noisy plant
(the loosely coupled regime the prescreen exists for) at a ladder of
sensor counts, with and without the prescreen, and records both arms'
trained-model counts and wall-clock in ``BENCH_pairs.json``.

Asserted invariants, also re-checked by CI on the small ladder:

- the prescreen arm trains strictly fewer models at every size;
- at ``N >= 40`` the reduction is at least :data:`MIN_REDUCTION_AT_40`;
- surviving edges carry bit-identical scores to the full build.

``REPRO_BENCH_PRESCREEN_SIZES`` (comma-separated sensor counts)
overrides the ladder; CI uses ``20`` to keep the job fast.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path

from repro.datasets import PlantConfig, generate_plant_dataset
from repro.graph import MultivariateRelationshipGraph
from repro.graph.prescreen import CONTEXT_ORDER, DEFAULT_FLOORS
from repro.lang import LanguageConfig
from repro.pipeline import FrameworkConfig

BENCH_PATH = Path(__file__).resolve().parent.parent / "BENCH_pairs.json"
BENCH_SCHEMA = "repro-prescreen-scaling-v1"

DEFAULT_SIZES = (10, 20, 40, 80)

#: Acceptance bar: at 40 sensors the prescreen must train at most half
#: the models of the full build.
MIN_REDUCTION_AT_40 = 2.0

#: Elevated flip noise thins the relationship graph the way a real,
#: loosely coupled fleet is thin; the default near-deterministic plant
#: is close to fully connected and leaves nothing for a *sound*
#: prescreen to prune.
NOISE_RATE = 0.12

LANGUAGE = LanguageConfig(
    word_size=6, word_stride=1, sentence_length=8, sentence_stride=8
)


def bench_sizes() -> tuple[int, ...]:
    override = os.environ.get("REPRO_BENCH_PRESCREEN_SIZES")
    if not override:
        return DEFAULT_SIZES
    return tuple(int(part) for part in override.split(",") if part.strip())


def plant_split(num_sensors: int):
    config = PlantConfig(
        num_sensors=num_sensors,
        days=14,
        samples_per_day=96,
        num_components=max(2, num_sensors // 4),
        noise_rate=NOISE_RATE,
        seed=7,
        anomaly_days=(13,),
        precursor_days=(12,),
    )
    train, dev, _ = generate_plant_dataset(config).split(7, 3)
    return train, dev


def timed_build(train, dev, prescreen):
    start = time.perf_counter()
    graph = MultivariateRelationshipGraph.build(
        train, dev, FrameworkConfig(language=LANGUAGE, engine="ngram", prescreen=prescreen)
    )
    return time.perf_counter() - start, graph


def test_prescreen_reduces_trained_models_and_writes_bench():
    sizes = []
    for num_sensors in bench_sizes():
        train, dev = plant_split(num_sensors)
        full_wall, full = timed_build(train, dev, prescreen="off")
        pruned_wall, pruned = timed_build(train, dev, prescreen="bleu")

        trained_full = len(full.build_report.completed)
        trained_pruned = len(pruned.build_report.completed)
        reduction = trained_full / max(1, trained_pruned)
        identical = all(
            rel.score == full.relationships[pair].score
            for pair, rel in pruned.relationships.items()
        )
        sizes.append(
            {
                "sensors": num_sensors,
                "pairs": num_sensors * (num_sensors - 1),
                "no_prune": {
                    "trained_models": trained_full,
                    "wall_seconds": full_wall,
                },
                "prescreen": {
                    "trained_models": trained_pruned,
                    "pruned_pairs": len(pruned.build_report.pruned),
                    "wall_seconds": pruned_wall,
                    "prescreen_seconds": pruned.prescreen.seconds,
                },
                "reduction": reduction,
                "kept_scores_identical": identical,
            }
        )
        print(
            f"\nN={num_sensors}: full {trained_full} models {full_wall:.1f}s | "
            f"prescreen {trained_pruned} models {pruned_wall:.1f}s "
            f"({reduction:.2f}x fewer)"
        )

        assert identical
        assert trained_pruned < trained_full
        if num_sensors >= 40:
            assert reduction >= MIN_REDUCTION_AT_40

    payload = {
        "schema": BENCH_SCHEMA,
        "benchmark": "prescreen_pair_scaling",
        "dataset": "seeded-plant",
        "noise_rate": NOISE_RATE,
        "train_days": 7,
        "dev_days": 3,
        "samples_per_day": 96,
        "language_config": {
            "word_size": LANGUAGE.word_size,
            "word_stride": LANGUAGE.word_stride,
            "sentence_length": LANGUAGE.sentence_length,
            "sentence_stride": LANGUAGE.sentence_stride,
        },
        "prescreen": {
            "method": "bleu",
            "max_order": CONTEXT_ORDER,
            "floor": DEFAULT_FLOORS["bleu"],
        },
        "sizes": sizes,
    }
    BENCH_PATH.write_text(json.dumps(payload, indent=2) + "\n")
