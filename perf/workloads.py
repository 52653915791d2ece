"""The four workloads: seeded inputs and the framework settings each runs.

Inputs are plant logs from the repository's own simulator
(:func:`repro.datasets.generate_plant_dataset`), generated from the
benchmark seed and written to ``train.csv``, ``dev.csv`` and
``test.csv``.  The program under test only ever reads those files.
Why each workload exists is recorded in ``BENCHMARK.json`` and
``perf/README.md``.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

WORKLOADS = ("batch-ngram", "fit-nmt", "fit-wide", "serve")
SCALES = ("full", "smoke")
SPLITS = ("train", "dev", "test")


@dataclass(frozen=True)
class Plant:
    """Plant log shape and its chronological train/dev/test split."""

    sensors: int
    days: int
    samples_per_day: int
    train_days: int
    dev_days: int
    components: int
    noise_rate: float = 0.002


@dataclass(frozen=True)
class ServeShape:
    """Open-loop traffic of the ``serve`` workload.

    ``rate`` is samples per second per tenant at the nominal step, which
    takes ``nominal_share`` of the run's seconds; the closed-loop
    capacity phase then floods ``flood_samples`` more samples per tenant.
    """

    tenants: int = 4
    rate: float = 20.0
    nominal_share: float = 0.7
    flood_samples: int = 240


# serve streams the batch-ngram log against the batch-ngram model.
PLANTS = {
    "full": {
        "batch-ngram": Plant(24, 24, 192, 8, 4, 6),
        "fit-nmt": Plant(8, 17, 96, 10, 3, 4),
        # Loosely coupled (the BENCH_pairs.json shape at N=64): the
        # prescreen prunes most pairs, so its own cost is a large share.
        "fit-wide": Plant(64, 16, 96, 9, 5, 16, noise_rate=0.12),
    },
    "smoke": {
        "batch-ngram": Plant(8, 6, 48, 2, 1, 3),
        "fit-nmt": Plant(4, 6, 48, 3, 1, 2),
        "fit-wide": Plant(16, 6, 48, 3, 2, 4, noise_rate=0.12),
    },
}

SERVE = {"full": ServeShape(), "smoke": ServeShape(flood_samples=24)}

#: Windows the traced pass streams through the online detector.
ONLINE_WINDOWS = {"full": 32, "smoke": 6}

# The simulator's seed also draws the plant's structure, so how many
# edges score in a fixed BLEU range, and how many pairs a fixed
# prescreen floor keeps, swing by a fifth from seed to seed.  Two
# benchmark controls hold that work constant instead: detection watches
# a workload's strongest edges, and fit-wide's prescreen floor is set to
# keep a fixed number of sensor pairs.
DETECT_EDGES = {
    "full": {"batch-ngram": 176, "serve": 176, "fit-nmt": 32, "fit-wide": 480},
    "smoke": {"batch-ngram": 24, "serve": 24, "fit-nmt": 6, "fit-wide": 8},
}
PRESCREEN_KEEP = {"full": 640, "smoke": 24}


def write_inputs(workload: str, scale: str, seed: int, directory: Path) -> dict:
    """Generate the workload's log from ``seed`` and write the three CSVs."""
    from repro.datasets import PlantConfig, generate_plant_dataset

    plant = PLANTS[scale]["batch-ngram" if workload == "serve" else workload]
    dataset = generate_plant_dataset(
        PlantConfig(
            num_sensors=plant.sensors,
            days=plant.days,
            samples_per_day=plant.samples_per_day,
            num_components=plant.components,
            noise_rate=plant.noise_rate,
            anomaly_days=(plant.days,),
            precursor_days=(plant.days - 1,),
            seed=seed,
        )
    )
    logs = dataset.split(plant.train_days, plant.dev_days)
    for split, log in zip(SPLITS, logs):
        log.to_csv(directory / f"{split}.csv")
    return {
        "sensors": plant.sensors,
        "samples": {split: log.num_samples for split, log in zip(SPLITS, logs)},
    }


def read_inputs(directory: Path):
    """``(train, dev, test)`` logs ingested from the workload's CSVs."""
    from repro import MultivariateEventLog

    return tuple(
        MultivariateEventLog.from_csv(directory / f"{split}.csv") for split in SPLITS
    )


def detection_band(graph, workload: str, scale: str):
    """The BLEU band holding the graph's strongest ``DETECT_EDGES`` edges."""
    from repro import ScoreRange

    scores = sorted((rel.score for rel in graph if rel.score > 0), reverse=True)
    low = scores[min(DETECT_EDGES[scale][workload], len(scores)) - 1]
    return ScoreRange(min(low, 99.99), 100.0, inclusive_high=True)


def _prescreen_floor(train, language, keep: int) -> float:
    """The affinity floor at which the prescreen keeps ``keep`` sensor pairs."""
    import numpy as np
    from repro.graph.prescreen import affinity_matrix
    from repro.pipeline.stages import CorpusStage, EncryptStage, StageContext

    context = StageContext(
        {"training_log": train, "development_log": train, "language_config": language}
    )
    for stage in (EncryptStage(), CorpusStage()):
        stage.run(context)
    _, matrix = affinity_matrix(context["corpus"])
    ranked = np.sort(matrix[np.triu_indices_from(matrix, k=1)])[::-1]
    return float(ranked[min(keep, len(ranked)) - 1])


def framework_config(workload: str, scale: str, train=None):
    """The :class:`repro.FrameworkConfig` a workload fits with.

    fit-wide needs its training log to place the prescreen floor.
    """
    from repro import FrameworkConfig, LanguageConfig, NMTConfig
    from repro.scenarios.harness import harness_framework_config

    if workload in ("batch-ngram", "serve"):
        return harness_framework_config()
    language = LanguageConfig(
        word_size=6, word_stride=1, sentence_length=8, sentence_stride=8
    )
    if workload == "fit-wide":
        return FrameworkConfig(
            language=language,
            engine="ngram",
            prescreen="bleu",
            prescreen_floor=_prescreen_floor(train, language, PRESCREEN_KEEP[scale]),
        )
    full = scale == "full"
    nmt = NMTConfig(
        embedding_size=16 if full else 8,
        hidden_size=16 if full else 8,
        num_layers=2,
        dropout=0.1,
        training_steps=80 if full else 10,
        batch_size=8,
        seed=0,
    )
    return FrameworkConfig(
        language=language if full else LanguageConfig(
            word_size=4, word_stride=1, sentence_length=5, sentence_stride=5
        ),
        engine="seq2seq",
        nmt=nmt,
        train_engine="batched",
        train_cohort_size=64,
    )
