"""Size-tiered scaling ladder for ingest, training and detection.

Each :class:`ScaleTier` names a plant-log size (sensors × days ×
samples per day) plus its chronological train/dev split.  Running a
tier generates the log, writes it to CSV, then measures four phases:

- ``ingest_resident`` — the in-memory load (whole file decoded at
  once), the residency baseline;
- ``ingest_chunked`` — the same file streamed through
  :func:`repro.datasets.io.iter_event_chunks` and
  :class:`repro.core.EventFrameBuilder`;
- ``fit`` — Algorithm 1 over the tier's training/development days;
- ``detect`` — batch Algorithm 2 over the tier's test days.

Every phase records wall seconds, the Python-heap peak observed by
``tracemalloc`` and events/second; the record also carries the
process-wide ``ru_maxrss`` high-water mark and the frame digest of
both ingest paths, with ``digest_match`` asserting bit-identity.
Records serialise as ``repro-scale-v1`` into ``BENCH_scale.json``
(append-or-replace keyed on ``(tier, chunk_size, seed)``), so scaling
behaviour is tracked across PRs the same way detection quality is
tracked in ``BENCH_scenarios.json``.
"""

from __future__ import annotations

import json
import resource
import tempfile
import tracemalloc
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Sequence

from ..lang.events import MultivariateEventLog
from ..obs import MetricsRegistry, Stopwatch, atomic_write_text, get_logger
from ..pipeline.framework import AnalyticsFramework
from ..scenarios.harness import harness_framework_config

__all__ = [
    "SCALE_SCHEMA",
    "SCALE_TIERS",
    "ScaleTier",
    "append_scale_record",
    "load_scale_bench",
    "run_scale_ladder",
    "run_scale_tier",
]

logger = get_logger(__name__)

SCALE_SCHEMA = "repro-scale-v1"

#: Rows per chunk used by the ladder's chunked-ingest phase.
DEFAULT_SCALE_CHUNK = 256


@dataclass(frozen=True)
class ScaleTier:
    """One rung of the ladder: a plant-log size and its split."""

    name: str
    num_sensors: int
    days: int
    samples_per_day: int
    train_days: int
    dev_days: int
    num_components: int
    seed: int = 7

    def __post_init__(self) -> None:
        if self.train_days + self.dev_days >= self.days:
            raise ValueError(
                f"tier {self.name!r}: train+dev days "
                f"({self.train_days}+{self.dev_days}) leave no test days "
                f"of {self.days}"
            )

    @property
    def total_samples(self) -> int:
        return self.days * self.samples_per_day

    @property
    def total_events(self) -> int:
        """Cells in the event matrix — the unit of throughput."""
        return self.num_sensors * self.total_samples

    def plant_config(self, seed: int | None = None):
        """The tier as a :class:`~repro.datasets.plant.PlantConfig`.

        Anomalies land on the last day and precursors on the one
        before, so every tier's test period contains ground truth.
        """
        from ..datasets.plant import PlantConfig

        return PlantConfig(
            num_sensors=self.num_sensors,
            days=self.days,
            samples_per_day=self.samples_per_day,
            anomaly_days=(self.days,),
            precursor_days=(self.days - 1,),
            num_components=self.num_components,
            seed=self.seed if seed is None else seed,
        )

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "num_sensors": self.num_sensors,
            "days": self.days,
            "samples_per_day": self.samples_per_day,
            "train_days": self.train_days,
            "dev_days": self.dev_days,
            "num_components": self.num_components,
        }


#: The ladder, smallest to largest.  Sized so the full ladder stays
#: CPU-friendly (the large tier is ~110k events) while each rung is
#: roughly 3-5x the previous one, enough spread to expose super-linear
#: scaling in any phase.
SCALE_TIERS: dict[str, ScaleTier] = {
    tier.name: tier
    for tier in (
        ScaleTier("tiny", num_sensors=8, days=6, samples_per_day=48,
                  train_days=2, dev_days=1, num_components=3),
        ScaleTier("small", num_sensors=12, days=10, samples_per_day=96,
                  train_days=3, dev_days=2, num_components=4),
        ScaleTier("medium", num_sensors=16, days=15, samples_per_day=144,
                  train_days=5, dev_days=3, num_components=4),
        ScaleTier("large", num_sensors=24, days=24, samples_per_day=192,
                  train_days=8, dev_days=4, num_components=6),
    )
}


def _measure(task: Callable[[], object]) -> tuple[object, float, int]:
    """Run ``task`` returning ``(result, wall seconds, heap peak bytes)``.

    The peak is ``tracemalloc``'s traced high-water mark for the call
    alone (the tracer starts and stops around it), covering Python
    objects and NumPy buffers but not untraced C allocations —
    ``ru_maxrss`` in the tier record covers the whole process.
    """
    tracemalloc.start()
    try:
        watch = Stopwatch()
        result = task()
        seconds = watch.elapsed
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, seconds, peak


def _phase_dict(seconds: float, peak: int, events: int) -> dict:
    return {
        "seconds": seconds,
        "peak_bytes": int(peak),
        "events_per_second": (events / seconds) if seconds > 0 else None,
    }


def run_scale_tier(
    tier: "ScaleTier | str",
    chunk_size: int = DEFAULT_SCALE_CHUNK,
    seed: int | None = None,
    workdir: "str | Path | None" = None,
    metrics: MetricsRegistry | None = None,
) -> dict:
    """Run one rung: generate, ingest twice, fit, detect; return the record.

    ``workdir`` receives the tier's ``events-<tier>.csv`` (a temporary
    directory is used and cleaned up when omitted); ``seed`` overrides
    the tier's generator seed.  Raises ``RuntimeError`` if the chunked
    and resident ingest digests ever diverge — the ladder doubles as
    the bit-identity regression check.
    """
    from ..datasets.plant import generate_plant_dataset

    if isinstance(tier, str):
        try:
            tier = SCALE_TIERS[tier]
        except KeyError:
            raise KeyError(
                f"unknown scale tier {tier!r}; choose from {sorted(SCALE_TIERS)}"
            ) from None
    config = tier.plant_config(seed)

    cleanup: tempfile.TemporaryDirectory | None = None
    if workdir is None:
        cleanup = tempfile.TemporaryDirectory(prefix=f"repro-scale-{tier.name}-")
        workdir = cleanup.name
    try:
        directory = Path(workdir)
        directory.mkdir(parents=True, exist_ok=True)
        dataset = generate_plant_dataset(config)
        csv_path = directory / f"events-{tier.name}.csv"
        dataset.log.to_csv(csv_path)
        del dataset  # only the CSV feeds the measured phases

        logger.info(
            "scale tier %s: %d sensors x %d samples (%d events), chunk_size=%d",
            tier.name, tier.num_sensors, tier.total_samples,
            tier.total_events, chunk_size,
        )

        resident_log, resident_seconds, resident_peak = _measure(
            lambda: MultivariateEventLog.from_csv(csv_path)
        )
        resident_digest = resident_log.frame.digest()
        del resident_log  # free the baseline before the chunked pass

        chunked_log, chunked_seconds, chunked_peak = _measure(
            lambda: MultivariateEventLog.from_csv(csv_path, chunk_size=chunk_size)
        )
        chunked_digest = chunked_log.frame.digest()
        if chunked_digest != resident_digest:
            raise RuntimeError(
                f"scale tier {tier.name!r}: chunked ingest digest "
                f"{chunked_digest} != resident digest {resident_digest}"
            )

        per_day = tier.samples_per_day
        train = chunked_log.slice(0, tier.train_days * per_day)
        dev = chunked_log.slice(
            tier.train_days * per_day, (tier.train_days + tier.dev_days) * per_day
        )
        test = chunked_log.slice(
            (tier.train_days + tier.dev_days) * per_day, tier.total_samples
        )

        framework = AnalyticsFramework(harness_framework_config())
        _, fit_seconds, fit_peak = _measure(lambda: framework.fit(train, dev))
        result, detect_seconds, detect_peak = _measure(lambda: framework.detect(test))
        if metrics is not None:
            metrics.merge(framework.metrics)
            metrics.counter("bench.scale_tiers").inc()
    finally:
        if cleanup is not None:
            cleanup.cleanup()

    train_events = tier.num_sensors * train.num_samples
    test_events = tier.num_sensors * test.num_samples
    record = {
        "schema": SCALE_SCHEMA,
        "tier": tier.name,
        "chunk_size": chunk_size,
        "seed": config.seed,
        "params": tier.to_dict(),
        "total_events": tier.total_events,
        "digest": chunked_digest,
        "digest_match": True,
        "phases": {
            "ingest_resident": _phase_dict(
                resident_seconds, resident_peak, tier.total_events
            ),
            "ingest_chunked": _phase_dict(
                chunked_seconds, chunked_peak, tier.total_events
            ),
            "fit": _phase_dict(fit_seconds, fit_peak, train_events),
            "detect": _phase_dict(detect_seconds, detect_peak, test_events),
        },
        "num_windows": int(result.anomaly_scores.shape[0]),
        "ru_maxrss_kb": int(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss),
    }
    logger.info(
        "scale tier %s: ingest chunked %.0f bytes peak vs resident %.0f "
        "(%.1f%%), fit %.2fs, detect %.2fs",
        tier.name, chunked_peak, resident_peak,
        100.0 * chunked_peak / resident_peak if resident_peak else 0.0,
        fit_seconds, detect_seconds,
    )
    return record


def run_scale_ladder(
    tiers: Sequence[str] | None = None,
    chunk_size: int = DEFAULT_SCALE_CHUNK,
    seed: int | None = None,
    bench_path: "str | Path | None" = None,
    metrics: MetricsRegistry | None = None,
) -> list[dict]:
    """Run several rungs, logging each record as it completes.

    ``tiers=None`` runs the whole ladder smallest-first; with
    ``bench_path`` each record is appended (or replaced, keyed on
    ``(tier, chunk_size, seed)``) so an interrupted ladder keeps its
    finished rungs.
    """
    names = list(tiers) if tiers is not None else list(SCALE_TIERS)
    unknown = [name for name in names if name not in SCALE_TIERS]
    if unknown:
        raise KeyError(
            f"unknown scale tiers {unknown}; choose from {sorted(SCALE_TIERS)}"
        )
    records: list[dict] = []
    for name in names:
        record = run_scale_tier(
            name, chunk_size=chunk_size, seed=seed, metrics=metrics
        )
        records.append(record)
        if bench_path is not None:
            append_scale_record(record, bench_path)
    return records


# ----------------------------------------------------------------------
# Benchmark log (BENCH_scale.json)
# ----------------------------------------------------------------------
def load_scale_bench(path: "str | Path") -> dict:
    """Read a scale benchmark file, or an empty shell when missing."""
    path = Path(path)
    if not path.exists():
        return {"schema": SCALE_SCHEMA, "records": []}
    payload = json.loads(path.read_text())
    if payload.get("schema") != SCALE_SCHEMA:
        raise ValueError(
            f"{path} carries schema {payload.get('schema')!r}, "
            f"expected {SCALE_SCHEMA!r}"
        )
    return payload


def append_scale_record(record: dict, path: "str | Path") -> dict:
    """Append-or-replace one record keyed by ``(tier, chunk_size, seed)``.

    The write is atomic (temp file + rename), matching the scenario
    benchmark log's crash behaviour.
    """
    path = Path(path)
    payload = load_scale_bench(path)
    key = (record["tier"], record["chunk_size"], record["seed"])
    payload["records"] = [
        existing
        for existing in payload["records"]
        if (existing["tier"], existing["chunk_size"], existing["seed"]) != key
    ] + [record]
    atomic_write_text(path, json.dumps(payload, indent=2) + "\n")
    return payload
