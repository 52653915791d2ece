"""Streaming-service throughput and latency benchmark.

Measures the serving path the batch ladder in :mod:`repro.bench.scale`
cannot see: chunks flowing through the sharded
:class:`~repro.service.StreamingDetectionService`.  One run fits a
scenario model cold into a content-addressed artifact store, proves the
service's warm start rebuilds it without retraining a single pair, then
drives the same multi-tenant chunk stream through the service at each
requested shard count, recording

- ``events_per_second`` — total event cells ingested over wall time;
- ``p99_latency_seconds`` (and p50) — ingest-to-emit window latency
  from each :class:`~repro.service.FleetWindow`;
- ``parity`` — every tenant's merged-feed subsequence compared
  window-for-window against the batch
  :class:`~repro.detection.AnomalyDetector` on the same log.

Records serialise as ``repro-online-v1`` into ``BENCH_online.json``
(append-or-replace keyed on ``(shards, tenants, seed)``), mirroring the
other benchmark logs.
"""

from __future__ import annotations

import json
import tempfile
from pathlib import Path
from typing import Sequence

import numpy as np

from ..detection.anomaly import AnomalyDetector
from ..obs import MetricsRegistry, Stopwatch, atomic_write_text, get_logger
from ..pipeline.artifacts import ArtifactStore
from ..pipeline.framework import AnalyticsFramework
from ..scenarios import generate_scenario, harness_framework_config
from ..service import StreamingDetectionService, warm_start_graph

__all__ = [
    "DEFAULT_SHARD_COUNTS",
    "ONLINE_SCHEMA",
    "append_online_record",
    "load_online_bench",
    "run_online_bench",
]

logger = get_logger(__name__)

ONLINE_SCHEMA = "repro-online-v1"

#: Shard counts swept by default — enough to show the scaling shape.
DEFAULT_SHARD_COUNTS: tuple[int, ...] = (1, 2, 4)

#: Samples per submitted chunk.
DEFAULT_ONLINE_CHUNK = 32


def _chunks(test, chunk_size: int):
    """The test log as a list of ``{sensor: column}`` blocks."""
    blocks = []
    for start in range(0, test.num_samples, chunk_size):
        stop = min(start + chunk_size, test.num_samples)
        blocks.append(
            {name: test[name].events[start:stop] for name in test.sensors}
        )
    return blocks


def _check_parity(service, tenants, batch) -> bool:
    """Every tenant's feed must equal the batch scores window-for-window."""
    feed = service.merged_feed()
    expected = batch.anomaly_scores
    for tenant in tenants:
        windows = [fw.window for fw in feed if fw.tenant == tenant]
        if len(windows) != len(expected):
            return False
        for window in windows:
            if window.window_index >= len(expected):
                return False
            if abs(window.anomaly_score - expected[window.window_index]) > 1e-12:
                return False
            if set(window.broken_pairs) != set(
                batch.broken_pairs(window.window_index)
            ):
                return False
    return True


def run_online_bench(
    shard_counts: Sequence[int] = DEFAULT_SHARD_COUNTS,
    num_tenants: int = 4,
    scenario: str = "cascade",
    tier: str = "tiny",
    seed: int = 11,
    chunk_size: int = DEFAULT_ONLINE_CHUNK,
    queue_depth: int = 16,
    backpressure: str = "block",
    bench_path: "str | Path | None" = None,
    metrics: MetricsRegistry | None = None,
) -> list[dict]:
    """Sweep the service over shard counts; return one record per count.

    All shard counts replay the *same* streams: ``num_tenants`` copies
    of the scenario's test log, chunked ``chunk_size`` samples at a
    time, against one pooled graph — so throughput differences isolate
    the sharding, not the workload.  Each record also proves two
    service invariants: ``warm_start.trained == 0`` (the serving graph
    came entirely from the artifact cache) and ``parity`` (the merged
    feed matches batch detection exactly).
    """
    if num_tenants < 1:
        raise ValueError(f"num_tenants must be >= 1, got {num_tenants}")
    data = generate_scenario(scenario, tier=tier, seed=seed)
    train, dev, test, _ = data.split()
    tenants = [f"tenant-{index:02d}" for index in range(num_tenants)]
    blocks = _chunks(test, chunk_size)
    total_events = len(test.sensors) * test.num_samples * num_tenants

    with tempfile.TemporaryDirectory(prefix="repro-online-bench-") as cache:
        store = ArtifactStore(cache)
        config = harness_framework_config()
        cold = AnalyticsFramework(config).fit(train, dev, cache_dir=store)
        cold_report = cold.build_report.to_dict()
        del cold  # the service must stand on the warm-started graph alone

        warm_watch = Stopwatch()
        graph = warm_start_graph(config, train, dev, store)
        warm_seconds = warm_watch.elapsed
    warm_report = graph.build_report.to_dict()
    if warm_report["trained"]:
        raise RuntimeError(
            f"warm start retrained {warm_report['trained']} pair(s); "
            "the artifact cache should have served every model"
        )
    batch = AnomalyDetector(graph).detect(test)

    records: list[dict] = []
    for shards in shard_counts:
        registry = MetricsRegistry()
        service = StreamingDetectionService(
            graph,
            tenants,
            num_shards=int(shards),
            queue_depth=queue_depth,
            backpressure=backpressure,
            metrics=registry,
        )
        watch = Stopwatch()
        for block in blocks:
            for tenant in tenants:
                service.submit(tenant, block)
        service.join()
        seconds = watch.elapsed
        feed = service.merged_feed()
        parity = _check_parity(service, tenants, batch)
        service.close()
        if metrics is not None:
            metrics.merge(registry)
            metrics.counter("bench.online_runs").inc()

        latencies = np.array([fw.latency_seconds for fw in feed])
        record = {
            "schema": ONLINE_SCHEMA,
            "shards": int(shards),
            "tenants": num_tenants,
            "seed": seed,
            "scenario": scenario,
            "tier": tier,
            "chunk_size": chunk_size,
            "queue_depth": queue_depth,
            "backpressure": backpressure,
            "total_events": total_events,
            "windows": len(feed),
            "seconds": seconds,
            "events_per_second": (total_events / seconds) if seconds > 0 else None,
            "p50_latency_seconds": float(np.percentile(latencies, 50))
            if len(latencies)
            else None,
            "p99_latency_seconds": float(np.percentile(latencies, 99))
            if len(latencies)
            else None,
            "parity": parity,
            "warm_start": {
                "seconds": warm_seconds,
                "trained": warm_report["trained"],
                "cached": warm_report["cached"],
                "cold_trained": cold_report["trained"],
            },
        }
        records.append(record)
        logger.info(
            "online bench: %d shard(s), %d tenant(s): %.0f events/s, "
            "p99 latency %.4fs, parity=%s",
            shards,
            num_tenants,
            record["events_per_second"] or 0.0,
            record["p99_latency_seconds"] or 0.0,
            parity,
        )
        if bench_path is not None:
            append_online_record(record, bench_path)
    return records


# ----------------------------------------------------------------------
# Benchmark log (BENCH_online.json)
# ----------------------------------------------------------------------
def load_online_bench(path: "str | Path") -> dict:
    """Read an online benchmark file, or an empty shell when missing."""
    path = Path(path)
    if not path.exists():
        return {"schema": ONLINE_SCHEMA, "records": []}
    payload = json.loads(path.read_text())
    if payload.get("schema") != ONLINE_SCHEMA:
        raise ValueError(
            f"{path} carries schema {payload.get('schema')!r}, "
            f"expected {ONLINE_SCHEMA!r}"
        )
    return payload


def append_online_record(record: dict, path: "str | Path") -> dict:
    """Append-or-replace one record keyed by ``(shards, tenants, seed)``.

    Atomic (temp file + rename), like the other benchmark logs.
    """
    path = Path(path)
    payload = load_online_bench(path)
    key = (record["shards"], record["tenants"], record["seed"])
    payload["records"] = [
        existing
        for existing in payload["records"]
        if (existing["shards"], existing["tenants"], existing["seed"]) != key
    ] + [record]
    atomic_write_text(path, json.dumps(payload, indent=2) + "\n")
    return payload
