"""The ``serve`` workload: open-loop tenant streams through the service.

One thread generates load and polls the merged feed; the service runs one
shard, so one worker thread scores.  Each submit is one sample.  Sample
``i`` of tenant ``k`` is due at ``t0 + (i + k * stride / tenants) / rate``:
the phases interleave the tenants' windows evenly instead of letting
every tenant complete a window in the same few milliseconds.  The
generator never waits for the service: a stall makes later samples
late, and that wait is charged to the windows they complete.  A window's
latency is its emit time minus the due time of its last sample.  The
emit time is when that sample was submitted plus the service's own
enqueue-to-emit time (``FleetWindow.latency_seconds``), so it does not
depend on how often the generator polls the feed; polling once per
round keeps the generator from contending for the interpreter lock.
The step reports the mean and p95 of that latency.  Not the median: on a
shared host the latencies split into two modes (a window the host
preempts takes ~15 ms longer) in a proportion that drifts, so the median
jumps between the modes from run to run while the mean moves smoothly.

After the nominal step, a closed-loop phase submits ``flood_samples``
more samples per tenant, in bursts, as fast as ``block`` backpressure
admits them; the events scored per second there is the service's
capacity.  Each tenant's feed is then checked against batch detection
over the samples that tenant streamed, and that batch detection is
timed per tenant.
"""

from __future__ import annotations

import time

import numpy as np

from perf import checks

#: Longest wait for the windows of the last submitted samples.
DRAIN_TIMEOUT_S = 60.0

#: The capacity is the median of this many bursts, so a second of
#: interference from outside the run does not move it.
BURSTS = 4


def start_service(graph, config, band, tenants):
    from repro.service import StreamingDetectionService

    return StreamingDetectionService(
        graph,
        tenants,
        num_shards=1,
        backpressure="block",
        score_range=band,
        threshold=config.threshold_strategy,
        quantile=config.threshold_quantile,
        margin=config.margin,
    )


def _windows_completed(samples: int, span: int, stride: int) -> int:
    return 0 if samples < span else (samples - span) // stride + 1


def _percentiles_ms(values) -> dict:
    if not values:
        return {"mean": None, "p50": None, "p95": None, "max": None}
    ms = 1000.0 * np.asarray(values)
    return {
        "mean": float(ms.mean()),
        "p50": float(np.percentile(ms, 50)),
        "p95": float(np.percentile(ms, 95)),
        "max": float(ms.max()),
    }


def run(service, graph, config, band, test, shape, seconds: float) -> dict:
    """Drive the nominal step and the capacity phase, then check the feeds."""
    tenants = list(service.tenants)
    count = int(round(shape.rate * shape.nominal_share * seconds))
    total = count + shape.flood_samples
    length = test.num_samples
    if total > length:
        raise ValueError(f"serve needs {total} test samples per tenant, log has {length}")
    spread = len(tenants) - 1
    offsets = [0 if not spread else k * (length - total) // spread for k in range(len(tenants))]
    columns = {name: test[name].events for name in test.sensors}
    streams = [
        [{name: [column[offset + i]] for name, column in columns.items()} for i in range(total)]
        for offset in offsets
    ]
    language = config.language
    span = language.samples_per_sentence()
    stride = language.effective_sentence_stride * language.word_stride

    # Window -> the service's enqueue-to-emit seconds for it.
    seen: dict[tuple[str, int], float] = {}

    def poll() -> None:
        for fleet_window in service.poll():
            seen[(fleet_window.tenant, fleet_window.window.window_index)] = (
                fleet_window.latency_seconds
            )

    def drain(samples: int) -> None:
        expected = len(tenants) * _windows_completed(samples, span, stride)
        deadline = time.perf_counter() + DRAIN_TIMEOUT_S
        while len(seen) < expected and time.perf_counter() < deadline:
            poll()
            time.sleep(0.001)

    # Nominal step: open loop, tenants' windows evenly interleaved.
    period = 1.0 / shape.rate
    phases = [k * stride / len(tenants) for k in range(len(tenants))]
    schedule = sorted((i + phases[k], k, i) for i in range(count) for k in range(len(tenants)))
    late, submit, backlog = [], [], []
    submitted: dict[tuple[int, int], float] = {}
    windows_due = 0
    t0 = time.perf_counter() + 0.05
    for offset, k, i in schedule:
        due = t0 + offset * period
        pause = due - time.perf_counter()
        if pause > 0:
            time.sleep(pause)
        now = time.perf_counter()
        late.append(now - due)
        service.submit(tenants[k], streams[k][i])
        submitted[(k, i)] = now
        submit.append(time.perf_counter() - now)
        if i + 1 >= span and (i + 1 - span) % stride == 0:
            windows_due += 1
        if k == 0:
            poll()
            backlog.append(windows_due - len(seen))
    drain(count)
    latencies = []
    for k, tenant in enumerate(tenants):
        for window in range(_windows_completed(count, span, stride)):
            last = window * stride + span - 1
            if (tenant, window) in seen:
                due = t0 + (last + phases[k]) * period
                latencies.append(submitted[(k, last)] - due + seen[(tenant, window)])
    nominal_windows = len(seen)

    # Capacity: closed loop under block backpressure, in equal bursts.
    capacity_eps = []
    edges = np.linspace(count, total, BURSTS + 1).astype(int)
    for first, stop in zip(edges[:-1], edges[1:]):
        start = time.perf_counter()
        for i in range(first, stop):
            for k, tenant in enumerate(tenants):
                service.submit(tenant, streams[k][i])
        service.join()
        elapsed = time.perf_counter() - start
        capacity_eps.append((stop - first) * len(tenants) * len(columns) / elapsed)
    poll()

    # Each tenant's feed against batch detection over what it streamed.
    feed = service.merged_feed()
    service.close()
    detector = checks.detector_for(graph, config, band)
    mismatches, results, detect_s = [], [], []
    for tenant, offset in zip(tenants, offsets):
        start = time.perf_counter()
        reference = detector.detect(test.slice(offset, offset + total))
        detect_s.append(time.perf_counter() - start)
        results.append(reference)
        windows = sorted(
            (fw.window for fw in feed if fw.tenant == tenant),
            key=lambda window: window.window_index,
        )
        if [w.window_index for w in windows] != list(range(reference.num_windows)):
            mismatches.append(f"{tenant}: {len(windows)} windows, batch has {reference.num_windows}")
            continue
        for window in windows:
            index = window.window_index
            if abs(window.anomaly_score - reference.anomaly_scores[index]) > 1e-12 or set(
                window.broken_pairs
            ) != set(reference.broken_pairs(index)):
                mismatches.append(f"{tenant}: window {index} differs from batch")
                break
    expected = len(tenants) * _windows_completed(total, span, stride)
    dropped = service.metrics.value("service.dropped", 0)
    quarantined = service.metrics.value("service.quarantined_chunks", 0)
    half = len(backlog) // 2
    latency_ms = _percentiles_ms(latencies)
    return {
        "window_mean_ms": latency_ms["mean"],
        "window_p95_ms": latency_ms["p95"],
        "capacity_eps": capacity_eps,
        "detect_s": detect_s,
        "digest": checks.outputs_digest(graph, results),
        "mismatches": mismatches + [f"tenant {t} quarantined" for t in service.errors],
        "attempted": total * len(tenants) + expected,
        "failed": int(dropped + quarantined) + expected - len(feed),
        "details": {
            "tenants": len(tenants),
            "offsets": offsets,
            "nominal": {
                "rate_per_tenant": shape.rate,
                "samples_per_tenant": count,
                "windows": nominal_windows,
                "latency_samples": len(latencies),
                "latency_ms": latency_ms,
                "gen_late_ms": _percentiles_ms(late),
                "submit_ms": _percentiles_ms(submit),
                "backlog_windows": {
                    "max": max(backlog, default=0),
                    "mid": backlog[half] if backlog else 0,
                    "end": backlog[-1] if backlog else 0,
                },
            },
            "capacity": {
                "samples_per_tenant": shape.flood_samples,
                "events_per_s": capacity_eps,
            },
            "windows_expected": expected,
            "windows_received": len(feed),
        },
    }
