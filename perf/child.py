"""One workload's child process: set-up, then one measuring mode.

``python -m perf.child SPEC`` reads a JSON spec (workload, scale, seed,
seconds, mode, workdir) and prints one JSON line of raw measurements for
:mod:`perf.run` to aggregate.  Set-up is timed from this module's first
line to ready: ``import repro``, the CSV ingest and, for ``serve``, the
warm start from the artifact cache and the service start.  Modes:

- ``setup``: set up, report the set-up time and exit;
- ``measure``: untraced; cold fit + batch detect repeated for the run's
  seconds, or the ``serve`` streams;
- ``trace``: the traced pass of :mod:`perf.traced`.
"""

import time

_T0 = time.perf_counter()

import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

#: Pairs and detect columns the untraced run re-scores as a spot check.
SPOT_CHECKS = 8

#: Detect samples of a run add up to at least this share of its seconds.
DETECT_SHARE = 0.1


def _fit_detect(spec: dict, logs) -> dict:
    """Cold fit into a fresh artifact store, then detect; repeated."""
    import numpy as np
    from repro import AnalyticsFramework
    from repro.pipeline.artifacts import ArtifactStore

    from perf import checks, workloads
    from perf.trace import Tracer

    train, dev, test = logs
    config = workloads.framework_config(spec["workload"], spec["scale"], train)
    fits, detects, digests = [], [], []
    attempted = failed = 0
    start = time.perf_counter()
    while True:
        with tempfile.TemporaryDirectory(dir=spec["workdir"]) as cache:
            framework = AnalyticsFramework(config)
            began = time.perf_counter()
            framework.fit(train, dev, cache_dir=ArtifactStore(cache))
            fits.append(time.perf_counter() - began)
            band = workloads.detection_band(framework.graph, spec["workload"], spec["scale"])
            began = time.perf_counter()
            result = framework.detect(test, score_range=band)
            detects.append(time.perf_counter() - began)
        report = framework.build_report
        attempted += len(report.completed) + len(report.skipped) + result.num_windows
        failed += len(report.skipped)
        digests.append(checks.outputs_digest(framework.graph, [result]))
        last = fits[-1] + detects[-1]
        if time.perf_counter() - start + last / 2 >= spec["seconds"]:
            break
    # A short detect is sampled again on the last fit, so that a brief
    # stall of the host cannot decide its median.
    while sum(detects) < spec["seconds"] * DETECT_SHARE:
        began = time.perf_counter()
        again = framework.detect(test, score_range=band)
        detects.append(time.perf_counter() - began)
        attempted += again.num_windows
        digests.append(checks.outputs_digest(framework.graph, [again]))

    graph = framework.graph
    rng = np.random.default_rng(spec["seed"])
    pairs = list(graph.relationships)
    picked = rng.choice(len(pairs), min(SPOT_CHECKS, len(pairs)), replace=False)
    sample = [pairs[i] for i in sorted(picked)]
    columns = sorted(
        rng.choice(result.num_valid_pairs, min(SPOT_CHECKS, result.num_valid_pairs), replace=False)
    )
    tracer = Tracer()
    dev_sentences = checks.dev_sentences_for(graph, dev)
    mismatches = (
        checks.replay_pair_train(tracer, graph, dev_sentences, config, sample)["mismatches"]
        + checks.replay_detect(tracer, graph, test, result, columns)["mismatches"]
    )
    if len(set(digests)) != 1:
        mismatches.append(f"outputs differ across repeats: {sorted(set(digests))}")
    return {
        "fit_s": fits,
        "detect_s": detects,
        "digest": digests[0],
        "mismatches": mismatches,
        "attempted": attempted,
        "failed": failed,
        "test_events": test.num_sensors * test.num_samples,
        "details": {
            "repeats": len(fits),
            "detects": len(detects),
            "pairs_trained": len(report.completed),
            "pairs_pruned": len(report.pruned),
            "valid_pairs": result.num_valid_pairs,
            "windows": result.num_windows,
        },
    }


def _serve(spec: dict, logs) -> dict:
    """Warm start and service start (both set-up), then the streams."""
    from repro.pipeline.artifacts import ArtifactStore
    from repro.service import warm_start_graph

    from perf import serve, workloads

    workload, scale = spec["workload"], spec["scale"]
    config = workloads.framework_config(workload, scale)
    shape = workloads.SERVE[scale]
    cache = ArtifactStore(Path(spec["workdir"]) / "cache")
    graph = warm_start_graph(config, logs[0], logs[1], cache)
    band = workloads.detection_band(graph, workload, scale)
    service = serve.start_service(graph, config, band, [f"tenant-{k}" for k in range(shape.tenants)])
    out = {"setup_s": time.perf_counter() - _T0}
    if spec["mode"] == "setup":
        service.close()
        return out
    out.update(serve.run(service, graph, config, band, logs[2], shape, spec["seconds"]))
    retrained = graph.build_report.num_trained
    if retrained:
        out["mismatches"].append(f"warm start retrained {retrained} pair(s)")
    return out


def _traced(spec: dict) -> dict:
    from perf import traced, workloads
    from perf.trace import Tracer

    tracer = Tracer()
    with tracer.span("ingest"):
        logs = workloads.read_inputs(Path(spec["workdir"]))
    out = traced.run(tracer, spec["workload"], spec["scale"], logs, Path(spec["workdir"]))
    out["layers"]["ingest.s"] = tracer.seconds("ingest")
    out["layers"]["ingest.events"] = sum(log.num_sensors * log.num_samples for log in logs)
    out["trace"] = tracer.to_dict()
    return out


def main(argv: list[str]) -> int:
    spec = json.loads(argv[1])
    import repro  # noqa: F401 - importing the package is part of set-up

    from perf import workloads

    if spec["mode"] == "trace":
        out = _traced(spec)
    else:
        logs = workloads.read_inputs(Path(spec["workdir"]))
        if spec["workload"] == "serve":
            out = _serve(spec, logs)
        else:
            out = {"setup_s": time.perf_counter() - _T0}
            if spec["mode"] == "measure":
                out.update(_fit_detect(spec, logs))
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
