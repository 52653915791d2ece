"""Outside-in benchmark of build, detect and serve.

    python3 perf/run.py --workload batch-ngram --seed 7 --seconds 20 --trace 0
    python -m perf.run --seed 7            # every workload, untraced
    python -m perf.run --seed 7 --trace 1  # the traced pass, per-layer metrics

For each workload the inputs are generated from ``--seed`` and written to
CSV in a scratch directory inside the checkout, then each measurement
runs in its own child process (:mod:`perf.child`), so peak RSS and
import time belong to that workload alone.  Untraced runs report the
end-to-end metrics; ``--trace 1`` runs the traced pass instead and
reports the per-layer metrics, writing the span tree to ``trace.json``.
The full result goes to ``<out>/result.json``; the last line of standard
output is ``{"correct", "attempted", "failed", "metrics"}``.  Any
mismatch in the output checks makes the exit code 1.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
if __package__ in (None, ""):
    sys.path.insert(0, str(ROOT))

from perf import workloads  # noqa: E402
from perf.trace import TRACE_SCHEMA  # noqa: E402

RESULT_SCHEMA = "perf-result-v1"

#: Set-up runs per workload: this many set-up-only children plus the
#: measuring child's own set-up.
SETUP_PROBES = 2

#: Cold fits of the served model before ``serve`` runs; their median is
#: its ``fit_s``.
PREP_FITS = 3

#: A workload's children are killed past this, so a run ends within 180 s.
WORKLOAD_TIMEOUT_S = 170.0


class BenchmarkError(RuntimeError):
    """A child failed or the checkout cannot run the benchmark."""


def unit_of(name: str) -> str:
    """Unit of a per-layer metric, read off its name."""
    if name.endswith(("_ms", ".ms_per_window")):
        return "ms"
    if name.endswith(("_s", ".s")):
        return "s"
    if name.endswith(("_frac", "_ratio")):
        return "ratio"
    if name.endswith("bytes_written"):
        return "bytes"
    return "count"


def summarise(samples: list[float], unit: str) -> dict:
    """Median of repeated measurements, with their quartile spread."""
    median = statistics.median(samples)
    spread = 0.0
    if len(samples) > 1 and median:
        q1, _, q3 = statistics.quantiles(samples, n=4)
        spread = (q3 - q1) / abs(median)
    return {
        "value": median,
        "unit": unit,
        "samples": len(samples),
        "spread": spread,
        "values": list(samples),
    }


def _spawn(spec: dict, deadline: float) -> dict:
    """Run one :mod:`perf.child`, killed at ``deadline`` (monotonic clock)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), str(ROOT), *filter(None, [env.get("PYTHONPATH")])]
    )
    # Reproducible hashing, and one BLAS thread: the generator and the
    # one service worker are the only threads a run may use.
    env.update(PYTHONHASHSEED="0", OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    proc = subprocess.run(
        [sys.executable, "-m", "perf.child", json.dumps(spec)],
        cwd=ROOT,
        env=env,
        stdout=subprocess.PIPE,
        text=True,
        timeout=max(1.0, deadline - time.monotonic()),
    )
    if proc.returncode != 0:
        raise BenchmarkError(f"{spec['workload']} {spec['mode']} child exited {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _git_state() -> dict:
    if not (ROOT / ".git").exists():
        return {"revision": None, "dirty": None}
    try:
        revision = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
        ).stdout.strip()
        status = subprocess.run(
            ["git", "status", "--porcelain"], cwd=ROOT, capture_output=True, text=True, timeout=30
        ).stdout
    except (OSError, subprocess.SubprocessError):
        return {"revision": None, "dirty": None}
    return {"revision": revision or None, "dirty": bool(status.strip())}


def _prep_serve_model(workdir: Path, scale: str) -> list[float]:
    """Cold-fit the served model ``PREP_FITS`` times; returns the wall times.

    The last fit fills the artifact cache ``serve`` warm-starts from.
    """
    from repro import AnalyticsFramework
    from repro.pipeline.artifacts import ArtifactStore

    train, dev, _ = workloads.read_inputs(workdir)
    config = workloads.framework_config("serve", scale)
    fits = []
    for attempt in range(PREP_FITS):
        cache = workdir / ("cache" if attempt == PREP_FITS - 1 else f"cold-{attempt}")
        start = time.perf_counter()
        AnalyticsFramework(config).fit(train, dev, cache_dir=ArtifactStore(cache))
        fits.append(time.perf_counter() - start)
    return fits


def _end_to_end(workload: str, setups: list[dict], child: dict, prep_fits: list[float]) -> dict:
    metrics = {
        "setup_s": summarise([run["setup_s"] for run in setups], "s"),
        "peak_rss_mb": summarise([child["peak_rss_mb"]], "MB"),
    }
    if workload == "serve":
        windows = child["details"]["nominal"]["latency_samples"]
        metrics.update(
            fit_s=summarise(prep_fits, "s"),
            detect_s=summarise(child["detect_s"], "s"),
            events_per_s=summarise(child["capacity_eps"], "events/s"),
            **{
                name: {"value": child[name], "unit": "ms", "samples": windows, "spread": 0.0}
                for name in ("window_mean_ms", "window_p95_ms")
            },
        )
        return metrics
    # Batch detection hands back every window's score when the call
    # returns, so each window's latency is the whole detect call.
    detect_ms = [1000.0 * x for x in child["detect_s"]]
    metrics.update(
        fit_s=summarise(child["fit_s"], "s"),
        detect_s=summarise(child["detect_s"], "s"),
        window_mean_ms=summarise(detect_ms, "ms"),
        window_p95_ms=summarise(detect_ms, "ms"),
        events_per_s=summarise([child["test_events"] / x for x in child["detect_s"]], "events/s"),
    )
    return metrics


def run_workload(workload: str, args: argparse.Namespace) -> tuple[dict, dict | None]:
    """Measure one workload; returns its result record and its span tree."""
    scratch = ROOT / "perf" / ".work"
    scratch.mkdir(parents=True, exist_ok=True)
    load_before = os.getloadavg()
    deadline = time.monotonic() + WORKLOAD_TIMEOUT_S
    with tempfile.TemporaryDirectory(dir=scratch) as tmp:
        workdir = Path(tmp)
        inputs = workloads.write_inputs(workload, args.scale, args.seed, workdir)
        spec = {
            "workload": workload,
            "scale": args.scale,
            "seed": args.seed,
            "seconds": args.seconds,
            "workdir": str(workdir),
        }
        if args.trace:
            child = _spawn({**spec, "mode": "trace"}, deadline)
        else:
            prep_fits = _prep_serve_model(workdir, args.scale) if workload == "serve" else []
            setups = [_spawn({**spec, "mode": "setup"}, deadline) for _ in range(SETUP_PROBES)]
            child = _spawn({**spec, "mode": "measure"}, deadline)
            setups.append(child)
    if args.trace:
        metrics = {
            name: {"value": value, "unit": unit_of(name)}
            for name, value in sorted(child["layers"].items())
        }
        digest = None
    else:
        metrics = _end_to_end(workload, setups, child, prep_fits)
        digest = child["digest"]
    mismatches = list(child["mismatches"])
    if args.trace and child["trace"]["nesting_errors"]:
        mismatches.extend(child["trace"]["nesting_errors"])
    record = {
        "workload": workload,
        "trace": int(args.trace),
        "correct": not mismatches,
        "attempted": int(child["attempted"]),
        "failed": int(child["failed"]),
        "failed_frac": child["failed"] / max(1, child["attempted"]),
        "outputs_digest": digest,
        "metrics": metrics,
        "mismatches": mismatches,
        "inputs": inputs,
        "details": child.get("details", {}),
        "load_before": load_before,
        "load_after": os.getloadavg(),
    }
    return record, child.get("trace")


def _run_meta(args: argparse.Namespace) -> dict:
    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "git": _git_state(),
        "seed": args.seed,
        "seconds": args.seconds,
        "scale": args.scale,
        "trace": int(args.trace),
        "setup_runs": SETUP_PROBES + 1,
    }


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[*workloads.WORKLOADS, "all"], default="all")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), nargs="?", const=1, default=0)
    parser.add_argument("--scale", choices=workloads.SCALES, default="full")
    parser.add_argument("--out", type=Path, default=ROOT / "perf" / ".work" / "out")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    if args.seconds <= 0:
        print("--seconds must be positive", file=sys.stderr)
        return 2
    source = ROOT / "src"
    if not (source / "repro" / "__init__.py").is_file():
        print(f"no repro package under {source}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(source))
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    meta = _run_meta(args)
    records, traces = {}, {}
    try:
        for name in names:
            records[name], traces[name] = run_workload(name, args)
    except (BenchmarkError, subprocess.TimeoutExpired) as error:
        print(f"benchmark failed: {error}", file=sys.stderr)
        return 1
    args.out.mkdir(parents=True, exist_ok=True)
    result = {"schema": RESULT_SCHEMA, "meta": meta, "workloads": records}
    (args.out / "result.json").write_text(json.dumps(result, indent=1) + "\n")
    if args.trace:
        (args.out / "trace.json").write_text(
            json.dumps({"schema": TRACE_SCHEMA, "workloads": traces}) + "\n"
        )
    for name, record in records.items():
        for metric, entry in record["metrics"].items():
            print(f"{name:12} {metric:28} {entry['value']:>14.6g} {entry['unit']}", file=sys.stderr)
        for mismatch in record["mismatches"]:
            print(f"{name:12} MISMATCH {mismatch}", file=sys.stderr)
    for record in records.values():
        print(
            json.dumps(
                {
                    "correct": record["correct"],
                    "attempted": record["attempted"],
                    "failed": record["failed"],
                    "metrics": {
                        name: {"value": entry["value"], "unit": entry["unit"]}
                        for name, entry in record["metrics"].items()
                    },
                }
            )
        )
    return 0 if all(record["correct"] for record in records.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
