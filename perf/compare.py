"""Compare two sets of benchmark results.

    python -m perf.compare OLD NEW

OLD and NEW are each a ``result.json`` or a directory searched for them;
several untraced runs on one side are pooled.  For every workload and
every end-to-end metric in ``BENCHMARK.json`` the verdict is

- ``unresolved`` when either side's spread (the quartile spread across
  its runs, or across one run's repeats) exceeds the metric's bound,
  unless every NEW run reads better than every OLD run;
- ``worse`` / ``better`` when NEW's median moved past the bound;
- ``unchanged`` otherwise.

Changed ``outputs_digest`` values (for the same seed) and any rise in
``failed_frac`` are flagged.  The exit code is 1 when any verdict is
``worse``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load_runs(path: Path) -> dict[str, list[dict]]:
    """Untraced workload records under ``path``, keyed by workload."""
    files = sorted(path.rglob("result.json")) if path.is_dir() else [path]
    if not files:
        raise SystemExit(f"no result.json under {path}")
    runs: dict[str, list[dict]] = defaultdict(list)
    for file in files:
        result = json.loads(file.read_text())
        for name, record in result["workloads"].items():
            if not record["trace"]:
                runs[name].append({**record, "seed": result["meta"]["seed"]})
    return runs


def _side(records: list[dict], metric: str) -> tuple[list[float], float]:
    """Per-run values of ``metric`` and their relative spread."""
    values = [r["metrics"][metric]["value"] for r in records]
    median = statistics.median(values)
    if len(values) > 1 and median:
        q1, _, q3 = statistics.quantiles(values, n=4)
        return values, (q3 - q1) / abs(median)
    return values, records[0]["metrics"][metric].get("spread") or 0.0


def verdict(old: list[float], new: list[float], spreads: tuple[float, float], bound: float, lower_better: bool) -> tuple[str, float]:
    """The verdict and NEW's relative change (positive means worse)."""
    base = statistics.median(old)
    change = (statistics.median(new) - base) / abs(base)
    if not lower_better:
        change = -change
    all_better = max(new) < min(old) if lower_better else min(new) > max(old)
    if max(spreads) > bound:
        return ("better" if all_better else "unresolved"), change
    if change > bound:
        return "worse", change
    if change < -bound:
        return "better", change
    return "unchanged", change


def compare(old_runs: dict, new_runs: dict, benchmark: dict) -> tuple[list[dict], list[str]]:
    rows, flags = [], []
    for workload in sorted(set(old_runs) & set(new_runs)):
        old, new = old_runs[workload], new_runs[workload]
        for spec in benchmark["end_to_end"]:
            name = spec["name"]
            old_values, old_spread = _side(old, name)
            new_values, new_spread = _side(new, name)
            result, change = verdict(
                old_values, new_values, (old_spread, new_spread), spec["bound"], spec["better"] == "lower"
            )
            rows.append(
                {
                    "workload": workload,
                    "metric": name,
                    "unit": spec["unit"],
                    "old": statistics.median(old_values),
                    "new": statistics.median(new_values),
                    "change": change,
                    "spread": max(old_spread, new_spread),
                    "bound": spec["bound"],
                    "verdict": result,
                }
            )
        old_digests = {r["seed"]: r["outputs_digest"] for r in old}
        for record in new:
            before = old_digests.get(record["seed"])
            if before is not None and before != record["outputs_digest"]:
                flags.append(f"{workload}: outputs_digest changed for seed {record['seed']}")
        if max(r["failed_frac"] for r in new) > max(r["failed_frac"] for r in old):
            flags.append(f"{workload}: failed_frac rose")
    return rows, flags


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="Compare two benchmark result sets.")
    parser.add_argument("old", type=Path)
    parser.add_argument("new", type=Path)
    parser.add_argument("--benchmark", type=Path, default=ROOT / "BENCHMARK.json")
    args = parser.parse_args(argv)
    benchmark = json.loads(args.benchmark.read_text())
    rows, flags = compare(load_runs(args.old), load_runs(args.new), benchmark)
    print(f"{'workload':12} {'metric':15} {'old':>12} {'new':>12} {'change':>8} {'spread':>7} {'bound':>6}  verdict")
    for row in rows:
        print(
            f"{row['workload']:12} {row['metric']:15} {row['old']:12.5g} {row['new']:12.5g} "
            f"{row['change']:+8.1%} {row['spread']:7.1%} {row['bound']:6.0%}  {row['verdict']}"
        )
    for flag in flags:
        print(f"FLAG {flag}")
    return 1 if any(row["verdict"] == "worse" for row in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
