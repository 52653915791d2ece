"""Command-line interface.

Three subcommands mirror the framework's lifecycle on CSV event logs
(one column per sensor, one row per sampling interval):

- ``train``   — fit Algorithm 1 on a training + development CSV and
  save the fitted framework;
- ``detect``  — run Algorithm 2 on a testing CSV with a saved
  framework, printing per-window anomaly scores (optionally as JSON);
- ``inspect`` — print a saved framework's Table-I statistics, popular
  sensors and clusters, optionally exporting the graph to JSON/GraphML.

``train`` (alias ``build``) accepts ``--cache-dir`` to reuse pair
models from a content-addressed artifact cache across rebuilds (and to
resume an interrupted build by rerunning it); the companion ``cache``
subcommand inspects or garbage-collects such a cache.  ``train`` and ``detect`` accept ``--chunk-size`` to stream
their CSVs through the chunked ingest path (bit-identical results,
bounded peak memory), ``serve`` runs the sharded streaming detection
service over one or more tenant streams (see ``docs/service.md``),
``bench scale`` runs the size-tiered scaling ladder into
``BENCH_scale.json`` and ``bench online`` sweeps the streaming
service across shard counts into ``BENCH_online.json``.

Example::

    python -m repro.cli train train.csv dev.csv --model plant.pkl \
        --word-size 10 --sentence-length 20
    python -m repro.cli detect test.csv --model plant.pkl --threshold 0.5
    python -m repro.cli inspect --model plant.pkl --export-json graph.json
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .graph.export import save_graph_json, save_graphml
from .graph.ranges import ScoreRange
from .lang.corpus import LanguageConfig
from .lang.events import MultivariateEventLog
from .obs import MetricsRegistry, configure_logging
from .pipeline.config import FrameworkConfig
from .pipeline.framework import AnalyticsFramework
from .pipeline.persistence import load_framework, save_framework
from .report.tables import ascii_table
from .scenarios import (
    DEFAULT_DETECTORS,
    TIERS,
    generate_scenario,
    run_scenario,
    scenario_names,
)
from .scenarios.generators import SCENARIOS
from .scenarios.harness import append_bench_record

__all__ = ["main", "build_parser"]


def _add_observability_arguments(parser: argparse.ArgumentParser) -> None:
    """Logging/metrics flags shared by the train and detect subcommands."""
    parser.add_argument(
        "--log-level",
        type=str,
        default=None,
        metavar="LEVEL",
        help="enable structured logging on the 'repro' logger hierarchy at "
        "this level (DEBUG, INFO, WARNING, ...); unset leaves logging "
        "unconfigured",
    )
    parser.add_argument(
        "--log-json",
        action="store_true",
        help="emit log records as JSON lines (implies --log-level INFO "
        "unless --log-level is given)",
    )
    parser.add_argument(
        "--metrics-json",
        type=Path,
        default=None,
        metavar="PATH",
        help="write the run's metrics snapshot (stage timings, cache "
        "hit/miss counts, pair-training and detection counters) as JSON "
        "to this path",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Discrete-event-sequence analytics (Nie et al., DSN 2020)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    train = sub.add_parser(
        "train",
        aliases=["build"],
        help="fit the relationship graph (Algorithm 1)",
    )
    train.add_argument("training_csv", type=Path)
    train.add_argument("development_csv", type=Path)
    train.add_argument("--model", type=Path, required=True, help="output model path")
    train.add_argument(
        "--chunk-size",
        type=int,
        default=None,
        metavar="ROWS",
        help="stream the CSVs through the chunked ingest path, this many "
        "rows at a time (bit-identical to the default in-memory load; "
        "bounds peak memory on large logs)",
    )
    train.add_argument("--word-size", type=int, default=10)
    train.add_argument("--word-stride", type=int, default=1)
    train.add_argument("--sentence-length", type=int, default=20)
    train.add_argument("--sentence-stride", type=int, default=None)
    train.add_argument("--engine", choices=("ngram", "seq2seq"), default="ngram")
    train.add_argument(
        "--representation",
        choices=("codes", "strings"),
        default="codes",
        help="sentence representation: packed integer word keys (codes, "
        "default) or legacy encrypted character strings; scores are "
        "bit-identical either way",
    )
    train.add_argument(
        "--prescreen",
        choices=("off", "bleu"),
        default="off",
        help="pair-affinity prescreen: prune unordered sensor pairs whose "
        "cheap affinity falls below the calibrated floor before any "
        "translation model trains (see docs/prescreen.md); 'off' "
        "(default) is bit-identical to builds without the prescreen",
    )
    train.add_argument(
        "--prescreen-floor",
        type=float,
        default=None,
        metavar="FLOOR",
        help="override the prescreen method's calibrated affinity floor "
        "(0-100, on the predicted-BLEU scale)",
    )
    train.add_argument("--popular-threshold", type=int, default=100)
    train.add_argument(
        "--range",
        type=str,
        default="80:90",
        help="detection BLEU range, LOW:HIGH (default 80:90)",
    )
    train.add_argument(
        "--n-jobs",
        type=str,
        default="1",
        help="parallel pair-training workers: a count or 'auto' (default 1)",
    )
    train.add_argument(
        "--train-engine",
        choices=("looped", "batched"),
        default="looped",
        help="pair-training engine: 'looped' (default) trains one model at "
        "a time; 'batched' (seq2seq only) advances cohorts of "
        "shape-compatible pairs in lockstep inside one tensor program "
        "(see docs/architecture.md)",
    )
    train.add_argument(
        "--cohort-size",
        type=int,
        default=None,
        metavar="PAIRS",
        help="maximum pairs per batched cohort (default 32; only "
        "meaningful with --train-engine batched)",
    )
    train.add_argument(
        "--cache-dir",
        type=Path,
        default=None,
        help="content-addressed artifact cache: rebuilds with unchanged "
        "inputs restore pairs instead of retraining them, and rerunning "
        "an interrupted build resumes it",
    )
    train.add_argument(
        "--no-cache",
        action="store_true",
        help="disable the artifact cache even when --cache-dir is given",
    )
    train.add_argument(
        "--report-json",
        type=Path,
        default=None,
        help="write the build report (trained/cached/skipped/pruned pairs) "
        "as JSON to this path",
    )
    _add_observability_arguments(train)

    detect = sub.add_parser("detect", help="score a testing log (Algorithm 2)")
    detect.add_argument("testing_csv", type=Path)
    detect.add_argument("--model", type=Path, required=True)
    detect.add_argument("--threshold", type=float, default=0.5, help="alarm threshold")
    detect.add_argument(
        "--chunk-size",
        type=int,
        default=None,
        metavar="ROWS",
        help="stream the testing CSV through the chunked ingest path "
        "(bit-identical scores; bounds peak memory on large logs)",
    )
    detect.add_argument("--json", action="store_true", help="emit JSON instead of text")
    _add_observability_arguments(detect)

    inspect = sub.add_parser("inspect", help="summarise a trained model")
    inspect.add_argument("--model", type=Path, required=True)
    inspect.add_argument("--export-json", type=Path, default=None)
    inspect.add_argument("--export-graphml", type=Path, default=None)
    inspect.add_argument(
        "--report", type=Path, default=None, help="write a markdown report here"
    )

    cache = sub.add_parser("cache", help="inspect or clean a build cache")
    cache.add_argument("cache_dir", type=Path)
    cache.add_argument(
        "--gc-days",
        type=float,
        default=None,
        help="delete artifacts last touched more than this many days ago",
    )
    cache.add_argument(
        "--purge", action="store_true", help="delete every artifact in the cache"
    )
    cache.add_argument("--json", action="store_true", help="emit JSON instead of text")

    scenarios = sub.add_parser(
        "scenarios",
        help="generate and evaluate labeled fault scenarios",
        description="Fault-scenario suite: 'list' the registered "
        "generators, 'run' the evaluation harness (framework + baselines, "
        "event-level scoring, benchmark records), or print deterministic "
        "frame 'digest's for drift checks.",
    )
    scenarios.add_argument(
        "action",
        choices=("list", "run", "digest"),
        help="list scenarios, run the harness, or print frame digests",
    )
    scenarios.add_argument(
        "names",
        nargs="*",
        help="scenario names (see 'scenarios list'); empty with --all "
        "means every scenario",
    )
    scenarios.add_argument("--all", action="store_true", help="select every scenario")
    scenarios.add_argument(
        "--tier",
        choices=tuple(sorted(TIERS)),
        default="tiny",
        help="scenario size tier (default tiny)",
    )
    scenarios.add_argument("--seed", type=int, default=11)
    scenarios.add_argument(
        "--detectors",
        type=str,
        default=",".join(DEFAULT_DETECTORS),
        help="comma-separated detectors to run "
        f"(default {','.join(DEFAULT_DETECTORS)})",
    )
    scenarios.add_argument(
        "--bench",
        type=Path,
        default=None,
        metavar="PATH",
        help="append repro-scenarios-v1 records to this benchmark JSON "
        "(one record per scenario, keyed on scenario/tier/seed)",
    )
    scenarios.add_argument(
        "--json", action="store_true", help="emit JSON instead of a table"
    )
    _add_observability_arguments(scenarios)

    serve = sub.add_parser(
        "serve",
        help="run the sharded streaming detection service",
        description="Sharded streaming detection: each NAME=CSV pair is "
        "one tenant stream, routed to a shard and scored incrementally "
        "against the saved model; windows from every shard interleave "
        "into one merged fleet feed.  With --snapshot-dir the service "
        "restores a prior snapshot before ingesting and writes a fresh "
        "one after draining, so a restarted run resumes mid-stream.",
    )
    serve.add_argument(
        "streams",
        nargs="+",
        metavar="NAME=CSV",
        help="tenant streams: a stream name and its event CSV",
    )
    serve.add_argument("--model", type=Path, required=True)
    serve.add_argument(
        "--shards",
        type=int,
        default=1,
        help="number of detector shards (default 1)",
    )
    serve.add_argument(
        "--queue-depth",
        type=int,
        default=None,
        metavar="ITEMS",
        help="per-shard ingest queue bound in work items (default 64)",
    )
    serve.add_argument(
        "--backpressure",
        choices=("block", "reject"),
        default="block",
        help="full-queue policy: 'block' the producer (default, lossless) "
        "or 'reject' the chunk (bounded latency; drops are counted "
        "under service.dropped)",
    )
    serve.add_argument(
        "--chunk-size",
        type=int,
        default=None,
        metavar="ROWS",
        help="samples per submitted chunk (default 256)",
    )
    serve.add_argument(
        "--snapshot-dir",
        type=Path,
        default=None,
        metavar="DIR",
        help="restore stream state from this directory when a snapshot "
        "is present, and write one after the run drains",
    )
    serve.add_argument(
        "--threshold", type=float, default=0.5, help="alarm threshold"
    )
    serve.add_argument(
        "--json", action="store_true", help="emit JSON instead of text"
    )
    _add_observability_arguments(serve)

    bench = sub.add_parser(
        "bench",
        help="run scaling benchmarks",
        description="Scaling benchmarks: 'scale' runs the size-tiered "
        "ladder (generate, chunked + resident ingest, fit, detect per "
        "tier) and logs repro-scale-v1 records with wall seconds, heap "
        "peaks and per-stage throughput; 'online' sweeps the sharded "
        "streaming service across shard counts and logs repro-online-v1 "
        "records with events/second and p99 window latency.",
    )
    bench.add_argument(
        "action", choices=("scale", "online"), help="benchmark family to run"
    )
    bench.add_argument(
        "--shard-counts",
        type=str,
        default=None,
        metavar="COUNTS",
        help="bench online: comma-separated shard counts to sweep "
        "(default 1,2,4)",
    )
    bench.add_argument(
        "--tenants",
        type=int,
        default=4,
        help="bench online: tenant streams replaying the scenario log "
        "(default 4)",
    )
    bench.add_argument(
        "--tiers",
        type=str,
        default=None,
        metavar="NAMES",
        help="comma-separated tier names, smallest first "
        "(default: the full ladder; see docs/cli.md)",
    )
    bench.add_argument(
        "--chunk-size",
        type=int,
        default=None,
        metavar="ROWS",
        help="rows per chunk for the chunked-ingest phase (default 256)",
    )
    bench.add_argument(
        "--seed", type=int, default=None, help="override each tier's generator seed"
    )
    bench.add_argument(
        "--bench",
        type=Path,
        default=None,
        metavar="PATH",
        help="append repro-scale-v1 records to this benchmark JSON "
        "(one record per tier, keyed on tier/chunk_size/seed)",
    )
    bench.add_argument(
        "--json", action="store_true", help="emit JSON instead of a table"
    )
    _add_observability_arguments(bench)

    simulate = sub.add_parser(
        "simulate", help="generate a synthetic dataset to files"
    )
    simulate.add_argument("kind", choices=("plant", "backblaze"))
    simulate.add_argument("output_dir", type=Path)
    simulate.add_argument("--seed", type=int, default=7)
    simulate.add_argument("--sensors", type=int, default=20, help="plant only")
    simulate.add_argument("--days", type=int, default=30)
    simulate.add_argument(
        "--samples-per-day", type=int, default=96, help="plant only"
    )
    simulate.add_argument("--drives", type=int, default=24, help="backblaze only")
    simulate.add_argument(
        "--split",
        type=str,
        default=None,
        help="plant only: TRAIN:DEV day counts; also writes train/dev/test CSVs",
    )
    return parser


def _parse_range(text: str) -> ScoreRange:
    try:
        low_text, high_text = text.split(":")
        low, high = float(low_text), float(high_text)
    except ValueError as error:
        raise SystemExit(f"invalid --range {text!r}; expected LOW:HIGH") from error
    return ScoreRange(low, high, inclusive_high=high >= 100.0)


def _parse_n_jobs(text: str) -> int | str:
    if text == "auto":
        return "auto"
    try:
        n_jobs = int(text)
    except ValueError as error:
        raise SystemExit(f"invalid --n-jobs {text!r}; expected an integer or 'auto'") from error
    if n_jobs < 1:
        raise SystemExit(f"invalid --n-jobs {text!r}; must be >= 1")
    return n_jobs


def _setup_observability(args: argparse.Namespace) -> None:
    """Apply ``--log-level`` / ``--log-json``; no flags leaves logging alone."""
    if args.log_level is not None or args.log_json:
        try:
            configure_logging(args.log_level or "INFO", json_mode=args.log_json)
        except ValueError as error:
            raise SystemExit(str(error)) from error


def _write_metrics(framework: AnalyticsFramework, args: argparse.Namespace) -> None:
    if args.metrics_json is not None:
        path = framework.metrics.write_json(args.metrics_json)
        # stderr so `detect --json` stdout stays machine-parseable.
        print(f"metrics snapshot written to {path}", file=sys.stderr)


def _check_chunk_size(args: argparse.Namespace) -> None:
    if args.chunk_size is not None and args.chunk_size < 1:
        raise SystemExit(f"invalid --chunk-size {args.chunk_size}; must be >= 1")


def _command_train(args: argparse.Namespace) -> int:
    _setup_observability(args)
    _check_chunk_size(args)
    training = MultivariateEventLog.from_csv(
        args.training_csv, chunk_size=args.chunk_size
    )
    development = MultivariateEventLog.from_csv(
        args.development_csv, chunk_size=args.chunk_size
    )
    try:
        config = FrameworkConfig(
            language=LanguageConfig(
                word_size=args.word_size,
                word_stride=args.word_stride,
                sentence_length=args.sentence_length,
                sentence_stride=args.sentence_stride,
            ),
            engine=args.engine,
            representation=args.representation,
            detection_range=_parse_range(args.range),
            popular_threshold=args.popular_threshold,
            n_jobs=_parse_n_jobs(args.n_jobs),
            train_engine=args.train_engine,
            train_cohort_size=args.cohort_size,
            prescreen=args.prescreen,
            prescreen_floor=args.prescreen_floor,
        )
    except ValueError as error:
        raise SystemExit(str(error)) from error
    cache_dir = False if args.no_cache else args.cache_dir
    fitted = AnalyticsFramework(config).fit(training, development, cache_dir=cache_dir)
    path = save_framework(fitted, args.model)
    graph = fitted.graph
    print(
        f"trained {graph.num_edges} pair models over {len(graph.sensors)} sensors; "
        f"saved to {path}"
    )
    prescreen = getattr(graph, "prescreen", None)
    if prescreen is not None:
        print(
            f"prescreen ({prescreen.config.method}, floor "
            f"{prescreen.floor:g}): kept {len(prescreen.kept_pairs)} "
            f"pair(s), pruned {len(prescreen.pruned_pairs)} in "
            f"{prescreen.seconds:.2f}s"
        )
    report = fitted.build_report
    if report is not None:
        print(f"build: {report.summary()}")
        if args.report_json is not None:
            args.report_json.parent.mkdir(parents=True, exist_ok=True)
            args.report_json.write_text(json.dumps(report.to_dict(), indent=2))
            print(f"build report written to {args.report_json}")
        if not report.ok:
            print(
                f"warning: {len(report.skipped)} pair(s) skipped after retries",
                file=sys.stderr,
            )
    _write_metrics(fitted, args)
    return 0


def _command_detect(args: argparse.Namespace) -> int:
    _setup_observability(args)
    _check_chunk_size(args)
    framework = load_framework(args.model)
    testing = MultivariateEventLog.from_csv(
        args.testing_csv, chunk_size=args.chunk_size
    )
    result = framework.detect(testing)
    _write_metrics(framework, args)
    if args.json:
        payload = {
            "anomaly_scores": [float(s) for s in result.anomaly_scores],
            "alarms": result.anomalous_windows(args.threshold),
            "valid_pairs": [list(pair) for pair in result.valid_pairs],
        }
        print(json.dumps(payload, indent=2))
        return 0
    print(f"{result.num_windows} windows over {result.num_valid_pairs} valid pairs")
    for window, score in enumerate(result.anomaly_scores):
        alarm = "  <-- ALARM" if score >= args.threshold else ""
        print(f"window {window:4d}: {score:5.3f}{alarm}")
    alarms = result.anomalous_windows(args.threshold)
    print(f"alarms (score >= {args.threshold}): {alarms}")
    return 0


def _command_inspect(args: argparse.Namespace) -> int:
    framework = load_framework(args.model)
    if framework.graph is None:
        print("model is not fitted", file=sys.stderr)
        return 1
    print(ascii_table(
        [s.as_row() for s in framework.subgraph_statistics()],
        title="Global subgraph statistics (Table I)",
    ))
    print(f"\npopular sensors: {framework.popular_sensors()}")
    clusters = framework.clusters()
    print(f"clusters: {[sorted(c) for c in clusters]}")
    if args.export_json is not None:
        path = save_graph_json(framework.graph, args.export_json)
        print(f"graph JSON written to {path}")
    if args.export_graphml is not None:
        path = save_graphml(framework.graph, args.export_graphml)
        print(f"GraphML written to {path}")
    if args.report is not None:
        from .pipeline.reporting import write_report

        path = write_report(framework, args.report)
        print(f"markdown report written to {path}")
    return 0


def _command_cache(args: argparse.Namespace) -> int:
    from .pipeline.artifacts import ArtifactStore

    store = ArtifactStore(args.cache_dir)
    removed = 0
    if args.purge:
        removed = store.purge()
    elif args.gc_days is not None:
        if args.gc_days < 0:
            raise SystemExit(f"invalid --gc-days {args.gc_days}; must be >= 0")
        removed = store.gc(max_age_seconds=args.gc_days * 86400.0)
    stats = store.stats()
    if args.json:
        payload = {
            "cache_dir": str(store.root),
            "artifacts": stats.num_artifacts,
            "total_bytes": stats.total_bytes,
            "by_kind": stats.as_rows(),
            "removed": removed,
        }
        print(json.dumps(payload, indent=2))
        return 0
    if args.purge or args.gc_days is not None:
        print(f"removed {removed} artifact(s)")
    print(
        f"cache {store.root}: {stats.num_artifacts} artifact(s), "
        f"{stats.total_bytes} bytes"
    )
    for row in stats.as_rows():
        print(f"  {row['kind']}: {row['artifacts']} artifact(s), {row['bytes']} bytes")
    return 0


def _scenario_selection(args: argparse.Namespace) -> list[str]:
    if args.all:
        if args.names:
            raise SystemExit("give scenario names or --all, not both")
        return scenario_names()
    if not args.names:
        raise SystemExit(
            "no scenarios selected; name some (see 'scenarios list') or pass --all"
        )
    unknown = [name for name in args.names if name not in SCENARIOS]
    if unknown:
        raise SystemExit(
            f"unknown scenario(s) {unknown}; choose from {scenario_names()}"
        )
    return list(args.names)


def _command_scenarios(args: argparse.Namespace) -> int:
    _setup_observability(args)

    if args.action == "list":
        rows = [
            {
                "scenario": name,
                "kind": (SCENARIOS[name].__doc__ or "").strip().splitlines()[0],
            }
            for name in scenario_names()
        ]
        if args.json:
            print(json.dumps(rows, indent=2))
        else:
            print(ascii_table(rows, title="Registered fault scenarios"))
        return 0

    names = _scenario_selection(args)

    if args.action == "digest":
        payload = {}
        for name in names:
            data = generate_scenario(name, seed=args.seed, tier=args.tier)
            payload[name] = data.digest
        if args.json:
            print(json.dumps(payload, indent=2))
        else:
            for name, digest in payload.items():
                print(f"{name} {digest}")
        return 0

    detectors = tuple(d for d in args.detectors.split(",") if d)
    metrics = MetricsRegistry()
    reports = []
    for name in names:
        data = generate_scenario(name, seed=args.seed, tier=args.tier)
        try:
            report = run_scenario(
                data, detectors=detectors, tier=args.tier, metrics=metrics
            )
        except KeyError as error:
            raise SystemExit(str(error)) from error
        reports.append(report)
        if args.bench is not None:
            append_bench_record(report.to_dict(), args.bench)

    if args.metrics_json is not None:
        path = metrics.write_json(args.metrics_json)
        print(f"metrics snapshot written to {path}", file=sys.stderr)

    if args.json:
        print(json.dumps([report.to_dict() for report in reports], indent=2))
        return 0
    rows = [
        {
            "scenario": report.scenario,
            "detector": outcome.detector,
            "precision": f"{outcome.evaluation.precision:.2f}",
            "recall": f"{outcome.evaluation.recall:.2f}",
            "f1": f"{outcome.evaluation.f1:.2f}",
            "episodes": len(outcome.evaluation.predicted_episodes),
            "events": len(outcome.evaluation.true_events),
        }
        for report in reports
        for outcome in report.outcomes
    ]
    print(ascii_table(rows, title=f"Scenario suite ({args.tier}, seed {args.seed})"))
    if args.bench is not None:
        print(f"benchmark records appended to {args.bench}")
    return 0


def _command_serve(args: argparse.Namespace) -> int:
    from .service import StreamingDetectionService, has_snapshot

    _setup_observability(args)
    _check_chunk_size(args)
    chunk_size = 256 if args.chunk_size is None else args.chunk_size
    if args.shards < 1:
        raise SystemExit(f"invalid --shards {args.shards}; must be >= 1")

    streams: dict[str, Path] = {}
    for spec in args.streams:
        name, separator, csv_path = spec.partition("=")
        if not separator or not name or not csv_path:
            raise SystemExit(
                f"invalid stream {spec!r}; expected NAME=CSV"
            )
        if name in streams:
            raise SystemExit(f"duplicate stream name {name!r}")
        streams[name] = Path(csv_path)

    framework = load_framework(args.model)
    if framework.graph is None:
        print("model is not fitted", file=sys.stderr)
        return 1
    logs = {
        name: MultivariateEventLog.from_csv(path, chunk_size=args.chunk_size)
        for name, path in streams.items()
    }

    metrics = MetricsRegistry()
    service = StreamingDetectionService(
        framework.graph,
        list(streams),
        num_shards=args.shards,
        queue_depth=64 if args.queue_depth is None else args.queue_depth,
        backpressure=args.backpressure,
        score_range=framework.config.detection_range,
        metrics=metrics,
        autostart=False,
    )
    restored = False
    if args.snapshot_dir is not None and has_snapshot(args.snapshot_dir):
        service.restore(args.snapshot_dir)
        restored = True
        print(f"resumed from snapshot {args.snapshot_dir}", file=sys.stderr)
    service.start()

    # Interleave the tenant streams chunk-by-chunk, the shape a fleet
    # of concurrent producers would deliver.
    for name, log in logs.items():
        for start in range(0, log.num_samples, chunk_size):
            stop = min(start + chunk_size, log.num_samples)
            block = {
                sensor: log[sensor].events[start:stop]
                for sensor in log.sensors
            }
            service.submit(name, block)
    feed = service.merged_feed()
    pending = {k: v for k, v in service.pending_samples().items() if v}
    errors = {tenant: str(error) for tenant, error in service.errors.items()}
    if args.snapshot_dir is not None:
        service.snapshot(args.snapshot_dir)
        print(f"snapshot written to {args.snapshot_dir}", file=sys.stderr)
    service.close()

    dropped = int(metrics.value("service.dropped", 0))
    if args.metrics_json is not None:
        path = metrics.write_json(args.metrics_json)
        print(f"metrics snapshot written to {path}", file=sys.stderr)

    if args.json:
        payload = {
            "shards": args.shards,
            "tenants": list(streams),
            "restored": restored,
            "windows": [
                {
                    "tenant": fleet_window.tenant,
                    "shard": fleet_window.shard_id,
                    "window_index": fleet_window.window.window_index,
                    "start_sample": fleet_window.window.start_sample,
                    "anomaly_score": fleet_window.window.anomaly_score,
                    "broken_pairs": [
                        list(pair)
                        for pair in fleet_window.window.broken_pairs
                    ],
                }
                for fleet_window in feed
            ],
            "alarms": [
                [fw.tenant, fw.window.window_index]
                for fw in feed
                if fw.window.anomaly_score >= args.threshold
            ],
            "pending_samples": pending,
            "dropped_chunks": dropped,
            "errors": errors,
        }
        print(json.dumps(payload, indent=2))
        return 1 if errors else 0

    print(
        f"served {len(streams)} stream(s) over {args.shards} shard(s): "
        f"{len(feed)} windows"
    )
    for fleet_window in feed:
        window = fleet_window.window
        alarm = "  <-- ALARM" if window.anomaly_score >= args.threshold else ""
        print(
            f"{fleet_window.tenant:>16s} shard {fleet_window.shard_id} "
            f"window {window.window_index:4d}: {window.anomaly_score:5.3f}"
            f"{alarm}"
        )
    if pending:
        print(f"pending residual samples: {pending}")
    if dropped:
        print(f"dropped chunks under reject backpressure: {dropped}")
    for tenant, error in errors.items():
        print(f"quarantined {tenant}: {error}", file=sys.stderr)
    return 1 if errors else 0


def _command_bench_online(args: argparse.Namespace) -> int:
    from .bench.online import (
        DEFAULT_ONLINE_CHUNK,
        DEFAULT_SHARD_COUNTS,
        run_online_bench,
    )

    shard_counts: tuple[int, ...] = DEFAULT_SHARD_COUNTS
    if args.shard_counts is not None:
        try:
            shard_counts = tuple(
                int(value) for value in args.shard_counts.split(",") if value
            )
        except ValueError as error:
            raise SystemExit(
                f"invalid --shard-counts {args.shard_counts!r}; "
                "expected comma-separated integers"
            ) from error
    if not shard_counts or any(count < 1 for count in shard_counts):
        raise SystemExit(f"invalid --shard-counts {args.shard_counts!r}")
    if args.tenants < 1:
        raise SystemExit(f"invalid --tenants {args.tenants}; must be >= 1")
    chunk_size = DEFAULT_ONLINE_CHUNK if args.chunk_size is None else args.chunk_size

    metrics = MetricsRegistry()
    records = run_online_bench(
        shard_counts=shard_counts,
        num_tenants=args.tenants,
        seed=11 if args.seed is None else args.seed,
        chunk_size=chunk_size,
        bench_path=args.bench,
        metrics=metrics,
    )
    if args.metrics_json is not None:
        path = metrics.write_json(args.metrics_json)
        print(f"metrics snapshot written to {path}", file=sys.stderr)
    if args.json:
        print(json.dumps(records, indent=2))
        return 0
    rows = [
        {
            "shards": record["shards"],
            "tenants": record["tenants"],
            "events/s": f"{record['events_per_second']:.0f}",
            "p50 ms": f"{record['p50_latency_seconds'] * 1e3:.1f}",
            "p99 ms": f"{record['p99_latency_seconds'] * 1e3:.1f}",
            "windows": record["windows"],
            "parity": record["parity"],
            "warm trained": record["warm_start"]["trained"],
        }
        for record in records
    ]
    print(ascii_table(rows, title=f"Online service bench (chunk_size={chunk_size})"))
    if args.bench is not None:
        print(f"benchmark records appended to {args.bench}")
    return 0


def _command_bench(args: argparse.Namespace) -> int:
    _setup_observability(args)
    if args.action == "online":
        return _command_bench_online(args)
    from .bench.scale import DEFAULT_SCALE_CHUNK, SCALE_TIERS, run_scale_ladder

    chunk_size = DEFAULT_SCALE_CHUNK if args.chunk_size is None else args.chunk_size
    if chunk_size < 1:
        raise SystemExit(f"invalid --chunk-size {chunk_size}; must be >= 1")
    tiers = None
    if args.tiers is not None:
        tiers = [name for name in args.tiers.split(",") if name]
        unknown = [name for name in tiers if name not in SCALE_TIERS]
        if unknown:
            raise SystemExit(
                f"unknown tier(s) {unknown}; choose from {sorted(SCALE_TIERS)}"
            )
    metrics = MetricsRegistry()
    records = run_scale_ladder(
        tiers=tiers,
        chunk_size=chunk_size,
        seed=args.seed,
        bench_path=args.bench,
        metrics=metrics,
    )
    if args.metrics_json is not None:
        path = metrics.write_json(args.metrics_json)
        print(f"metrics snapshot written to {path}", file=sys.stderr)
    if args.json:
        print(json.dumps(records, indent=2))
        return 0
    rows = []
    for record in records:
        phases = record["phases"]
        rows.append(
            {
                "tier": record["tier"],
                "events": record["total_events"],
                "ingest chunked s": f"{phases['ingest_chunked']['seconds']:.2f}",
                "ingest peak MB": f"{phases['ingest_chunked']['peak_bytes'] / 1e6:.1f}",
                "resident peak MB": f"{phases['ingest_resident']['peak_bytes'] / 1e6:.1f}",
                "fit s": f"{phases['fit']['seconds']:.2f}",
                "detect s": f"{phases['detect']['seconds']:.2f}",
                "rss MB": f"{record['ru_maxrss_kb'] / 1024:.0f}",
            }
        )
    print(ascii_table(rows, title=f"Scale ladder (chunk_size={chunk_size})"))
    if args.bench is not None:
        print(f"benchmark records appended to {args.bench}")
    return 0


def _command_simulate(args: argparse.Namespace) -> int:
    from .datasets import (
        BackblazeConfig,
        PlantConfig,
        generate_backblaze_dataset,
        generate_plant_dataset,
        save_backblaze_dataset,
        save_plant_dataset,
    )

    if args.kind == "plant":
        # Scale the default anomaly/precursor days (21/28 and 19/20/27
        # of a 30-day month) to the requested horizon.
        def scaled(day: int) -> int:
            return max(2, min(args.days, round(day * args.days / 30)))

        config = PlantConfig(
            num_sensors=args.sensors,
            days=args.days,
            samples_per_day=args.samples_per_day,
            anomaly_days=tuple(sorted({scaled(21), scaled(28)})),
            precursor_days=tuple(sorted({scaled(19), scaled(20), scaled(27)} - {scaled(21), scaled(28)})),
            seed=args.seed,
        )
        dataset = generate_plant_dataset(config)
        directory = save_plant_dataset(dataset, args.output_dir)
        print(
            f"plant dataset: {config.num_sensors} sensors x "
            f"{config.total_samples} samples -> {directory}"
        )
        if args.split is not None:
            try:
                train_days, dev_days = (int(v) for v in args.split.split(":"))
            except ValueError as error:
                raise SystemExit(
                    f"invalid --split {args.split!r}; expected TRAIN:DEV"
                ) from error
            train, dev, test = dataset.split(train_days, dev_days)
            train.to_csv(directory / "train.csv")
            dev.to_csv(directory / "dev.csv")
            test.to_csv(directory / "test.csv")
            print(f"split CSVs written ({train_days}/{dev_days}/rest days)")
    else:
        config = BackblazeConfig(num_drives=args.drives, days=max(args.days, 60), seed=args.seed)
        dataset = generate_backblaze_dataset(config)
        directory = save_backblaze_dataset(dataset, args.output_dir)
        print(
            f"backblaze dataset: {len(dataset)} drives "
            f"({len(dataset.failed_serials)} failures) -> {directory}"
        )
    return 0


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    handlers = {
        "train": _command_train,
        "build": _command_train,
        "detect": _command_detect,
        "inspect": _command_inspect,
        "cache": _command_cache,
        "scenarios": _command_scenarios,
        "serve": _command_serve,
        "bench": _command_bench,
        "simulate": _command_simulate,
    }
    return handlers[args.command](args)


if __name__ == "__main__":
    raise SystemExit(main())
