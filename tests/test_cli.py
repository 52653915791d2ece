"""Tests for the command-line interface."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.cli import build_parser, main
from repro.lang import MultivariateEventLog


@pytest.fixture(scope="module")
def csv_logs(tmp_path_factory):
    """Training/dev/test CSVs for a small related-sensor system."""
    root = tmp_path_factory.mktemp("cli-logs")
    rng = np.random.default_rng(9)
    total = 700
    a = [("ON" if (t // 6) % 2 == 0 else "OFF") for t in range(total)]
    b = ["OFF"] + a[:-1]
    c = [str(rng.integers(0, 2)) for _ in range(total)]
    log = MultivariateEventLog.from_mapping({"sA": a, "sB": b, "sC": c})

    train = root / "train.csv"
    dev = root / "dev.csv"
    test = root / "test.csv"
    log.slice(0, 400).to_csv(train)
    log.slice(400, 550).to_csv(dev)
    log.slice(550, 700).to_csv(test)
    return train, dev, test, root


@pytest.fixture(scope="module")
def trained_model(csv_logs):
    train, dev, _, root = csv_logs
    model = root / "model.pkl"
    code = main(
        [
            "train",
            str(train),
            str(dev),
            "--model",
            str(model),
            "--word-size",
            "4",
            "--sentence-length",
            "5",
            "--range",
            "60:100",
            "--popular-threshold",
            "10",
        ]
    )
    assert code == 0
    return model


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_invalid_range_rejected(self, csv_logs):
        train, dev, _, root = csv_logs
        with pytest.raises(SystemExit):
            main(
                [
                    "train",
                    str(train),
                    str(dev),
                    "--model",
                    str(root / "x.pkl"),
                    "--range",
                    "eighty-to-ninety",
                ]
            )


class TestTrainDetectInspect:
    def test_train_writes_model(self, trained_model):
        assert trained_model.exists()

    def test_detect_text_output(self, csv_logs, trained_model, capsys):
        _, _, test, _ = csv_logs
        code = main(["detect", str(test), "--model", str(trained_model)])
        assert code == 0
        out = capsys.readouterr().out
        assert "windows over" in out
        assert "alarms" in out

    def test_detect_json_output(self, csv_logs, trained_model, capsys):
        _, _, test, _ = csv_logs
        code = main(
            ["detect", str(test), "--model", str(trained_model), "--json"]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert "anomaly_scores" in payload
        assert all(0.0 <= s <= 1.0 for s in payload["anomaly_scores"])
        assert payload["valid_pairs"]

    def test_train_with_prescreen_reports_pruned(self, csv_logs, tmp_path, capsys):
        train, dev, test, _ = csv_logs
        model = tmp_path / "pruned.pkl"
        report_path = tmp_path / "report.json"
        code = main(
            [
                "train", str(train), str(dev),
                "--model", str(model),
                "--word-size", "4", "--sentence-length", "5",
                "--range", "60:100", "--popular-threshold", "10",
                "--prescreen", "bleu",
                "--report-json", str(report_path),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "prescreen (bleu" in out
        report = json.loads(report_path.read_text())
        assert report["trained"] + report["pruned"] + report["skipped"] == 6
        assert report["pruned"] == len(report["pruned_pairs"])
        # The pruned model still detects.
        assert main(["detect", str(test), "--model", str(model)]) == 0

    def test_prescreen_floor_zero_prunes_nothing(self, csv_logs, tmp_path):
        train, dev, _, _ = csv_logs
        report_path = tmp_path / "report.json"
        code = main(
            [
                "train", str(train), str(dev),
                "--model", str(tmp_path / "m.pkl"),
                "--word-size", "4", "--sentence-length", "5",
                "--range", "60:100", "--popular-threshold", "10",
                "--prescreen", "bleu", "--prescreen-floor", "0",
                "--report-json", str(report_path),
            ]
        )
        assert code == 0
        report = json.loads(report_path.read_text())
        assert report["pruned"] == 0
        assert report["trained"] == 6

    def test_simulate_plant_with_split(self, tmp_path, capsys):
        code = main(
            [
                "simulate",
                "plant",
                str(tmp_path / "plant"),
                "--sensors",
                "8",
                "--days",
                "20",
                "--samples-per-day",
                "48",
                "--split",
                "10:3",
            ]
        )
        assert code == 0
        for name in ("events.csv", "ground_truth.json", "train.csv", "dev.csv", "test.csv"):
            assert (tmp_path / "plant" / name).exists()

    def test_simulate_backblaze(self, tmp_path):
        code = main(
            ["simulate", "backblaze", str(tmp_path / "drives"), "--drives", "4", "--days", "80"]
        )
        assert code == 0
        assert (tmp_path / "drives" / "manifest.json").exists()

    def test_simulate_invalid_split(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["simulate", "plant", str(tmp_path / "p"), "--split", "ten-three"])

    def test_simulated_split_feeds_train_command(self, tmp_path):
        """The simulate -> train -> detect loop closes end to end."""
        plant_dir = tmp_path / "plant"
        assert main(
            [
                "simulate", "plant", str(plant_dir),
                "--sensors", "8", "--days", "20", "--samples-per-day", "48",
                "--split", "10:3",
            ]
        ) == 0
        model = tmp_path / "m.pkl"
        assert main(
            [
                "train", str(plant_dir / "train.csv"), str(plant_dir / "dev.csv"),
                "--model", str(model),
                "--word-size", "4", "--sentence-length", "5",
                "--range", "60:100", "--popular-threshold", "10",
            ]
        ) == 0
        assert main(["detect", str(plant_dir / "test.csv"), "--model", str(model)]) == 0

    def test_build_alias_with_cache_trains_once(self, csv_logs, tmp_path, capsys):
        """Two `repro build` runs over one --cache-dir: the second trains 0 pairs."""
        train, dev, _, _ = csv_logs
        cache = tmp_path / "cache"
        base = [
            str(train), str(dev),
            "--word-size", "4", "--sentence-length", "5",
            "--range", "60:100", "--popular-threshold", "10",
            "--cache-dir", str(cache),
        ]
        first_report = tmp_path / "first.json"
        assert main(
            ["train", *base, "--model", str(tmp_path / "m1.pkl"),
             "--report-json", str(first_report)]
        ) == 0
        second_report = tmp_path / "second.json"
        assert main(
            ["build", *base, "--model", str(tmp_path / "m2.pkl"),
             "--report-json", str(second_report)]
        ) == 0
        first = json.loads(first_report.read_text())
        second = json.loads(second_report.read_text())
        assert first["cached"] == 0 and first["trained"] > 0
        assert second["trained"] == 0
        assert second["cached"] == first["trained"]

    def test_no_cache_disables_cache_dir(self, csv_logs, tmp_path):
        train, dev, _, _ = csv_logs
        cache = tmp_path / "cache"
        report = tmp_path / "report.json"
        assert main(
            [
                "train", str(train), str(dev),
                "--model", str(tmp_path / "m.pkl"),
                "--word-size", "4", "--sentence-length", "5",
                "--range", "60:100", "--popular-threshold", "10",
                "--cache-dir", str(cache), "--no-cache",
                "--report-json", str(report),
            ]
        ) == 0
        assert not cache.exists()
        assert json.loads(report.read_text())["cached"] == 0

    def test_cache_subcommand_stats_gc_purge(self, csv_logs, tmp_path, capsys):
        train, dev, _, _ = csv_logs
        cache = tmp_path / "cache"
        assert main(
            [
                "train", str(train), str(dev),
                "--model", str(tmp_path / "m.pkl"),
                "--word-size", "4", "--sentence-length", "5",
                "--range", "60:100", "--popular-threshold", "10",
                "--cache-dir", str(cache),
            ]
        ) == 0
        capsys.readouterr()

        assert main(["cache", str(cache), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["artifacts"] > 0
        assert {row["kind"] for row in payload["by_kind"]} >= {"pair"}

        assert main(["cache", str(cache), "--gc-days", "30"]) == 0
        assert "removed 0 artifact(s)" in capsys.readouterr().out

        assert main(["cache", str(cache), "--purge", "--json"]) == 0
        purged = json.loads(capsys.readouterr().out)
        assert purged["removed"] == payload["artifacts"]
        assert purged["artifacts"] == 0

    def test_cache_negative_gc_days_rejected(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["cache", str(tmp_path / "cache"), "--gc-days", "-1"])

    def test_inspect_with_exports(self, csv_logs, trained_model, capsys):
        _, _, _, root = csv_logs
        json_path = root / "graph.json"
        graphml_path = root / "graph.graphml"
        code = main(
            [
                "inspect",
                "--model",
                str(trained_model),
                "--export-json",
                str(json_path),
                "--export-graphml",
                str(graphml_path),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "Global subgraph statistics" in out
        assert json_path.exists()
        assert graphml_path.exists()

    def test_inspect_writes_markdown_report(self, csv_logs, trained_model, capsys):
        _, _, _, root = csv_logs
        report_path = root / "report.md"
        code = main(
            ["inspect", "--model", str(trained_model), "--report", str(report_path)]
        )
        assert code == 0
        content = report_path.read_text()
        assert content.startswith("# Relationship-graph report")
        assert "## Strongest relationships" in content


class TestObservabilityFlags:
    BASE = [
        "--word-size", "4", "--sentence-length", "5",
        "--range", "60:100", "--popular-threshold", "10",
    ]

    def test_train_writes_metrics_snapshot(self, csv_logs, tmp_path):
        from repro.obs import SNAPSHOT_SCHEMA

        train, dev, _, _ = csv_logs
        metrics_path = tmp_path / "metrics.json"
        assert main(
            [
                "train", str(train), str(dev),
                "--model", str(tmp_path / "m.pkl"), *self.BASE,
                "--cache-dir", str(tmp_path / "cache"),
                "--metrics-json", str(metrics_path),
            ]
        ) == 0
        payload = json.loads(metrics_path.read_text())
        assert payload["schema"] == SNAPSHOT_SCHEMA
        metrics = payload["metrics"]
        # Stage timings, cache counters and per-pair training seconds
        # all land in one snapshot.
        assert metrics["stage.pair-train.seconds"]["count"] == 1
        assert metrics["stage.corpus.cache_misses"]["value"] == 1
        assert metrics["pair_train.trained"]["value"] == 6
        assert metrics["pair_train.train_seconds"]["count"] == 6
        assert metrics["pair_train.retries"]["value"] == 0
        assert metrics["pair_train.skipped"]["value"] == 0
        assert metrics["store.misses"]["value"] > 0

    def test_warm_rebuild_metrics_show_zero_trained(self, csv_logs, tmp_path):
        train, dev, _, _ = csv_logs
        cache = tmp_path / "cache"
        base = [
            "train", str(train), str(dev), *self.BASE,
            "--cache-dir", str(cache),
        ]
        assert main([*base, "--model", str(tmp_path / "m1.pkl")]) == 0
        warm_metrics = tmp_path / "warm.json"
        assert main(
            [*base, "--model", str(tmp_path / "m2.pkl"),
             "--metrics-json", str(warm_metrics)]
        ) == 0
        metrics = json.loads(warm_metrics.read_text())["metrics"]
        assert metrics["pair_train.trained"]["value"] == 0
        assert metrics["pair_train.cached"]["value"] == 6
        assert metrics["store.hits"]["value"] >= 6

    def test_detect_metrics_json_keeps_stdout_parseable(
        self, csv_logs, trained_model, tmp_path, capsys
    ):
        _, _, test, _ = csv_logs
        metrics_path = tmp_path / "detect-metrics.json"
        assert main(
            [
                "detect", str(test), "--model", str(trained_model),
                "--json", "--metrics-json", str(metrics_path),
            ]
        ) == 0
        captured = capsys.readouterr()
        payload = json.loads(captured.out)  # stdout is pure JSON
        assert "anomaly_scores" in payload
        assert "metrics snapshot written" in captured.err
        metrics = json.loads(metrics_path.read_text())["metrics"]
        assert metrics["detect.runs"]["value"] == 1
        assert metrics["detect.windows_scored"]["value"] == len(
            payload["anomaly_scores"]
        )

    def test_log_json_emits_json_lines_to_stderr(self, csv_logs, trained_model, capsys):
        import logging

        from repro.obs import ROOT_LOGGER

        _, _, test, _ = csv_logs
        root = logging.getLogger(ROOT_LOGGER)
        try:
            assert main(
                [
                    "detect", str(test), "--model", str(trained_model),
                    "--log-level", "DEBUG", "--log-json",
                ]
            ) == 0
            err_lines = [
                line for line in capsys.readouterr().err.splitlines() if line
            ]
            records = [json.loads(line) for line in err_lines]
            assert records, "expected at least one JSON log record"
            assert all(r["logger"].startswith("repro") for r in records)
            assert any(r["logger"] == "repro.detection.anomaly" for r in records)
        finally:
            for handler in list(root.handlers):
                if getattr(handler, "_repro_obs_handler", False):
                    root.removeHandler(handler)
            root.setLevel(logging.NOTSET)

    def test_invalid_log_level_rejected(self, csv_logs, trained_model):
        _, _, test, _ = csv_logs
        with pytest.raises(SystemExit):
            main(
                ["detect", str(test), "--model", str(trained_model),
                 "--log-level", "LOUD"]
            )


class TestScenariosCommand:
    def test_list_names_every_scenario(self, capsys):
        from repro.scenarios import scenario_names

        assert main(["scenarios", "list"]) == 0
        out = capsys.readouterr().out
        for name in scenario_names():
            assert name in out

    def test_list_json(self, capsys):
        from repro.scenarios import scenario_names

        assert main(["scenarios", "list", "--json"]) == 0
        rows = json.loads(capsys.readouterr().out)
        assert [row["scenario"] for row in rows] == scenario_names()

    def test_digest_is_deterministic(self, capsys):
        args = ["scenarios", "digest", "cascade", "--tier", "tiny", "--seed", "11"]
        assert main(args) == 0
        first = capsys.readouterr().out
        assert main(args) == 0
        assert capsys.readouterr().out == first
        name, digest = first.split()
        assert name == "cascade" and len(digest) == 64

    def test_run_writes_bench_and_json(self, tmp_path, capsys):
        from repro.scenarios import SCENARIO_SCHEMA

        bench = tmp_path / "bench.json"
        assert main(
            [
                "scenarios", "run", "dropout",
                "--tier", "tiny", "--seed", "11",
                "--detectors", "markov",
                "--bench", str(bench), "--json",
            ]
        ) == 0
        reports = json.loads(capsys.readouterr().out)
        assert [r["scenario"] for r in reports] == ["dropout"]
        payload = json.loads(bench.read_text())
        assert payload["schema"] == SCENARIO_SCHEMA
        assert len(payload["records"]) == 1

    def test_run_writes_metrics_snapshot(self, tmp_path, capsys):
        from repro.obs import SNAPSHOT_SCHEMA

        metrics_path = tmp_path / "metrics.json"
        assert main(
            [
                "scenarios", "run", "dropout",
                "--tier", "tiny", "--detectors", "markov",
                "--metrics-json", str(metrics_path),
            ]
        ) == 0
        payload = json.loads(metrics_path.read_text())
        assert payload["schema"] == SNAPSHOT_SCHEMA
        assert payload["metrics"]["scenarios.runs"]["value"] == 1

    def test_run_requires_selection(self):
        with pytest.raises(SystemExit, match="no scenarios selected"):
            main(["scenarios", "run"])

    def test_run_rejects_names_with_all(self):
        with pytest.raises(SystemExit, match="not both"):
            main(["scenarios", "run", "cascade", "--all"])

    def test_unknown_scenario_rejected(self):
        with pytest.raises(SystemExit, match="unknown scenario"):
            main(["scenarios", "run", "nope"])

    def test_unknown_detector_rejected(self):
        with pytest.raises(SystemExit, match="unknown detectors"):
            main(["scenarios", "run", "dropout", "--detectors", "oracle"])


class TestServeCommand:
    def test_serve_feed_matches_detect(self, csv_logs, trained_model, capsys):
        """The merged service feed must carry exactly the batch scores."""
        _, _, test, _ = csv_logs
        assert main(["detect", str(test), "--model", str(trained_model), "--json"]) == 0
        batch = json.loads(capsys.readouterr().out)

        code = main(
            [
                "serve",
                f"lineA={test}",
                f"lineB={test}",
                "--model", str(trained_model),
                "--shards", "2",
                "--json",
            ]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["shards"] == 2
        assert sorted(payload["tenants"]) == ["lineA", "lineB"]
        assert payload["restored"] is False
        assert payload["dropped_chunks"] == 0
        assert payload["errors"] == {}
        for tenant in ("lineA", "lineB"):
            scores = [
                w["anomaly_score"]
                for w in payload["windows"]
                if w["tenant"] == tenant
            ]
            assert len(scores) == len(batch["anomaly_scores"])
            np.testing.assert_allclose(
                scores, batch["anomaly_scores"], atol=1e-12
            )

    def test_serve_snapshot_roundtrip(self, csv_logs, trained_model, tmp_path, capsys):
        _, _, test, _ = csv_logs
        snap = tmp_path / "snap"
        args = [
            "serve", f"lineA={test}",
            "--model", str(trained_model),
            "--snapshot-dir", str(snap),
            "--json",
        ]
        assert main(args) == 0
        first = json.loads(capsys.readouterr().out)
        assert first["restored"] is False
        assert (snap / "manifest.json").exists()

        assert main(args) == 0
        second = json.loads(capsys.readouterr().out)
        assert second["restored"] is True
        # The resumed run continues the stream instead of restarting it.
        first_max = max(w["window_index"] for w in first["windows"])
        second_min = min(w["window_index"] for w in second["windows"])
        assert second_min == first_max + 1

    def test_serve_text_output(self, csv_logs, trained_model, capsys):
        _, _, test, _ = csv_logs
        code = main(
            ["serve", f"only={test}", "--model", str(trained_model)]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "served 1 stream(s)" in out
        assert "shard 0 window" in out

    def test_serve_writes_metrics_snapshot(self, csv_logs, trained_model, tmp_path):
        from repro.obs import SNAPSHOT_SCHEMA

        _, _, test, _ = csv_logs
        metrics_path = tmp_path / "metrics.json"
        assert main(
            [
                "serve", f"only={test}",
                "--model", str(trained_model),
                "--metrics-json", str(metrics_path),
            ]
        ) == 0
        payload = json.loads(metrics_path.read_text())
        assert payload["schema"] == SNAPSHOT_SCHEMA
        assert payload["metrics"]["service.windows_emitted"]["value"] > 0
        assert payload["metrics"]["service.dropped"]["value"] == 0

    def test_serve_invalid_stream_spec_rejected(self, trained_model):
        with pytest.raises(SystemExit, match="NAME=CSV"):
            main(["serve", "no-equals-sign", "--model", str(trained_model)])

    def test_serve_duplicate_stream_rejected(self, csv_logs, trained_model):
        _, _, test, _ = csv_logs
        with pytest.raises(SystemExit, match="duplicate stream"):
            main(
                [
                    "serve", f"x={test}", f"x={test}",
                    "--model", str(trained_model),
                ]
            )

    def test_serve_invalid_shards_rejected(self, csv_logs, trained_model):
        _, _, test, _ = csv_logs
        with pytest.raises(SystemExit, match="--shards"):
            main(
                [
                    "serve", f"x={test}",
                    "--model", str(trained_model),
                    "--shards", "0",
                ]
            )


class TestRemovedCommands:
    def test_bench_is_not_a_command(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["bench", "scale"])
        assert excinfo.value.code == 2
        assert "invalid choice: 'bench'" in capsys.readouterr().err
