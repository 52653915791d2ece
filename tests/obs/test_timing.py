"""Tests for stopwatches and spans."""

from __future__ import annotations

import io
import json

import pytest

from repro.obs import MetricsRegistry, Stopwatch, configure_logging, get_logger, span


class TestStopwatch:
    def test_elapsed_is_monotonic(self):
        watch = Stopwatch()
        first = watch.elapsed
        second = watch.elapsed
        assert 0.0 <= first <= second

    def test_split_partitions_elapsed(self):
        watch = Stopwatch()
        a = watch.split()
        b = watch.split()
        assert a >= 0.0 and b >= 0.0
        assert watch.elapsed >= a + b

    def test_restart_resets(self):
        watch = Stopwatch()
        watch.split()
        watch.restart()
        assert watch.elapsed < 10.0  # fresh start, not accumulated

    def test_context_manager_restarts(self):
        watch = Stopwatch()
        with watch as inner:
            assert inner is watch


class TestSpan:
    def test_records_histogram(self):
        registry = MetricsRegistry()
        with span("work.seconds", metrics=registry):
            pass
        assert registry.histogram("work.seconds").count == 1

    def test_records_even_on_raise(self):
        registry = MetricsRegistry()
        with pytest.raises(RuntimeError):
            with span("work.seconds", metrics=registry):
                raise RuntimeError("boom")
        assert registry.histogram("work.seconds").count == 1

    def test_logs_structured_fields(self, _capture_json_logs):
        stream = _capture_json_logs
        with span("work.seconds", logger=get_logger("test"), stage="corpus"):
            pass
        record = json.loads(stream.getvalue())
        assert record["span"] == "work.seconds"
        assert record["stage"] == "corpus"
        assert record["seconds"] >= 0.0


@pytest.fixture
def _capture_json_logs():
    import logging

    from repro.obs import ROOT_LOGGER

    root = logging.getLogger(ROOT_LOGGER)
    before = list(root.handlers)
    before_level = root.level
    stream = io.StringIO()
    configure_logging("DEBUG", json_mode=True, stream=stream)
    yield stream
    for handler in list(root.handlers):
        if handler not in before:
            root.removeHandler(handler)
    root.setLevel(before_level)
