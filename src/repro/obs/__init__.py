"""Observability: metrics registry, structured logging, timing spans.

This package is the framework-wide measurement substrate:

- :mod:`repro.obs.metrics` — :class:`MetricsRegistry` with counters,
  gauges and histograms; thread-safe, mergeable across executor
  workers and serialisable to JSON (``repro-metrics-v1`` snapshots);
- :mod:`repro.obs.logs` — the ``repro`` logger hierarchy with a
  NullHandler default and the :func:`configure_logging` entry point
  (text or JSON lines);
- :mod:`repro.obs.timing` — :class:`Stopwatch` and :func:`span` for
  span-style wall-clock measurement.

It deliberately imports nothing from the rest of the library, so every
layer (pipeline, translation, detection, CLI) can depend on it without
cycles.  See ``docs/observability.md`` for the logger names, the metric
catalogue and the snapshot schema.
"""

from .logs import ROOT_LOGGER, JsonFormatter, configure_logging, get_logger
from .metrics import (
    SNAPSHOT_SCHEMA,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    atomic_write_text,
)
from .timing import Stopwatch, span

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "JsonFormatter",
    "MetricsRegistry",
    "ROOT_LOGGER",
    "SNAPSHOT_SCHEMA",
    "Stopwatch",
    "atomic_write_text",
    "configure_logging",
    "get_logger",
    "span",
]
