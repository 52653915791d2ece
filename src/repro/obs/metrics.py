"""In-process metrics: counters, gauges and histograms.

A :class:`MetricsRegistry` is a named bag of metrics with three types:

- :class:`Counter` — a monotonically increasing count (``inc``);
- :class:`Gauge` — a point-in-time value (``set``);
- :class:`Histogram` — a streaming summary of observations (count,
  total, min, max, mean); :func:`repro.obs.span` times a block into
  one.

Registries are thread-safe (one re-entrant lock per registry, shared by
its metrics), *mergeable* — :meth:`MetricsRegistry.merge` folds another
registry's metrics into this one, which is how per-run executor
registries and worker measurements are combined into the caller's
registry — and serialisable: :meth:`MetricsRegistry.snapshot` renders a
JSON-ready dict (schema ``repro-metrics-v1``, documented in
``docs/observability.md``) and :meth:`MetricsRegistry.write_json`
writes it atomically.  Registries also pickle (the lock is dropped and
recreated), so they can travel inside saved frameworks and across
process-pool boundaries.

Metric names are dotted lowercase paths (``pair_train.trained``,
``stage.corpus.seconds``).  Accessor methods create metrics on first
use, so a metric that was never incremented still appears in the
snapshot with its zero value — consumers can assert ``== 0`` instead of
special-casing absence.
"""

from __future__ import annotations

import json
import os
import tempfile
import threading
from pathlib import Path
from typing import Any, Callable, Iterator

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "SNAPSHOT_SCHEMA",
    "atomic_write_text",
]

#: Format tag embedded in every snapshot (bump on breaking changes).
SNAPSHOT_SCHEMA = "repro-metrics-v1"


def atomic_write_text(path: str | Path, text: str) -> Path:
    """Write already-serialised ``text`` to ``path`` via a temp file and
    ``os.replace``, so a crashed writer leaves the old file or the new
    one, never a torn one.  Creates parent directories; returns the path."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    handle, temp_name = tempfile.mkstemp(dir=path.parent, prefix=path.name, suffix=".tmp")
    try:
        with os.fdopen(handle, "w", encoding="utf-8") as stream:
            stream.write(text)
        os.replace(temp_name, path)
    except BaseException:
        if os.path.exists(temp_name):
            os.unlink(temp_name)
        raise
    return path


class _Metric:
    """Shared plumbing: a name plus the owning registry's lock."""

    kind: str = "metric"

    def __init__(self, name: str, lock: threading.RLock) -> None:
        self.name = name
        self._lock = lock

    # Locks do not pickle; the registry re-injects its own on restore.
    def __getstate__(self) -> dict[str, Any]:
        state = dict(self.__dict__)
        state.pop("_lock", None)
        return state

    def __setstate__(self, state: dict[str, Any]) -> None:
        self.__dict__.update(state)
        self._lock = threading.RLock()

    def to_dict(self) -> dict[str, Any]:  # pragma: no cover - overridden
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}({self.name!r}, {self.to_dict()})"


class Counter(_Metric):
    """A monotonically increasing count."""

    kind = "counter"

    def __init__(self, name: str, lock: threading.RLock) -> None:
        super().__init__(name, lock)
        self.value: int | float = 0

    def inc(self, amount: int | float = 1) -> None:
        if amount < 0:
            raise ValueError("counters only increase; use a gauge instead")
        with self._lock:
            self.value += amount

    def to_dict(self) -> dict[str, Any]:
        return {"type": self.kind, "value": self.value}

    def _merge(self, other: "Counter") -> None:
        self.value += other.value


class Gauge(_Metric):
    """A point-in-time value (last write wins)."""

    kind = "gauge"

    def __init__(self, name: str, lock: threading.RLock) -> None:
        super().__init__(name, lock)
        self.value: float | None = None

    def set(self, value: float) -> None:
        with self._lock:
            self.value = float(value)

    def to_dict(self) -> dict[str, Any]:
        return {"type": self.kind, "value": self.value}

    def _merge(self, other: "Gauge") -> None:
        if other.value is not None:
            self.value = other.value


class Histogram(_Metric):
    """Streaming summary of observations (count/total/min/max/mean)."""

    kind = "histogram"

    def __init__(self, name: str, lock: threading.RLock) -> None:
        super().__init__(name, lock)
        self.count: int = 0
        self.total: float = 0.0
        self.min: float | None = None
        self.max: float | None = None

    def observe(self, value: float) -> None:
        value = float(value)
        with self._lock:
            self.count += 1
            self.total += value
            self.min = value if self.min is None else min(self.min, value)
            self.max = value if self.max is None else max(self.max, value)

    @property
    def mean(self) -> float | None:
        return self.total / self.count if self.count else None

    def to_dict(self) -> dict[str, Any]:
        return {
            "type": self.kind,
            "count": self.count,
            "total": self.total,
            "min": self.min,
            "max": self.max,
            "mean": self.mean,
        }

    def _merge(self, other: "Histogram") -> None:
        if other.count == 0:
            return
        self.count += other.count
        self.total += other.total
        self.min = other.min if self.min is None else min(self.min, other.min)
        self.max = other.max if self.max is None else max(self.max, other.max)


_METRIC_TYPES: dict[str, type[_Metric]] = {
    "counter": Counter,
    "gauge": Gauge,
    "histogram": Histogram,
}


class MetricsRegistry:
    """A named, thread-safe, mergeable bag of metrics."""

    def __init__(self) -> None:
        self._lock = threading.RLock()
        self._metrics: dict[str, _Metric] = {}

    # -- pickling (locks are recreated, metrics re-bound to the new lock)
    def __getstate__(self) -> dict[str, Any]:
        with self._lock:
            return {"metrics": dict(self._metrics)}

    def __setstate__(self, state: dict[str, Any]) -> None:
        self._lock = threading.RLock()
        self._metrics = state["metrics"]
        for metric in self._metrics.values():
            metric._lock = self._lock

    # ------------------------------------------------------------------
    def _get(self, name: str, metric_type: type[_Metric]) -> _Metric:
        if not name:
            raise ValueError("metric name must be non-empty")
        with self._lock:
            metric = self._metrics.get(name)
            if metric is None:
                metric = metric_type(name, self._lock)
                self._metrics[name] = metric
            elif not isinstance(metric, metric_type):
                raise TypeError(
                    f"metric {name!r} is a {metric.kind}, not a "
                    f"{metric_type.kind}"
                )
            return metric

    def counter(self, name: str) -> Counter:
        """The counter named ``name`` (created at 0 on first use)."""
        return self._get(name, Counter)  # type: ignore[return-value]

    def gauge(self, name: str) -> Gauge:
        """The gauge named ``name`` (created unset on first use)."""
        return self._get(name, Gauge)  # type: ignore[return-value]

    def histogram(self, name: str) -> Histogram:
        """The histogram named ``name`` (created empty on first use)."""
        return self._get(name, Histogram)  # type: ignore[return-value]

    # ------------------------------------------------------------------
    def __contains__(self, name: str) -> bool:
        return name in self._metrics

    def __len__(self) -> int:
        return len(self._metrics)

    def names(self) -> list[str]:
        with self._lock:
            return sorted(self._metrics)

    def value(self, name: str, default: Any = None) -> Any:
        """The scalar value of a counter/gauge, or a histogram's count."""
        metric = self._metrics.get(name)
        if metric is None:
            return default
        if isinstance(metric, Histogram):
            return metric.count
        return metric.value  # type: ignore[union-attr]

    def iter_metrics(self) -> Iterator[_Metric]:
        with self._lock:
            return iter(list(self._metrics.values()))

    # ------------------------------------------------------------------
    def merge(self, other: "MetricsRegistry") -> "MetricsRegistry":
        """Fold ``other``'s metrics into this registry.

        Counters and histograms accumulate; gauges take ``other``'s
        value when it is set.  Metrics absent here are created — even at
        zero — so a merged snapshot always carries the full catalogue of
        the merged registries.  Returns ``self`` for chaining.
        """
        with other._lock:
            sources = list(other._metrics.values())
        with self._lock:
            for source in sources:
                target = self._get(source.name, type(source))
                target._merge(source)  # type: ignore[arg-type]
        return self

    # ------------------------------------------------------------------
    def snapshot(self) -> dict[str, Any]:
        """JSON-ready view: ``{"schema": ..., "metrics": {name: {...}}}``."""
        with self._lock:
            metrics = {
                name: metric.to_dict()
                for name, metric in sorted(self._metrics.items())
            }
        return {"schema": SNAPSHOT_SCHEMA, "metrics": metrics}

    def write_json(self, path: str | Path) -> Path:
        """Write :meth:`snapshot` to ``path`` atomically; returns the path."""
        text = json.dumps(self.snapshot(), indent=2, sort_keys=True) + "\n"
        return atomic_write_text(path, text)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"MetricsRegistry({len(self._metrics)} metrics)"
