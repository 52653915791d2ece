"""In-memory span tree for the benchmark's traced pass.

Spans wrap only the benchmark's own calls into ``repro``; nothing inside
the program under test is instrumented.  Each span records an id, its
parent's id, a name and ``time.perf_counter`` start/end.  Spans stay in
memory until :meth:`Tracer.to_dict` renders them at exit, when leaf spans
repeated under one parent (one per artifact read, say) are folded into a
single record with a call count, so ``trace.json`` stays small.
"""

from __future__ import annotations

import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Iterator

TRACE_SCHEMA = "perf-trace-v1"


class Tracer:
    """Collects nested spans opened with :meth:`span`."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str) -> Iterator[dict]:
        record = {
            "id": len(self.spans),
            "parent": self._open[-1] if self._open else None,
            "name": name,
            "start": time.perf_counter(),
            "end": None,
        }
        self.spans.append(record)
        self._open.append(record["id"])
        try:
            yield record
        finally:
            self._open.pop()
            record["end"] = time.perf_counter()

    # ------------------------------------------------------------------
    def seconds(self, name: str) -> float:
        """Total duration of every span called ``name``."""
        return sum(s["end"] - s["start"] for s in self.spans if s["name"] == name)

    def self_seconds(self) -> dict[str, float]:
        """Per span name: duration minus the time its child spans cover."""
        covered: dict[int, float] = defaultdict(float)
        for span in self.spans:
            if span["parent"] is not None:
                covered[span["parent"]] += span["end"] - span["start"]
        totals: dict[str, float] = defaultdict(float)
        for span in self.spans:
            totals[span["name"]] += span["end"] - span["start"] - covered[span["id"]]
        return dict(totals)

    def nesting_errors(self) -> list[str]:
        """Spans left open or lying outside their parent's interval."""
        errors = []
        for span in self.spans:
            if span["end"] is None:
                errors.append(f"span {span['name']!r} never closed")
                continue
            if span["parent"] is None:
                continue
            parent = self.spans[span["parent"]]
            if parent["end"] is None or not (
                parent["start"] <= span["start"] <= span["end"] <= parent["end"]
            ):
                errors.append(f"span {span['name']!r} escapes {parent['name']!r}")
        return errors

    def to_dict(self) -> dict:
        """The folded span list plus self time per span name."""
        has_children = {s["parent"] for s in self.spans if s["parent"] is not None}
        folded: list[dict] = []
        leaves: dict[tuple, dict] = {}
        for span in self.spans:
            seconds = span["end"] - span["start"]
            key = (span["parent"], span["name"])
            if span["id"] not in has_children and key in leaves:
                record = leaves[key]
                record["count"] += 1
                record["seconds"] += seconds
                record["end"] = span["end"]
                continue
            record = {**span, "count": 1, "seconds": seconds}
            folded.append(record)
            if span["id"] not in has_children:
                leaves[key] = record
        return {
            "schema": TRACE_SCHEMA,
            "spans": folded,
            "self_seconds": self.self_seconds(),
            "nesting_errors": self.nesting_errors(),
        }
