"""Span-style timing: stopwatches and context managers.

A timed block either uses :class:`Stopwatch` (when the caller needs
the number itself, e.g. to build a
:class:`~repro.translation.trainer.TrainingRecord`) or :func:`span`
(when the duration should land in a
:class:`~repro.obs.metrics.MetricsRegistry` histogram and/or a DEBUG
log line).
"""

from __future__ import annotations

import logging
import time
from contextlib import contextmanager
from typing import Any, Iterator

from .metrics import MetricsRegistry

__all__ = ["Stopwatch", "span"]


class Stopwatch:
    """A restartable wall-clock timer over ``time.perf_counter``.

    Usable as a context manager (``with Stopwatch() as watch: ...``) or
    imperatively (``watch = Stopwatch(); ...; watch.split()``).
    ``elapsed`` reads without stopping; ``split()`` returns the time
    since the last split (or start), for train/eval phase accounting.
    """

    def __init__(self) -> None:
        self._start = time.perf_counter()
        self._last_split = self._start

    def restart(self) -> "Stopwatch":
        self._start = time.perf_counter()
        self._last_split = self._start
        return self

    @property
    def elapsed(self) -> float:
        """Seconds since start (or the last :meth:`restart`)."""
        return time.perf_counter() - self._start

    def split(self) -> float:
        """Seconds since the previous split (or start); advances the split."""
        now = time.perf_counter()
        seconds = now - self._last_split
        self._last_split = now
        return seconds

    def __enter__(self) -> "Stopwatch":
        return self.restart()

    def __exit__(self, *exc_info: object) -> None:
        pass


@contextmanager
def span(
    name: str,
    metrics: MetricsRegistry | None = None,
    logger: logging.Logger | None = None,
    level: int = logging.DEBUG,
    **fields: Any,
) -> Iterator[Stopwatch]:
    """Time a block; record it as a histogram observation and a log line.

    ``name`` is both the histogram name (when ``metrics`` is given) and
    the ``span`` field of the emitted record; extra keyword ``fields``
    travel as structured logging fields.  The duration is recorded even
    when the block raises, so failed work still shows up in timings.
    """
    watch = Stopwatch()
    try:
        yield watch
    finally:
        seconds = watch.elapsed
        if metrics is not None:
            metrics.histogram(name).observe(seconds)
        if logger is not None and logger.isEnabledFor(level):
            logger.log(
                level,
                "%s took %.6fs",
                name,
                seconds,
                extra={"span": name, "seconds": seconds, **fields},
            )
