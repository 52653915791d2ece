"""Executor speedup — parallel Algorithm 1 vs the serial pair loop.

The paper reports ~2.5 minutes of GPU time per NMT pair (Figure 4a), so
the pair loop is the build's bottleneck.  This bench fits a 6-sensor
plant-style log (30 ordered pairs) twice — ``n_jobs=1`` vs ``n_jobs=4``
— and asserts at least a 2x wall-clock win.

The per-pair model is the n-gram engine wrapped with a fixed training
latency (a stand-in for the neural engine's per-pair cost) so the bench
measures the *scheduler's* concurrency rather than this machine's core
count: the latency is GIL-free sleep, which threads overlap on any
hardware, exactly as the seq2seq engine's numpy-heavy training overlaps
on multicore machines.  The pure n-gram timings are also printed for
reference (on a single-core box those cannot speed up, and do not
assert).
"""

from __future__ import annotations

import time

import numpy as np

from repro.graph import MultivariateRelationshipGraph
from repro.lang import LanguageConfig, MultivariateEventLog
from repro.pipeline import FrameworkConfig
from repro.translation.ngram import NGramTranslator

PAIR_LATENCY_SECONDS = 0.03


class LatencyNGramTranslator(NGramTranslator):
    """N-gram model with a fixed per-pair training latency."""

    def fit(self, corpus):
        time.sleep(PAIR_LATENCY_SECONDS)
        return super().fit(corpus)


def six_sensor_log(total: int = 480) -> MultivariateEventLog:
    rng = np.random.default_rng(99)
    a = [("ON" if (t // 6) % 2 == 0 else "OFF") for t in range(total)]
    c = [("HI" if (t // 8) % 2 == 0 else "LO") for t in range(total)]
    e = [str(rng.integers(0, 3)) for _ in range(total)]
    return MultivariateEventLog.from_mapping(
        {
            "sA": a,
            "sB": ["OFF", "OFF"] + a[:-2],
            "sC": c,
            "sD": ["LO"] + c[:-1],
            "sE": e,
            "sF": ["0"] + e[:-1],
        }
    )


def timed_build(log, n_jobs: int, model_factory=None) -> tuple[float, dict]:
    config = FrameworkConfig(
        language=LanguageConfig(
            word_size=4, word_stride=1, sentence_length=5, sentence_stride=5
        ),
        n_jobs=n_jobs,
        executor_backend="thread" if n_jobs > 1 else "auto",
    )
    start = time.perf_counter()
    graph = MultivariateRelationshipGraph.build(
        log.slice(0, 360), log.slice(360, 480), config, model_factory=model_factory
    )
    return time.perf_counter() - start, graph.scores()


def test_parallel_build_at_least_2x_faster():
    log = six_sensor_log()
    serial_wall, serial_scores = timed_build(log, 1, LatencyNGramTranslator)
    parallel_wall, parallel_scores = timed_build(log, 4, LatencyNGramTranslator)
    speedup = serial_wall / parallel_wall
    pairs = len(serial_scores)
    print(f"\nExecutor speedup — {pairs} pairs, {PAIR_LATENCY_SECONDS * 1000:.0f} ms/pair latency:")
    print(f"  n_jobs=1: {serial_wall:.3f}s   n_jobs=4: {parallel_wall:.3f}s   speedup {speedup:.2f}x")
    assert serial_scores == parallel_scores  # parallelism never changes results
    assert speedup >= 2.0


def test_pure_ngram_reference_timings():
    """Informational: the raw n-gram engine with no injected latency.

    On a multicore machine the thread pool wins here too; on a
    single-core CI box it cannot, so this prints without asserting a
    ratio.
    """
    log = six_sensor_log()
    serial_wall, serial_scores = timed_build(log, 1)
    parallel_wall, parallel_scores = timed_build(log, 4)
    print(
        f"\nPure n-gram reference: n_jobs=1 {serial_wall * 1000:.1f} ms, "
        f"n_jobs=4 {parallel_wall * 1000:.1f} ms"
    )
    assert serial_scores == parallel_scores
