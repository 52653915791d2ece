"""Parallel execution of Algorithm 1's pair-training loop.

Algorithm 1 trains ``N(N-1)`` independent directional translation
models — the paper's acknowledged bottleneck (Figure 4a: ~2.5 minutes
per NMT pair).  :class:`PairExecutor` fans the ordered-pair list out
over a ``concurrent.futures`` pool, streams progress callbacks back in
completion order, retries a failed pair once before recording it as a
skipped edge, and hands every finished pair to an optional completion
callback as it finishes — the pair-train stage saves it to the
artifact store there, so an interrupted build resumes without
retraining.

Determinism: every pair model is trained independently from a fresh
factory instance (seeded by its own configuration), so scheduling
order cannot change any score; the caller assembles the relationship
dict in the original pair order, making serial and parallel builds
byte-identical.
"""

from __future__ import annotations

import os
import time
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, ThreadPoolExecutor, wait
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable

import numpy as np

from ..obs import MetricsRegistry, Stopwatch, get_logger

logger = get_logger(__name__)

if TYPE_CHECKING:  # pragma: no cover - heavy imports deferred to workers
    from ..graph.mvrg import PairwiseRelationship
    from ..lang.corpus import ParallelCorpus
    from ..translation.base import Sentence, TranslationModel

__all__ = ["PairExecutor", "PairTask", "SkippedPair", "BuildReport", "BACKENDS"]

BACKENDS = ("auto", "serial", "thread", "process", "batched")

#: Engine-or-factory description shipped to workers.  ``("engine",
#: name, nmt_config)`` is always picklable; ``("factory", callable)``
#: is used for custom factories and keeps work on threads by default.
FactorySpec = tuple


@dataclass(frozen=True)
class PairTask:
    """One unit of Algorithm 1 work: train and score ``source -> target``."""

    source: str
    target: str
    corpus: "ParallelCorpus"
    dev_source: list["Sentence"]
    dev_target: list["Sentence"]

    @property
    def pair(self) -> tuple[str, str]:
        return (self.source, self.target)


@dataclass(frozen=True)
class SkippedPair:
    """A pair whose model failed every attempt and was left out of the graph."""

    source: str
    target: str
    error: str
    attempts: int

    @property
    def pair(self) -> tuple[str, str]:
        return (self.source, self.target)


@dataclass
class BuildReport:
    """What happened during one Algorithm 1 build.

    ``completed`` lists pairs trained this run, ``cached`` pairs
    restored from the content-addressed artifact store (including
    pairs a killed earlier build saved before it died), ``skipped``
    pairs that failed after retry (with their error strings),
    ``pruned`` pairs the affinity prescreen removed before any model
    was scheduled (see :mod:`repro.graph.prescreen`).  Every requested
    pair lands in exactly one of those buckets: for a full grid their
    sizes sum to ``N(N-1)``.  The build aborts on structural errors and
    on a failing completion callback (a store write); per-pair model
    failures degrade to skipped edges.
    """

    n_jobs: int = 1
    backend: str = "serial"
    completed: list[tuple[str, str]] = field(default_factory=list)
    cached: list[tuple[str, str]] = field(default_factory=list)
    skipped: list[SkippedPair] = field(default_factory=list)
    pruned: list[tuple[str, str]] = field(default_factory=list)
    wall_seconds: float = 0.0
    #: Number of lockstep tensor-program cohorts run (batched backend).
    cohorts: int = 0

    @property
    def ok(self) -> bool:
        return not self.skipped

    @property
    def num_trained(self) -> int:
        return len(self.completed)

    def summary(self) -> str:
        parts = [
            f"{len(self.completed)} pair(s) trained",
            f"{len(self.cached)} cached",
            f"{len(self.skipped)} skipped",
            f"{len(self.pruned)} pruned",
            f"n_jobs={self.n_jobs}",
            f"backend={self.backend}",
            f"{self.wall_seconds:.2f}s",
        ]
        if self.cohorts:
            parts.insert(4, f"{self.cohorts} cohort(s)")
        line = ", ".join(parts)
        for failure in self.skipped:
            line += f"\n  skipped {failure.source}->{failure.target}: {failure.error}"
        return line

    def to_dict(self) -> dict:
        """JSON-ready view of the report (consumed by CI cache checks)."""
        return {
            "n_jobs": self.n_jobs,
            "backend": self.backend,
            "trained": len(self.completed),
            "cached": len(self.cached),
            "skipped": len(self.skipped),
            "pruned": len(self.pruned),
            "cohorts": self.cohorts,
            "wall_seconds": self.wall_seconds,
            "trained_pairs": [list(pair) for pair in self.completed],
            "cached_pairs": [list(pair) for pair in self.cached],
            "pruned_pairs": [list(pair) for pair in self.pruned],
            "skipped_pairs": [
                {"pair": [failure.source, failure.target], "error": failure.error}
                for failure in self.skipped
            ],
        }


def _resolve_factory(spec: FactorySpec) -> Callable[[], "TranslationModel"]:
    kind = spec[0]
    if kind == "engine":
        from ..translation.factory import translator_factory

        return translator_factory(spec[1], spec[2])
    return spec[1]


def train_pair(task: PairTask, spec: FactorySpec) -> "PairwiseRelationship":
    """Train and score one directional pair (runs inside a worker).

    The train and dev-evaluation phases are timed separately inside the
    worker; the caller merges them into the build's metrics registry,
    so per-pair timings survive the process-pool boundary through the
    returned relationship.
    """
    from ..graph.mvrg import PairwiseRelationship
    from ..translation.bleu import corpus_bleu, sentence_bleu

    watch = Stopwatch()
    model = _resolve_factory(spec)()
    model.fit(task.corpus)
    train_seconds = watch.split()
    translations = model.translate(task.dev_source)
    score = corpus_bleu(translations, task.dev_target, smooth=True)
    sentence_scores = np.asarray(
        [
            sentence_bleu(candidate, reference)
            for candidate, reference in zip(translations, task.dev_target)
        ]
    )
    eval_seconds = watch.split()
    return PairwiseRelationship(
        source=task.source,
        target=task.target,
        model=model,
        score=score,
        dev_sentence_scores=sentence_scores,
        runtime_seconds=watch.elapsed,
        train_seconds=train_seconds,
        eval_seconds=eval_seconds,
    )


class PairExecutor:
    """Schedules Algorithm 1's pair-training tasks over a worker pool.

    Parameters
    ----------
    n_jobs:
        Worker count; ``"auto"`` uses the CPU count.  ``1`` runs
        serially in-process (no pool).
    backend:
        ``"thread"``, ``"process"``, ``"serial"``, ``"batched"``, or
        ``"auto"``.  ``"auto"`` picks threads for the GIL-light n-gram
        engine and custom factories, processes for the CPU-bound
        seq2seq engine.  ``"batched"`` trains shape-compatible seq2seq
        pairs in lockstep cohorts inside one tensor program (see
        :class:`~repro.translation.BatchedPairTrainer`); pairs whose
        corpora cannot be packed, or a whole cohort that fails, fall
        back to serial looped training.
    cohort_size:
        Maximum pairs per batched cohort (``None`` uses the trainer's
        default); only meaningful with the ``"batched"`` backend.
    retries:
        How many times a failed pair is retried (with a fresh model)
        before being recorded as a skipped edge.
    progress:
        ``(source, target, score)`` callback streamed in completion
        order, always from the calling thread.
    on_complete:
        Optional callback taking each freshly trained
        :class:`~repro.graph.PairwiseRelationship` as it finishes,
        always from the calling thread (never from a worker).  It runs
        outside the retry loop: an exception it raises aborts the
        build instead of being retried or recorded as a skipped edge.
    metrics:
        Optional :class:`~repro.obs.MetricsRegistry`.  Each ``run``
        records into a private run-local registry — trained/skipped
        counts, retry attempts, and per-pair train/eval seconds
        measured inside the workers — and merges it into ``metrics`` on
        completion, so concurrent runs never interleave partial counts.
    """

    def __init__(
        self,
        n_jobs: int | str = 1,
        backend: str = "auto",
        retries: int = 1,
        progress: Callable[[str, str, float], None] | None = None,
        on_complete: Callable[["PairwiseRelationship"], None] | None = None,
        metrics: MetricsRegistry | None = None,
        cohort_size: int | None = None,
    ) -> None:
        if n_jobs == "auto":
            n_jobs = os.cpu_count() or 1
        if not isinstance(n_jobs, int) or n_jobs < 1:
            raise ValueError(f"n_jobs must be a positive integer or 'auto', got {n_jobs!r}")
        if backend not in BACKENDS:
            raise ValueError(f"unknown executor backend {backend!r}; choose from {BACKENDS}")
        if retries < 0:
            raise ValueError("retries must be non-negative")
        if cohort_size is not None and cohort_size < 1:
            raise ValueError("cohort_size must be >= 1")
        self.n_jobs = n_jobs
        self.backend = backend
        self.retries = retries
        self.progress = progress
        self.on_complete = on_complete
        self.metrics = metrics
        self.cohort_size = cohort_size

    # ------------------------------------------------------------------
    def resolve_backend(self, spec: FactorySpec) -> str:
        """The concrete backend used for a factory spec."""
        if self.backend == "batched":
            if spec[0] == "engine" and spec[1] == "seq2seq":
                return "batched"
            logger.warning(
                "batched backend requires the seq2seq engine; "
                "falling back to auto resolution"
            )
            return "serial" if self.n_jobs == 1 else "thread"
        if self.n_jobs == 1 or self.backend == "serial":
            return "serial"
        if self.backend != "auto":
            return self.backend
        if spec[0] == "engine" and spec[1] == "seq2seq":
            return "process"
        return "thread"

    def run(
        self, tasks: list[PairTask], spec: FactorySpec
    ) -> tuple[dict[tuple[str, str], "PairwiseRelationship"], BuildReport]:
        """Execute every task, returning ``pair -> relationship`` plus a report.

        Results are keyed by pair, not ordered by completion; skipped
        pairs are absent from the mapping and listed in the report.
        """
        backend = self.resolve_backend(spec)
        report = BuildReport(n_jobs=self.n_jobs, backend=backend)
        start = time.perf_counter()
        results: dict[tuple[str, str], "PairwiseRelationship"] = {}

        # Run-local registry: counters exist (at zero) even on an
        # all-cached build, and the merge into self.metrics at the end
        # is one atomic step per run.
        local = MetricsRegistry()
        for name in ("pair_train.trained", "pair_train.retries", "pair_train.skipped"):
            local.counter(name)
        train_hist = local.histogram("pair_train.train_seconds")
        eval_hist = local.histogram("pair_train.eval_seconds")

        def record(relationship: "PairwiseRelationship") -> None:
            pair = (relationship.source, relationship.target)
            results[pair] = relationship
            report.completed.append(pair)
            local.counter("pair_train.trained").inc()
            # Worker-side timings; custom factories may lack the split
            # fields.
            train_seconds = getattr(relationship, "train_seconds", 0.0)
            eval_seconds = getattr(relationship, "eval_seconds", 0.0)
            if train_seconds or eval_seconds:
                train_hist.observe(train_seconds)
                eval_hist.observe(eval_seconds)
            if self.on_complete is not None:
                self.on_complete(relationship)
            if self.progress is not None:
                self.progress(relationship.source, relationship.target, relationship.score)

        if backend == "serial":
            self._run_serial(tasks, spec, record, report, local)
        elif backend == "batched":
            self._run_batched(tasks, spec, record, report, local)
        else:
            self._run_pool(tasks, spec, record, report, backend, local)
        report.wall_seconds = time.perf_counter() - start
        local.histogram("pair_train.wall_seconds").observe(report.wall_seconds)
        if self.metrics is not None:
            self.metrics.merge(local)
        logger.debug(
            "pair executor finished: %s",
            report.summary().splitlines()[0],
            extra={
                "trained": len(report.completed),
                "skipped": len(report.skipped),
                "backend": backend,
                "n_jobs": self.n_jobs,
                "wall_seconds": report.wall_seconds,
            },
        )
        return results, report

    # ------------------------------------------------------------------
    def _run_serial(
        self,
        pending: list[PairTask],
        spec: FactorySpec,
        record: Callable[["PairwiseRelationship"], None],
        report: BuildReport,
        metrics: MetricsRegistry,
    ) -> None:
        for task in pending:
            for attempt in range(1, self.retries + 2):
                try:
                    relationship = train_pair(task, spec)
                except Exception as error:  # noqa: BLE001 - degrade to a skipped edge
                    if attempt > self.retries:
                        self._record_skip(task, error, attempt, report, metrics)
                    else:
                        self._record_retry(task, error, attempt, metrics)
                else:
                    # Outside the try: a failing completion callback
                    # aborts the build, never retries the pair.
                    record(relationship)
                    break

    def _run_batched(
        self,
        pending: list[PairTask],
        spec: FactorySpec,
        record: Callable[["PairwiseRelationship"], None],
        report: BuildReport,
        metrics: MetricsRegistry,
    ) -> None:
        """Train shape-compatible pairs in lockstep tensor-program cohorts.

        Ragged/empty corpora and whole cohorts that fail for any reason
        degrade to serial looped training, so the batched backend never
        loses pairs the looped backend could train.
        """
        from ..graph.mvrg import PairwiseRelationship
        from ..translation.batched import (
            DEFAULT_COHORT_SIZE,
            BatchedPairTrainer,
            group_cohorts,
        )

        metrics.counter("train.cohorts")
        metrics.counter("train.masked_steps")
        trainer = BatchedPairTrainer(config=spec[2], metrics=metrics)
        cohorts, leftovers = group_cohorts(
            pending, self.cohort_size or DEFAULT_COHORT_SIZE
        )
        for cohort in cohorts:
            try:
                cohort_results = trainer.train_cohort(cohort)
            except Exception as error:  # noqa: BLE001 - degrade to looped training
                logger.warning(
                    "cohort of %d pair(s) failed batched training, "
                    "falling back to looped: %s",
                    len(cohort),
                    error,
                    extra={"pairs": len(cohort)},
                )
                leftovers.extend(cohort)
                continue
            report.cohorts += 1
            metrics.counter("train.cohorts").inc()
            for result in cohort_results:
                record(
                    PairwiseRelationship(
                        source=result.source,
                        target=result.target,
                        model=result.model,
                        score=result.score,
                        dev_sentence_scores=result.dev_sentence_scores,
                        runtime_seconds=result.record.train_seconds
                        + result.record.eval_seconds,
                        train_seconds=result.record.train_seconds,
                        eval_seconds=result.record.eval_seconds,
                    )
                )
        if leftovers:
            logger.debug(
                "training %d pair(s) with the looped engine "
                "(incompatible or failed cohorts)",
                len(leftovers),
            )
            self._run_serial(leftovers, spec, record, report, metrics)

    def _run_pool(
        self,
        pending: list[PairTask],
        spec: FactorySpec,
        record: Callable[["PairwiseRelationship"], None],
        report: BuildReport,
        backend: str,
        metrics: MetricsRegistry,
    ) -> None:
        if not pending:
            return
        pool_cls = ThreadPoolExecutor if backend == "thread" else ProcessPoolExecutor
        workers = min(self.n_jobs, len(pending))
        with pool_cls(max_workers=workers) as pool:
            futures = {pool.submit(train_pair, task, spec): (task, 1) for task in pending}
            try:
                while futures:
                    done, _ = wait(futures, return_when=FIRST_COMPLETED)
                    for future in done:
                        task, attempt = futures.pop(future)
                        try:
                            relationship = future.result()
                        except Exception as error:  # noqa: BLE001 - retry, then skip
                            if attempt <= self.retries:
                                self._record_retry(task, error, attempt, metrics)
                                futures[pool.submit(train_pair, task, spec)] = (
                                    task,
                                    attempt + 1,
                                )
                            else:
                                self._record_skip(task, error, attempt, report, metrics)
                        else:
                            record(relationship)
            except BaseException:
                # Interrupt, kill or a failing completion callback: drop
                # queued work so the build exits fast; completed pairs
                # were already handed to the callback.
                for future in futures:
                    future.cancel()
                raise

    # ------------------------------------------------------------------
    @staticmethod
    def _record_retry(
        task: PairTask, error: Exception, attempt: int, metrics: MetricsRegistry
    ) -> None:
        metrics.counter("pair_train.retries").inc()
        logger.warning(
            "pair %s->%s failed attempt %d, retrying: %s",
            task.source,
            task.target,
            attempt,
            error,
            extra={"source": task.source, "target": task.target, "attempt": attempt},
        )

    @staticmethod
    def _record_skip(
        task: PairTask,
        error: Exception,
        attempt: int,
        report: BuildReport,
        metrics: MetricsRegistry,
    ) -> None:
        report.skipped.append(SkippedPair(task.source, task.target, str(error), attempt))
        metrics.counter("pair_train.skipped").inc()
        logger.warning(
            "pair %s->%s skipped after %d attempt(s): %s",
            task.source,
            task.target,
            attempt,
            error,
            extra={"source": task.source, "target": task.target, "attempt": attempt},
        )
