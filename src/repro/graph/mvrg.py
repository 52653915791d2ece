"""Multivariate relationship graph construction (Algorithm 1).

For every ordered sensor pair ``(i, j)`` a directional translation
model ``g(i, j)`` is trained on the training corpus and scored with
BLEU on the development corpus, giving the relationship strength
``s(i, j)``.  Nodes are sensors; the two directed edges per pair carry
the scores.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Iterator

import networkx as nx
import numpy as np

from ..lang.corpus import LanguageConfig, MultiLanguageCorpus
from ..lang.events import MultivariateEventLog
from ..translation.base import TranslationModel
from ..translation.factory import translator_factory
from ..translation.seq2seq import NMTConfig

__all__ = ["PairwiseRelationship", "MultivariateRelationshipGraph"]


@dataclass
class PairwiseRelationship:
    """A fitted directional relationship ``i -> j``.

    Attributes
    ----------
    model:
        The trained translation model ``g(i, j)``.
    score:
        Development-set corpus BLEU ``s(i, j)`` — the edge weight.
    dev_sentence_scores:
        Smoothed per-sentence BLEU on the development set; the anomaly
        detector's robust threshold strategies are derived from this
        normal-operation score distribution.
    runtime_seconds:
        Wall-clock train+score time (data behind Figure 4a).
    train_seconds, eval_seconds:
        The fit and dev-scoring phases of ``runtime_seconds``,
        measured in the worker that trained the pair and merged into
        the build's metrics registry (``pair_train.train_seconds`` /
        ``pair_train.eval_seconds``).  Zero on relationships restored
        from artifacts written before the split existed.
    """

    source: str
    target: str
    model: TranslationModel
    score: float
    dev_sentence_scores: np.ndarray | None = None
    runtime_seconds: float = 0.0
    train_seconds: float = 0.0
    eval_seconds: float = 0.0

    def threshold(self, strategy: str = "train", quantile: float = 0.1) -> float:
        """The break threshold ``T(i, j)`` under a strategy.

        - ``"train"`` — the paper-literal Algorithm 2: ``T = s(i, j)``;
        - ``"dev-min"`` — the worst per-sentence dev BLEU, so only
          translations worse than anything seen in normal operation
          count as broken;
        - ``"dev-quantile"`` — the ``quantile`` point of the dev
          per-sentence distribution (between the two extremes).
        """
        if strategy == "train" or self.dev_sentence_scores is None:
            return self.score
        if strategy == "dev-min":
            return float(self.dev_sentence_scores.min())
        if strategy == "dev-quantile":
            return float(np.quantile(self.dev_sentence_scores, quantile))
        raise ValueError(f"unknown threshold strategy {strategy!r}")


class MultivariateRelationshipGraph:
    """The directed relationship graph ``G`` returned by Algorithm 1."""

    def __init__(
        self,
        corpus: MultiLanguageCorpus,
        relationships: dict[tuple[str, str], PairwiseRelationship],
    ) -> None:
        self.corpus = corpus
        self.relationships = relationships
        #: Populated by :meth:`build`: completed/cached/skipped pairs,
        #: worker configuration and wall-clock time of the build.
        self.build_report = None
        #: Populated by :meth:`build` when the affinity prescreen ran:
        #: the :class:`~repro.graph.prescreen.PrescreenResult` with the
        #: affinity matrix, resolved floor and pruning decisions.
        self.prescreen = None

    # ------------------------------------------------------------------
    @classmethod
    def build(
        cls,
        training_log: MultivariateEventLog,
        development_log: MultivariateEventLog,
        config: LanguageConfig | None = None,
        engine: str = "ngram",
        nmt_config: NMTConfig | None = None,
        model_factory: Callable[[], TranslationModel] | None = None,
        pairs: Iterable[tuple[str, str]] | None = None,
        progress: Callable[[str, str, float], None] | None = None,
        n_jobs: int | str = 1,
        backend: str = "auto",
        train_engine: str = "looped",
        cohort_size: int | None = None,
        retries: int = 1,
        store: "ArtifactStore | str | None" = None,
        representation: str = "codes",
        metrics: "MetricsRegistry | None" = None,
        prescreen: "str | PrescreenConfig | None" = "off",
    ) -> "MultivariateRelationshipGraph":
        """Run Algorithm 1 as a stage graph.

        Parameters
        ----------
        training_log, development_log:
            Normal-operation event logs.  Languages (encoders,
            vocabularies) are fitted on the training log; BLEU scores
            ``s(i, j)`` are measured on the development log.
        config:
            Language windowing configuration; defaults to the paper's
            plant settings.
        engine, nmt_config, model_factory:
            Translation engine selection; ``model_factory`` overrides
            ``engine`` when given.
        pairs:
            Optional subset of ordered pairs to model (default: all
            ``N(N-1)`` ordered pairs, as in the paper).
        progress:
            Optional callback ``(source, target, score)`` invoked after
            each pair is fitted (completion order under parallel
            builds), for long-running builds.
        n_jobs, backend:
            Worker pool for the pair-training loop (see
            :class:`~repro.pipeline.executor.PairExecutor`).  The
            default is the serial single-process build; parallel
            builds produce byte-identical scores because every pair
            model trains independently from a fresh seeded factory.
        train_engine, cohort_size:
            ``"looped"`` (default) trains each pair model on its own;
            ``"batched"`` (seq2seq engine only) advances cohorts of up
            to ``cohort_size`` shape-compatible pairs in lockstep
            inside one tensor program (see
            :class:`~repro.translation.BatchedPairTrainer` for the
            equivalence contract), overriding ``backend``.
        retries:
            Per-pair retry budget; a pair failing every attempt is
            recorded as a skipped edge in ``build_report`` instead of
            aborting the build.
        store:
            Optional content-addressed artifact cache (path or
            :class:`~repro.pipeline.artifacts.ArtifactStore`).  Pairs
            whose input fingerprint is already stored are restored
            instead of retrained (``build_report.cached``); a rebuild
            with unchanged logs and config trains zero pairs.  Each
            trained pair is saved as it finishes, so rerunning a
            killed build with the same store resumes it.
        representation:
            Sentence representation of the fitted languages: ``"codes"``
            (default, packed integer word keys over the interned
            columnar event core) or ``"strings"`` (legacy encrypted
            character strings).  Scores are bit-identical either way;
            codes are faster and smaller.
        metrics:
            Optional :class:`~repro.obs.MetricsRegistry` receiving
            stage timings, cache hit/miss counts and pair-training
            counters for this build; a run-private registry is created
            when omitted.
        prescreen:
            Pair-affinity prescreen (see :mod:`repro.graph.prescreen`
            and ``docs/prescreen.md``): ``"off"`` (default) trains the
            full requested grid, bit-identically to builds before the
            prescreen existed; ``"bleu"`` prunes unordered pairs whose
            cheap affinity falls below the calibrated floor before any
            model trains; a
            :class:`~repro.graph.prescreen.PrescreenConfig` sets the
            floor/ordering explicitly.  Pruned pairs are recorded in
            ``build_report.pruned`` and the full
            :class:`~repro.graph.prescreen.PrescreenResult` on the
            returned graph's ``prescreen`` attribute.
        """
        from ..pipeline.artifacts import ArtifactStore
        from ..pipeline.stages import (
            CorpusStage,
            EncryptStage,
            GraphAssembleStage,
            PairTrainStage,
            PrescreenStage,
            StageContext,
            StageGraph,
        )
        from .prescreen import PrescreenConfig

        config = config or LanguageConfig()
        if prescreen is None or prescreen == "off":
            prescreen_config = None
        elif isinstance(prescreen, PrescreenConfig):
            prescreen_config = prescreen
        else:
            prescreen_config = PrescreenConfig(method=prescreen)
        if train_engine not in ("looped", "batched"):
            raise ValueError(
                f"unknown train engine {train_engine!r}; choose from ('looped', 'batched')"
            )
        if model_factory is not None:
            if train_engine == "batched":
                raise ValueError("train_engine='batched' requires engine='seq2seq'")
            spec = ("factory", model_factory)
        else:
            translator_factory(engine, nmt_config)  # validate the engine name early
            spec = ("engine", engine, nmt_config)
            if train_engine == "batched":
                if engine != "seq2seq":
                    raise ValueError(
                        "train_engine='batched' requires engine='seq2seq' "
                        f"(got engine={engine!r})"
                    )
                backend = "batched"
        if store is not None and not isinstance(store, ArtifactStore):
            store = ArtifactStore(store)

        seeds = {
            "training_log": training_log,
            "development_log": development_log,
            "language_config": config,
            "representation": representation,
            "factory_spec": spec,
            "pairs": pairs,
            "prescreen_config": prescreen_config,
            "executor_options": {
                "n_jobs": n_jobs,
                "backend": backend,
                "cohort_size": cohort_size,
                "retries": retries,
                "progress": progress,
            },
        }
        pipeline = StageGraph(
            [
                EncryptStage(),
                CorpusStage(),
                PrescreenStage(),
                PairTrainStage(),
                GraphAssembleStage(),
            ],
            seeds=tuple(seeds),
        )
        context = pipeline.run(StageContext(seeds, store=store, metrics=metrics))
        return context["graph"]

    # ------------------------------------------------------------------
    @property
    def sensors(self) -> list[str]:
        return self.corpus.sensors

    @property
    def num_edges(self) -> int:
        return len(self.relationships)

    def __contains__(self, pair: tuple[str, str]) -> bool:
        return pair in self.relationships

    def __getitem__(self, pair: tuple[str, str]) -> PairwiseRelationship:
        return self.relationships[pair]

    def __iter__(self) -> Iterator[PairwiseRelationship]:
        return iter(self.relationships.values())

    def score(self, source: str, target: str) -> float:
        """The training BLEU ``s(i, j)`` for a directed pair."""
        return self.relationships[(source, target)].score

    def scores(self) -> dict[tuple[str, str], float]:
        """All directed-edge scores (data behind Figure 4b)."""
        return {pair: rel.score for pair, rel in self.relationships.items()}

    def runtimes(self) -> list[float]:
        """Per-pair model runtimes (data behind Figure 4a)."""
        return [rel.runtime_seconds for rel in self.relationships.values()]

    # ------------------------------------------------------------------
    def to_networkx(self) -> nx.DiGraph:
        """The full graph ("Ori-MVRG"): every modelled edge, BLEU weights."""
        graph = nx.DiGraph()
        graph.add_nodes_from(self.sensors)
        for (source, target), rel in self.relationships.items():
            graph.add_edge(source, target, score=rel.score)
        return graph
