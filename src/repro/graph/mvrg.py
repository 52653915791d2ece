"""Multivariate relationship graph construction (Algorithm 1).

For every ordered sensor pair ``(i, j)`` a directional translation
model ``g(i, j)`` is trained on the training corpus and scored with
BLEU on the development corpus, giving the relationship strength
``s(i, j)``.  Nodes are sensors; the two directed edges per pair carry
the scores.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Iterable, Iterator

import networkx as nx
import numpy as np

from ..lang.corpus import MultiLanguageCorpus
from ..lang.events import MultivariateEventLog
from ..translation.base import TranslationModel

if TYPE_CHECKING:  # pragma: no cover - the pipeline imports this module
    from ..pipeline.config import FrameworkConfig

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
        config: "FrameworkConfig | None" = None,
        *,
        model_factory: Callable[[], TranslationModel] | None = None,
        pairs: Iterable[tuple[str, str]] | None = None,
        progress: Callable[[str, str, float], None] | None = None,
        store: "ArtifactStore | str | None" = None,
        metrics: "MetricsRegistry | None" = None,
    ) -> "MultivariateRelationshipGraph":
        """Run Algorithm 1 as a stage graph.

        Parameters
        ----------
        training_log, development_log:
            Normal-operation event logs.  Languages (encoders,
            vocabularies) are fitted on the training log; BLEU scores
            ``s(i, j)`` are measured on the development log.
        config:
            The :class:`~repro.pipeline.config.FrameworkConfig` that
            describes the build: windowing, sentence representation,
            translation engine, pair-training engine and workers, and
            the pair prescreen.  Defaults to ``FrameworkConfig()``.
        model_factory:
            Custom translator factory used instead of ``config.engine``;
            it cannot be combined with ``train_engine="batched"``.
        pairs:
            Optional subset of ordered pairs to model (default: all
            ``N(N-1)`` ordered pairs, as in the paper).
        progress:
            Optional callback ``(source, target, score)`` invoked after
            each pair is fitted (completion order under parallel
            builds), for long-running builds.
        store:
            Optional content-addressed artifact cache (path or
            :class:`~repro.pipeline.artifacts.ArtifactStore`).  Pairs
            whose input fingerprint is already stored are restored
            instead of retrained (``build_report.cached``); a rebuild
            with unchanged logs and config trains zero pairs.  Each
            trained pair is saved as it finishes, so rerunning a
            killed build with the same store resumes it.
        metrics:
            Optional :class:`~repro.obs.MetricsRegistry` receiving
            stage timings, cache hit/miss counts and pair-training
            counters for this build; a run-private registry is created
            when omitted.
        """
        from ..pipeline.artifacts import ArtifactStore
        from ..pipeline.config import FrameworkConfig
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

        if config is None:
            config = FrameworkConfig()
        elif not isinstance(config, FrameworkConfig):
            raise TypeError(
                f"config must be a FrameworkConfig, got {type(config).__name__}"
            )
        batched = config.train_engine == "batched"
        if model_factory is None:
            spec = ("engine", config.engine, config.nmt)
        elif batched:
            raise ValueError("train_engine='batched' cannot train a model_factory")
        else:
            spec = ("factory", model_factory)
        if store is not None and not isinstance(store, ArtifactStore):
            store = ArtifactStore(store)

        seeds = {
            "training_log": training_log,
            "development_log": development_log,
            "language_config": config.language,
            "representation": config.representation,
            "factory_spec": spec,
            "pairs": pairs,
            "prescreen_config": (
                None
                if config.prescreen == "off"
                else PrescreenConfig(method=config.prescreen, floor=config.prescreen_floor)
            ),
            "executor_options": {
                "n_jobs": config.n_jobs,
                "backend": "batched" if batched else config.executor_backend,
                "cohort_size": config.train_cohort_size,
                "retries": 1,
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
