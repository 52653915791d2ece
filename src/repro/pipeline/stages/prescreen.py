"""Pair-affinity prescreen as a pipeline stage (see ``docs/prescreen.md``)."""

from __future__ import annotations

from typing import Any

from ...graph.prescreen import PrescreenConfig, prescreen_pairs
from ..artifacts import combine_fingerprints, fingerprint_log, fingerprint_obj
from .base import Stage, StageContext

__all__ = ["PrescreenStage"]


class PrescreenStage(Stage):
    """Prune hopeless sensor pairs before any translation model trains.

    Sits between :class:`~repro.pipeline.stages.corpus.CorpusStage` and
    :class:`~repro.pipeline.stages.pair_train.PairTrainStage`: it
    consumes the seeded ``pairs`` request (``None`` meaning the full
    ``N(N-1)`` grid) and re-emits it with low-affinity unordered pairs
    removed, alongside the full
    :class:`~repro.graph.prescreen.PrescreenResult` for reporting.
    With ``prescreen_config`` unset (prescreen off) the stage is a pure
    passthrough — the pair list, every downstream artifact key and all
    scores are bit-identical to a pipeline without the stage.

    The stage has its own artifact key: the fingerprint covers the
    training log, the windowing config, the sentence representation
    and the prescreen config, so a rebuild with unchanged inputs
    restores the affinity matrix and pruning decisions without
    rescoring.  The off state is deliberately uncached (there is
    nothing to store).
    """

    name = "prescreen"
    # 2: PrescreenConfig lost its fixed fields (order, community
    # ordering, walk length, prune cap), which changes its fingerprint.
    version = "2"
    inputs = (
        "training_log",
        "language_config",
        "representation",
        "corpus",
        "pairs",
        "prescreen_config",
    )
    outputs = ("pairs", "prescreen")
    defaults = {"prescreen_config": None, "representation": "codes"}

    def fingerprint(self, context: StageContext) -> str | None:
        config = context["prescreen_config"]
        if config is None:
            return None
        pairs = context["pairs"]
        return combine_fingerprints(
            self.version,
            fingerprint_log(context["training_log"]),
            fingerprint_obj(context["language_config"]),
            context["representation"],
            fingerprint_obj(config),
            fingerprint_obj(None if pairs is None else [list(p) for p in pairs]),
        )

    def compute(self, context: StageContext) -> dict[str, Any]:
        config: PrescreenConfig | None = context["prescreen_config"]
        pairs = context["pairs"]
        if config is None:
            return {"pairs": pairs, "prescreen": None}
        result = prescreen_pairs(context["corpus"], config, pairs)
        metrics = context.metrics
        scored = len(result.kept_pairs) + len(result.pruned_pairs)
        metrics.counter("prescreen.pairs_scored").inc(scored)
        metrics.counter("prescreen.pairs_kept").inc(len(result.kept_pairs))
        metrics.counter("prescreen.pairs_pruned").inc(len(result.pruned_pairs))
        metrics.histogram("prescreen.seconds").observe(result.seconds)
        return {"pairs": result.kept_pairs, "prescreen": result}
