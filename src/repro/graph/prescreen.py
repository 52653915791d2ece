"""Sub-quadratic pair prescreen for Algorithm 1 (see ``docs/prescreen.md``).

Algorithm 1 trains all ``N(N-1)`` directed translation models, but the
relationship graph only ever *uses* pairs whose dev-BLEU clears a
global-subgraph range.  This module scores every unordered pair with a
cheap vectorised affinity — no model training — so pairs that no
translation model could turn into a usable edge are pruned before the
:class:`~repro.pipeline.executor.PairExecutor` ever sees them.  The
one proxy, ``"bleu"``, is the leave-one-out mapping-predictability
score of :func:`~repro.translation.bleu.mapping_proxy_scores`, which
predicts each target word from exactly the translator's backoff
context (the aligned source word plus the previous target word).  The
per-word accuracy is raised to :data:`BLEU_GEOMETRY_EXPONENT` to land
on a predicted dev-BLEU 0–100 scale, so floors are directly comparable
with the score ranges.  It sees both the cross-channel and the
target's self-predictability, the two routes by which a trained pair
can reach a high dev-BLEU.

Affinities are symmetric; a pair is pruned only when *both* directions
are hopeless.  Degenerate evidence (no aligned sentences, zero-length
sentences) is parked at :data:`DEGENERATE_AFFINITY` — the ceiling, not
the floor — so the prescreen can never prune a pair it could not
actually measure.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import networkx as nx
import numpy as np

from ..translation.bleu import Sentence, mapping_proxy_scores
from .community import walktrap_communities

__all__ = [
    "BLEU_GEOMETRY_EXPONENT",
    "CONTEXT_ORDER",
    "DEFAULT_FLOORS",
    "DEGENERATE_AFFINITY",
    "PRESCREEN_METHODS",
    "PrescreenConfig",
    "PrescreenResult",
    "WALK_LENGTH",
    "affinity_matrix",
    "pair_affinity",
    "prescreen_pairs",
]

#: Supported affinity proxies (plus ``"off"`` at the config/CLI layer,
#: which bypasses this module entirely).
PRESCREEN_METHODS = ("bleu",)

#: Affinity assigned when a pair cannot be measured (no aligned
#: sentences).  It is the
#: *ceiling* of the affinity scale: unmeasurable pairs are always kept,
#: because pruning must only ever rest on positive evidence of
#: unrelatedness.  This is also self-consistent — a constant stream is
#: perfectly translatable, so its true dev-BLEU is high.
DEGENERATE_AFFINITY = 100.0

#: Maps per-word prediction accuracy onto the BLEU scale:
#: ``100 * accuracy ** BLEU_GEOMETRY_EXPONENT``.  BLEU is the geometric
#: mean of n-gram precisions over orders 1–4; under per-word error
#: independence an accuracy ``a`` yields precision ``a ** n`` at order
#: ``n``, so the geometric mean is ``a ** 2.5`` (mean of 1..4).
BLEU_GEOMETRY_EXPONENT = 2.5

#: Default affinity floor per method, on the predicted-BLEU scale.  The
#: calibration rule (see docs/prescreen.md): the lowest informative
#: score-range bound under ``DEFAULT_RANGES`` is 60, and a pruned pair
#: must provably fall below every admitted score, so the floor is that
#: bound minus a 5-point safety margin for proxy error.  On plant
#: corpora the proxy never under-predicted a trained pair's dev-BLEU by
#: more than ~4 points at this floor.
DEFAULT_FLOORS = {"bleu": 55.0}


#: Highest source n-gram length pooled into the proxy's leave-one-out
#: counts.  3 mirrors the translator's backoff: high orders only
#: contribute where their contexts repeat, which keeps pairs whose
#: structure lives in longer-range context from being mis-scored by a
#: unigram-only view.  A higher order memorises more and prunes less.
CONTEXT_ORDER = 3

#: Random-walk length of the Walktrap partition that orders the kept
#: pairs (see :func:`~repro.graph.community.walktrap_communities`).
WALK_LENGTH = 4


@dataclass(frozen=True)
class PrescreenConfig:
    """Which proxy the prescreen scores with and where it prunes.

    Attributes
    ----------
    method:
        ``"bleu"`` (leave-one-out mapping predictability in the
        translator's own context), the only proxy.
    floor:
        Explicit affinity floor on the predicted-BLEU scale; pairs with
        affinity strictly below it are pruned.  ``None`` selects the
        method's calibrated default (:data:`DEFAULT_FLOORS`).
    """

    method: str = "bleu"
    floor: float | None = None

    def __post_init__(self) -> None:
        if self.method not in PRESCREEN_METHODS:
            raise ValueError(
                f"unknown prescreen method {self.method!r}; "
                f"choose from {PRESCREEN_METHODS}"
            )
        if self.floor is not None and not 0.0 <= self.floor <= 100.0:
            raise ValueError("floor must lie in [0, 100]")


# ----------------------------------------------------------------------
# Affinity kernel
# ----------------------------------------------------------------------
def _bleu_scale(accuracy: float) -> float:
    """Per-word accuracy (0–100) onto the predicted dev-BLEU scale."""
    return 100.0 * (accuracy / 100.0) ** BLEU_GEOMETRY_EXPONENT


def pair_affinity(
    sources: Sequence[Sentence],
    targets: Sequence[Sentence],
    config: PrescreenConfig | None = None,
) -> float:
    """The prescreen affinity of one unordered sensor pair, 0–100.

    ``sources`` and ``targets`` are the two sensors' aligned sentence
    corpora (any common representation: packed integer codes or
    strings — the affinity is invariant under relabelling tokens).
    Symmetric by construction: the proxy takes the better of the two
    mapping directions.  Degenerate inputs (no aligned sentences,
    zero-length sentences) return :data:`DEGENERATE_AFFINITY` rather
    than raising.  ``config`` names the proxy; ``"bleu"`` is the only
    one.
    """
    if min(len(sources), len(targets)) == 0:
        return DEGENERATE_AFFINITY
    try:
        forward, reverse = mapping_proxy_scores(sources, targets, CONTEXT_ORDER)
    except ValueError:
        return DEGENERATE_AFFINITY
    return _bleu_scale(max(forward, reverse))


def affinity_matrix(
    corpus, config: PrescreenConfig | None = None
) -> tuple[list[str], np.ndarray]:
    """Symmetric pair-affinity matrix over a corpus's sensors.

    ``corpus`` is a :class:`~repro.lang.corpus.MultiLanguageCorpus`
    (anything mapping sensor → language with ``.sentences`` works).
    Entry ``(i, j)`` is :func:`pair_affinity` of the two training
    corpora; the diagonal holds self-affinities (maximal by
    construction).  Cost is ``O(N^2)`` cheap counting passes — no model
    is trained.
    """
    sensors = list(corpus.sensors)
    matrix = np.zeros((len(sensors), len(sensors)))
    corpora = [corpus[name].sentences for name in sensors]
    for i, source in enumerate(corpora):
        matrix[i, i] = pair_affinity(source, source, config)
        for j in range(i + 1, len(corpora)):
            matrix[i, j] = matrix[j, i] = pair_affinity(source, corpora[j], config)
    return sensors, matrix


# ----------------------------------------------------------------------
# Floor calibration and pruning
# ----------------------------------------------------------------------
@dataclass
class PrescreenResult:
    """What the prescreen pass measured and decided.

    ``kept_pairs`` preserves the orientation and multiplicity of the
    requested pair list (both directed pairs of a pruned unordered pair
    are dropped together); ``communities`` is the Walktrap partition of
    the surviving prescreen graph (``None`` when no pair is kept).
    """

    sensors: list[str]
    matrix: np.ndarray
    config: PrescreenConfig
    floor: float
    kept_pairs: list[tuple[str, str]]
    pruned_pairs: list[tuple[str, str]]
    communities: list[set[str]] | None = None
    seconds: float = 0.0
    _index: dict = field(default_factory=dict, repr=False)

    def __post_init__(self) -> None:
        self._index = {name: i for i, name in enumerate(self.sensors)}

    def affinity(self, source: str, target: str) -> float:
        """The scored affinity of a sensor pair (symmetric)."""
        return float(self.matrix[self._index[source], self._index[target]])

    def to_dict(self) -> dict:
        """JSON-ready summary (mirrored into ``--report-json`` output)."""
        return {
            "method": self.config.method,
            "floor": self.floor,
            "pairs_kept": len(self.kept_pairs),
            "pairs_pruned": len(self.pruned_pairs),
            "communities": (
                None
                if self.communities is None
                else [sorted(community) for community in self.communities]
            ),
            "seconds": self.seconds,
        }


def _community_ordered(
    kept: list[tuple[str, str]],
    communities: list[set[str]],
) -> list[tuple[str, str]]:
    """Stable-reorder kept pairs so intra-community pairs train first."""
    membership = {
        name: rank for rank, community in enumerate(communities) for name in community
    }
    def rank(pair: tuple[str, str]) -> int:
        source, target = pair
        if membership.get(source, -1) == membership.get(target, -2):
            return membership[source]
        return len(communities)
    return sorted(kept, key=rank)


def prescreen_pairs(
    corpus,
    config: PrescreenConfig | None = None,
    pairs: Iterable[tuple[str, str]] | None = None,
) -> PrescreenResult:
    """Score, prune and community-order Algorithm 1's pair grid.

    ``pairs`` defaults to all ``N(N-1)`` ordered pairs, exactly as
    :meth:`~repro.graph.mvrg.MultivariateRelationshipGraph.build`
    would enumerate them.  The floor is the config's explicit
    ``floor`` or the method's calibrated default
    (:data:`DEFAULT_FLOORS`).
    """
    config = config or PrescreenConfig()
    start = time.perf_counter()
    sensors, matrix = affinity_matrix(corpus, config)
    index = {name: i for i, name in enumerate(sensors)}
    if pairs is None:
        pair_list = list(itertools.permutations(sensors, 2))
    else:
        pair_list = list(pairs)
    floor = DEFAULT_FLOORS[config.method] if config.floor is None else float(config.floor)
    kept = [
        pair
        for pair in pair_list
        if pair[0] == pair[1] or matrix[index[pair[0]], index[pair[1]]] >= floor
    ]
    pruned = [pair for pair in pair_list if pair not in set(kept)]
    communities = None
    if kept:
        graph = nx.Graph()
        graph.add_nodes_from(sensors)
        for source, target in kept:
            if source != target:
                graph.add_edge(
                    source, target, weight=matrix[index[source], index[target]]
                )
        communities = walktrap_communities(graph, walk_length=WALK_LENGTH)
        kept = _community_ordered(kept, communities)
    return PrescreenResult(
        sensors=sensors,
        matrix=matrix,
        config=config,
        floor=floor,
        kept_pairs=kept,
        pruned_pairs=pruned,
        communities=communities,
        seconds=time.perf_counter() - start,
    )
