"""Multivariate relationship graph: construction, subgraphs, communities."""

from .centrality import DegreeSummary, degree_distribution, degree_summary, rank_by_in_degree
from .community import connected_component_clusters, modularity, walktrap_communities
from .dedup import RedundancyGroups, find_redundant_sensors, sequence_agreement
from .export import graph_to_dict, load_graph_scores, save_graph_json, save_graphml
from .metrics import GraphSummary, gini_coefficient, score_asymmetry, summarize_graph
from .mvrg import MultivariateRelationshipGraph, PairwiseRelationship
from .prescreen import (
    DEFAULT_FLOORS,
    DEGENERATE_AFFINITY,
    PRESCREEN_METHODS,
    PrescreenConfig,
    PrescreenResult,
    affinity_matrix,
    pair_affinity,
    prescreen_pairs,
)
from .ranges import DEFAULT_RANGES, DETECTION_RANGE, STRONGEST_RANGE, ScoreRange
from .subgraphs import (
    POPULAR_IN_DEGREE,
    SubgraphStats,
    global_subgraph,
    local_subgraph,
    partition_by_ranges,
    popular_sensors,
    subgraph_statistics,
)

__all__ = [
    "DEFAULT_FLOORS",
    "DEFAULT_RANGES",
    "DEGENERATE_AFFINITY",
    "DETECTION_RANGE",
    "DegreeSummary",
    "GraphSummary",
    "MultivariateRelationshipGraph",
    "POPULAR_IN_DEGREE",
    "PRESCREEN_METHODS",
    "PairwiseRelationship",
    "PrescreenConfig",
    "PrescreenResult",
    "RedundancyGroups",
    "STRONGEST_RANGE",
    "ScoreRange",
    "SubgraphStats",
    "affinity_matrix",
    "connected_component_clusters",
    "degree_distribution",
    "degree_summary",
    "find_redundant_sensors",
    "gini_coefficient",
    "global_subgraph",
    "graph_to_dict",
    "load_graph_scores",
    "local_subgraph",
    "modularity",
    "pair_affinity",
    "partition_by_ranges",
    "popular_sensors",
    "prescreen_pairs",
    "rank_by_in_degree",
    "save_graph_json",
    "save_graphml",
    "score_asymmetry",
    "sequence_agreement",
    "subgraph_statistics",
    "summarize_graph",
    "walktrap_communities",
]
