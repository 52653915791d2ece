"""Tests for Algorithm 1: relationship-graph construction."""

from __future__ import annotations

import numpy as np
import pytest

from repro.graph import MultivariateRelationshipGraph
from repro.lang import LanguageConfig, MultivariateEventLog
from repro.pipeline import FrameworkConfig


@pytest.fixture(scope="module")
def logs():
    rng = np.random.default_rng(5)
    total = 480
    a = [("ON" if (t // 6) % 2 == 0 else "OFF") for t in range(total)]
    b = ["OFF"] + a[:-1]
    c = [str(rng.integers(0, 2)) for _ in range(total)]
    log = MultivariateEventLog.from_mapping({"sA": a, "sB": b, "sC": c})
    return log.slice(0, 300), log.slice(300, 480)


@pytest.fixture(scope="module")
def graph(logs):
    train, dev = logs
    return MultivariateRelationshipGraph.build(
        train,
        dev,
        FrameworkConfig(
            language=LanguageConfig(
                word_size=4, word_stride=1, sentence_length=5, sentence_stride=5
            ),
            engine="ngram",
        ),
    )


class TestBuild:
    def test_all_ordered_pairs_modelled(self, graph):
        assert graph.num_edges == 3 * 2
        assert ("sA", "sB") in graph
        assert ("sB", "sA") in graph
        assert ("sA", "sA") not in graph

    def test_scores_are_valid_bleu(self, graph):
        for pair, score in graph.scores().items():
            assert 0.0 <= score <= 100.0, pair

    def test_related_pair_outscores_unrelated(self, graph):
        assert graph.score("sA", "sB") > graph.score("sA", "sC") + 20

    def test_directional_edges_can_differ(self, graph):
        # Both directions exist with independent models and scores.
        ab = graph[("sA", "sB")]
        ba = graph[("sB", "sA")]
        assert ab.model is not ba.model

    def test_runtimes_recorded(self, graph):
        runtimes = graph.runtimes()
        assert len(runtimes) == graph.num_edges
        assert all(r > 0 for r in runtimes)

    def test_dev_sentence_scores_recorded(self, graph):
        rel = graph[("sA", "sB")]
        assert rel.dev_sentence_scores is not None
        assert (rel.dev_sentence_scores >= 0).all()
        assert (rel.dev_sentence_scores <= 100).all()

    def test_pairs_subset(self, logs):
        train, dev = logs
        graph = MultivariateRelationshipGraph.build(
            train,
            dev,
            FrameworkConfig(language=LanguageConfig(word_size=4, sentence_length=5)),
            pairs=[("sA", "sB")],
        )
        assert graph.num_edges == 1

    def test_progress_callback_invoked(self, logs):
        train, dev = logs
        calls = []
        MultivariateRelationshipGraph.build(
            train,
            dev,
            FrameworkConfig(language=LanguageConfig(word_size=4, sentence_length=5)),
            pairs=[("sA", "sB"), ("sB", "sC")],
            progress=lambda s, t, score: calls.append((s, t)),
        )
        assert calls == [("sA", "sB"), ("sB", "sC")]

    def test_missing_dev_sensor_rejected(self, logs):
        train, dev = logs
        with pytest.raises(KeyError):
            MultivariateRelationshipGraph.build(
                train,
                dev.select(["sA", "sB"]),
                FrameworkConfig(language=LanguageConfig(word_size=4, sentence_length=5)),
            )


class TestThresholds:
    def test_train_strategy_returns_corpus_score(self, graph):
        rel = graph[("sA", "sB")]
        assert rel.threshold("train") == rel.score

    def test_dev_min_is_lower_bound(self, graph):
        rel = graph[("sA", "sB")]
        assert rel.threshold("dev-min") <= rel.threshold("dev-quantile", 0.5)

    def test_quantile_ordering(self, graph):
        rel = graph[("sA", "sB")]
        assert rel.threshold("dev-quantile", 0.1) <= rel.threshold("dev-quantile", 0.9)

    def test_unknown_strategy_rejected(self, graph):
        with pytest.raises(ValueError):
            graph[("sA", "sB")].threshold("magic")


class TestNetworkxExport:
    def test_nodes_and_edges(self, graph):
        nx_graph = graph.to_networkx()
        assert set(nx_graph.nodes) == {"sA", "sB", "sC"}
        assert nx_graph.number_of_edges() == 6
        assert nx_graph["sA"]["sB"]["score"] == graph.score("sA", "sB")
