"""Tests for pairwise relationship diagnostics."""

from __future__ import annotations

import numpy as np
import pytest

from repro.graph import MultivariateRelationshipGraph
from repro.lang import LanguageConfig, MultivariateEventLog
from repro.pipeline import FrameworkConfig
from repro.translation import diagnose_pair


@pytest.fixture(scope="module")
def graph():
    rng = np.random.default_rng(8)
    total = 480
    a = [("ON" if (t // 6) % 2 == 0 else "OFF") for t in range(total)]
    b = ["OFF"] + a[:-1]
    quiet = ["OFF"] * 200 + ["ON"] + ["OFF"] * 279  # near-constant target
    c = [str(rng.integers(0, 2)) for _ in range(total)]
    log = MultivariateEventLog.from_mapping({"sA": a, "sB": b, "sQ": quiet, "sC": c})
    return MultivariateRelationshipGraph.build(
        log.slice(0, 320),
        log.slice(320, 480),
        FrameworkConfig(
            language=LanguageConfig(
                word_size=4, word_stride=1, sentence_length=5, sentence_stride=5
            ),
            engine="ngram",
        ),
    )


class TestDiagnosePair:
    def test_strong_pair_verdict(self, graph):
        diagnostics = diagnose_pair(graph, "sA", "sB")
        assert diagnostics.score > 60
        assert "strong behavioural relationship" in diagnostics.summary() or (
            diagnostics.score < 80
        )
        assert diagnostics.breakdown.precisions[1] > 0.5

    def test_trivial_target_flagged(self, graph):
        diagnostics = diagnose_pair(graph, "sA", "sQ")
        assert diagnostics.target_language.is_trivial()
        if diagnostics.score >= 90:
            assert diagnostics.trivially_translatable
            assert "trivially translatable" in diagnostics.summary()

    def test_asymmetry_reported(self, graph):
        diagnostics = diagnose_pair(graph, "sA", "sB")
        assert diagnostics.reverse_score == graph.score("sB", "sA")
        assert diagnostics.asymmetry == pytest.approx(
            abs(graph.score("sA", "sB") - graph.score("sB", "sA"))
        )

    def test_weak_pair_verdict(self, graph):
        diagnostics = diagnose_pair(graph, "sA", "sC")
        assert diagnostics.score < 60
        assert "weak relationship" in diagnostics.summary()

    def test_summary_contains_key_numbers(self, graph):
        diagnostics = diagnose_pair(graph, "sA", "sB")
        text = diagnostics.summary()
        assert "sA -> sB" in text
        assert "n-gram precisions" in text
        assert "target language" in text
