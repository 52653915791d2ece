"""Ablation — translation engine: seq2seq NMT vs n-gram surrogate.

DESIGN.md substitutes a count-based translator for the paper's NMT
model in the full-scale benches.  This ablation justifies the
substitution on a reduced problem: both engines must agree on what the
graph layer consumes — the *ordering* of pairwise relationship
strengths (related pairs above unrelated pairs).
"""

from __future__ import annotations

import numpy as np

from conftest import run_once
from repro.graph import MultivariateRelationshipGraph
from repro.lang import LanguageConfig, MultivariateEventLog
from repro.pipeline import FrameworkConfig
from repro.report import ascii_table
from repro.translation import NMTConfig


def build_logs():
    rng = np.random.default_rng(3)
    total = 480
    a = [("ON" if (t // 6) % 2 == 0 else "OFF") for t in range(total)]
    b = ["OFF"] + a[:-1]
    c = [str(rng.integers(0, 2)) for _ in range(total)]
    log = MultivariateEventLog.from_mapping({"sA": a, "sB": b, "sC": c})
    return log.slice(0, 330), log.slice(330, 480)


def build_graph(engine: str) -> MultivariateRelationshipGraph:
    train, dev = build_logs()
    return MultivariateRelationshipGraph.build(
        train,
        dev,
        FrameworkConfig(
            language=LanguageConfig(
                word_size=4, word_stride=1, sentence_length=5, sentence_stride=5
            ),
            engine=engine,
            nmt=NMTConfig(
                embedding_size=12,
                hidden_size=16,
                num_layers=2,
                dropout=0.0,
                training_steps=180,
                batch_size=12,
                learning_rate=5e-3,
                seed=0,
            ),
        ),
    )


def test_ablation_translation_engine(benchmark):
    def regenerate():
        return {engine: build_graph(engine) for engine in ("ngram", "seq2seq")}

    graphs = run_once(benchmark, regenerate)

    rows = []
    for pair in sorted(graphs["ngram"].scores()):
        rows.append(
            {
                "pair": f"{pair[0]} -> {pair[1]}",
                "ngram BLEU": f"{graphs['ngram'].score(*pair):.1f}",
                "seq2seq BLEU": f"{graphs['seq2seq'].score(*pair):.1f}",
            }
        )
    print("\n" + ascii_table(rows, title="Ablation — translation engine"))

    for engine, graph in graphs.items():
        related = graph.score("sA", "sB")
        unrelated = max(graph.score("sA", "sC"), graph.score("sB", "sC"))
        print(f"{engine}: related {related:.1f} vs unrelated {unrelated:.1f}")
        # Both engines separate the related pair from the noise pairs —
        # the only property Algorithms 1/2 rely on.
        assert related > unrelated + 15

    # The two engines agree on the strongest pair.
    strongest = {
        engine: max(graph.scores(), key=graph.scores().get)
        for engine, graph in graphs.items()
    }
    assert strongest["ngram"] == strongest["seq2seq"]
