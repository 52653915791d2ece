#!/usr/bin/env python
"""Explaining relationship-graph edges.

Section III-C of the paper investigates *why* the strongest-BLEU
subgraph fails for detection and finds trivially translatable target
languages ("aaaaaaaa" words).  This example automates that
investigation: for a small system containing a genuinely related pair,
an unrelated pair and a near-constant sensor, it prints the full
diagnostic reading of each edge — n-gram precisions, target-language
entropy, asymmetry and a verdict.

Run:  python examples/pair_diagnostics.py
"""

from __future__ import annotations

import numpy as np

from repro.graph import MultivariateRelationshipGraph
from repro.lang import LanguageConfig, MultivariateEventLog
from repro.pipeline import FrameworkConfig
from repro.translation import diagnose_pair


def build_system(total: int = 600) -> MultivariateEventLog:
    rng = np.random.default_rng(2)
    pump = [("RUN" if (t // 6) % 2 == 0 else "IDLE") for t in range(total)]
    valve = ["closed"] + ["open" if s == "RUN" else "closed" for s in pump[:-1]]
    alarm = ["ok"] * total  # near-constant: one spurious event
    alarm[total // 2] = "fault"
    noise = [str(rng.integers(0, 2)) for _ in range(total)]
    return MultivariateEventLog.from_mapping(
        {"pump": pump, "valve": valve, "alarm": alarm, "noise": noise}
    )


def main() -> None:
    log = build_system()
    graph = MultivariateRelationshipGraph.build(
        log.slice(0, 400),
        log.slice(400, 600),
        FrameworkConfig(
            language=LanguageConfig(
                word_size=4, word_stride=1, sentence_length=5, sentence_stride=5
            ),
            engine="ngram",
        ),
    )

    print("Edge scores:")
    for (source, target), score in sorted(graph.scores().items()):
        print(f"  {source} -> {target}: {score:5.1f}")

    print("\nDiagnostics:")
    for source, target in (
        ("pump", "valve"),   # real physical relationship
        ("pump", "alarm"),   # trivially translatable target
        ("pump", "noise"),   # no relationship
    ):
        print()
        print(diagnose_pair(graph, source, target).summary())


if __name__ == "__main__":
    main()
