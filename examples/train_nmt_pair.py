#!/usr/bin/env python
"""Training the paper's NMT model on one sensor pair, step by step.

A close-up of Algorithm 1's inner loop using the faithful seq2seq
engine: build the two sensor languages, train the 2-layer LSTM +
attention translator for a fixed step budget (as every pair model in
the graph is trained), then decode held-out sentences greedily.

Run:  python examples/train_nmt_pair.py
"""

from __future__ import annotations

import time

import numpy as np

from repro.lang import LanguageConfig, MultiLanguageCorpus, MultivariateEventLog, ParallelCorpus
from repro.translation import NMTConfig, Seq2SeqTranslator, corpus_bleu, sentence_bleu


def build_log(total: int, seed: int = 0) -> MultivariateEventLog:
    """A valve whose state follows the pump with a 2-sample delay."""
    rng = np.random.default_rng(seed)
    pump = [("RUN" if (t // 7) % 2 == 0 else "IDLE") for t in range(total)]
    valve = ["closed", "closed"] + ["open" if s == "RUN" else "closed" for s in pump[:-2]]
    return MultivariateEventLog.from_mapping({"pump": pump, "valve": valve})


def main() -> None:
    log = build_log(900)
    config = LanguageConfig(word_size=5, word_stride=1, sentence_length=6, sentence_stride=6)
    corpus = MultiLanguageCorpus.fit(log.slice(0, 600), config)

    train_pc = corpus.parallel("pump", "valve")
    dev_sentences_src = corpus["pump"].sentences_for(log.slice(600, 900)["pump"])
    dev_sentences_tgt = corpus["valve"].sentences_for(log.slice(600, 900)["valve"])
    dev_pc = ParallelCorpus.from_sentences(
        "pump", "valve", dev_sentences_src, dev_sentences_tgt
    )
    print(
        f"Languages: pump vocabulary {corpus['pump'].vocabulary_size}, "
        f"valve vocabulary {corpus['valve'].vocabulary_size}; "
        f"{len(train_pc)} training / {len(dev_pc)} development sentence pairs"
    )

    nmt = NMTConfig(
        embedding_size=16,
        hidden_size=24,
        num_layers=2,
        dropout=0.1,
        training_steps=300,
        batch_size=16,
        learning_rate=5e-3,
        seed=0,
    )
    print(f"\nTraining seq2seq for a fixed {nmt.training_steps} steps...")
    start = time.perf_counter()
    model = Seq2SeqTranslator(nmt).fit(train_pc)
    train_seconds = time.perf_counter() - start
    for step in range(99, nmt.training_steps, 100):
        print(f"  step {step + 1:4d}: training loss {model.loss_history[step]:.3f}")
    print(f"  trained in {train_seconds:.1f}s")

    print("\nGreedy decoding on 3 development sentences:")
    for source, target in dev_pc.pairs[:3]:
        greedy = model.translate([source])[0]
        bleu = sentence_bleu(greedy, target)
        print(f"  source    {' '.join(corpus['pump'].decode_sentence(source))}")
        print(f"  reference {' '.join(corpus['valve'].decode_sentence(target))}")
        print(f"  greedy    {' '.join(corpus['valve'].decode_sentence(greedy))}   (BLEU {bleu:.0f})")

    translations = model.translate(dev_pc.source_sentences)
    print(
        f"\nCorpus BLEU on development set: "
        f"{corpus_bleu(translations, dev_pc.target_sentences, smooth=True):.1f} "
        "— this number is the edge weight s(pump, valve) in the relationship graph."
    )


if __name__ == "__main__":
    main()
