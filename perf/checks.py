"""Output digests and replays of the per-pair work through public calls.

A replay recomputes what a layer produced from the public primitives
(``translator_factory(...)()``, ``.fit``, ``.translate``,
``corpus_bleu``, ``sentence_bleu``) and compares the result with the
real output bit for bit.  The traced pass replays every pair inside
spans to split a layer's time into fit, translate and BLEU; the untraced
pass replays a seeded sample of pairs as a correctness check.
"""

from __future__ import annotations

import hashlib

import numpy as np


def graph_digest(graph, hasher=None):
    """sha256 over every edge score and its dev sentence scores."""
    hasher = hasher or hashlib.sha256()
    for (source, target), rel in graph.relationships.items():
        hasher.update(f"{source}>{target}".encode())
        hasher.update(np.float64(rel.score).tobytes())
        hasher.update(np.asarray(rel.dev_sentence_scores, dtype=np.float64).tobytes())
    return hasher


def outputs_digest(graph, results) -> str:
    """sha256 over edge scores, dev sentence scores, test scores and alerts."""
    hasher = graph_digest(graph)
    for result in results:
        hasher.update(repr(result.test_scores.shape).encode())
        hasher.update(np.ascontiguousarray(result.test_scores).tobytes())
        hasher.update(np.ascontiguousarray(result.alerts).tobytes())
    return hasher.hexdigest()


def detector_for(graph, config, band):
    """The batch detector ``AnalyticsFramework.detect`` builds for ``band``."""
    from repro import AnomalyDetector

    return AnomalyDetector(
        graph,
        band,
        margin=config.margin,
        threshold=config.threshold_strategy,
        quantile=config.threshold_quantile,
    )


def dev_sentences_for(graph, dev) -> dict:
    """Per-sensor dev sentences, as the corpus stage generates them."""
    return {name: graph.corpus[name].sentences_for(dev[name]) for name in graph.sensors}


def replay_pair_train(tracer, graph, dev_sentences, config, pairs) -> dict:
    """Re-score ``pairs`` of a fitted graph; returns counts and mismatches.

    n-gram models are refitted from the training corpus.  Seq2seq models
    are too costly to train twice, so their trained models are reused
    and only translation and BLEU are replayed.
    """
    from repro import corpus_bleu, sentence_bleu
    from repro.translation.factory import translator_factory

    if config.engine == "ngram":
        factory = translator_factory(config.engine, config.nmt)
        with tracer.span("pair_train.fit"):
            models = [factory().fit(graph.corpus.parallel(*pair)) for pair in pairs]
    else:
        models = [graph[pair].model for pair in pairs]
    with tracer.span("pair_train.translate"):
        translations = [
            model.translate(dev_sentences[source])
            for model, (source, _) in zip(models, pairs)
        ]
    calls = 0
    with tracer.span("pair_train.bleu"):
        scores = []
        for candidates, (_, target) in zip(translations, pairs):
            references = dev_sentences[target]
            score = corpus_bleu(candidates, references, smooth=True)
            sentences = np.asarray(
                [sentence_bleu(c, r) for c, r in zip(candidates, references)]
            )
            scores.append((score, sentences))
            calls += 1 + len(references)
    mismatches = [
        f"pair-train {pair}"
        for pair, (score, sentences) in zip(pairs, scores)
        if score != graph[pair].score
        or not np.array_equal(sentences, graph[pair].dev_sentence_scores)
    ]
    return {"pairs": len(pairs), "bleu_calls": calls, "mismatches": mismatches}


def replay_detect(tracer, graph, test, result, columns) -> dict:
    """Recompute ``result.test_scores[:, columns]`` of a batch detect."""
    from repro import sentence_bleu

    pairs = [result.valid_pairs[column] for column in columns]
    involved = sorted({name for pair in pairs for name in pair})
    windows = result.num_windows
    with tracer.span("detect.sentences"):
        sentences = {
            name: graph.corpus[name].sentences_for(test[name]) for name in involved
        }
    with tracer.span("detect.translate"):
        translations = [
            graph[pair].model.translate(sentences[pair[0]][:windows]) for pair in pairs
        ]
    with tracer.span("detect.bleu"):
        scores = np.array(
            [
                [sentence_bleu(t, r) for t, r in zip(candidates, sentences[target])]
                for candidates, (_, target) in zip(translations, pairs)
            ]
        ).reshape(len(pairs), windows)
    same = np.array_equal(scores.T, result.test_scores[:, columns])
    return {
        "sentences": sentences,
        "bleu_calls": len(pairs) * windows,
        "mismatches": [] if same else ["detect test_scores"],
    }


def replay_online(tracer, graph, config, sentences, result, emitted) -> dict:
    """Re-score online windows one sentence at a time, as the stream does.

    Each window's pair scores must equal the batch ``test_scores`` row
    and its broken pairs the online detector's.
    """
    from repro import sentence_bleu

    pairs = result.valid_pairs
    thresholds = [
        graph[pair].threshold(config.threshold_strategy, config.threshold_quantile)
        - config.margin
        for pair in pairs
    ]
    with tracer.span("online.translate"):
        translations = [
            [
                graph[pair].model.translate([sentences[pair[0]][window.window_index]])[0]
                for pair in pairs
            ]
            for window in emitted
        ]
    with tracer.span("online.bleu"):
        scores = np.array(
            [
                [
                    sentence_bleu(candidate, sentences[target][window.window_index])
                    for candidate, (_, target) in zip(row, pairs)
                ]
                for row, window in zip(translations, emitted)
            ]
        ).reshape(len(emitted), len(pairs))
    mismatches = []
    if not np.array_equal(scores, result.test_scores[: len(emitted)]):
        mismatches.append("online window scores")
    for row, window in zip(scores, emitted):
        broken = tuple(pair for pair, s, t in zip(pairs, row, thresholds) if s < t)
        if broken != tuple(window.broken_pairs):
            mismatches.append(f"online window {window.window_index} broken pairs")
    return {"mismatches": mismatches}
