"""Looped-vs-batched training-engine equivalence.

The batched engine's contract (see ``repro.translation.batched``) is
that every pair in a cohort trains exactly as it would have on its own:
same RNG stream, same arithmetic per pair slice.  These tests pin that
down for both recurrent units, all three attention scores, mixed
vocabulary widths and serialization.
"""

from __future__ import annotations

import pickle
from types import SimpleNamespace

import numpy as np
import pytest

from repro.lang import ParallelCorpus
from repro.translation import (
    BatchedPairTrainer,
    NMTConfig,
    Seq2SeqTranslator,
    cohort_signature,
    group_cohorts,
)


def _config(**overrides) -> NMTConfig:
    base = NMTConfig.small(seed=3)
    values = {**base.__dict__, "training_steps": 20, "hidden_size": 12, "embedding_size": 8}
    values.update(overrides)
    return NMTConfig(**values)


def _make_task(rng, index, count=20, length=5, source_vocab=5, target_vocab=5):
    source = [
        tuple(int(x) for x in rng.integers(0, source_vocab, size=length))
        for _ in range(count)
    ]
    target = [
        tuple(int(x) for x in rng.integers(0, target_vocab, size=length))
        for _ in range(count)
    ]
    dev_source = [
        tuple(int(x) for x in rng.integers(0, source_vocab, size=length)) for _ in range(4)
    ]
    dev_target = [
        tuple(int(x) for x in rng.integers(0, target_vocab, size=length)) for _ in range(4)
    ]
    corpus = ParallelCorpus.from_sentences(f"s{index}", f"t{index}", source, target)
    return SimpleNamespace(
        source=f"s{index}",
        target=f"t{index}",
        corpus=corpus,
        dev_source=dev_source,
        dev_target=dev_target,
    )


def _tasks(seed=7, num=3, **kwargs):
    rng = np.random.default_rng(seed)
    return [_make_task(rng, index, **kwargs) for index in range(num)]


def _assert_states_equal(looped: Seq2SeqTranslator, batched: Seq2SeqTranslator):
    state_l, state_b = looped.state_dict(), batched.state_dict()
    assert state_l.keys() == state_b.keys()
    for key in state_l:
        np.testing.assert_array_equal(state_l[key], state_b[key], err_msg=key)


class TestLockstepEquivalence:
    @pytest.mark.parametrize("unit", ["lstm", "gru"])
    @pytest.mark.parametrize("score", ["dot", "general", "concat"])
    def test_bit_identical_weights_and_losses(self, unit, score):
        config = _config(recurrent_unit=unit, attention_score=score)
        tasks = _tasks()
        looped = [Seq2SeqTranslator(config).fit(task.corpus) for task in tasks]
        results = BatchedPairTrainer(config=config).train_cohort(tasks)
        for model, result in zip(looped, results):
            _assert_states_equal(model, result.model)
            np.testing.assert_allclose(
                model.loss_history, result.model.loss_history, rtol=1e-9
            )

    def test_mixed_vocab_widths_stay_bit_identical(self):
        # Different target vocabularies force projection/embedding
        # padding, but the loss and clip-norm only ever reduce over
        # each pair's real width — so even mixed-width cohorts train
        # bit-identically to the looped engine (padded columns in a
        # softmax would perturb summation blocking by ~1e-16/step,
        # which amplifies chaotically over long trainings).
        config = _config(training_steps=60)
        rng = np.random.default_rng(11)
        tasks = [
            _make_task(rng, index, target_vocab=4 + 2 * index) for index in range(3)
        ]
        looped = [Seq2SeqTranslator(config).fit(task.corpus) for task in tasks]
        results = BatchedPairTrainer(config=config).train_cohort(tasks)
        for model, result in zip(looped, results):
            _assert_states_equal(model, result.model)
            np.testing.assert_array_equal(
                model.loss_history, result.model.loss_history
            )

    def test_dev_translations_and_scores_match(self):
        config = _config()
        tasks = _tasks(seed=13)
        results = BatchedPairTrainer(config=config).train_cohort(tasks)
        for task, result in zip(tasks, results):
            reference = Seq2SeqTranslator(config).fit(task.corpus)
            assert reference.translate(task.dev_source) == result.model.translate(
                task.dev_source
            )
            assert result.record.dev_bleu == result.score
            assert result.record.loss_history == result.model.loss_history
            assert result.record.train_seconds > 0
            assert result.record.eval_seconds > 0

    def test_cohort_composition_does_not_matter(self):
        # Training a pair in a cohort of three must give the same model
        # as training it alone — pairs may not leak into each other.
        config = _config()
        tasks = _tasks(seed=17)
        together = BatchedPairTrainer(config=config).train_cohort(tasks)
        for task, result in zip(tasks, together):
            alone = BatchedPairTrainer(config=config).train_cohort([task])[0]
            _assert_states_equal(alone.model, result.model)


class TestSerialization:
    def test_state_dict_round_trip_into_looped_model(self):
        config = _config()
        tasks = _tasks(seed=19, num=2)
        results = BatchedPairTrainer(config=config).train_cohort(tasks)
        for task, result in zip(tasks, results):
            fresh = Seq2SeqTranslator(config).fit(task.corpus)
            fresh.load_state_dict(result.model.state_dict())
            assert fresh.weights_digest() == result.model.weights_digest()
            assert fresh.translate(task.dev_source) == result.model.translate(
                task.dev_source
            )

    def test_pickle_round_trip(self):
        config = _config()
        task = _tasks(seed=23, num=1)[0]
        result = BatchedPairTrainer(config=config).train_cohort([task])[0]
        clone = pickle.loads(pickle.dumps(result.model))
        assert clone.weights_digest() == result.model.weights_digest()
        assert clone.translate(task.dev_source) == result.model.translate(task.dev_source)


class TestCohortGrouping:
    def test_groups_by_shape_and_chunks(self):
        rng = np.random.default_rng(29)
        short = [_make_task(rng, index, length=4) for index in range(3)]
        long = [_make_task(rng, index + 3, length=6) for index in range(2)]
        cohorts, leftovers = group_cohorts(short + long, cohort_size=2)
        assert not leftovers
        assert [len(cohort) for cohort in cohorts] == [2, 1, 2]
        assert {task.source for task in cohorts[0] + cohorts[1]} == {
            task.source for task in short
        }

    def test_chunks_sort_by_vocab_width(self):
        # Within a signature group, tasks are stably sorted by
        # vocabulary widths before chunking so most cohorts come out
        # width-uniform and skip the padded-slab arithmetic.
        rng = np.random.default_rng(43)
        tasks = [
            _make_task(rng, 0, target_vocab=9),
            _make_task(rng, 1, target_vocab=4),
            _make_task(rng, 2, target_vocab=4),
        ]
        cohorts, leftovers = group_cohorts(tasks, cohort_size=2)
        assert not leftovers
        assert [[task.source for task in cohort] for cohort in cohorts] == [
            ["s1", "s2"],
            ["s0"],
        ]

    def test_ragged_corpora_are_leftovers(self):
        rng = np.random.default_rng(31)
        regular = _make_task(rng, 0)
        ragged = _make_task(rng, 1)
        sentences = list(ragged.corpus.source_sentences)
        sentences[0] = sentences[0][:-1]  # break the uniform length
        ragged.corpus = ParallelCorpus.from_sentences(
            "s1", "t1", sentences, list(ragged.corpus.target_sentences)
        )
        cohorts, leftovers = group_cohorts([regular, ragged])
        assert [task.source for task in leftovers] == ["s1"]
        assert [[task.source for task in cohort] for cohort in cohorts] == [["s0"]]
        assert cohort_signature(ragged.corpus) is None

    def test_rejects_bad_cohort_size(self):
        with pytest.raises(ValueError):
            group_cohorts([], cohort_size=0)
