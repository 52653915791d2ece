"""Tests for chunked seq2seq training continuity."""

from __future__ import annotations

import numpy as np
import pytest

from repro.lang import ParallelCorpus
from repro.translation import NMTConfig


@pytest.fixture(scope="module")
def corpora():
    sentences = [tuple(f"w{(i + j) % 4}" for j in range(4)) for i in range(16)]
    train = ParallelCorpus.from_sentences("src", "tgt", sentences[:12], sentences[:12])
    dev = ParallelCorpus.from_sentences("src", "tgt", sentences[12:], sentences[12:])
    return train, dev


class TestChunkedTrainingContinuity:
    def test_chunked_equals_uninterrupted(self, corpora):
        # The optimizer persists across fit/continue chunks, so chunked
        # training follows the exact optimisation path of one
        # uninterrupted fit: same Adam moments, same RNG stream.
        from repro.translation import Seq2SeqTranslator
        from repro.translation.trainer import _continue_training

        train, _ = corpora
        base = dict(
            embedding_size=8,
            hidden_size=10,
            num_layers=2,
            dropout=0.1,
            batch_size=8,
            seed=2,
        )
        full = Seq2SeqTranslator(NMTConfig(training_steps=60, **base)).fit(train)
        chunked = Seq2SeqTranslator(NMTConfig(training_steps=20, **base)).fit(train)
        _continue_training(chunked, train, 20)
        _continue_training(chunked, train, 20)

        state_full, state_chunked = full.state_dict(), chunked.state_dict()
        for key in state_full:
            np.testing.assert_array_equal(state_full[key], state_chunked[key], err_msg=key)
