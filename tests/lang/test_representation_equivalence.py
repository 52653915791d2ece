"""Bit-identity of the columnar ("codes") and legacy ("strings") paths.

The integer word keys are a positional base-B packing of the interned
code window, so they are bijective with the encrypted word strings.
These tests assert the equivalences the refactor promises: identical
sentences after decoding, identical vocabularies, identical BLEU
scores, identical MVRG edge weights — and identical results across
serial, parallel and cached builds of the codes path.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.graph import MultivariateRelationshipGraph
from repro.pipeline import FrameworkConfig
from repro.lang import (
    LanguageConfig,
    MultiLanguageCorpus,
    MultivariateEventLog,
    ParallelCorpus,
    SensorLanguage,
    Vocabulary,
)
from repro.translation.bleu import corpus_bleu
from repro.translation.ngram import NGramTranslator
from repro.translation.seq2seq import NMTConfig, Seq2SeqTranslator


@pytest.fixture(scope="module")
def log(related_log):
    return related_log


@pytest.fixture(scope="module")
def config(tiny_language_config):
    return tiny_language_config


@pytest.fixture(scope="module")
def corpora(log, config):
    codes = MultiLanguageCorpus.fit(log, config, representation="codes")
    strings = MultiLanguageCorpus.fit(log, config, representation="strings")
    return codes, strings


class TestSentenceEquivalence:
    def test_decoded_code_sentences_equal_string_sentences(self, corpora):
        codes, strings = corpora
        assert codes.sensors == strings.sensors
        for name in codes.sensors:
            assert codes[name].decoded_sentences() == strings[name].sentences

    def test_word_key_decoding_is_bijective(self, corpora):
        codes, _ = corpora
        for name in codes.sensors:
            language = codes[name]
            seen: dict[object, str] = {}
            decoded: dict[str, object] = {}
            for sentence in language.sentences:
                for word in sentence:
                    rendered = language.decode_word(word)
                    assert seen.setdefault(word, rendered) == rendered
                    assert decoded.setdefault(rendered, word) == word

    def test_unknown_states_agree_across_paths(self, log, config):
        codes = MultiLanguageCorpus.fit(log, config, representation="codes")
        strings = MultiLanguageCorpus.fit(log, config, representation="strings")
        novel = MultivariateEventLog.from_mapping(
            {
                name: (list(log[name])[:100] + ["NOVEL-STATE"] * 40)
                for name in log.sensors
            }
        )
        for name in codes.sensors:
            from_codes = [
                codes[name].decode_sentence(s)
                for s in codes[name].sentences_for(novel[name])
            ]
            assert from_codes == strings[name].sentences_for(novel[name])


class TestVocabularyEquivalence:
    def test_sizes_and_id_assignment_match(self, corpora):
        codes, strings = corpora
        for name in codes.sensors:
            code_vocab = codes[name].vocabulary
            string_vocab = strings[name].vocabulary
            assert len(code_vocab) == len(string_vocab)
            assert code_vocab.content_size == string_vocab.content_size
            # First-seen order is preserved, so decoding the id-ordered
            # code words reproduces the id-ordered string words.
            decoded = [codes[name].decode_word(w) for w in code_vocab.words()]
            assert decoded == string_vocab.words()

    def test_sentence_encoding_produces_identical_ids(self, corpora):
        codes, strings = corpora
        for name in codes.sensors:
            code_vocab = codes[name].vocabulary
            string_vocab = strings[name].vocabulary
            for cs, ss in zip(codes[name].sentences, strings[name].sentences):
                np.testing.assert_array_equal(
                    code_vocab.encode(cs, add_eos=True),
                    string_vocab.encode(ss, add_eos=True),
                )


class TestScoreEquivalence:
    def test_ngram_bleu_identical(self, corpora, log, config):
        codes, strings = corpora
        train, dev = log.slice(0, 480), log.slice(480, 600)
        for source, target in (("sA", "sB"), ("sB", "sA"), ("sA", "sC")):
            scores = []
            for corpus in corpora:
                language = {
                    name: SensorLanguage.from_encoder(
                        corpus[name].encoder, train[name], config, corpus.representation
                    )
                    for name in (source, target)
                }
                parallel = ParallelCorpus.from_languages(
                    language[source], language[target]
                )
                model = NGramTranslator().fit(parallel)
                dev_src = language[source].sentences_for(dev[source])
                dev_tgt = language[target].sentences_for(dev[target])
                translations = model.translate(dev_src)
                scores.append(corpus_bleu(translations, dev_tgt, smooth=True))
            assert scores[0] == scores[1]

    def test_seq2seq_training_identical(self, corpora):
        codes, strings = corpora
        losses = []
        digests = []
        for corpus in corpora:
            parallel = ParallelCorpus.from_languages(corpus["sA"], corpus["sB"])
            model = Seq2SeqTranslator(
                NMTConfig(
                    embedding_size=8,
                    hidden_size=8,
                    num_layers=1,
                    dropout=0.0,
                    training_steps=5,
                    batch_size=4,
                    seed=3,
                )
            ).fit(parallel)
            losses.append(model.loss_history)
            digests.append(model.weights_digest())
        assert losses[0] == losses[1]
        assert digests[0] == digests[1]


class TestGraphEquivalence:
    def build(self, log, config, store=None, **fields):
        return MultivariateRelationshipGraph.build(
            log.slice(0, 480),
            log.slice(480, 600),
            FrameworkConfig(language=config, **fields),
            store=store,
        )

    def test_edge_weights_identical_across_representations(self, log, config):
        codes = self.build(log, config, representation="codes")
        strings = self.build(log, config, representation="strings")
        assert codes.scores() == strings.scores()

    def test_serial_parallel_cached_builds_identical(self, log, config, tmp_path):
        serial = self.build(log, config)
        parallel = self.build(log, config, n_jobs=2, executor_backend="thread")
        cold = self.build(log, config, store=tmp_path / "cache")
        warm = self.build(log, config, store=tmp_path / "cache")
        assert serial.scores() == parallel.scores() == cold.scores() == warm.scores()
        assert not cold.build_report.cached
        assert len(warm.build_report.cached) == len(serial.scores())
        assert not warm.build_report.completed


class TestParallelCorpusGuards:
    def test_mixed_representations_refused(self, corpora):
        codes, strings = corpora
        with pytest.raises(ValueError):
            ParallelCorpus.from_languages(codes["sA"], strings["sB"])
