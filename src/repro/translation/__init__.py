"""Directional sensor-to-sensor translation and BLEU scoring."""

from .base import TranslationModel
from .batched import (
    DEFAULT_COHORT_SIZE,
    BatchedPairTrainer,
    CohortResult,
    cohort_signature,
    group_cohorts,
)
from .bleu import (
    BleuBreakdown,
    bleu_breakdown,
    brevity_penalty,
    corpus_bleu,
    mapping_proxy_scores,
    modified_precision,
    sentence_bleu,
)
from .diagnostics import PairDiagnostics, diagnose_pair
from .factory import ENGINES, make_translator, translator_factory
from .ngram import NGramTranslator
from .seq2seq import NMTConfig, Seq2SeqTranslator
from .trainer import TrainingRecord

__all__ = [
    "BatchedPairTrainer",
    "BleuBreakdown",
    "CohortResult",
    "DEFAULT_COHORT_SIZE",
    "ENGINES",
    "NGramTranslator",
    "NMTConfig",
    "PairDiagnostics",
    "Seq2SeqTranslator",
    "TrainingRecord",
    "TranslationModel",
    "bleu_breakdown",
    "brevity_penalty",
    "cohort_signature",
    "corpus_bleu",
    "diagnose_pair",
    "group_cohorts",
    "make_translator",
    "mapping_proxy_scores",
    "modified_precision",
    "sentence_bleu",
    "translator_factory",
]
