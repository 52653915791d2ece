"""Batched multi-pair training: one tensor program for many pair models.

Algorithm 1 trains ``N(N-1)`` independent seq2seq models; the looped
path advances them one at a time, so the Python-level step loop in
:mod:`repro.nn` dominates wall-clock.  This module packs *cohorts* of
same-shaped pair corpora into ``(pairs, batch, ...)`` tensors and
advances every model in lockstep through the ``Batched*`` twins of the
nn modules, turning dozens of small matmuls per step into a few stacked
BLAS calls.

Equivalence contract
--------------------
Each pair keeps its *own* RNG stream (``np.random.default_rng(seed)``),
consumed in exactly the order the looped
:class:`~repro.translation.seq2seq.Seq2SeqTranslator` would consume it:
module init draws happen in per-pair skeleton models whose parameters
are then stacked into slabs, and per-step draws (batch sampling,
dropout masks) are taken per pair at the same points.  All stacked ops
compute each pair's slice with the same numpy kernels the looped path
uses, so every cohort trains **bit-identically** to the looped
engine.  When vocabulary widths differ within a cohort,
embedding/projection slabs are zero-padded to the cohort maximum, but
no padded element ever enters a reduction: the loss slices each
pair's logits to its real width before the softmax, and the
gradient-clip norm sums each pair's real slab regions with the looped
memory layout.  This matters because padded entries — though exact
zeros — would change numpy's pairwise-summation blocking by ~1e-16
per step, which amplifies chaotically over long trainings into real
weight divergence.  See
``tests/translation/test_batched_equivalence.py``.

Every pair trains the full ``config.training_steps`` budget, as in the
paper, so a cohort's slabs keep all of its pairs from first step to
last.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

import numpy as np

from .. import nn
from ..nn import functional as F
from ..lang.vocabulary import Vocabulary
from ..obs import Stopwatch, get_logger
from .bleu import corpus_bleu, sentence_bleu
from .seq2seq import NMTConfig, Seq2SeqTranslator
from .trainer import TrainingRecord

if TYPE_CHECKING:  # pragma: no cover - avoid a translation -> pipeline cycle
    from ..pipeline.executor import PairTask

__all__ = [
    "BatchedPairTrainer",
    "CohortResult",
    "DEFAULT_COHORT_SIZE",
    "cohort_signature",
    "group_cohorts",
]

logger = get_logger(__name__)

#: Default number of pair models advanced by one tensor program.
DEFAULT_COHORT_SIZE = 32


# ----------------------------------------------------------------------
# Cohort grouping
# ----------------------------------------------------------------------
def cohort_signature(corpus) -> tuple[int, int, int] | None:
    """Shape key deciding which pairs can share one tensor program.

    Pairs are compatible when their corpora have the same sentence
    count and uniform source/target sentence lengths — the normal
    fixed-window case.  Returns ``None`` for ragged or empty corpora,
    which must fall back to the looped engine.
    """
    pairs = getattr(corpus, "pairs", None)
    if not pairs:
        return None
    source_len = len(pairs[0][0])
    target_len = len(pairs[0][1])
    if source_len == 0 or target_len == 0:
        return None
    for source_sentence, target_sentence in pairs:
        if len(source_sentence) != source_len or len(target_sentence) != target_len:
            return None
    return (len(pairs), source_len, target_len)


def _vocab_widths(corpus) -> tuple[int, int]:
    """Distinct source/target word counts — a proxy for vocabulary sizes."""
    pairs = corpus.pairs
    source_words = {word for sentence, _ in pairs for word in sentence}
    target_words = {word for _, sentence in pairs for word in sentence}
    return (len(target_words), len(source_words))


def group_cohorts(
    tasks: Sequence["PairTask"], cohort_size: int = DEFAULT_COHORT_SIZE
) -> tuple[list[list["PairTask"]], list["PairTask"]]:
    """Split tasks into shape-compatible cohorts plus looped leftovers.

    Within a signature group, tasks are stably sorted by vocabulary
    widths before chunking so most cohorts come out width-uniform and
    skip the padded-projection arithmetic entirely; ties keep the
    incoming (prescreen / community) order.  Groups appear in
    first-seen order.  The second element lists tasks whose corpora
    cannot be packed (ragged or empty) — the caller trains those
    serially.
    """
    if cohort_size < 1:
        raise ValueError("cohort_size must be >= 1")
    groups: dict[tuple[int, int, int], list["PairTask"]] = {}
    leftovers: list["PairTask"] = []
    for task in tasks:
        signature = cohort_signature(task.corpus)
        if signature is None:
            leftovers.append(task)
        else:
            groups.setdefault(signature, []).append(task)
    cohorts: list[list["PairTask"]] = []
    for members in groups.values():
        members = sorted(members, key=lambda task: _vocab_widths(task.corpus))
        for start in range(0, len(members), cohort_size):
            cohorts.append(members[start : start + cohort_size])
    return cohorts, leftovers


# ----------------------------------------------------------------------
# Corpus packing
# ----------------------------------------------------------------------
def _vectorised_ids(vocab: Vocabulary, matrix: np.ndarray) -> np.ndarray | None:
    """Map a packed word-key matrix to vocabulary ids without Python loops."""
    try:
        keys = np.asarray(vocab.words(), dtype=np.int64)
    except (TypeError, ValueError):
        return None  # string words (legacy path)
    first_content = len(vocab) - keys.size
    if keys.size == 0:
        return np.full(matrix.shape, vocab.unk_id, dtype=np.int64)
    order = np.argsort(keys, kind="stable")
    sorted_keys = keys[order]
    positions = np.searchsorted(sorted_keys, matrix)
    positions = np.minimum(positions, keys.size - 1)
    matched = sorted_keys[positions] == matrix
    return np.where(matched, order[positions] + first_content, vocab.unk_id)


def _sentence_id_matrix(vocab: Vocabulary, sentences: Sequence[tuple], language) -> np.ndarray:
    """Encode fixed-length sentences to an ``(N, L)`` id matrix.

    Reuses the language's cached :meth:`packed_sentence_matrix` when the
    corpus is that language's aligned prefix (the ``from_languages``
    case), otherwise packs the tuples directly; both feed a vectorised
    key → id lookup.  Falls back to per-sentence ``vocab.encode`` for
    string words.
    """
    count = len(sentences)
    matrix = None
    if language is not None and count:
        packed = language.packed_sentence_matrix()
        if (
            packed is not None
            and len(packed) >= count
            and packed.shape[1] == len(sentences[0])
            and np.array_equal(packed[0], np.asarray(sentences[0], dtype=np.int64))
        ):
            matrix = packed[:count]
    if matrix is None:
        try:
            matrix = np.asarray(sentences, dtype=np.int64)
        except (TypeError, ValueError):
            matrix = None
    if matrix is not None:
        ids = _vectorised_ids(vocab, matrix)
        if ids is not None:
            return ids
    return np.stack([vocab.encode(sentence) for sentence in sentences])


# ----------------------------------------------------------------------
# Results
# ----------------------------------------------------------------------
@dataclass
class CohortResult:
    """One pair's outcome from a cohort run (mirrors the looped worker)."""

    source: str
    target: str
    model: Seq2SeqTranslator
    record: TrainingRecord
    score: float
    dev_sentence_scores: np.ndarray


# ----------------------------------------------------------------------
# The tensor program
# ----------------------------------------------------------------------
class _CohortProgram:
    """Lockstep training state for one cohort of shape-compatible pairs."""

    def __init__(self, tasks: Sequence["PairTask"], config: NMTConfig) -> None:
        self.config = config
        self.tasks = list(tasks)

        # Per-pair skeleton models: real Seq2SeqTranslators whose _build()
        # consumes each pair's RNG stream exactly as a looped fit would,
        # giving us both the init draws to stack and the objects to
        # unpack trained slabs back into.
        models: list[Seq2SeqTranslator] = []
        for task in self.tasks:
            corpus = task.corpus
            model = Seq2SeqTranslator(config)
            model.source_sensor = corpus.source_sensor
            model.target_sensor = corpus.target_sensor
            model.source_vocab = Vocabulary.from_sentences(corpus.source_sentences)
            model.target_vocab = Vocabulary.from_sentences(corpus.target_sentences)
            model._build()
            model.loss_history = []
            models.append(model)
        self.models = models
        rngs = [model._rng for model in models]

        recurrent_stack = (
            nn.BatchedLSTM.stack if config.recurrent_unit == "lstm" else nn.BatchedGRU.stack
        )
        self.encoder_embedding = nn.BatchedEmbedding.stack(
            [model._encoder_embedding for model in models]
        )
        self.encoder = recurrent_stack([model._encoder for model in models], rngs)
        self.decoder_embedding = nn.BatchedEmbedding.stack(
            [model._decoder_embedding for model in models]
        )
        self.decoder = recurrent_stack([model._decoder for model in models], rngs)
        self.attention = nn.BatchedLuongAttention.stack(
            [model._attention for model in models]
        )
        target_sizes = [len(model.target_vocab) for model in models]
        vocab_max = max(target_sizes)
        self.projection = nn.BatchedLinear.stack(
            [model._projection for model in models], pad_out_to=vocab_max
        )
        # Slabs over a vocabulary axis are zero-padded to the cohort
        # maximum; the loss and the gradient-clip norm only ever reduce
        # over each pair's real width (see train_steps), so training is
        # bit-identical to the looped engine even in mixed-width
        # cohorts.
        self.source_widths = np.asarray(
            [len(model.source_vocab) for model in models], dtype=np.int64
        )
        self.target_widths = np.asarray(target_sizes, dtype=np.int64)
        self._group_widths()

        # Packed id tensors for the whole corpus of every pair.
        source_ids = []
        decoder_inputs = []
        decoder_targets = []
        for task, model in zip(self.tasks, models):
            corpus = task.corpus
            src = _sentence_id_matrix(
                model.source_vocab, corpus.source_sentences, corpus.source_language
            )
            tgt = _sentence_id_matrix(
                model.target_vocab, corpus.target_sentences, corpus.target_language
            )
            count = tgt.shape[0]
            bos = np.full((count, 1), model.target_vocab.bos_id, dtype=np.int64)
            eos = np.full((count, 1), model.target_vocab.eos_id, dtype=np.int64)
            source_ids.append(src)
            decoder_inputs.append(np.concatenate([bos, tgt], axis=1))
            decoder_targets.append(np.concatenate([tgt, eos], axis=1))
        self.source_ids = np.stack(source_ids)  # (pairs, N, L)
        self.decoder_inputs = np.stack(decoder_inputs)  # (pairs, N, T)
        self.decoder_targets = np.stack(decoder_targets)  # (pairs, N, T)
        self.num_sentences = self.source_ids.shape[1]

        self.rngs = list(rngs)
        self.optimizer = nn.BatchedAdam(self.parameters(), lr=config.learning_rate)

    # ------------------------------------------------------------------
    def _group_widths(self) -> None:
        """Group the cohort's pairs by target vocabulary width.

        Each group is ``(positions, width)``: the cohort positions whose
        target vocabulary has ``width`` entries.  The loss reduces over
        exactly ``width`` logit columns per group, so no padded column
        ever enters a softmax — summation blocking (and therefore every
        bit of the training trajectory) matches the looped engine.
        """
        groups: dict[int, list[int]] = {}
        for position, width in enumerate(self.target_widths):
            groups.setdefault(int(width), []).append(position)
        self._width_groups = [
            (np.asarray(positions, dtype=np.int64), width)
            for width, positions in groups.items()
        ]
        self._mixed_target = len(self._width_groups) > 1
        self._mixed_source = bool(
            self.source_widths.size
            and (self.source_widths != self.source_widths[0]).any()
        )

    def _padded_slabs(self) -> list[tuple[nn.Parameter, int, np.ndarray]]:
        """Parameters padded on a vocabulary axis: (param, axis, widths)."""
        slabs: list[tuple[nn.Parameter, int, np.ndarray]] = []
        if self._mixed_source:
            slabs.append((self.encoder_embedding.weight, 1, self.source_widths))
        if self._mixed_target:
            slabs.append((self.decoder_embedding.weight, 1, self.target_widths))
            slabs.append((self.projection.weight, 2, self.target_widths))
            if self.projection.bias is not None:
                slabs.append((self.projection.bias, 2, self.target_widths))
        return slabs

    def _clip_gradients(self) -> None:
        """Per-pair gradient clipping that ignores padded slab regions.

        Padded entries hold exact-zero gradients, but including them in
        the norm reduction would change numpy's pairwise-summation
        blocking relative to the looped engine; summing each pair's
        real region with the looped layout keeps the norms — and hence
        the clip scales — bit-identical.
        """
        if not (self._mixed_source or self._mixed_target):
            nn.clip_grad_norm_per_pair(self.parameters(), self.config.clip_norm)
            return
        params = [param for param in self.parameters() if param.grad is not None]
        if not params:
            return
        num_pairs = len(self.models)
        padded = {id(param): (axis, widths) for param, axis, widths in self._padded_slabs()}
        total = np.zeros(num_pairs)
        for param in params:
            info = padded.get(id(param))
            if info is None:
                total += (param.grad.reshape(num_pairs, -1) ** 2).sum(axis=1)
                continue
            axis, widths = info
            for position in range(num_pairs):
                width = int(widths[position])
                grad = param.grad[position]
                sliced = grad[:width] if axis == 1 else grad[..., :width]
                total[position] += (sliced**2).sum()
        norms = np.sqrt(total)
        max_norm = self.config.clip_norm
        scales = np.where(
            (norms > max_norm) & (norms > 0),
            max_norm / np.maximum(norms, 1e-300),
            1.0,
        )
        if (scales != 1.0).any():
            for param in params:
                param.grad *= scales.reshape(
                    (num_pairs,) + (1,) * (param.grad.ndim - 1)
                )

    # ------------------------------------------------------------------
    def _batched_modules(self) -> list:
        return [
            self.encoder_embedding,
            self.encoder,
            self.decoder_embedding,
            self.decoder,
            self.attention,
            self.projection,
        ]

    def parameters(self) -> list[nn.Parameter]:
        params: list[nn.Parameter] = []
        for module in self._batched_modules():
            params.extend(module.parameters())
        return params

    # ------------------------------------------------------------------
    def train_steps(self, steps: int) -> None:
        """Advance every pair ``steps`` lockstep optimiser steps."""
        num_pairs = len(self.models)
        if steps == 0:
            return
        batch_size = min(self.config.batch_size, self.num_sentences)
        source_len = self.source_ids.shape[2]
        target_len = self.decoder_inputs.shape[2]
        pair_rows = np.arange(num_pairs)[:, None]
        source_mask = np.ones((num_pairs, batch_size, source_len))
        target_mask = np.ones((num_pairs, batch_size, target_len))

        for _ in range(steps):
            chosen = np.stack(
                [
                    rng.choice(self.num_sentences, size=batch_size, replace=False)
                    for rng in self.rngs
                ]
            )
            source_batch = self.source_ids[pair_rows, chosen]
            input_batch = self.decoder_inputs[pair_rows, chosen]
            target_batch = self.decoder_targets[pair_rows, chosen]

            embedded = self.encoder_embedding(source_batch)
            encoder_outputs, state = self.encoder(embedded)
            if not self._mixed_target:
                step_logits: list[nn.Tensor] = []
                for t in range(target_len):
                    token_embedded = self.decoder_embedding(input_batch[:, :, t])
                    hidden, state = self.decoder.step(token_embedded, state)
                    attentional, _ = self.attention(
                        hidden, encoder_outputs, source_mask
                    )
                    step_logits.append(self.projection(attentional))
                all_logits = nn.Tensor.stack(step_logits, axis=2)
                losses = F.pairwise_masked_cross_entropy(
                    all_logits, target_batch, target_mask
                )
                total = losses.sum()
                loss_values = losses.data
            else:
                # Mixed-width cohort: project and reduce each width
                # group with its true vocabulary width.  Padding the
                # projection would be mathematically equivalent (padded
                # weights and gradients are exact zeros) but not
                # bit-equivalent — a wider matmul contraction or
                # softmax row changes the kernels' accumulation order,
                # and that ~1e-16/step noise amplifies chaotically over
                # long trainings.  Slicing the shared slabs per group
                # keeps every pair's arithmetic identical to looped.
                group_weights = [
                    (
                        positions,
                        self.projection.weight[positions, :, :width],
                        None
                        if self.projection.bias is None
                        else self.projection.bias[positions, :, :width],
                    )
                    for positions, width in self._width_groups
                ]
                group_logits: list[list[nn.Tensor]] = [[] for _ in group_weights]
                for t in range(target_len):
                    token_embedded = self.decoder_embedding(input_batch[:, :, t])
                    hidden, state = self.decoder.step(token_embedded, state)
                    attentional, _ = self.attention(
                        hidden, encoder_outputs, source_mask
                    )
                    for index, (positions, w_g, b_g) in enumerate(group_weights):
                        logits_g = attentional[positions] @ w_g
                        if b_g is not None:
                            logits_g = logits_g + b_g
                        group_logits[index].append(logits_g)
                loss_values = np.empty(num_pairs)
                total = None
                for (positions, _), logits in zip(self._width_groups, group_logits):
                    stacked = nn.Tensor.stack(logits, axis=2)
                    sub_losses = F.pairwise_masked_cross_entropy(
                        stacked, target_batch[positions], target_mask[positions]
                    )
                    loss_values[positions] = sub_losses.data
                    group_total = sub_losses.sum()
                    total = group_total if total is None else total + group_total

            self.optimizer.zero_grad()
            total.backward()
            self._clip_gradients()
            self.optimizer.step()
            for position, model in enumerate(self.models):
                model.loss_history.append(float(loss_values[position]))

    # ------------------------------------------------------------------
    def sync_models(self) -> None:
        """Write the trained slab slices back into the skeleton models."""
        models = self.models
        self.encoder_embedding.unpack_into([m._encoder_embedding for m in models])
        self.encoder.unpack_into([m._encoder for m in models])
        self.decoder_embedding.unpack_into([m._decoder_embedding for m in models])
        self.decoder.unpack_into([m._decoder for m in models])
        self.attention.unpack_into([m._attention for m in models])
        self.projection.unpack_into([m._projection for m in models])
        for model in models:
            model._set_training(False)
            model.fitted = True


# ----------------------------------------------------------------------
# Public trainer
# ----------------------------------------------------------------------
@dataclass
class BatchedPairTrainer:
    """Trains a cohort of directed pairs inside one tensor program.

    Parameters
    ----------
    config:
        Shared :class:`NMTConfig` (every pair trains with the same
        hyper-parameters and the fixed ``config.training_steps``
        budget, as in the paper).
    """

    config: NMTConfig | None = None

    def __post_init__(self) -> None:
        if self.config is None:
            self.config = NMTConfig()

    # ------------------------------------------------------------------
    def train_cohort(self, tasks: Sequence["PairTask"]) -> list[CohortResult]:
        """Train and dev-score every task; results follow task order."""
        tasks = list(tasks)
        if not tasks:
            return []
        program = _CohortProgram(tasks, self.config)
        start = time.perf_counter()
        program.train_steps(self.config.training_steps)
        train_seconds = (time.perf_counter() - start) / len(tasks)
        program.sync_models()

        results = []
        for task, model in zip(tasks, program.models):
            watch = Stopwatch()
            translations = model.translate(task.dev_source)
            score = corpus_bleu(translations, task.dev_target, smooth=True)
            sentence_scores = np.asarray(
                [
                    sentence_bleu(candidate, reference)
                    for candidate, reference in zip(translations, task.dev_target)
                ]
            )
            eval_seconds = watch.split()
            record = TrainingRecord(
                source=task.source,
                target=task.target,
                train_seconds=train_seconds,
                eval_seconds=eval_seconds,
                dev_bleu=score,
                loss_history=list(model.loss_history),
            )
            results.append(
                CohortResult(
                    source=task.source,
                    target=task.target,
                    model=model,
                    record=record,
                    score=score,
                    dev_sentence_scores=sentence_scores,
                )
            )
        logger.debug(
            "cohort of %d pair(s) trained in lockstep",
            len(tasks),
            extra={"pairs": len(tasks), "engine": "batched"},
        )
        return results
