"""Training utilities for pairwise translation models.

:class:`TrainingRecord` is the structured record of one pair fit (the
data behind Figure 4a's runtime CDF).  :func:`_continue_training`
advances an already-fitted seq2seq model by more optimiser steps on
the model's own Adam state, so training in chunks takes exactly the
same optimisation path as one uninterrupted fit.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..lang.corpus import ParallelCorpus
from .seq2seq import Seq2SeqTranslator

__all__ = ["TrainingRecord"]


@dataclass
class TrainingRecord:
    """What happened while fitting one directed pair."""

    source: str
    target: str
    train_seconds: float
    eval_seconds: float
    dev_bleu: float
    loss_history: list[float] = field(default_factory=list)

    @property
    def total_seconds(self) -> float:
        return self.train_seconds + self.eval_seconds


def _continue_training(
    model: Seq2SeqTranslator, corpus: ParallelCorpus, steps: int
) -> None:
    """Run ``steps`` more optimisation steps on an already-fitted model."""
    from .. import nn
    from ..nn import functional as F

    model._set_training(True)
    # Reuse the optimizer from fit() so Adam's moment estimates and step
    # count carry across chunks: chunked training then takes exactly the
    # same optimisation path as one uninterrupted fit.  Models restored
    # from pre-optimizer pickles start a fresh one.
    optimizer = getattr(model, "_optimizer", None)
    if optimizer is None:
        optimizer = nn.Adam(model.parameters(), lr=model.config.learning_rate)
        model._optimizer = optimizer
    pairs = corpus.pairs
    batch_size = min(model.config.batch_size, len(pairs))
    for _ in range(steps):
        chosen = model._rng.choice(len(pairs), size=batch_size, replace=False)
        sources = [pairs[i][0] for i in chosen]
        targets = [pairs[i][1] for i in chosen]
        source_ids, source_mask = model._encode_batch(sources)
        decoder_inputs, decoder_targets, target_mask = model._target_batch(targets)
        encoder_outputs, state = model._run_encoder(source_ids)
        step_logits = []
        for t in range(decoder_inputs.shape[1]):
            logits, state = model._decode_step(
                decoder_inputs[:, t], state, encoder_outputs, source_mask
            )
            step_logits.append(logits)
        loss = F.masked_cross_entropy(
            nn.Tensor.stack(step_logits, axis=1), decoder_targets, target_mask
        )
        optimizer.zero_grad()
        loss.backward()
        nn.clip_grad_norm(model.parameters(), model.config.clip_norm)
        optimizer.step()
        model.loss_history.append(loss.item())
    model._set_training(False)
