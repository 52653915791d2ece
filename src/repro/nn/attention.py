"""Luong (multiplicative) attention, as used by the paper's NMT model.

Reference: Luong, Pham & Manning, "Effective Approaches to
Attention-based Neural Machine Translation" (2015) — the paper's
citation [23].
"""

from __future__ import annotations

import numpy as np

from . import functional as F
from .layers import BatchedLinear, Linear
from .module import Module
from .tensor import Tensor

__all__ = ["LuongAttention", "BatchedLuongAttention"]


class LuongAttention(Module):
    """Luong attention with an attentional output layer.

    Given decoder state ``h_t`` (batch, hidden) and encoder outputs
    ``H_s`` (batch, src_len, hidden):

    - score ``e`` using one of Luong's three content functions:
      ``"dot"`` (``h_t · H_s``), ``"general"`` (``h_t W_a H_s``, the
      default and the paper's configuration) or ``"concat"``
      (``v_a · tanh(W_a [h_t; H_s])``);
    - weights ``a = softmax(e)`` over source positions (optionally
      masked for padding);
    - context ``c = a H_s``;
    - attentional vector ``h~ = tanh(W_c [c; h_t])``.
    """

    SCORES = ("dot", "general", "concat")

    def __init__(
        self,
        hidden_size: int,
        rng: np.random.Generator | None = None,
        score: str = "general",
    ) -> None:
        super().__init__()
        if score not in self.SCORES:
            raise ValueError(f"score must be one of {self.SCORES}, got {score!r}")
        self.hidden_size = hidden_size
        self.score = score
        if score == "general":
            self.score_layer = Linear(hidden_size, hidden_size, bias=False, rng=rng)
        elif score == "concat":
            self.concat_layer = Linear(2 * hidden_size, hidden_size, bias=False, rng=rng)
            self.score_vector = Linear(hidden_size, 1, bias=False, rng=rng)
        self.combine_layer = Linear(2 * hidden_size, hidden_size, rng=rng)

    def _scores(self, decoder_state: Tensor, encoder_outputs: Tensor) -> Tensor:
        batch, src_len = encoder_outputs.shape[0], encoder_outputs.shape[1]
        if self.score == "dot":
            projected = decoder_state
        elif self.score == "general":
            projected = self.score_layer(decoder_state)
        else:  # concat
            expanded = Tensor.stack([decoder_state] * src_len, axis=1)
            combined = Tensor.concat([expanded, encoder_outputs], axis=2)
            energy = self.concat_layer(combined).tanh()
            return self.score_vector(energy).reshape(batch, src_len)
        return (
            encoder_outputs * projected.reshape(batch, 1, self.hidden_size)
        ).sum(axis=2)

    def forward(
        self,
        decoder_state: Tensor,
        encoder_outputs: Tensor,
        source_mask: np.ndarray | None = None,
    ) -> tuple[Tensor, Tensor]:
        """Compute the attentional vector and attention weights.

        Parameters
        ----------
        decoder_state:
            ``(batch, hidden)`` top-layer decoder hidden state.
        encoder_outputs:
            ``(batch, src_len, hidden)`` encoder top-layer outputs.
        source_mask:
            Optional ``(batch, src_len)`` array; zero marks padding
            positions, which receive zero attention.

        Returns
        -------
        ``(attentional, weights)`` with shapes ``(batch, hidden)`` and
        ``(batch, src_len)``.
        """
        scores = self._scores(decoder_state, encoder_outputs)
        if source_mask is not None:
            penalty = np.where(np.asarray(source_mask) > 0, 0.0, -1e9)
            scores = scores + Tensor(penalty)
        weights = F.softmax(scores, axis=1)  # (batch, src_len)
        context = (encoder_outputs * weights.reshape(weights.shape[0], weights.shape[1], 1)).sum(axis=1)
        combined = Tensor.concat([context, decoder_state], axis=1)
        attentional = self.combine_layer(combined).tanh()
        return attentional, weights


class BatchedLuongAttention(Module):
    """Luong attention over a leading pair axis.

    The per-pair score/combine layers are stacked into
    :class:`~repro.nn.layers.BatchedLinear` slabs; decoder states are
    ``(pairs, batch, hidden)`` and encoder outputs ``(pairs, batch,
    src_len, hidden)``.  Per pair the arithmetic matches
    :class:`LuongAttention` slice for slice.
    """

    def __init__(
        self,
        hidden_size: int,
        score: str,
        score_layer: BatchedLinear | None,
        concat_layer: BatchedLinear | None,
        score_vector: BatchedLinear | None,
        combine_layer: BatchedLinear,
    ) -> None:
        super().__init__()
        if score not in LuongAttention.SCORES:
            raise ValueError(f"score must be one of {LuongAttention.SCORES}, got {score!r}")
        self.hidden_size = hidden_size
        self.score = score
        if score == "general":
            self.score_layer = score_layer
        elif score == "concat":
            self.concat_layer = concat_layer
            self.score_vector = score_vector
        self.combine_layer = combine_layer

    @classmethod
    def stack(cls, attentions: "list[LuongAttention]") -> "BatchedLuongAttention":
        if not attentions:
            raise ValueError("stack requires at least one attention module")
        score = attentions[0].score
        hidden = attentions[0].hidden_size
        if any(a.score != score or a.hidden_size != hidden for a in attentions):
            raise ValueError("stacked attentions must share score function and hidden size")
        score_layer = concat_layer = score_vector = None
        if score == "general":
            score_layer = BatchedLinear.stack([a.score_layer for a in attentions])
        elif score == "concat":
            concat_layer = BatchedLinear.stack([a.concat_layer for a in attentions])
            score_vector = BatchedLinear.stack([a.score_vector for a in attentions])
        combine_layer = BatchedLinear.stack([a.combine_layer for a in attentions])
        return cls(hidden, score, score_layer, concat_layer, score_vector, combine_layer)

    def _scores(self, decoder_state: Tensor, encoder_outputs: Tensor) -> Tensor:
        num_pairs, batch, src_len = encoder_outputs.shape[:3]
        if self.score == "dot":
            projected = decoder_state
        elif self.score == "general":
            projected = self.score_layer(decoder_state)
        else:  # concat
            expanded = Tensor.stack([decoder_state] * src_len, axis=2)
            combined = Tensor.concat([expanded, encoder_outputs], axis=3)
            energy = self.concat_layer(combined).tanh()
            return self.score_vector(energy).reshape(num_pairs, batch, src_len)
        return (
            encoder_outputs * projected.reshape(num_pairs, batch, 1, self.hidden_size)
        ).sum(axis=3)

    def forward(
        self,
        decoder_state: Tensor,
        encoder_outputs: Tensor,
        source_mask: np.ndarray | None = None,
    ) -> tuple[Tensor, Tensor]:
        """Per-pair attentional vector and weights.

        ``decoder_state`` is ``(pairs, batch, hidden)``,
        ``encoder_outputs`` ``(pairs, batch, src_len, hidden)``, and the
        optional ``source_mask`` ``(pairs, batch, src_len)``.  Returns
        ``(attentional, weights)`` of shapes ``(pairs, batch, hidden)``
        and ``(pairs, batch, src_len)``.
        """
        scores = self._scores(decoder_state, encoder_outputs)
        if source_mask is not None:
            penalty = np.where(np.asarray(source_mask) > 0, 0.0, -1e9)
            scores = scores + Tensor(penalty)
        weights = F.softmax(scores, axis=2)  # (pairs, batch, src_len)
        context = (
            encoder_outputs
            * weights.reshape(weights.shape[0], weights.shape[1], weights.shape[2], 1)
        ).sum(axis=2)
        combined = Tensor.concat([context, decoder_state], axis=2)
        attentional = self.combine_layer(combined).tanh()
        return attentional, weights

    def unpack_into(self, attentions: "list[LuongAttention]") -> None:
        self.combine_layer.unpack_into([a.combine_layer for a in attentions])
        if self.score == "general":
            self.score_layer.unpack_into([a.score_layer for a in attentions])
        elif self.score == "concat":
            self.concat_layer.unpack_into([a.concat_layer for a in attentions])
            self.score_vector.unpack_into([a.score_vector for a in attentions])
