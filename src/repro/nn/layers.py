"""Basic trainable layers: Linear, Embedding and Dropout."""

from __future__ import annotations

import numpy as np

from . import functional as F
from .module import Module, Parameter
from .tensor import Tensor

__all__ = ["Linear", "Embedding", "Dropout", "BatchedLinear", "BatchedEmbedding"]


def _glorot_uniform(rng: np.random.Generator, fan_in: int, fan_out: int) -> np.ndarray:
    """Glorot/Xavier uniform initialisation."""
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=(fan_in, fan_out))


class Linear(Module):
    """Affine transformation ``y = x W + b``.

    Parameters
    ----------
    in_features, out_features:
        Input/output dimensionality.
    bias:
        Whether to include the additive bias term.
    rng:
        Generator used for weight initialisation (deterministic models
        pass a seeded generator).
    """

    def __init__(
        self,
        in_features: int,
        out_features: int,
        bias: bool = True,
        rng: np.random.Generator | None = None,
    ) -> None:
        super().__init__()
        rng = rng or np.random.default_rng()
        self.in_features = in_features
        self.out_features = out_features
        self.weight = Parameter(_glorot_uniform(rng, in_features, out_features), name="weight")
        self.bias = Parameter(np.zeros(out_features), name="bias") if bias else None

    def forward(self, x: Tensor) -> Tensor:
        out = x @ self.weight
        if self.bias is not None:
            out = out + self.bias
        return out


class Embedding(Module):
    """Lookup table mapping integer token ids to dense vectors."""

    def __init__(
        self,
        num_embeddings: int,
        embedding_dim: int,
        rng: np.random.Generator | None = None,
    ) -> None:
        super().__init__()
        rng = rng or np.random.default_rng()
        self.num_embeddings = num_embeddings
        self.embedding_dim = embedding_dim
        self.weight = Parameter(
            rng.normal(0.0, 0.1, size=(num_embeddings, embedding_dim)), name="weight"
        )

    def forward(self, token_ids: np.ndarray) -> Tensor:
        token_ids = np.asarray(token_ids, dtype=np.int64)
        if token_ids.size and (token_ids.min() < 0 or token_ids.max() >= self.num_embeddings):
            raise IndexError(
                f"token id out of range [0, {self.num_embeddings}): "
                f"[{token_ids.min()}, {token_ids.max()}]"
            )
        return self.weight.take_rows(token_ids)


class BatchedLinear(Module):
    """Per-pair affine slabs: one :class:`Linear` per pair in one matmul.

    Parameters are stacked along a leading pair axis — ``weight`` is
    ``(pairs, in, out)``, ``bias`` is ``(pairs, 1, out)`` — so a
    ``(pairs, batch, in)`` input advances every pair model with a single
    stacked BLAS call.  Numpy's batched matmul computes each pair slice
    with the same kernel the looped :class:`Linear` would use, so the
    outputs (and gradients) match the looped path per pair.

    Pairs whose looped layer is narrower than the slab (padded output
    features, e.g. vocabulary projections) keep zero weights/bias in the
    padded columns; those columns receive zero gradient as long as the
    loss never reads them, so they stay zero under Adam.
    """

    def __init__(self, weight: np.ndarray, bias: np.ndarray | None) -> None:
        super().__init__()
        self.num_pairs = weight.shape[0]
        self.in_features = weight.shape[1]
        self.out_features = weight.shape[2]
        self.weight = Parameter(np.asarray(weight, dtype=np.float64), name="weight")
        self.bias = (
            Parameter(np.asarray(bias, dtype=np.float64), name="bias")
            if bias is not None
            else None
        )

    @classmethod
    def stack(cls, linears: "list[Linear]", pad_out_to: int | None = None) -> "BatchedLinear":
        """Stack fitted per-pair :class:`Linear` layers into one slab.

        ``pad_out_to`` widens the output axis (zero padding) so layers
        with different ``out_features`` — per-pair vocabulary
        projections — can share one slab.
        """
        if not linears:
            raise ValueError("stack requires at least one layer")
        in_features = linears[0].in_features
        has_bias = linears[0].bias is not None
        for linear in linears:
            if linear.in_features != in_features or (linear.bias is not None) != has_bias:
                raise ValueError("stacked Linear layers must share in_features and bias-ness")
        out_max = pad_out_to or max(linear.out_features for linear in linears)
        if any(linear.out_features > out_max for linear in linears):
            raise ValueError("pad_out_to smaller than a layer's out_features")
        weight = np.zeros((len(linears), in_features, out_max))
        bias = np.zeros((len(linears), 1, out_max)) if has_bias else None
        for index, linear in enumerate(linears):
            weight[index, :, : linear.out_features] = linear.weight.data
            if bias is not None:
                bias[index, 0, : linear.out_features] = linear.bias.data
        return cls(weight, bias)

    def forward(self, x: Tensor) -> Tensor:
        weight: Tensor = self.weight
        bias: Tensor | None = self.bias
        if x.ndim > 3:
            # Insert singleton axes so the pair axis lines up with the
            # input's extra batch dimensions for broadcasting.
            middle = (1,) * (x.ndim - 3)
            weight = weight.reshape((self.num_pairs,) + middle + weight.shape[1:])
            if bias is not None:
                bias = bias.reshape((self.num_pairs,) + middle + (1, self.out_features))
        out = x @ weight
        if bias is not None:
            out = out + bias
        return out

    def unpack_into(self, linears: "list[Linear]") -> None:
        """Write trained slab slices back into per-pair looped layers."""
        if len(linears) != self.num_pairs:
            raise ValueError(f"expected {self.num_pairs} layers, got {len(linears)}")
        for index, linear in enumerate(linears):
            linear.weight.data = self.weight.data[index, :, : linear.out_features].copy()
            if linear.bias is not None:
                assert self.bias is not None
                linear.bias.data = self.bias.data[index, 0, : linear.out_features].copy()


class BatchedEmbedding(Module):
    """Per-pair embedding tables padded to a shared vocabulary size.

    ``weight`` is ``(pairs, max_vocab, dim)``; pair ``p`` only ever
    looks up ids below its own vocabulary size, so the zero-padded rows
    are never gathered and never receive gradient.
    """

    def __init__(self, weight: np.ndarray, vocab_sizes: "list[int]") -> None:
        super().__init__()
        self.num_pairs = weight.shape[0]
        self.num_embeddings = weight.shape[1]
        self.embedding_dim = weight.shape[2]
        self.vocab_sizes = list(vocab_sizes)
        self.weight = Parameter(np.asarray(weight, dtype=np.float64), name="weight")

    @classmethod
    def stack(cls, embeddings: "list[Embedding]") -> "BatchedEmbedding":
        if not embeddings:
            raise ValueError("stack requires at least one embedding")
        dim = embeddings[0].embedding_dim
        if any(embedding.embedding_dim != dim for embedding in embeddings):
            raise ValueError("stacked embeddings must share embedding_dim")
        sizes = [embedding.num_embeddings for embedding in embeddings]
        weight = np.zeros((len(embeddings), max(sizes), dim))
        for index, embedding in enumerate(embeddings):
            weight[index, : sizes[index]] = embedding.weight.data
        return cls(weight, sizes)

    def forward(self, token_ids: np.ndarray) -> Tensor:
        token_ids = np.asarray(token_ids, dtype=np.int64)
        if token_ids.size and (
            token_ids.min() < 0 or token_ids.max() >= self.num_embeddings
        ):
            raise IndexError(
                f"token id out of range [0, {self.num_embeddings}): "
                f"[{token_ids.min()}, {token_ids.max()}]"
            )
        return self.weight.take_rows_batched(token_ids)

    def unpack_into(self, embeddings: "list[Embedding]") -> None:
        if len(embeddings) != self.num_pairs:
            raise ValueError(f"expected {self.num_pairs} embeddings, got {len(embeddings)}")
        for index, embedding in enumerate(embeddings):
            embedding.weight.data = self.weight.data[
                index, : embedding.num_embeddings
            ].copy()


class Dropout(Module):
    """Inverted dropout layer; identity when in eval mode."""

    def __init__(self, rate: float, rng: np.random.Generator | None = None) -> None:
        super().__init__()
        if not 0.0 <= rate < 1.0:
            raise ValueError(f"dropout rate must be in [0, 1), got {rate}")
        self.rate = rate
        self._rng = rng or np.random.default_rng()

    def forward(self, x: Tensor) -> Tensor:
        return F.dropout(x, self.rate, self.training, self._rng)
