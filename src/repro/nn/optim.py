"""Gradient-descent optimisers and gradient clipping."""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .module import Parameter

__all__ = ["SGD", "Adam", "BatchedAdam", "clip_grad_norm", "clip_grad_norm_per_pair"]


def clip_grad_norm(parameters: Sequence[Parameter], max_norm: float) -> float:
    """Scale gradients in place so their global L2 norm is <= ``max_norm``.

    Returns the pre-clipping norm, which callers often log to monitor
    training stability.
    """
    if max_norm <= 0:
        raise ValueError("max_norm must be positive")
    total = 0.0
    for param in parameters:
        if param.grad is not None:
            total += float((param.grad**2).sum())
    norm = float(np.sqrt(total))
    if norm > max_norm and norm > 0:
        scale = max_norm / norm
        for param in parameters:
            if param.grad is not None:
                param.grad *= scale
    return norm


def clip_grad_norm_per_pair(
    parameters: Sequence[Parameter], max_norm: float
) -> np.ndarray:
    """Clip each pair's gradient slab to its own global L2 norm.

    Every parameter carries a leading pair axis (shape
    ``(pairs, ...)``); the norm is taken per pair over that pair's
    slices of *all* parameters, and only over-norm pairs are scaled —
    exactly what :func:`clip_grad_norm` computes for each pair model in
    the looped path.  Scale factors for in-norm pairs are exactly 1.0,
    so their gradients are untouched bit-for-bit.

    Returns the per-pair pre-clipping norms.
    """
    if max_norm <= 0:
        raise ValueError("max_norm must be positive")
    with_grads = [param for param in parameters if param.grad is not None]
    if not with_grads:
        return np.zeros(0)
    num_pairs = with_grads[0].shape[0]
    total = np.zeros(num_pairs)
    for param in with_grads:
        if param.shape[0] != num_pairs:
            raise ValueError(
                "clip_grad_norm_per_pair requires a shared leading pair axis; "
                f"got {param.shape[0]} vs {num_pairs}"
            )
        total += (param.grad.reshape(num_pairs, -1) ** 2).sum(axis=1)
    norms = np.sqrt(total)
    scales = np.where((norms > max_norm) & (norms > 0), max_norm / np.maximum(norms, 1e-300), 1.0)
    if (scales != 1.0).any():
        for param in with_grads:
            param.grad *= scales.reshape((num_pairs,) + (1,) * (param.grad.ndim - 1))
    return norms


class Optimizer:
    """Base optimiser holding a parameter list."""

    def __init__(self, parameters: Sequence[Parameter]) -> None:
        self.parameters = list(parameters)
        if not self.parameters:
            raise ValueError("optimizer received no parameters")

    def zero_grad(self) -> None:
        for param in self.parameters:
            param.zero_grad()

    def step(self) -> None:
        raise NotImplementedError


class SGD(Optimizer):
    """Stochastic gradient descent with optional momentum."""

    def __init__(
        self,
        parameters: Sequence[Parameter],
        lr: float = 0.01,
        momentum: float = 0.0,
    ) -> None:
        super().__init__(parameters)
        self.lr = lr
        self.momentum = momentum
        self._velocity = [np.zeros_like(p.data) for p in self.parameters]

    def step(self) -> None:
        for param, velocity in zip(self.parameters, self._velocity):
            if param.grad is None:
                continue
            if self.momentum > 0:
                velocity *= self.momentum
                velocity += param.grad
                param.data -= self.lr * velocity
            else:
                param.data -= self.lr * param.grad


class Adam(Optimizer):
    """Adam optimiser (Kingma & Ba, 2015)."""

    def __init__(
        self,
        parameters: Sequence[Parameter],
        lr: float = 1e-3,
        betas: tuple[float, float] = (0.9, 0.999),
        eps: float = 1e-8,
    ) -> None:
        super().__init__(parameters)
        self.lr = lr
        self.beta1, self.beta2 = betas
        self.eps = eps
        self._step_count = 0
        self._first_moment = [np.zeros_like(p.data) for p in self.parameters]
        self._second_moment = [np.zeros_like(p.data) for p in self.parameters]

    def step(self) -> None:
        self._step_count += 1
        bias1 = 1.0 - self.beta1**self._step_count
        bias2 = 1.0 - self.beta2**self._step_count
        for param, m, v in zip(self.parameters, self._first_moment, self._second_moment):
            if param.grad is None:
                continue
            grad = param.grad
            m *= self.beta1
            m += (1.0 - self.beta1) * grad
            v *= self.beta2
            v += (1.0 - self.beta2) * grad**2
            m_hat = m / bias1
            v_hat = v / bias2
            param.data -= self.lr * m_hat / (np.sqrt(v_hat) + self.eps)


class BatchedAdam(Adam):
    """Adam over per-pair parameter slabs.

    Adam's update is elementwise, so running it on a stacked
    ``(pairs, ...)`` slab is bit-identical to running a separate
    :class:`Adam` per pair — provided every pair has taken the same
    number of steps, which the lockstep cohort trainer guarantees.
    """
