"""Multi-layer LSTM built on the autograd tensor engine.

The gate computation is fused into a single matmul per step per layer
(the four gates share one weight matrix), which is the standard
formulation and keeps the Python-level op count low.
"""

from __future__ import annotations

import numpy as np

from . import functional as F
from .module import Module, Parameter
from .tensor import Tensor

__all__ = ["LSTMCell", "LSTM", "LSTMState", "BatchedLSTMCell", "BatchedLSTM"]

LSTMState = tuple[list[Tensor], list[Tensor]]
"""Per-layer hidden and cell states: ``(h_per_layer, c_per_layer)``."""


class LSTMCell(Module):
    """A single LSTM layer advanced one timestep at a time.

    Gate order within the fused weight matrices is ``(input, forget,
    cell, output)``.  The forget-gate bias is initialised to 1.0, the
    usual trick to ease gradient flow early in training.
    """

    def __init__(
        self,
        input_size: int,
        hidden_size: int,
        rng: np.random.Generator | None = None,
    ) -> None:
        super().__init__()
        rng = rng or np.random.default_rng()
        self.input_size = input_size
        self.hidden_size = hidden_size
        scale = 1.0 / np.sqrt(hidden_size)
        self.weight_x = Parameter(
            rng.uniform(-scale, scale, size=(input_size, 4 * hidden_size)), name="weight_x"
        )
        self.weight_h = Parameter(
            rng.uniform(-scale, scale, size=(hidden_size, 4 * hidden_size)), name="weight_h"
        )
        bias = np.zeros(4 * hidden_size)
        bias[hidden_size : 2 * hidden_size] = 1.0
        self.bias = Parameter(bias, name="bias")

    def forward(self, x: Tensor, h: Tensor, c: Tensor) -> tuple[Tensor, Tensor]:
        """Advance one step.

        Parameters
        ----------
        x:
            Input of shape ``(batch, input_size)``.
        h, c:
            Previous hidden/cell state, each ``(batch, hidden_size)``.

        Returns
        -------
        ``(h_next, c_next)``.
        """
        hidden = self.hidden_size
        gates = x @ self.weight_x + h @ self.weight_h + self.bias
        i_gate = gates[:, :hidden].sigmoid()
        f_gate = gates[:, hidden : 2 * hidden].sigmoid()
        g_gate = gates[:, 2 * hidden : 3 * hidden].tanh()
        o_gate = gates[:, 3 * hidden :].sigmoid()
        c_next = f_gate * c + i_gate * g_gate
        h_next = o_gate * c_next.tanh()
        return h_next, c_next

    def zero_state(self, batch_size: int) -> tuple[Tensor, Tensor]:
        """Return all-zero ``(h, c)`` for a batch."""
        zeros = np.zeros((batch_size, self.hidden_size))
        return Tensor(zeros), Tensor(zeros.copy())


class LSTM(Module):
    """Stack of :class:`LSTMCell` layers unrolled over time.

    Matches the paper's NMT configuration when constructed with
    ``num_layers=2`` and ``hidden_size=64``.  Dropout (inverted) is
    applied to the output of every layer except the last, following the
    convention of stacked recurrent networks.
    """

    def __init__(
        self,
        input_size: int,
        hidden_size: int,
        num_layers: int = 1,
        dropout: float = 0.0,
        rng: np.random.Generator | None = None,
    ) -> None:
        super().__init__()
        if num_layers < 1:
            raise ValueError("num_layers must be >= 1")
        rng = rng or np.random.default_rng()
        self.input_size = input_size
        self.hidden_size = hidden_size
        self.num_layers = num_layers
        self.dropout_rate = dropout
        self._rng = rng
        self.cells = [
            LSTMCell(input_size if layer == 0 else hidden_size, hidden_size, rng=rng)
            for layer in range(num_layers)
        ]

    def zero_state(self, batch_size: int) -> LSTMState:
        """All-zero initial state for every layer."""
        states = [cell.zero_state(batch_size) for cell in self.cells]
        return [h for h, _ in states], [c for _, c in states]

    def forward(self, inputs: Tensor, state: LSTMState | None = None) -> tuple[Tensor, LSTMState]:
        """Run the stack over a full sequence.

        Parameters
        ----------
        inputs:
            Tensor of shape ``(batch, steps, input_size)``.
        state:
            Optional initial state; defaults to zeros.

        Returns
        -------
        ``(outputs, final_state)`` where ``outputs`` has shape
        ``(batch, steps, hidden_size)`` (top layer only).
        """
        batch, steps = inputs.shape[0], inputs.shape[1]
        if state is None:
            state = self.zero_state(batch)
        h_states = list(state[0])
        c_states = list(state[1])

        top_outputs: list[Tensor] = []
        for t in range(steps):
            layer_input = inputs[:, t, :]
            for layer, cell in enumerate(self.cells):
                h_states[layer], c_states[layer] = cell(layer_input, h_states[layer], c_states[layer])
                layer_input = h_states[layer]
                if layer < self.num_layers - 1:
                    layer_input = F.dropout(layer_input, self.dropout_rate, self.training, self._rng)
            top_outputs.append(layer_input)

        outputs = Tensor.stack(top_outputs, axis=1)
        return outputs, (h_states, c_states)

    def step(self, x: Tensor, state: LSTMState) -> tuple[Tensor, LSTMState]:
        """Advance the whole stack a single timestep (used by decoders)."""
        h_states = list(state[0])
        c_states = list(state[1])
        layer_input = x
        for layer, cell in enumerate(self.cells):
            h_states[layer], c_states[layer] = cell(layer_input, h_states[layer], c_states[layer])
            layer_input = h_states[layer]
            if layer < self.num_layers - 1:
                layer_input = F.dropout(layer_input, self.dropout_rate, self.training, self._rng)
        return layer_input, (h_states, c_states)


class BatchedLSTMCell(Module):
    """One LSTM layer advanced in lockstep for many pair models.

    The per-pair ``weight_x``/``weight_h``/``bias`` matrices are stacked
    along a leading pair axis, fusing the cohort's gate computation into
    stacked BLAS calls: inputs ``(pairs, batch, input)`` against weights
    ``(pairs, input, 4*hidden)``.  Each pair's slice runs through the
    same arithmetic as :class:`LSTMCell`, so per-pair activations match
    the looped cell.
    """

    def __init__(
        self, weight_x: np.ndarray, weight_h: np.ndarray, bias: np.ndarray
    ) -> None:
        super().__init__()
        self.num_pairs = weight_x.shape[0]
        self.input_size = weight_x.shape[1]
        self.hidden_size = weight_h.shape[1]
        self.weight_x = Parameter(np.asarray(weight_x, dtype=np.float64), name="weight_x")
        self.weight_h = Parameter(np.asarray(weight_h, dtype=np.float64), name="weight_h")
        self.bias = Parameter(np.asarray(bias, dtype=np.float64), name="bias")

    @classmethod
    def stack(cls, cells: "list[LSTMCell]") -> "BatchedLSTMCell":
        if not cells:
            raise ValueError("stack requires at least one cell")
        shape = (cells[0].input_size, cells[0].hidden_size)
        if any((cell.input_size, cell.hidden_size) != shape for cell in cells):
            raise ValueError("stacked LSTM cells must share dimensions")
        weight_x = np.stack([cell.weight_x.data for cell in cells])
        weight_h = np.stack([cell.weight_h.data for cell in cells])
        bias = np.stack([cell.bias.data.reshape(1, -1) for cell in cells])
        return cls(weight_x, weight_h, bias)

    def forward(self, x: Tensor, h: Tensor, c: Tensor) -> tuple[Tensor, Tensor]:
        """Advance one step: ``(pairs, batch, *)`` in, ``(h, c)`` out."""
        hidden = self.hidden_size
        gates = x @ self.weight_x + h @ self.weight_h + self.bias
        i_gate = gates[:, :, :hidden].sigmoid()
        f_gate = gates[:, :, hidden : 2 * hidden].sigmoid()
        g_gate = gates[:, :, 2 * hidden : 3 * hidden].tanh()
        o_gate = gates[:, :, 3 * hidden :].sigmoid()
        c_next = f_gate * c + i_gate * g_gate
        h_next = o_gate * c_next.tanh()
        return h_next, c_next

    def zero_state(self, batch_size: int) -> tuple[Tensor, Tensor]:
        zeros = np.zeros((self.num_pairs, batch_size, self.hidden_size))
        return Tensor(zeros), Tensor(zeros.copy())

    def unpack_into(self, cells: "list[LSTMCell]") -> None:
        if len(cells) != self.num_pairs:
            raise ValueError(f"expected {self.num_pairs} cells, got {len(cells)}")
        for index, cell in enumerate(cells):
            cell.weight_x.data = self.weight_x.data[index].copy()
            cell.weight_h.data = self.weight_h.data[index].copy()
            cell.bias.data = self.bias.data[index, 0].copy()


class BatchedLSTM(Module):
    """Stack of :class:`BatchedLSTMCell` layers over a pair axis.

    Mirrors :class:`LSTM` with inputs ``(pairs, batch, steps, input)``
    and per-pair dropout streams: ``rngs[p]`` is pair ``p``'s own
    generator, consumed with exactly the draws the looped model would
    make, so lockstep training preserves each pair's RNG stream.
    """

    def __init__(
        self,
        cells: "list[BatchedLSTMCell]",
        dropout: float,
        rngs: "list[np.random.Generator]",
    ) -> None:
        super().__init__()
        self.cells = cells
        self.num_layers = len(cells)
        self.hidden_size = cells[0].hidden_size
        self.dropout_rate = dropout
        self.rngs = list(rngs)

    @classmethod
    def stack(cls, lstms: "list[LSTM]", rngs: "list[np.random.Generator]") -> "BatchedLSTM":
        if not lstms:
            raise ValueError("stack requires at least one LSTM")
        num_layers = lstms[0].num_layers
        dropout = lstms[0].dropout_rate
        if any(m.num_layers != num_layers or m.dropout_rate != dropout for m in lstms):
            raise ValueError("stacked LSTMs must share num_layers and dropout")
        cells = [
            BatchedLSTMCell.stack([m.cells[layer] for m in lstms])
            for layer in range(num_layers)
        ]
        return cls(cells, dropout, rngs)

    @property
    def num_pairs(self) -> int:
        return self.cells[0].num_pairs

    def zero_state(self, batch_size: int) -> LSTMState:
        states = [cell.zero_state(batch_size) for cell in self.cells]
        return [h for h, _ in states], [c for _, c in states]

    def forward(self, inputs: Tensor, state: LSTMState | None = None) -> tuple[Tensor, LSTMState]:
        """Run over ``(pairs, batch, steps, input)``; outputs stack on axis 2."""
        batch, steps = inputs.shape[1], inputs.shape[2]
        if state is None:
            state = self.zero_state(batch)
        h_states = list(state[0])
        c_states = list(state[1])

        top_outputs: list[Tensor] = []
        for t in range(steps):
            layer_input = inputs[:, :, t, :]
            for layer, cell in enumerate(self.cells):
                h_states[layer], c_states[layer] = cell(layer_input, h_states[layer], c_states[layer])
                layer_input = h_states[layer]
                if layer < self.num_layers - 1:
                    layer_input = F.dropout_per_pair(
                        layer_input, self.dropout_rate, self.training, self.rngs
                    )
            top_outputs.append(layer_input)

        outputs = Tensor.stack(top_outputs, axis=2)
        return outputs, (h_states, c_states)

    def step(self, x: Tensor, state: LSTMState) -> tuple[Tensor, LSTMState]:
        """Advance all pairs a single timestep (decoder usage)."""
        h_states = list(state[0])
        c_states = list(state[1])
        layer_input = x
        for layer, cell in enumerate(self.cells):
            h_states[layer], c_states[layer] = cell(layer_input, h_states[layer], c_states[layer])
            layer_input = h_states[layer]
            if layer < self.num_layers - 1:
                layer_input = F.dropout_per_pair(
                    layer_input, self.dropout_rate, self.training, self.rngs
                )
        return layer_input, (h_states, c_states)

    def unpack_into(self, lstms: "list[LSTM]") -> None:
        for layer, cell in enumerate(self.cells):
            cell.unpack_into([m.cells[layer] for m in lstms])
