"""Multi-layer GRU — the alternative recurrent unit for the NMT model.

The paper's NMT configuration uses LSTMs (citation [23]); GRUs are the
standard lighter-weight alternative evaluated in the NMT literature and
are provided here for the recurrent-unit ablation
(``benchmarks/test_ablation_recurrent_unit.py``).  Interface matches
:class:`repro.nn.LSTM` exactly (state is still a pair of per-layer
lists; the "cell" list mirrors the hidden list so encoder/decoder code
can stay unit-agnostic).
"""

from __future__ import annotations

import numpy as np

from . import functional as F
from .lstm import LSTMState
from .module import Module, Parameter
from .tensor import Tensor

__all__ = ["GRUCell", "GRU", "BatchedGRUCell", "BatchedGRU"]


class GRUCell(Module):
    """A single GRU layer advanced one timestep at a time.

    Gate order within the fused matrices is ``(reset, update)``; the
    candidate activation has its own weights because it sees the reset
    hidden state.
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
        self.gate_weight_x = Parameter(
            rng.uniform(-scale, scale, size=(input_size, 2 * hidden_size)),
            name="gate_weight_x",
        )
        self.gate_weight_h = Parameter(
            rng.uniform(-scale, scale, size=(hidden_size, 2 * hidden_size)),
            name="gate_weight_h",
        )
        self.gate_bias = Parameter(np.zeros(2 * hidden_size), name="gate_bias")
        self.candidate_weight_x = Parameter(
            rng.uniform(-scale, scale, size=(input_size, hidden_size)),
            name="candidate_weight_x",
        )
        self.candidate_weight_h = Parameter(
            rng.uniform(-scale, scale, size=(hidden_size, hidden_size)),
            name="candidate_weight_h",
        )
        self.candidate_bias = Parameter(np.zeros(hidden_size), name="candidate_bias")

    def forward(self, x: Tensor, h: Tensor) -> Tensor:
        """Advance one step; returns the next hidden state."""
        hidden = self.hidden_size
        gates = x @ self.gate_weight_x + h @ self.gate_weight_h + self.gate_bias
        reset = gates[:, :hidden].sigmoid()
        update = gates[:, hidden:].sigmoid()
        candidate = (
            x @ self.candidate_weight_x
            + (reset * h) @ self.candidate_weight_h
            + self.candidate_bias
        ).tanh()
        return update * h + (1.0 - update) * candidate

    def zero_state(self, batch_size: int) -> Tensor:
        return Tensor(np.zeros((batch_size, self.hidden_size)))


class GRU(Module):
    """Stack of :class:`GRUCell` layers, interface-compatible with LSTM.

    The returned state mirrors :data:`repro.nn.LSTMState` — the second
    list simply aliases the hidden list — so callers written against
    the LSTM (the seq2seq encoder/decoder) work unchanged.
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
            GRUCell(input_size if layer == 0 else hidden_size, hidden_size, rng=rng)
            for layer in range(num_layers)
        ]

    def zero_state(self, batch_size: int) -> LSTMState:
        hidden = [cell.zero_state(batch_size) for cell in self.cells]
        return hidden, list(hidden)

    def forward(self, inputs: Tensor, state: LSTMState | None = None) -> tuple[Tensor, LSTMState]:
        """Run the stack over ``(batch, steps, input_size)`` inputs."""
        batch, steps = inputs.shape[0], inputs.shape[1]
        if state is None:
            state = self.zero_state(batch)
        h_states = list(state[0])

        top_outputs: list[Tensor] = []
        for t in range(steps):
            layer_input = inputs[:, t, :]
            for layer, cell in enumerate(self.cells):
                h_states[layer] = cell(layer_input, h_states[layer])
                layer_input = h_states[layer]
                if layer < self.num_layers - 1:
                    layer_input = F.dropout(
                        layer_input, self.dropout_rate, self.training, self._rng
                    )
            top_outputs.append(layer_input)

        outputs = Tensor.stack(top_outputs, axis=1)
        return outputs, (h_states, list(h_states))

    def step(self, x: Tensor, state: LSTMState) -> tuple[Tensor, LSTMState]:
        """Advance one timestep (decoder usage)."""
        h_states = list(state[0])
        layer_input = x
        for layer, cell in enumerate(self.cells):
            h_states[layer] = cell(layer_input, h_states[layer])
            layer_input = h_states[layer]
            if layer < self.num_layers - 1:
                layer_input = F.dropout(
                    layer_input, self.dropout_rate, self.training, self._rng
                )
        return layer_input, (h_states, list(h_states))


class BatchedGRUCell(Module):
    """One GRU layer advanced in lockstep for many pair models.

    Gate and candidate weights are stacked along a leading pair axis so
    the cohort's fused gate matmuls run as stacked BLAS calls; each
    pair's slice follows :class:`GRUCell` exactly.
    """

    def __init__(
        self,
        gate_weight_x: np.ndarray,
        gate_weight_h: np.ndarray,
        gate_bias: np.ndarray,
        candidate_weight_x: np.ndarray,
        candidate_weight_h: np.ndarray,
        candidate_bias: np.ndarray,
    ) -> None:
        super().__init__()
        self.num_pairs = gate_weight_x.shape[0]
        self.input_size = gate_weight_x.shape[1]
        self.hidden_size = gate_weight_h.shape[1]
        self.gate_weight_x = Parameter(np.asarray(gate_weight_x, dtype=np.float64), name="gate_weight_x")
        self.gate_weight_h = Parameter(np.asarray(gate_weight_h, dtype=np.float64), name="gate_weight_h")
        self.gate_bias = Parameter(np.asarray(gate_bias, dtype=np.float64), name="gate_bias")
        self.candidate_weight_x = Parameter(
            np.asarray(candidate_weight_x, dtype=np.float64), name="candidate_weight_x"
        )
        self.candidate_weight_h = Parameter(
            np.asarray(candidate_weight_h, dtype=np.float64), name="candidate_weight_h"
        )
        self.candidate_bias = Parameter(
            np.asarray(candidate_bias, dtype=np.float64), name="candidate_bias"
        )

    _WEIGHTS = (
        "gate_weight_x",
        "gate_weight_h",
        "candidate_weight_x",
        "candidate_weight_h",
    )
    _BIASES = ("gate_bias", "candidate_bias")

    @classmethod
    def stack(cls, cells: "list[GRUCell]") -> "BatchedGRUCell":
        if not cells:
            raise ValueError("stack requires at least one cell")
        shape = (cells[0].input_size, cells[0].hidden_size)
        if any((cell.input_size, cell.hidden_size) != shape for cell in cells):
            raise ValueError("stacked GRU cells must share dimensions")
        return cls(
            np.stack([cell.gate_weight_x.data for cell in cells]),
            np.stack([cell.gate_weight_h.data for cell in cells]),
            np.stack([cell.gate_bias.data.reshape(1, -1) for cell in cells]),
            np.stack([cell.candidate_weight_x.data for cell in cells]),
            np.stack([cell.candidate_weight_h.data for cell in cells]),
            np.stack([cell.candidate_bias.data.reshape(1, -1) for cell in cells]),
        )

    def forward(self, x: Tensor, h: Tensor) -> Tensor:
        """Advance one step: ``(pairs, batch, *)`` in, next hidden out."""
        hidden = self.hidden_size
        gates = x @ self.gate_weight_x + h @ self.gate_weight_h + self.gate_bias
        reset = gates[:, :, :hidden].sigmoid()
        update = gates[:, :, hidden:].sigmoid()
        candidate = (
            x @ self.candidate_weight_x
            + (reset * h) @ self.candidate_weight_h
            + self.candidate_bias
        ).tanh()
        return update * h + (1.0 - update) * candidate

    def zero_state(self, batch_size: int) -> Tensor:
        return Tensor(np.zeros((self.num_pairs, batch_size, self.hidden_size)))

    def unpack_into(self, cells: "list[GRUCell]") -> None:
        if len(cells) != self.num_pairs:
            raise ValueError(f"expected {self.num_pairs} cells, got {len(cells)}")
        for index, cell in enumerate(cells):
            for name in self._WEIGHTS:
                getattr(cell, name).data = getattr(self, name).data[index].copy()
            for name in self._BIASES:
                getattr(cell, name).data = getattr(self, name).data[index, 0].copy()


class BatchedGRU(Module):
    """Stack of :class:`BatchedGRUCell` layers over a pair axis.

    Interface-compatible with :class:`~repro.nn.lstm.BatchedLSTM`
    (state mirrors :data:`LSTMState`; the second list aliases the
    hidden list), and uses one dropout RNG stream per pair.
    """

    def __init__(
        self,
        cells: "list[BatchedGRUCell]",
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
    def stack(cls, grus: "list[GRU]", rngs: "list[np.random.Generator]") -> "BatchedGRU":
        if not grus:
            raise ValueError("stack requires at least one GRU")
        num_layers = grus[0].num_layers
        dropout = grus[0].dropout_rate
        if any(m.num_layers != num_layers or m.dropout_rate != dropout for m in grus):
            raise ValueError("stacked GRUs must share num_layers and dropout")
        cells = [
            BatchedGRUCell.stack([m.cells[layer] for m in grus])
            for layer in range(num_layers)
        ]
        return cls(cells, dropout, rngs)

    @property
    def num_pairs(self) -> int:
        return self.cells[0].num_pairs

    def zero_state(self, batch_size: int) -> LSTMState:
        hidden = [cell.zero_state(batch_size) for cell in self.cells]
        return hidden, list(hidden)

    def forward(self, inputs: Tensor, state: LSTMState | None = None) -> tuple[Tensor, LSTMState]:
        """Run over ``(pairs, batch, steps, input)``; outputs stack on axis 2."""
        batch, steps = inputs.shape[1], inputs.shape[2]
        if state is None:
            state = self.zero_state(batch)
        h_states = list(state[0])

        top_outputs: list[Tensor] = []
        for t in range(steps):
            layer_input = inputs[:, :, t, :]
            for layer, cell in enumerate(self.cells):
                h_states[layer] = cell(layer_input, h_states[layer])
                layer_input = h_states[layer]
                if layer < self.num_layers - 1:
                    layer_input = F.dropout_per_pair(
                        layer_input, self.dropout_rate, self.training, self.rngs
                    )
            top_outputs.append(layer_input)

        outputs = Tensor.stack(top_outputs, axis=2)
        return outputs, (h_states, list(h_states))

    def step(self, x: Tensor, state: LSTMState) -> tuple[Tensor, LSTMState]:
        """Advance all pairs a single timestep (decoder usage)."""
        h_states = list(state[0])
        layer_input = x
        for layer, cell in enumerate(self.cells):
            h_states[layer] = cell(layer_input, h_states[layer])
            layer_input = h_states[layer]
            if layer < self.num_layers - 1:
                layer_input = F.dropout_per_pair(
                    layer_input, self.dropout_rate, self.training, self.rngs
                )
        return layer_input, (h_states, list(h_states))

    def unpack_into(self, grus: "list[GRU]") -> None:
        for layer, cell in enumerate(self.cells):
            cell.unpack_into([m.cells[layer] for m in grus])
