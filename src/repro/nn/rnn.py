"""Recurrent cells and sequence layers (GRU and LSTM).

The paper instantiates its sequential backbone ``g`` with either a GRU or an
LSTM; the same cells also power the GRU4Rec/NARM/VTRNN baselines.  The cells
hold one step's parameters; :class:`RecurrentLayer` unrolls a padded batch
through the fused sequence kernels and returns all hidden states so
attention modules can consume them.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from . import init
from .fused import fused_gru_sequence, fused_lstm_sequence
from .module import Module, Parameter
from .tensor import Tensor


class GRUCell(Module):
    """Gated recurrent unit cell (Cho et al., 2014).

    Update equations::

        r = sigmoid(x W_ir^T + h W_hr^T + b_r)
        z = sigmoid(x W_iz^T + h W_hz^T + b_z)
        n = tanh(x W_in^T + r * (h W_hn^T) + b_n)
        h' = (1 - z) * n + z * h
    """

    def __init__(self, input_size: int, hidden_size: int,
                 rng: np.random.Generator) -> None:
        super().__init__()
        self.input_size = input_size
        self.hidden_size = hidden_size
        self.w_ih = Parameter(init.xavier_uniform((3 * hidden_size, input_size), rng))
        self.w_hh = Parameter(init.orthogonal((3 * hidden_size, hidden_size), rng))
        self.b_ih = Parameter(init.zeros((3 * hidden_size,)))
        self.b_hh = Parameter(init.zeros((3 * hidden_size,)))

    def initial_state(self, batch_size: int) -> Tensor:
        return Tensor(np.zeros((batch_size, self.hidden_size)))


class LSTMCell(Module):
    """Long short-term memory cell (Hochreiter & Schmidhuber, 1997)."""

    def __init__(self, input_size: int, hidden_size: int,
                 rng: np.random.Generator) -> None:
        super().__init__()
        self.input_size = input_size
        self.hidden_size = hidden_size
        self.w_ih = Parameter(init.xavier_uniform((4 * hidden_size, input_size), rng))
        self.w_hh = Parameter(init.orthogonal((4 * hidden_size, hidden_size), rng))
        bias = init.zeros((4 * hidden_size,))
        # Forget-gate bias of 1.0 helps early-training gradient flow.
        bias[hidden_size:2 * hidden_size] = 1.0
        self.bias = Parameter(bias)

    def initial_state(self, batch_size: int) -> Tuple[Tensor, Tensor]:
        zeros = np.zeros((batch_size, self.hidden_size))
        return Tensor(zeros), Tensor(zeros.copy())


class RecurrentLayer(Module):
    """Unrolls a GRU or LSTM cell over a padded batch of sequences.

    Input shape ``(batch, time, input_size)``; returns
    ``(states, last_state)`` where ``states`` has shape
    ``(batch, time, hidden)`` and ``last_state`` is the hidden state at each
    sequence's true final step (selected via ``lengths``).

    A boolean ``step_mask`` of shape ``(batch, time)`` freezes the hidden
    state on padded (or causally-filtered) steps: where the mask is False the
    previous state is carried through unchanged, implementing the paper's
    "skip this step" rule for all-zero filtered inputs.
    """

    def __init__(self, cell_type: str, input_size: int, hidden_size: int,
                 rng: np.random.Generator) -> None:
        super().__init__()
        if cell_type not in ("gru", "lstm"):
            raise ValueError(f"cell_type must be 'gru' or 'lstm', got {cell_type!r}")
        self.cell_type = cell_type
        self.hidden_size = hidden_size
        if cell_type == "gru":
            self.cell = GRUCell(input_size, hidden_size, rng)
        else:
            self.cell = LSTMCell(input_size, hidden_size, rng)

    def forward(self, inputs: Tensor, step_mask: np.ndarray,
                initial_state: Optional[Tensor] = None) -> Tuple[Tensor, Tensor]:
        batch, time = inputs.shape[0], inputs.shape[1]
        step_mask = np.asarray(step_mask, dtype=bool)

        cell = self.cell
        if self.cell_type == "lstm":
            h0, c0 = cell.initial_state(batch)
            if initial_state is not None:
                h0 = initial_state
            states = fused_lstm_sequence(inputs, h0, c0, cell.w_ih,
                                         cell.w_hh, cell.bias,
                                         step_mask=step_mask)
        else:
            h0 = (initial_state if initial_state is not None
                  else cell.initial_state(batch))
            states = fused_gru_sequence(inputs, h0, cell.w_ih, cell.w_hh,
                                        cell.b_ih, cell.b_hh,
                                        step_mask=step_mask)
        last = states[:, time - 1, :]
        return states, last
