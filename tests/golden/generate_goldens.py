"""Regenerate the golden-value fixtures under ``tests/golden/*.npz``.

Run from the repository root as::

    PYTHONPATH=src python -m tests.golden.generate_goldens

The fixtures pin the *numerical behaviour* of the engine's hot ops — one
GRU step, one LSTM step, bilinear attention and the NOTEARS ``h(W)``
constraint — under fixed seeds: forward outputs plus input/parameter
gradients.  The GRU step is a length-1 ``fused_gru_sequence``, attention
is ``raw_scores`` then ``masked_softmax``, and the LSTM step is the
composite reference step of the test, which also yields the cell state.
``tests/nn/test_golden_equivalence.py`` asserts the live implementation
reproduces them to 1e-10, so any optimization of these paths must stay
numerically equivalent.

The checked-in files were recorded at the commit *before* the fused-kernel
performance pass (PR 2); regenerate only when intentionally re-baselining
the reference numerics, and say so in the commit message.
"""

from __future__ import annotations

import os

import numpy as np

from repro.causal.dag_constraint import (h_value, h_value_and_grad, h_tensor,
                                         polynomial_h_value)
from repro.nn import (BilinearAttention, GRUCell, LSTMCell, Tensor,
                      fused_gru_sequence)
from repro.nn import functional as F
from tests.nn.test_golden_equivalence import lstm_reference_step

HERE = os.path.dirname(os.path.abspath(__file__))


def _grad(tensor: Tensor) -> np.ndarray:
    assert tensor.grad is not None
    return tensor.grad


def golden_gru() -> None:
    rng = np.random.default_rng(21)
    cell = GRUCell(5, 6, rng)
    x = Tensor(rng.normal(size=(4, 5)), requires_grad=True)
    h = Tensor(rng.normal(size=(4, 6)), requires_grad=True)
    upstream = rng.normal(size=(4, 6))

    out = fused_gru_sequence(x.reshape(4, 1, 5), h, cell.w_ih, cell.w_hh,
                             cell.b_ih, cell.b_hh).reshape(4, 6)
    loss = (out * Tensor(upstream)).sum()
    loss.backward()

    np.savez(os.path.join(HERE, "gru_cell.npz"),
             w_ih=cell.w_ih.data, w_hh=cell.w_hh.data,
             b_ih=cell.b_ih.data, b_hh=cell.b_hh.data,
             x=x.data, h=h.data, upstream=upstream,
             out=out.data,
             dx=_grad(x), dh=_grad(h),
             dw_ih=_grad(cell.w_ih), dw_hh=_grad(cell.w_hh),
             db_ih=_grad(cell.b_ih), db_hh=_grad(cell.b_hh))


def golden_lstm() -> None:
    rng = np.random.default_rng(22)
    cell = LSTMCell(5, 6, rng)
    x = Tensor(rng.normal(size=(4, 5)), requires_grad=True)
    h = Tensor(rng.normal(size=(4, 6)), requires_grad=True)
    c = Tensor(rng.normal(size=(4, 6)), requires_grad=True)
    upstream_h = rng.normal(size=(4, 6))
    upstream_c = rng.normal(size=(4, 6))

    h_next, c_next = lstm_reference_step(x, h, c, cell.w_ih, cell.w_hh,
                                         cell.bias)
    loss = ((h_next * Tensor(upstream_h)).sum()
            + (c_next * Tensor(upstream_c)).sum())
    loss.backward()

    np.savez(os.path.join(HERE, "lstm_cell.npz"),
             w_ih=cell.w_ih.data, w_hh=cell.w_hh.data, bias=cell.bias.data,
             x=x.data, h=h.data, c=c.data,
             upstream_h=upstream_h, upstream_c=upstream_c,
             h_next=h_next.data, c_next=c_next.data,
             dx=_grad(x), dh=_grad(h), dc=_grad(c),
             dw_ih=_grad(cell.w_ih), dw_hh=_grad(cell.w_hh),
             dbias=_grad(cell.bias))


def golden_attention() -> None:
    rng = np.random.default_rng(23)
    att = BilinearAttention(6, rng)
    states = Tensor(rng.normal(size=(3, 7, 6)), requires_grad=True)
    query = Tensor(rng.normal(size=(3, 6)), requires_grad=True)
    mask = rng.random((3, 7)) > 0.25
    mask[0, :] = True
    upstream = rng.normal(size=(3, 7))

    out = F.masked_softmax(att.raw_scores(states, query), mask)
    loss = (out * Tensor(upstream)).sum()
    loss.backward()

    np.savez(os.path.join(HERE, "attention.npz"),
             proj=att.proj.data, states=states.data, query=query.data,
             mask=mask, upstream=upstream,
             out=out.data,
             dstates=_grad(states), dquery=_grad(query),
             dproj=_grad(att.proj))


def golden_dag_h() -> None:
    rng = np.random.default_rng(24)
    weights = rng.uniform(0.0, 0.6, size=(9, 9))
    np.fill_diagonal(weights, 0.0)

    tensor = Tensor(weights, requires_grad=True)
    node = h_tensor(tensor)
    node.backward()
    value, closed_grad = h_value_and_grad(weights)

    np.savez(os.path.join(HERE, "dag_h.npz"),
             weights=weights,
             h=np.array(h_value(weights)),
             h_tensor_value=node.data,
             grad=_grad(tensor),
             closed_form_value=np.array(value),
             closed_form_grad=closed_grad,
             polynomial_order10=np.array(polynomial_h_value(weights, 10)))


if __name__ == "__main__":
    golden_gru()
    golden_lstm()
    golden_attention()
    golden_dag_h()
    print(f"wrote golden fixtures to {HERE}")
