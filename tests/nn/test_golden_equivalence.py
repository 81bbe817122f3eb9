"""Golden-value regression tests for the optimized engine hot paths.

The ``tests/golden/*.npz`` fixtures were recorded by
``tests/golden/generate_goldens.py`` at the commit *before* the fused-kernel
performance pass, using the original composite (many-node) implementations.
These tests load the recorded parameters and inputs into the production
kernels and assert they reproduce every forward output and gradient to
1e-10 — so any future "optimization" that drifts numerically fails loudly.

The LSTM fixture also holds the cell state ``c'`` and an upstream gradient
on it, which no production kernel exposes (the sequence kernel returns
hidden states only).  :func:`lstm_reference_step`, the step composed from
elementary ``Tensor`` ops, reproduces the whole fixture, and the sequence
kernel is checked against it, one step and a masked unroll.
"""

import os

import numpy as np
import pytest

from repro.causal.dag_constraint import (h_tensor, h_value, h_value_and_grad,
                                         polynomial_h_value)
from repro.nn import (BilinearAttention, Tensor, concat, fused_gru_sequence,
                      fused_lstm_sequence)
from repro.nn import functional as F

GOLDEN_DIR = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "golden")

TOL = 1e-10


def load(name):
    path = os.path.join(GOLDEN_DIR, name)
    assert os.path.exists(path), f"golden fixture missing: {path}"
    return np.load(path)


def assert_close(actual, expected, label):
    actual = np.asarray(actual)
    assert actual.shape == expected.shape, label
    worst = float(np.abs(actual - expected).max())
    assert worst < TOL, f"{label}: max abs diff {worst:.3e} exceeds {TOL}"


def leaves(d, keys):
    """Fixture arrays as gradient-tracking leaf tensors."""
    return [Tensor(d[key], requires_grad=True) for key in keys]


def lstm_reference_step(x, h, c, w_ih, w_hh, bias):
    """One LSTM step composed from elementary ``Tensor`` ops: ``(h', c')``."""
    hidden = h.shape[1]
    gates = x @ w_ih.T + h @ w_hh.T + bias
    i = gates[:, :hidden].sigmoid()
    f = gates[:, hidden:2 * hidden].sigmoid()
    g = gates[:, 2 * hidden:3 * hidden].tanh()
    o = gates[:, 3 * hidden:].sigmoid()
    c_next = f * c + i * g
    return o * c_next.tanh(), c_next


LSTM_INPUTS = ("x", "h", "c", "w_ih", "w_hh", "bias")


class TestGRUCellGolden:
    def test_forward_and_gradients(self):
        d = load("gru_cell.npz")
        x, h, w_ih, w_hh, b_ih, b_hh = leaves(
            d, ("x", "h", "w_ih", "w_hh", "b_ih", "b_hh"))
        batch, hidden = d["h"].shape
        out = fused_gru_sequence(x.reshape(batch, 1, d["x"].shape[1]), h,
                                 w_ih, w_hh, b_ih, b_hh).reshape(batch,
                                                                 hidden)
        assert_close(out.data, d["out"], "gru forward")
        loss = (out * Tensor(d["upstream"])).sum()
        loss.backward()
        assert_close(x.grad, d["dx"], "gru dx")
        assert_close(h.grad, d["dh"], "gru dh")
        assert_close(w_ih.grad, d["dw_ih"], "gru dw_ih")
        assert_close(w_hh.grad, d["dw_hh"], "gru dw_hh")
        assert_close(b_ih.grad, d["db_ih"], "gru db_ih")
        assert_close(b_hh.grad, d["db_hh"], "gru db_hh")


class TestLSTMCellGolden:
    def test_forward_and_gradients(self):
        d = load("lstm_cell.npz")
        x, h, c, w_ih, w_hh, bias = leaves(d, LSTM_INPUTS)
        h_next, c_next = lstm_reference_step(x, h, c, w_ih, w_hh, bias)
        assert_close(h_next.data, d["h_next"], "lstm h_next")
        assert_close(c_next.data, d["c_next"], "lstm c_next")
        loss = ((h_next * Tensor(d["upstream_h"])).sum()
                + (c_next * Tensor(d["upstream_c"])).sum())
        loss.backward()
        assert_close(x.grad, d["dx"], "lstm dx")
        assert_close(h.grad, d["dh"], "lstm dh")
        assert_close(c.grad, d["dc"], "lstm dc")
        assert_close(w_ih.grad, d["dw_ih"], "lstm dw_ih")
        assert_close(w_hh.grad, d["dw_hh"], "lstm dw_hh")
        assert_close(bias.grad, d["dbias"], "lstm dbias")

    @staticmethod
    def _compare(d, inputs, step_mask, upstream):
        """``fused_lstm_sequence`` against reference steps: forward and
        every gradient, for ``(B, T, I)`` inputs and the fixture's
        weights and initial state."""
        batch, time, _ = inputs.shape
        runs = []
        for fused in (True, False):
            x = Tensor(inputs, requires_grad=True)
            h, c, w_ih, w_hh, bias = leaves(d, LSTM_INPUTS[1:])
            if fused:
                states = fused_lstm_sequence(x, h, c, w_ih, w_hh, bias,
                                             step_mask=step_mask)
            else:
                h_t, c_t, steps = h, c, []
                for t in range(time):
                    h_new, c_new = lstm_reference_step(
                        x[:, t], h_t, c_t, w_ih, w_hh, bias)
                    keep = step_mask[:, t:t + 1].astype(np.float64)
                    h_t = h_new * keep + h_t * (1.0 - keep)
                    c_t = c_new * keep + c_t * (1.0 - keep)
                    steps.append(h_t.reshape(batch, 1, -1))
                states = concat(steps, axis=1)
            (states * Tensor(upstream)).sum().backward()
            runs.append([states.data] + [leaf.grad for leaf in
                                         (x, h, c, w_ih, w_hh, bias)])
        for label, got, want in zip(("states",) + LSTM_INPUTS, *runs):
            assert_close(got, want, f"lstm sequence {label}")

    def test_sequence_kernel_matches_reference_step(self):
        d = load("lstm_cell.npz")
        batch, in_size = d["x"].shape
        self._compare(d, d["x"].reshape(batch, 1, in_size),
                      np.ones((batch, 1), dtype=bool),
                      d["upstream_h"].reshape(batch, 1, -1))

    def test_masked_unroll_matches_reference_steps(self):
        d = load("lstm_cell.npz")
        batch, in_size = d["x"].shape
        rng = np.random.default_rng(25)
        step_mask = np.array([[True, True, True], [True, False, True],
                              [False, True, False], [True, True, False]])
        self._compare(d, rng.normal(size=(batch, 3, in_size)), step_mask,
                      rng.normal(size=(batch, 3, d["h"].shape[1])))


class TestAttentionGolden:
    def test_forward_and_gradients(self):
        d = load("attention.npz")
        att = BilinearAttention(d["proj"].shape[0], np.random.default_rng(0))
        att.proj.data[...] = d["proj"]
        states = Tensor(d["states"], requires_grad=True)
        query = Tensor(d["query"], requires_grad=True)
        out = F.masked_softmax(att.raw_scores(states, query), d["mask"])
        assert_close(out.data, d["out"], "attention forward")
        loss = (out * Tensor(d["upstream"])).sum()
        loss.backward()
        assert_close(states.grad, d["dstates"], "attention dstates")
        assert_close(query.grad, d["dquery"], "attention dquery")
        assert_close(att.proj.grad, d["dproj"], "attention dproj")


class TestDagConstraintGolden:
    def test_h_value_and_gradients(self):
        d = load("dag_h.npz")
        weights = d["weights"]
        assert h_value(weights) == pytest.approx(float(d["h"]), abs=TOL)
        tensor = Tensor(weights, requires_grad=True)
        node = h_tensor(tensor)
        assert_close(node.data, d["h_tensor_value"], "h_tensor value")
        node.backward()
        assert_close(tensor.grad, d["grad"], "h_tensor grad")
        value, grad = h_value_and_grad(weights)
        assert value == pytest.approx(float(d["closed_form_value"]), abs=TOL)
        assert_close(grad, d["closed_form_grad"], "closed-form grad")
        assert polynomial_h_value(weights, 10) == pytest.approx(
            float(d["polynomial_order10"]), abs=TOL)
