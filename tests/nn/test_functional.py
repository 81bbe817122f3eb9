"""Tests for functional ops: softmax family, lookups."""

import numpy as np
import pytest

from repro.nn import Tensor, gradient_check
from repro.nn import functional as F


class TestSoftmax:
    def test_rows_sum_to_one(self):
        x = Tensor(np.random.default_rng(0).normal(size=(4, 6)))
        out = F.softmax(x).data
        np.testing.assert_allclose(out.sum(axis=-1), np.ones(4))
        assert (out > 0).all()

    def test_stability_with_large_values(self):
        x = Tensor(np.array([[1000.0, 1001.0]]))
        out = F.softmax(x).data
        assert np.isfinite(out).all()
        assert out[0, 1] > out[0, 0]

    def test_gradient(self):
        x = Tensor(np.random.default_rng(1).normal(size=(2, 4)),
                   requires_grad=True)
        weights = Tensor(np.random.default_rng(2).normal(size=(2, 4)))
        err = gradient_check(lambda a: (F.softmax(a) * weights).sum(), [x])
        assert err < 1e-6

    def test_matches_log_softmax(self):
        x = Tensor(np.random.default_rng(3).normal(size=(3, 5)))
        shifted = x.data - x.data.max(axis=-1, keepdims=True)
        log_softmax = shifted - np.log(np.exp(shifted).sum(axis=-1,
                                                           keepdims=True))
        np.testing.assert_allclose(np.log(F.softmax(x).data), log_softmax,
                                   atol=1e-10)


class TestMaskedSoftmax:
    def test_masked_positions_zero(self):
        x = Tensor(np.random.default_rng(0).normal(size=(2, 4)))
        mask = np.array([[True, True, False, False],
                         [True, False, True, False]])
        out = F.masked_softmax(x, mask).data
        assert (out[~mask] == 0).all()
        np.testing.assert_allclose(out.sum(axis=-1), np.ones(2), rtol=1e-6)

    def test_all_masked_row_yields_zeros(self):
        x = Tensor(np.zeros((1, 3)))
        mask = np.zeros((1, 3), dtype=bool)
        out = F.masked_softmax(x, mask).data
        np.testing.assert_allclose(out, np.zeros((1, 3)))

    def test_gradient_flows_through_unmasked(self):
        x = Tensor(np.random.default_rng(1).normal(size=(2, 4)),
                   requires_grad=True)
        mask = np.array([[True, True, True, False]] * 2)
        F.masked_softmax(x, mask).sum().backward()
        assert x.grad is not None

    def test_broadcast_mask_middle_axis(self):
        # The Causer uses (B, T, 1) scores against a (B, T, C) mask.
        x = Tensor(np.random.default_rng(2).normal(size=(2, 5, 1)))
        mask = np.random.default_rng(3).random((2, 5, 3)) > 0.4
        out = F.masked_softmax(x, mask, axis=1).data
        sums = out.sum(axis=1)
        valid_cols = mask.any(axis=1)
        np.testing.assert_allclose(sums[valid_cols], 1.0, rtol=1e-6)

    def test_broadcast_input_gradient_matches_composite(self):
        """(B, T, 1) scores against a (B, T, C) mask, as cluster filtering
        calls it: the fused gradient is summed back to the input's shape
        and equals the gradient of the same forward built from graph ops."""
        rng = np.random.default_rng(4)
        mask = rng.random((2, 5, 3)) > 0.4
        mask[1, :, 2] = False                      # one all-masked column
        upstream = Tensor(rng.normal(size=(2, 5, 3)))

        def composite(x):
            shifted = x + Tensor(np.where(mask, 0.0, -1e30))
            # Detached max shift, exactly as the fused forward does.
            shifted = shifted - Tensor(shifted.data.max(axis=1, keepdims=True))
            exp = shifted.exp() * Tensor(mask.astype(np.float64))
            return exp / (exp.sum(axis=1, keepdims=True) + 1e-12)

        fused_x = Tensor(rng.normal(size=(2, 5, 1)), requires_grad=True)
        composite_x = Tensor(fused_x.data.copy(), requires_grad=True)
        fused_out = F.masked_softmax(fused_x, mask, axis=1)
        composite_out = composite(composite_x)
        np.testing.assert_allclose(fused_out.data, composite_out.data,
                                   rtol=0, atol=1e-12)
        (fused_out * upstream).sum().backward()
        (composite_out * upstream).sum().backward()
        assert fused_x.grad.shape == (2, 5, 1)
        np.testing.assert_allclose(fused_x.grad, composite_x.grad,
                                   rtol=0, atol=1e-12)
        err = gradient_check(
            lambda x: (F.masked_softmax(x, mask, axis=1) * upstream).sum(),
            [fused_x])
        assert err < 1e-6


class TestLookups:
    def test_embedding_lookup_gradient_scatter(self):
        weight = Tensor(np.random.default_rng(0).normal(size=(5, 3)),
                        requires_grad=True)
        out = F.embedding_lookup(weight, np.array([1, 1, 4]))
        out.sum().backward()
        assert weight.grad[1, 0] == pytest.approx(2.0)
        assert weight.grad[4, 0] == pytest.approx(1.0)
        assert weight.grad[0, 0] == pytest.approx(0.0)

    def test_linear_matches_manual(self):
        x = Tensor(np.random.default_rng(0).normal(size=(2, 3)))
        w = Tensor(np.random.default_rng(1).normal(size=(4, 3)))
        b = Tensor(np.random.default_rng(2).normal(size=(4,)))
        out = F.linear(x, w, b)
        np.testing.assert_allclose(out.data, x.data @ w.data.T + b.data)
