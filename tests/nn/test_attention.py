"""Tests for attention modules."""

import numpy as np
import pytest

from repro.nn import (AdditiveAttention, BilinearAttention,
                      MultiHeadSelfAttention, Tensor, TransformerBlock,
                      gradient_check)
from repro.nn import functional as F


@pytest.fixture
def rng():
    return np.random.default_rng(5)


def unmasked(states):
    return np.ones(states.shape[:2], dtype=bool)


def bilinear_weights(att, states, query, mask=None):
    """Attention weights as Causer takes them: masked softmax of the
    bilinear scores (every step valid when ``mask`` is omitted)."""
    if mask is None:
        mask = unmasked(states)
    return F.masked_softmax(att.raw_scores(states, query), mask)


def sum_sq(t):
    return (t * t).sum()


class TestBilinearAttention:
    def test_weights_sum_to_one(self, rng):
        att = BilinearAttention(4, rng)
        states = Tensor(rng.normal(size=(3, 6, 4)))
        query = Tensor(rng.normal(size=(3, 4)))
        weights = bilinear_weights(att, states, query).data
        np.testing.assert_allclose(weights.sum(axis=-1), np.ones(3), rtol=1e-6)

    def test_mask_respected(self, rng):
        att = BilinearAttention(4, rng)
        states = Tensor(rng.normal(size=(2, 5, 4)))
        query = Tensor(rng.normal(size=(2, 4)))
        mask = np.array([[True, True, False, False, False]] * 2)
        weights = bilinear_weights(att, states, query, mask=mask).data
        assert (weights[:, 2:] == 0).all()
        np.testing.assert_allclose(weights.sum(axis=-1), np.ones(2), rtol=1e-6)

    def test_identity_init_recency_bias(self, rng):
        """With A≈I, a query equal to the last state favours similar states."""
        att = BilinearAttention(4, rng)
        base = rng.normal(size=4)
        states = np.stack([base + rng.normal(size=4) * 2, base]).reshape(1, 2, 4)
        weights = bilinear_weights(att, Tensor(states),
                                   Tensor(base.reshape(1, 4))).data
        assert weights[0, 1] > weights[0, 0]

    def test_raw_scores_shape(self, rng):
        att = BilinearAttention(4, rng)
        scores = att.raw_scores(Tensor(rng.normal(size=(2, 3, 4))),
                                Tensor(rng.normal(size=(2, 4))))
        assert scores.shape == (2, 3)


class TestAdditiveAttention:
    def test_weights_normalized(self, rng):
        att = AdditiveAttention(4, rng)
        states = Tensor(rng.normal(size=(2, 5, 4)))
        query = Tensor(rng.normal(size=(2, 4)))
        weights = att(states, query, mask=unmasked(states)).data
        np.testing.assert_allclose(weights.sum(axis=-1), np.ones(2), rtol=1e-6)

    def test_gradient_flows(self, rng):
        att = AdditiveAttention(4, rng)
        states = Tensor(rng.normal(size=(1, 3, 4)), requires_grad=True)
        query = Tensor(rng.normal(size=(1, 4)))
        att(states, query, mask=unmasked(states)).sum().backward()
        assert states.grad is not None


class TestMultiHeadSelfAttention:
    def test_dim_divisibility(self, rng):
        with pytest.raises(ValueError):
            MultiHeadSelfAttention(7, 2, rng)

    def test_output_shape(self, rng):
        att = MultiHeadSelfAttention(8, 2, rng)
        out = att(Tensor(rng.normal(size=(2, 5, 8))))
        assert out.shape == (2, 5, 8)

    def test_causality(self, rng):
        """Changing a future position must not change earlier outputs."""
        att = MultiHeadSelfAttention(8, 2, rng)
        x = rng.normal(size=(1, 4, 8))
        out1 = att(Tensor(x)).data.copy()
        x2 = x.copy()
        x2[0, 3] += 100.0
        out2 = att(Tensor(x2)).data
        np.testing.assert_allclose(out1[0, :3], out2[0, :3], atol=1e-10)

    def test_pad_mask_blocks_attention(self, rng):
        att = MultiHeadSelfAttention(8, 1, rng)
        x = rng.normal(size=(1, 4, 8))
        pad = np.array([[True, False, True, True]])
        out1 = att(Tensor(x), pad_mask=pad).data.copy()
        x2 = x.copy()
        x2[0, 1] += 50.0
        out2 = att(Tensor(x2), pad_mask=pad).data
        # Later steps would see step 1 causally; the pad mask hides it.
        np.testing.assert_allclose(out1[0, [0, 2, 3]], out2[0, [0, 2, 3]],
                                   atol=1e-10)


class TestTransformerBlock:
    def test_shape_preserved(self, rng):
        block = TransformerBlock(8, 2, rng)
        out = block(Tensor(rng.normal(size=(2, 5, 8))))
        assert out.shape == (2, 5, 8)

    def test_residual_path(self, rng):
        """Zeroing attention/FFN weights leaves the input unchanged."""
        block = TransformerBlock(8, 2, rng)
        block.attn.w_o.weight.data[...] = 0.0
        block.ffn2.weight.data[...] = 0.0
        block.ffn2.bias.data[...] = 0.0
        x = rng.normal(size=(1, 3, 8))
        out = block(Tensor(x)).data
        np.testing.assert_allclose(out, x, atol=1e-10)


class TestAttentionGradients:
    """Finite-difference gradient checks for every attention module.

    The earlier tests only asserted that *some* gradient arrives; these
    verify the analytic gradients numerically, for inputs and parameters,
    through the masked-softmax paths the models actually use.
    """

    def test_bilinear_input_gradients(self, rng):
        att = BilinearAttention(3, rng)
        states = Tensor(rng.normal(size=(2, 4, 3)), requires_grad=True)
        query = Tensor(rng.normal(size=(2, 3)), requires_grad=True)
        mask = np.array([[True, True, True, False]] * 2)

        def run(s, q):
            return sum_sq(bilinear_weights(att, s, q, mask=mask))

        assert gradient_check(run, [states, query]) < 1e-5

    def test_bilinear_projection_gradient(self, rng):
        att = BilinearAttention(3, rng)
        states = Tensor(rng.normal(size=(2, 4, 3)))
        query = Tensor(rng.normal(size=(2, 3)))

        def run(_proj):
            return sum_sq(att.raw_scores(states, query))

        assert gradient_check(run, [att.proj]) < 1e-5

    def test_additive_parameter_gradients(self, rng):
        att = AdditiveAttention(3, rng)
        states = Tensor(rng.normal(size=(1, 4, 3)))
        query = Tensor(rng.normal(size=(1, 3)))
        params = [att.w_state.weight, att.w_query.weight,
                  att.w_query.bias, att.v]

        def run(*_params):
            return sum_sq(att(states, query, mask=unmasked(states)))

        assert gradient_check(run, params) < 1e-5

    def test_multihead_input_gradient_masked(self, rng):
        att = MultiHeadSelfAttention(4, 2, rng)
        x = Tensor(rng.normal(size=(1, 3, 4)), requires_grad=True)
        pad = np.array([[True, True, False]])

        def run(a):
            return sum_sq(att(a, pad_mask=pad))

        assert gradient_check(run, [x]) < 1e-5

    def test_multihead_weight_gradients(self, rng):
        att = MultiHeadSelfAttention(4, 2, rng)
        x = Tensor(rng.normal(size=(1, 3, 4)))
        params = [att.w_q.weight, att.w_k.weight, att.w_v.weight,
                  att.w_o.weight]

        def run(*_params):
            return sum_sq(att(x))

        assert gradient_check(run, params) < 1e-4

    def test_transformer_block_input_gradient(self, rng):
        block = TransformerBlock(4, 2, rng)
        x = Tensor(rng.normal(size=(1, 3, 4)), requires_grad=True)

        def run(a):
            return sum_sq(block(a))

        assert gradient_check(run, [x]) < 1e-4
