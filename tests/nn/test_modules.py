"""Tests for Module/Parameter plumbing and common layers."""

import numpy as np
import pytest

from repro.nn import (Embedding, LayerNorm, Linear, Module, Parameter, Tensor,
                      TransformerBlock, gradient_check)


@pytest.fixture
def rng():
    return np.random.default_rng(0)


class TestModulePlumbing:
    def test_parameters_deduplicated(self, rng):
        class Shared(Module):
            def __init__(self):
                super().__init__()
                self.a = Parameter(np.ones(3))
                self.b = self.a  # alias

        mod = Shared()
        assert len(list(mod.parameters())) == 1

    def test_named_parameters_nested(self, rng):
        class Outer(Module):
            def __init__(self):
                super().__init__()
                self.layer = Linear(2, 3, rng)

        names = dict(Outer().named_parameters())
        assert "layer.weight" in names
        assert "layer.bias" in names

    def test_train_eval_propagates(self, rng):
        block = TransformerBlock(4, 2, rng)
        block.eval()
        assert all(not m.training for m in block.modules())
        block.train()
        assert all(m.training for m in block.modules())

    def test_zero_grad(self, rng):
        layer = Linear(2, 2, rng)
        out = layer(Tensor(np.ones((1, 2)))).sum()
        out.backward()
        assert layer.weight.grad is not None
        layer.zero_grad()
        assert layer.weight.grad is None

    def test_num_parameters(self, rng):
        layer = Linear(3, 4, rng)
        assert sum(p.data.size for p in layer.parameters()) == 3 * 4 + 4

    def test_state_dict_roundtrip(self, rng):
        src = Linear(3, 4, rng)
        dst = Linear(3, 4, np.random.default_rng(99))
        dst.load_state_dict(src.state_dict())
        np.testing.assert_allclose(src.weight.data, dst.weight.data)

    def test_state_dict_missing_key(self, rng):
        layer = Linear(2, 2, rng)
        with pytest.raises(KeyError):
            layer.load_state_dict({})

    def test_state_dict_shape_mismatch(self, rng):
        layer = Linear(2, 2, rng)
        state = layer.state_dict()
        state["weight"] = np.zeros((3, 3))
        with pytest.raises(ValueError):
            layer.load_state_dict(state)


class TestLinear:
    def test_forward_shape(self, rng):
        layer = Linear(5, 3, rng)
        assert layer(Tensor(np.ones((7, 5)))).shape == (7, 3)

    def test_no_bias(self, rng):
        layer = Linear(5, 3, rng, bias=False)
        assert layer.bias is None
        out = layer(Tensor(np.zeros((1, 5))))
        np.testing.assert_allclose(out.data, np.zeros((1, 3)))

    def test_gradient(self, rng):
        layer = Linear(3, 2, rng)
        x = Tensor(rng.normal(size=(4, 3)), requires_grad=True)
        err = gradient_check(lambda a, w, b: (layer(a) * layer(a)).sum(),
                             [x, layer.weight, layer.bias])
        assert err < 1e-6


class TestEmbedding:
    def test_padding_row_zero(self, rng):
        emb = Embedding(10, 4, rng, padding_idx=0)
        np.testing.assert_allclose(emb.weight.data[0], np.zeros(4))

    def test_lookup_shape(self, rng):
        emb = Embedding(10, 4, rng)
        assert emb(np.array([[1, 2], [3, 4]])).shape == (2, 2, 4)

    def test_zero_padding_row_after_update(self, rng):
        emb = Embedding(10, 4, rng, padding_idx=0)
        emb.weight.data[0] = 1.0
        emb.zero_padding_row()
        np.testing.assert_allclose(emb.weight.data[0], np.zeros(4))


class TestLayerNorm:
    def test_normalizes(self, rng):
        ln = LayerNorm(8)
        x = Tensor(rng.normal(size=(4, 8)) * 10 + 5)
        out = ln(x).data
        np.testing.assert_allclose(out.mean(axis=-1), np.zeros(4), atol=1e-8)
        np.testing.assert_allclose(out.std(axis=-1), np.ones(4), atol=1e-4)

    def test_gradient(self, rng):
        ln = LayerNorm(4)
        x = Tensor(rng.normal(size=(2, 4)), requires_grad=True)
        err = gradient_check(lambda a: (ln(a) * ln(a)).sum(), [x])
        assert err < 1e-5
