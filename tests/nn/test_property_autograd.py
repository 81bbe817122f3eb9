"""Hypothesis property tests for the autograd engine.

These check structural invariants over randomly generated shapes and
values: gradient shapes always match parameter shapes, softmax is a
distribution, broadcasting gradients reduce correctly, and the chain rule
composes.
"""

import numpy as np
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from repro.nn import Tensor, gradient_check
from repro.nn import functional as F

finite_floats = st.floats(min_value=-5.0, max_value=5.0,
                          allow_nan=False, allow_infinity=False)


def arrays(max_side=4, min_dims=1, max_dims=3):
    return hnp.arrays(dtype=np.float64,
                      shape=hnp.array_shapes(min_dims=min_dims,
                                             max_dims=max_dims,
                                             min_side=1, max_side=max_side),
                      elements=finite_floats)


@settings(max_examples=40, deadline=None)
@given(arrays())
def test_grad_shape_matches_param_shape(values):
    t = Tensor(values, requires_grad=True)
    ((t * t).sum()).backward()
    assert t.grad.shape == t.data.shape


@settings(max_examples=40, deadline=None)
@given(arrays())
def test_sum_gradient_is_ones(values):
    t = Tensor(values, requires_grad=True)
    t.sum().backward()
    np.testing.assert_allclose(t.grad, np.ones_like(values))


@settings(max_examples=40, deadline=None)
@given(arrays(max_dims=2))
def test_softmax_is_distribution(values):
    out = F.softmax(Tensor(values)).data
    assert (out >= 0).all()
    np.testing.assert_allclose(out.sum(axis=-1),
                               np.ones(out.shape[:-1]), rtol=1e-9)


@settings(max_examples=40, deadline=None)
@given(arrays(max_dims=2))
def test_log_softmax_consistent(values):
    shifted = values - values.max(axis=-1, keepdims=True)
    log_softmax = shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
    np.testing.assert_allclose(log_softmax,
                               np.log(F.softmax(Tensor(values)).data + 1e-300),
                               atol=1e-8)


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 4), st.integers(1, 4), st.integers(1, 4))
def test_broadcast_add_gradients_reduce(rows, cols, seed):
    rng = np.random.default_rng(seed)
    a = Tensor(rng.normal(size=(rows, cols)), requires_grad=True)
    b = Tensor(rng.normal(size=(cols,)), requires_grad=True)
    (a + b).sum().backward()
    np.testing.assert_allclose(a.grad, np.ones((rows, cols)))
    np.testing.assert_allclose(b.grad, np.full(cols, float(rows)))


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10_000))
def test_mul_chain_rule_matches_numeric(seed):
    rng = np.random.default_rng(seed)
    a = Tensor(rng.normal(size=(2, 3)), requires_grad=True)
    b = Tensor(rng.normal(size=(3,)), requires_grad=True)
    err = gradient_check(lambda x, y: ((x * y).tanh()).sum(), [a, b])
    assert err < 1e-5


@settings(max_examples=30, deadline=None)
@given(arrays(max_dims=2))
def test_sigmoid_range(values):
    out = Tensor(values).sigmoid().data
    assert ((out >= 0) & (out <= 1)).all()


@settings(max_examples=30, deadline=None)
@given(arrays(max_dims=2))
def test_relu_idempotent(values):
    t = Tensor(values)
    once = t.relu().data
    twice = t.relu().relu().data
    np.testing.assert_allclose(once, twice)


@settings(max_examples=30, deadline=None)
@given(arrays(min_dims=2, max_dims=2))
def test_transpose_involution(values):
    t = Tensor(values, requires_grad=True)
    np.testing.assert_allclose(t.T.T.data, values)
