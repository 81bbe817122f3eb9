"""The fused cluster perceptron and basket pooling against their chains.

``fused_perceptron`` is ``σ(x W1ᵀ + b1) W2ᵀ + b2`` (eqs. 6 and 8) and
``fused_basket_pool`` is ``Σ_s mask · table[items]``, each one graph
node whose backward replays the composite chain's numpy ops
(``F.linear`` → ``Tensor.sigmoid`` → ``F.linear``; getitem → mul →
sum).  Both must equal the chains bit for bit, on the forward and on
every gradient, and pass a finite-difference check.  CI also runs this
file with one BLAS thread.
"""

import numpy as np
import pytest

from repro.nn import Tensor, gradient_check
from repro.nn import functional as F
from repro.nn.fused import fused_basket_pool, fused_perceptron

ROWS, FEATURES, HIDDEN, OUT = 13, 5, 7, 4
B, T, S, D = 3, 4, 5, 6


def _perceptron_arrays(seed=0):
    rng = np.random.default_rng(seed)
    return {"x": rng.normal(size=(ROWS, FEATURES)),
            "w1": rng.normal(size=(HIDDEN, FEATURES)),
            "b1": rng.normal(size=HIDDEN),
            "w2": rng.normal(size=(OUT, HIDDEN)),
            "b2": rng.normal(size=OUT)}


def _composite_perceptron(x, w1, b1, w2, b2):
    return F.linear(F.linear(x, w1, b1).sigmoid(), w2, b2)


def _run(op, arrays, upstream, frozen=()):
    tensors = {name: Tensor(value.copy(), requires_grad=name not in frozen)
               for name, value in arrays.items()}
    out = op(**tensors)
    (out * Tensor(upstream)).sum().backward()
    return out.data, {name: t.grad for name, t in tensors.items()}


@pytest.mark.parametrize("frozen", [(), ("x",)], ids=["decode", "encode"])
def test_perceptron_equals_composite_bitwise(frozen):
    arrays = _perceptron_arrays()
    upstream = np.random.default_rng(1).normal(size=(ROWS, OUT))
    fused_out, fused_grads = _run(fused_perceptron, arrays, upstream, frozen)
    ref_out, ref_grads = _run(_composite_perceptron, arrays, upstream, frozen)
    assert np.array_equal(fused_out, ref_out)
    for name in arrays:
        if name in frozen:
            assert fused_grads[name] is None and ref_grads[name] is None
        else:
            assert np.array_equal(fused_grads[name], ref_grads[name]), name


def test_perceptron_gradcheck():
    arrays = _perceptron_arrays(seed=2)
    upstream = Tensor(np.random.default_rng(3).normal(size=(ROWS, OUT)))
    tensors = [Tensor(arrays[name], requires_grad=True)
               for name in ("x", "w1", "b1", "w2", "b2")]
    error = gradient_check(
        lambda *args: (fused_perceptron(*args) * upstream).sum(), tensors)
    assert error < 1e-6


def _pool_inputs(mask_dtype, seed=0):
    """A table and ``(B, T, S)`` baskets with repeated items, empty
    slots and an empty step."""
    rng = np.random.default_rng(seed)
    table = rng.normal(size=(ROWS, D))
    items = rng.integers(0, 4, size=(B, T, S))     # few ids: many repeats
    mask = rng.random((B, T, S)) < 0.6
    mask[:, 1] = False
    items[~mask] = 0
    return table, items, mask.astype(mask_dtype)


def _composite_pool(table, items, mask):
    return (table[items] * Tensor(mask[..., None])).sum(axis=2)


@pytest.mark.parametrize("mask_dtype", [np.float64, bool])
def test_basket_pool_equals_composite_bitwise(mask_dtype):
    table, items, mask = _pool_inputs(mask_dtype)
    upstream = np.random.default_rng(1).normal(size=(B, T, D))
    outs, grads = [], []
    for op in (fused_basket_pool, _composite_pool):
        tensor = Tensor(table.copy(), requires_grad=True)
        out = op(tensor, items, mask)
        (out * Tensor(upstream)).sum().backward()
        outs.append(out.data)
        grads.append(tensor.grad)
    assert np.array_equal(outs[0], outs[1])
    assert np.array_equal(grads[0], grads[1])


def test_basket_pool_gradcheck():
    table, items, mask = _pool_inputs(np.float64, seed=4)
    upstream = Tensor(np.random.default_rng(5).normal(size=(B, T, D)))
    error = gradient_check(
        lambda t: (fused_basket_pool(t, items, mask) * upstream).sum(),
        [Tensor(table, requires_grad=True)])
    assert error < 1e-6


def test_basket_pool_saves_no_gather():
    """The node keeps ``items`` and the slot weights, not the
    ``(B, T, S, d)`` gather or its masked product."""
    table, items, mask = _pool_inputs(np.float64)
    out = fused_basket_pool(Tensor(table, requires_grad=True), items, mask)
    saved = [cell.cell_contents for cell in out._backward.__closure__]
    shapes = [value.shape for value in saved
              if isinstance(value, np.ndarray)]
    assert (B, T, S, D) not in shapes
