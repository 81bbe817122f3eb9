"""The fused eq.-9 effects against the composite Tensor ops they replace.

``fused_basket_effects`` reads ``W_ab = (Ā Wᶜ)_a · ā_b`` from the rank-K
factors, gates each pair at ``W > ε`` over the real basket slots and sums
each basket, with a hand-written backward into both factors.  The
composite reference gathers the history rows, multiplies them with the
candidate rows, gates with a float mask and sums the slot axis; both must
agree on the forward and on both gradients to 1e-12, for per-row
candidates and for the shared full-catalog table, with candidate counts
around the block width and basket layouts on either side of numpy's
8-term pairwise-sum unroll.  CI also runs this file with one BLAS thread.
"""

import numpy as np
import pytest

from repro.nn import Tensor
from repro.nn.fused import (CANDIDATE_BLOCK, basket_effects,
                            fused_basket_effects)

B, K, ROWS = 3, 4, 41
EPSILON = 0.05
COUNTS = (1, CANDIDATE_BLOCK - 1, CANDIDATE_BLOCK, CANDIDATE_BLOCK + 1)

#: Basket sizes per step; row ``b`` of the batch rolls them by ``b``.  A
#: size of 0 is a step with an empty basket.
BASKETS = {"singletons": (1, 1, 1, 1), "wide": (9, 10, 3),
           "empty_step": (2, 0, 10, 0, 1)}


def _history(sizes, rng):
    """Padded ``(B, T, S)`` items and their slot mask."""
    steps, slots = len(sizes), max(sizes)
    items = np.zeros((B, steps, slots), dtype=np.int64)
    mask = np.zeros((B, steps, slots), dtype=bool)
    for row in range(B):
        for step, size in enumerate(np.roll(sizes, row)):
            items[row, step, :size] = rng.integers(1, ROWS, size=size)
            mask[row, step, :size] = True
    return items, mask


def _inputs(count, shared, sizes, seed=0):
    rng = np.random.default_rng(seed)
    cols_shape = (count, K) if shared else (B, count, K)
    items, mask = _history(sizes, rng)
    return ({"cause_rows": rng.normal(scale=0.5, size=(ROWS, K)),
             "effect_cols": rng.dirichlet(np.full(K, 0.5),
                                          size=cols_shape[:-1])},
            items, mask)


def _composite(cause_rows, effect_cols, epsilon, items, slot_mask):
    b, t, s = items.shape
    rows = cause_rows[items].reshape(b, t * s, K)
    if effect_cols.ndim == 2:
        pairs = rows @ effect_cols.T                          # (B, T·S, C)
    else:
        pairs = rows @ effect_cols.transpose(0, 2, 1)
    pairs = pairs.reshape(b, t, s, -1)
    gate = (pairs.data > epsilon) & slot_mask[..., None]
    return (pairs * Tensor(gate.astype(np.float64))).sum(axis=2).transpose(
        0, 2, 1)


def _run(op, arrays, items, mask, upstream, epsilon=EPSILON):
    tensors = {name: Tensor(value.copy(), requires_grad=True)
               for name, value in arrays.items()}
    out = op(epsilon=epsilon, items=items, slot_mask=mask, **tensors)
    (out * Tensor(upstream)).sum().backward()
    return out.data, {name: t.grad for name, t in tensors.items()}


@pytest.mark.parametrize("sizes", BASKETS.values(), ids=BASKETS)
@pytest.mark.parametrize("shared", [False, True], ids=["per_row", "shared"])
@pytest.mark.parametrize("count", COUNTS)
def test_fused_effects_match_composite(count, shared, sizes):
    arrays, items, mask = _inputs(count, shared, sizes)
    upstream = np.random.default_rng(1).normal(size=(B, count, len(sizes)))
    fused_out, fused_grads = _run(fused_basket_effects, arrays, items, mask,
                                  upstream)
    ref_out, ref_grads = _run(_composite, arrays, items, mask, upstream)
    assert fused_out.shape == (B, count, len(sizes))
    np.testing.assert_allclose(fused_out, ref_out, rtol=1e-12, atol=1e-12)
    effects, gate = basket_effects(**arrays, epsilon=EPSILON, items=items,
                                   slot_mask=mask)
    assert effects.tobytes() == fused_out.tobytes()
    assert gate.shape == (B, count) + items.shape[1:]
    assert not gate[:, :, ~mask.any(axis=0)].any()
    assert set(fused_grads) == {"cause_rows", "effect_cols"}
    for name, grad in fused_grads.items():
        assert grad.shape == arrays[name].shape, name
        np.testing.assert_allclose(grad, ref_grads[name], rtol=1e-12,
                                   atol=1e-12, err_msg=name)


@pytest.mark.parametrize("shared", [False, True], ids=["per_row", "shared"])
def test_minus_infinity_is_ungated(shared):
    """``ε = -inf`` keeps every real slot: plain basket sums of ``W``."""
    arrays, items, mask = _inputs(CANDIDATE_BLOCK + 1, shared,
                                  BASKETS["empty_step"])
    effects, gate = basket_effects(**arrays, epsilon=-np.inf, items=items,
                                   slot_mask=mask)
    np.testing.assert_array_equal(gate,
                                  np.broadcast_to(mask[:, None], gate.shape))
    cols = arrays["effect_cols"]
    rows = arrays["cause_rows"][items]                        # (B, T, S, K)
    pairs = (np.einsum("btsk,ck->btsc", rows, cols) if shared
             else np.einsum("btsk,bck->btsc", rows, cols))
    expected = (pairs * mask[..., None]).sum(axis=2).transpose(0, 2, 1)
    np.testing.assert_allclose(effects, expected, rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("shared", [False, True], ids=["per_row", "shared"])
def test_nan_gates_to_zero(shared):
    """A NaN ``W`` entry gates to 0 on the array and on the fused path."""
    arrays, items, mask = _inputs(CANDIDATE_BLOCK, shared, BASKETS["wide"])
    poisoned = dict(arrays, cause_rows=arrays["cause_rows"].copy())
    zeroed = dict(arrays, cause_rows=arrays["cause_rows"].copy())
    item = int(items[0, 0, 0])
    poisoned["cause_rows"][item] = np.nan
    zeroed["cause_rows"][item] = 0.0
    upstream = np.random.default_rng(2).normal(size=(B, CANDIDATE_BLOCK, 3))
    expected, expected_grads = _run(fused_basket_effects, zeroed, items,
                                    mask, upstream)
    assert np.isfinite(expected).all()
    effects, _ = basket_effects(**poisoned, epsilon=EPSILON, items=items,
                                slot_mask=mask)
    assert effects.tobytes() == expected.tobytes()
    fused_out, grads = _run(fused_basket_effects, poisoned, items, mask,
                            upstream)
    assert fused_out.tobytes() == expected.tobytes()
    assert (grads["cause_rows"].tobytes()
            == expected_grads["cause_rows"].tobytes())
