"""The fused eq.-10 head against the composite Tensor ops it replaces.

``fused_causal_head`` computes ``Σ_t w_tc · e_c · V h_t + b_c`` in
factorized order (project steps, dot every candidate block, weighted step
sum) with a hand-written backward.  The composite reference builds the
``(B, C, h)`` context, adapts it and dots it with the candidates; both
must agree on the forward and on all five gradients to 1e-12, for
per-row candidates and for the shared full-catalog table, with candidate
counts around the block width.
"""

import numpy as np
import pytest

from repro.nn import Tensor
from repro.nn.fused import CANDIDATE_BLOCK, causal_head, fused_causal_head

B, T, H, D = 3, 5, 6, 4
COUNTS = (1, CANDIDATE_BLOCK - 1, CANDIDATE_BLOCK, CANDIDATE_BLOCK + 1)


def _inputs(count, shared, seed=0):
    rng = np.random.default_rng(seed)
    table_shape = (count, D) if shared else (B, count, D)
    bias_shape = (count,) if shared else (B, count)
    return {"weights": rng.normal(size=(B, T, count)),
            "states": rng.normal(size=(B, T, H)),
            "adapt": rng.normal(size=(D, H)),
            "table": rng.normal(size=table_shape),
            "bias": rng.normal(size=bias_shape)}


def _composite(weights, states, adapt, table, bias):
    context = weights.transpose(0, 2, 1) @ states            # (B, C, h)
    adapted = context @ adapt.transpose(1, 0)                 # (B, C, d_e)
    if table.ndim == 2:
        table = table.reshape(1, *table.shape)
    return (adapted * table).sum(axis=-1) + bias


def _run(op, arrays, upstream):
    tensors = {name: Tensor(value.copy(), requires_grad=True)
               for name, value in arrays.items()}
    out = op(**tensors)
    (out * Tensor(upstream)).sum().backward()
    return out.data, {name: t.grad for name, t in tensors.items()}


@pytest.mark.parametrize("shared", [False, True], ids=["per_row", "shared"])
@pytest.mark.parametrize("count", COUNTS)
def test_fused_head_matches_composite(count, shared):
    arrays = _inputs(count, shared)
    upstream = np.random.default_rng(1).normal(size=(B, count))
    fused_out, fused_grads = _run(fused_causal_head, arrays, upstream)
    ref_out, ref_grads = _run(_composite, arrays, upstream)
    np.testing.assert_allclose(fused_out, ref_out, rtol=1e-12, atol=1e-12)
    np.testing.assert_allclose(
        causal_head(**arrays), ref_out, rtol=1e-12, atol=1e-12)
    assert set(fused_grads) == {"weights", "states", "adapt", "table",
                                "bias"}
    for name, grad in fused_grads.items():
        assert grad.shape == arrays[name].shape, name
        np.testing.assert_allclose(grad, ref_grads[name], rtol=1e-12,
                                   atol=1e-12, err_msg=name)
