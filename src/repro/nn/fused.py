"""Fused autograd kernels for the engine's hot paths.

Each op here collapses what used to be a chain of elementwise graph nodes
into a single :meth:`Tensor._make` node with a hand-derived backward.  The
win is twofold: the forward pass issues a handful of large numpy calls
instead of dozens of small ones, and the backward pass runs one closure per
step instead of rebuilding gradients through every intermediate.

The recurrent cells, the masked softmax, eq. 9's gated effects and eq. 10's
head are written once, as plain numpy forwards (:func:`gru_cell`,
:func:`lstm_cell`, :func:`masked_softmax`, :func:`basket_effects`,
:func:`causal_head`): the autograd kernels wrap them with hand-derived
backwards, and evaluation and serving call them on frozen arrays.

Numerical contract: every fused forward reproduces the exact op sequence of
the composite implementation it replaces (same associativity, same
:func:`repro.nn.tensor._stable_sigmoid`), so the golden-value fixtures in
``tests/golden`` recorded against the composite code still match to 1e-10.
The exceptions are eq. 9's effects and eq. 10's head, which reassociate
into factorized order and match their composite forms to 1e-12.  Backwards
are analytic and agree with the composite gradients up to floating-point
rounding, except those of the cluster perceptron (eqs. 6 and 8) and the
basket pooling, which replay the composite chain's numpy ops and are
bitwise equal to it.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from .tensor import Tensor, _scatter_add, _stable_sigmoid, _unbroadcast


def gru_cell(gates_x: np.ndarray, h: np.ndarray, w_hh: np.ndarray,
             b_hh: np.ndarray) -> Tuple[np.ndarray, ...]:
    """One GRU step on arrays: ``(h', r, z, n, gates_h_n)``.

    ``gates_x`` is the input projection ``x W_ihᵀ + b_ih``.  Computes
    ``h' = (1 - z) * n + z * h`` with the standard r/z/n gates and returns
    the intermediates the fused backward saves.  The only definition of
    the GRU gate equations: the autograd kernels and the serving session
    store both call it.
    """
    hidden = w_hh.shape[1]
    gates_h = h @ w_hh.T + b_hh
    r = _stable_sigmoid(gates_x[:, :hidden] + gates_h[:, :hidden])
    z = _stable_sigmoid(gates_x[:, hidden:2 * hidden]
                        + gates_h[:, hidden:2 * hidden])
    gates_h_n = gates_h[:, 2 * hidden:]
    n = np.tanh(gates_x[:, 2 * hidden:] + r * gates_h_n)
    return (1.0 - z) * n + z * h, r, z, n, gates_h_n


def lstm_cell(gates_x: np.ndarray, h: np.ndarray, c: np.ndarray,
              w_hh: np.ndarray) -> Tuple[np.ndarray, ...]:
    """One LSTM step on arrays: ``(h', c', i, f, g, o, tanh(c'))``.

    ``gates_x`` is the input projection ``x W_ihᵀ + b``; the gates are
    ``gates_x + h W_hhᵀ``.  Like :func:`gru_cell`, the single definition
    of the LSTM gate equations shared by training and serving.
    """
    hidden = w_hh.shape[1]
    gates = gates_x + h @ w_hh.T
    i = _stable_sigmoid(gates[:, :hidden])
    f = _stable_sigmoid(gates[:, hidden:2 * hidden])
    g = np.tanh(gates[:, 2 * hidden:3 * hidden])
    o = _stable_sigmoid(gates[:, 3 * hidden:])
    c_new = f * c + i * g
    tanh_c = np.tanh(c_new)
    return o * tanh_c, c_new, i, f, g, o, tanh_c


def masked_softmax(x: np.ndarray, mask: np.ndarray,
                   axis: int = -1) -> np.ndarray:
    """Masked softmax on arrays: ``exp * m / (sum + 1e-12)``.

    Masked entries get exactly zero weight; an all-masked row returns
    zeros instead of NaN thanks to the epsilon in the denominator.
    """
    mask_b = np.asarray(mask, dtype=bool)
    shifted = x + np.where(mask_b, 0.0, -1e30)
    shifted = shifted - shifted.max(axis=axis, keepdims=True)
    exp = np.exp(shifted) * mask_b.astype(np.float64)
    return exp / (exp.sum(axis=axis, keepdims=True) + 1e-12)


#: Candidate rows per BLAS call in :func:`candidate_dots`.  Every call
#: multiplies the same block shape, so a row's bits never depend on which
#: rows share the call.
CANDIDATE_BLOCK = 16


def candidate_dots(proj: np.ndarray, table: np.ndarray) -> np.ndarray:
    """``table @ projᵀ`` for ``(…, T, d)`` steps, in row blocks: (…, C, T).

    ``table`` is one ``(C, d)`` table or per-row ``(…, C, d)`` candidates
    (float64, or fp16 codes: the block copy upcasts them exactly).  The
    zero-padded blocks go through one stacked ``matmul``, so scoring a
    subset of rows is bitwise equal to scoring all and gathering.
    """
    rows, dim = table.shape[-2:]
    blocks = -(-rows // CANDIDATE_BLOCK)
    padded = np.zeros(table.shape[:-2] + (blocks, CANDIDATE_BLOCK, dim))
    padded.reshape(table.shape[:-2] + (-1, dim))[..., :rows, :] = table
    out = padded @ np.swapaxes(proj, -1, -2)[..., None, :, :]
    return out.reshape(out.shape[:-3] + (-1, proj.shape[-2]))[..., :rows, :]


def project_steps(states: np.ndarray, adapt: np.ndarray) -> np.ndarray:
    """The head's first stage, ``P = states @ Vᵀ``: each step's ``V h_t``."""
    return states @ adapt.T


def _causal_head(weights, states, adapt, table, bias):
    proj = project_steps(states, adapt)                       # (…, T, d_e)
    dots = candidate_dots(proj, table)                        # (…, C, T)
    terms = np.multiply(np.swapaxes(weights, -1, -2), dots, order="C")
    return proj, dots, terms.sum(axis=-1) + bias


def causal_head(weights: np.ndarray, states: np.ndarray, adapt: np.ndarray,
                table: np.ndarray, bias: np.ndarray) -> np.ndarray:
    """Eq. 10's head ``e_bᵀ V Σ_t w_tb h_t + bias_b``, in factorized order.

    ``weights`` ``(…, T, C)`` are the gated effects times attention,
    ``states`` ``(…, T, h)``, ``adapt`` is ``V`` ``(d_e, h)``.  The step
    sum runs along the contiguous axis of the candidate-major dots, so its
    bits depend on ``T`` alone, never on ``C``.
    """
    return _causal_head(weights, states, adapt, table, bias)[2]


def fused_causal_head(weights: Tensor, states: Tensor, adapt: Tensor,
                      table: Tensor, bias: Tensor) -> Tensor:
    """:func:`causal_head` as one node with the analytic backward."""
    proj, dots, out_data = _causal_head(weights.data, states.data,
                                        adapt.data, table.data, bias.data)

    def backward(grad: np.ndarray) -> None:
        if weights.requires_grad:
            dweights = np.multiply(np.swapaxes(dots, -1, -2),
                                   grad[..., None, :], order="C")
            weights._accumulate(_unbroadcast(dweights, weights.shape),
                                own=True)
        ddots = grad[..., None] * np.swapaxes(weights.data, -1, -2)
        if table.requires_grad:
            table._accumulate(_unbroadcast(ddots @ proj, table.shape),
                              own=True)
        dproj = np.swapaxes(ddots, -1, -2) @ table.data       # (…, T, d_e)
        if states.requires_grad:
            states._accumulate(_unbroadcast(dproj @ adapt.data, states.shape),
                               own=True)
        if adapt.requires_grad:
            dadapt = np.swapaxes(dproj, -1, -2) @ states.data
            adapt._accumulate(_unbroadcast(dadapt, adapt.shape), own=True)
        if bias.requires_grad:
            dbias = _unbroadcast(grad, bias.shape)
            bias._accumulate(dbias, own=dbias is not grad)

    return Tensor._make(out_data, (weights, states, adapt, table, bias),
                        backward)


def basket_effects(cause_rows: np.ndarray, effect_cols: np.ndarray,
                   epsilon: float, items: np.ndarray, slot_mask: np.ndarray
                   ) -> Tuple[np.ndarray, np.ndarray]:
    """Eq. 9's gated effects ``Σ_{a ∈ basket_t} W_ab 1(W_ab > ε)``: (…, C, T).

    ``W``'s entries come from its rank-K factors: ``cause_rows`` is ``Ā Wᶜ``
    ``(V+1, K)``, ``effect_cols`` the candidates' rows of ``Ā``, one
    ``(C, K)`` table or per-row ``(…, C, K)``.  ``items`` ``(…, T, S)`` are
    the baskets, the boolean ``slot_mask`` their real slots.  The pairs are
    gated in place (NaN gates to 0; ``ε = -inf`` keeps every finite pair)
    and each basket sums along the contiguous axis, so a candidate's bits
    never depend on which other candidates share the call.  Returns the
    effects and the gate ``(…, C, T, S)``.
    """
    flat = items.reshape(items.shape[:-2] + (-1,))            # (…, T·S)
    pairs = candidate_dots(cause_rows[flat], effect_cols)     # (…, C, T·S)
    pairs = pairs.reshape(pairs.shape[:-1] + items.shape[-2:])
    gate = (pairs > epsilon) & slot_mask[..., None, :, :]
    pairs[~gate] = 0.0
    return pairs.sum(axis=-1), gate


def fused_basket_effects(cause_rows: Tensor, effect_cols: Tensor,
                         epsilon: float, items: np.ndarray,
                         slot_mask: np.ndarray) -> Tensor:
    """:func:`basket_effects` as one node; its backward keeps only the gate."""
    out_data, gate = basket_effects(cause_rows.data, effect_cols.data,
                                    epsilon, items, slot_mask)
    flat = items.reshape(items.shape[:-2] + (-1,))

    def backward(grad: np.ndarray) -> None:
        dpairs = gate * grad[..., None]                       # (…, C, T, S)
        dpairs = dpairs.reshape(dpairs.shape[:-2] + (-1,))    # (…, C, T·S)
        if effect_cols.requires_grad:
            deffect = dpairs @ cause_rows.data[flat]
            effect_cols._accumulate(_unbroadcast(deffect, effect_cols.shape),
                                    own=True)
        if cause_rows.requires_grad:
            full = np.zeros(cause_rows.shape)
            _scatter_add(full, flat,
                         np.swapaxes(dpairs, -1, -2) @ effect_cols.data)
            cause_rows._accumulate(full, own=True)

    return Tensor._make(out_data, (cause_rows, effect_cols), backward)


def fused_perceptron(x: Tensor, w1: Tensor, b1: Tensor, w2: Tensor,
                     b2: Tensor) -> Tensor:
    """The two-layer perceptron ``σ(x W1ᵀ + b1) W2ᵀ + b2`` as one node.

    The item-cluster encoder (eq. 6) and decoder (eq. 8).  The node saves
    only the hidden ``σ`` (the composite ``F.linear`` → ``Tensor.sigmoid``
    → ``F.linear`` chain also kept both matmul outputs and the
    pre-activation alive), and its backward replays that chain's numpy
    ops in the same order, so forward and gradients are bitwise equal.
    """
    hidden = _stable_sigmoid(x.data @ w1.data.T + b1.data)
    out_data = hidden @ w2.data.T + b2.data

    def backward(grad: np.ndarray) -> None:
        if b2.requires_grad:
            db2 = _unbroadcast(grad, b2.shape)
            b2._accumulate(db2, own=db2 is not grad)
        if w2.requires_grad:
            w2._accumulate((hidden.T @ grad).T.copy(), own=True)
        dpre = grad @ w2.data * hidden * (1.0 - hidden)
        if b1.requires_grad:
            b1._accumulate(_unbroadcast(dpre, b1.shape), own=True)
        if w1.requires_grad:
            w1._accumulate(_unbroadcast((x.data.T @ dpre).T.copy(),
                                        w1.shape), own=True)
        if x.requires_grad:
            x._accumulate(_unbroadcast(dpre @ w1.data, x.shape), own=True)

    return Tensor._make(out_data, (x, w1, b1, w2, b2), backward)


def fused_basket_pool(table: Tensor, items: np.ndarray,
                      mask: np.ndarray) -> Tensor:
    """Basket pooling ``Σ_s mask · table[items]``: ``(…, T, d)`` from
    ``(…, T, S)`` item ids and slot weights, as one node.

    The ``(…, T, S, d)`` gather and its masked product live only inside
    the forward; the node saves ``items`` and ``mask``.  Its backward
    replays the composite getitem → mul → sum chain's numpy ops, so
    forward and gradient are bitwise equal to it.
    """
    weights = np.asarray(mask, dtype=np.float64)[..., None]
    out_data = (table.data[items] * weights).sum(axis=-2)

    def backward(grad: np.ndarray) -> None:
        if table.requires_grad:
            full = np.zeros(table.shape)
            _scatter_add(full, items, grad[..., None, :] * weights)
            table._accumulate(full, own=True)

    return Tensor._make(out_data, (table,), backward)


def fused_masked_softmax(x: Tensor, mask: np.ndarray,
                         axis: int = -1) -> Tensor:
    """:func:`masked_softmax` as one node.

    Backward is the analytic ``y * (g - sum(g * y))`` — exact for this
    forward including the epsilon in the denominator, because the epsilon
    is a constant added to a sum whose derivative it does not change.
    ``x`` may broadcast against ``mask`` (cluster filtering passes
    ``(B, T, 1)`` scores with a ``(B, T, C)`` mask); the gradient is summed
    back to ``x``'s shape.
    """
    out_data = masked_softmax(x.data, mask, axis=axis)

    def backward(grad: np.ndarray) -> None:
        if x.requires_grad:
            inner = (grad * out_data).sum(axis=axis, keepdims=True)
            x._accumulate(_unbroadcast(out_data * (grad - inner), x.shape),
                          own=True)

    return Tensor._make(out_data, (x,), backward)


def fused_bce_with_logits(logits: Tensor, targets: np.ndarray,
                          mask: Optional[np.ndarray] = None) -> Tensor:
    """Stable BCE-on-logits (``max(x,0) - x*y + log(1 + e^{-|x|})``) fused.

    The backward replicates the composite relu/abs subgradients exactly
    (zero at ``x == 0``), so it matches the unfused loss everywhere, not
    just almost-everywhere.
    """
    targets = np.asarray(targets, dtype=np.float64)
    x_data = logits.data
    abs_x = np.abs(x_data)
    exp_neg = np.exp(-abs_x)
    positive = x_data > 0
    per_entry = x_data * positive - x_data * targets + np.log(1.0 + exp_neg)
    if mask is not None:
        mask = np.asarray(mask, dtype=np.float64)
        denom = max(float(mask.sum()), 1.0)
        out_data = (per_entry * mask).sum() * (1.0 / denom)
    else:
        denom = float(per_entry.size)
        out_data = per_entry.sum() * (1.0 / denom)

    def backward(grad: np.ndarray) -> None:
        if logits.requires_grad:
            dper = positive - targets - np.sign(x_data) * (exp_neg
                                                           / (1.0 + exp_neg))
            if mask is not None:
                dper *= mask
            dper *= float(grad) * (1.0 / denom)
            logits._accumulate(dper, own=True)

    return Tensor._make(np.asarray(out_data), (logits,), backward)


def fused_gru_sequence(inputs: Tensor, h0: Tensor, w_ih: Tensor,
                       w_hh: Tensor, b_ih: Tensor, b_hh: Tensor,
                       step_mask: Optional[np.ndarray] = None) -> Tensor:
    """A whole GRU unroll as one graph node returning ``(B, T, H)`` states.

    The input-side projection for *all* timesteps runs as a single
    ``(B*T, I) @ (I, 3H)`` gemm, and the backward pass is a tight BPTT loop
    whose weight gradients are likewise batched into one gemm each.  Only
    the recurrent ``h @ W_hh^T`` product remains per-step, because it must.
    ``step_mask`` entries that are False carry the previous state through
    unchanged (the layer's step-mask skip rule).
    """
    inputs_data, h0_data = inputs.data, h0.data
    w_ih_data, w_hh_data = w_ih.data, w_hh.data
    batch, time, in_size = inputs_data.shape
    hidden = w_hh_data.shape[1]
    keep = None
    if step_mask is not None and not step_mask.all():
        keep = np.asarray(step_mask, dtype=np.float64)

    gates_x = inputs_data.reshape(batch * time, in_size) @ w_ih_data.T
    gates_x += b_ih.data
    gates_x = gates_x.reshape(batch, time, 3 * hidden)

    r_seq = np.empty((batch, time, hidden))
    z_seq = np.empty((batch, time, hidden))
    n_seq = np.empty((batch, time, hidden))
    ghn_seq = np.empty((batch, time, hidden))
    prev_seq = np.empty((batch, time, hidden))
    states_data = np.empty((batch, time, hidden))
    h = h0_data
    b_hh_data = b_hh.data
    for t in range(time):
        prev_seq[:, t] = h
        h_new, r, z, n, ghn = gru_cell(gates_x[:, t], h, w_hh_data,
                                       b_hh_data)
        if keep is not None:
            k = keep[:, t:t + 1]
            h_new = h_new * k + h * (1.0 - k)
        r_seq[:, t], z_seq[:, t], n_seq[:, t], ghn_seq[:, t] = r, z, n, ghn
        states_data[:, t] = h = h_new

    def backward(grad: np.ndarray) -> None:
        dgx_seq = np.empty((batch, time, 3 * hidden))
        dgh_seq = np.empty((batch, time, 3 * hidden))
        dh = np.zeros((batch, hidden))
        for t in range(time - 1, -1, -1):
            g = grad[:, t] + dh
            if keep is not None:
                k = keep[:, t:t + 1]
                g_new = g * k
            else:
                g_new = g
            r, z, n = r_seq[:, t], z_seq[:, t], n_seq[:, t]
            h_prev = prev_seq[:, t]
            dz = g_new * (h_prev - n)
            dn_pre = g_new * (1.0 - z) * (1.0 - n * n)
            dr = dn_pre * ghn_seq[:, t]
            dgx = dgx_seq[:, t]
            dgx[:, :hidden] = dr * r * (1.0 - r)
            dgx[:, hidden:2 * hidden] = dz * z * (1.0 - z)
            dgx[:, 2 * hidden:] = dn_pre
            dgh = dgh_seq[:, t]
            dgh[:] = dgx
            dgh[:, 2 * hidden:] *= r
            dh = dgh @ w_hh_data + g_new * z
            if keep is not None:
                dh += g * (1.0 - k)
        flat_dgx = dgx_seq.reshape(batch * time, 3 * hidden)
        flat_dgh = dgh_seq.reshape(batch * time, 3 * hidden)
        if inputs.requires_grad:
            dx = (flat_dgx @ w_ih_data).reshape(batch, time, in_size)
            inputs._accumulate(dx, own=True)
        if h0.requires_grad:
            h0._accumulate(dh, own=True)
        if w_ih.requires_grad:
            w_ih._accumulate(
                flat_dgx.T @ inputs_data.reshape(batch * time, in_size),
                own=True)
        if w_hh.requires_grad:
            w_hh._accumulate(
                flat_dgh.T @ prev_seq.reshape(batch * time, hidden), own=True)
        if b_ih.requires_grad:
            b_ih._accumulate(flat_dgx.sum(axis=0), own=True)
        if b_hh.requires_grad:
            b_hh._accumulate(flat_dgh.sum(axis=0), own=True)

    return Tensor._make(states_data, (inputs, h0, w_ih, w_hh, b_ih, b_hh),
                        backward)


def fused_lstm_sequence(inputs: Tensor, h0: Tensor, c0: Tensor,
                        w_ih: Tensor, w_hh: Tensor, bias: Tensor,
                        step_mask: Optional[np.ndarray] = None) -> Tensor:
    """A whole LSTM unroll as one node returning ``(B, T, H)`` hidden states.

    The cell chain stays internal to the node (the layer API only exposes
    hidden states), so its gradient is carried by the BPTT loop instead of
    per-step autograd edges.  Masked steps freeze both ``h`` and ``c``.
    """
    inputs_data, h0_data, c0_data = inputs.data, h0.data, c0.data
    w_ih_data, w_hh_data = w_ih.data, w_hh.data
    batch, time, in_size = inputs_data.shape
    hidden = w_hh_data.shape[1]
    keep = None
    if step_mask is not None and not step_mask.all():
        keep = np.asarray(step_mask, dtype=np.float64)

    gates_x = inputs_data.reshape(batch * time, in_size) @ w_ih_data.T
    gates_x += bias.data
    gates_x = gates_x.reshape(batch, time, 4 * hidden)

    i_seq = np.empty((batch, time, hidden))
    f_seq = np.empty((batch, time, hidden))
    g_seq = np.empty((batch, time, hidden))
    o_seq = np.empty((batch, time, hidden))
    tanh_c_seq = np.empty((batch, time, hidden))
    h_prev_seq = np.empty((batch, time, hidden))
    c_prev_seq = np.empty((batch, time, hidden))
    states_data = np.empty((batch, time, hidden))
    h, c = h0_data, c0_data
    for t in range(time):
        h_prev_seq[:, t], c_prev_seq[:, t] = h, c
        h_new, c_new, i, f, g, o, tanh_c = lstm_cell(gates_x[:, t], h, c,
                                                     w_hh_data)
        if keep is not None:
            k = keep[:, t:t + 1]
            inv_k = 1.0 - k
            h_new = h_new * k + h * inv_k
            c_new = c_new * k + c * inv_k
        i_seq[:, t], f_seq[:, t], g_seq[:, t], o_seq[:, t] = i, f, g, o
        tanh_c_seq[:, t] = tanh_c
        states_data[:, t] = h = h_new
        c = c_new

    def backward(grad: np.ndarray) -> None:
        dgates_seq = np.empty((batch, time, 4 * hidden))
        dh = np.zeros((batch, hidden))
        dc = np.zeros((batch, hidden))
        for t in range(time - 1, -1, -1):
            g_total = grad[:, t] + dh
            if keep is not None:
                k = keep[:, t:t + 1]
                g_new, dc_new = g_total * k, dc * k
            else:
                g_new, dc_new = g_total, dc
            i, f = i_seq[:, t], f_seq[:, t]
            g_gate, o = g_seq[:, t], o_seq[:, t]
            tanh_c = tanh_c_seq[:, t]
            c_prev = c_prev_seq[:, t]
            do = g_new * tanh_c
            dc_new = dc_new + g_new * o * (1.0 - tanh_c * tanh_c)
            dgates = dgates_seq[:, t]
            dgates[:, :hidden] = dc_new * g_gate * i * (1.0 - i)
            dgates[:, hidden:2 * hidden] = dc_new * c_prev * f * (1.0 - f)
            dgates[:, 2 * hidden:3 * hidden] = dc_new * i * (1.0 - g_gate
                                                             * g_gate)
            dgates[:, 3 * hidden:] = do * o * (1.0 - o)
            dh = dgates @ w_hh_data
            dc_next = dc_new * f
            if keep is not None:
                inv_k = 1.0 - k
                dh += g_total * inv_k
                dc_next += dc * inv_k
            dc = dc_next
        flat_dgates = dgates_seq.reshape(batch * time, 4 * hidden)
        if inputs.requires_grad:
            dx = (flat_dgates @ w_ih_data).reshape(batch, time, in_size)
            inputs._accumulate(dx, own=True)
        if h0.requires_grad:
            h0._accumulate(dh, own=True)
        if c0.requires_grad:
            c0._accumulate(dc, own=True)
        if w_ih.requires_grad:
            w_ih._accumulate(
                flat_dgates.T @ inputs_data.reshape(batch * time, in_size),
                own=True)
        if w_hh.requires_grad:
            w_hh._accumulate(
                flat_dgates.T @ h_prev_seq.reshape(batch * time, hidden),
                own=True)
        if bias.requires_grad:
            bias._accumulate(flat_dgates.sum(axis=0), own=True)

    return Tensor._make(states_data, (inputs, h0, c0, w_ih, w_hh, bias),
                        backward)

