"""First-order optimizers, gradient clipping and learning-rate schedules.

Every optimizer here understands both gradient representations: a dense
``ndarray`` or a :class:`repro.nn.sparse.RowSparseGrad` produced by the
embedding-gather backward.  Sparse gradients take a *lazy* row path — only
the touched rows of the parameter (and of the optimizer state) are read or
written, turning the per-step cost from ``O(V*d)`` into ``O(rows*d)``.

Lazy semantics and dense equivalence
------------------------------------
Per touched row, the sparse update applies exactly the dense elementwise
formula, so a touch pattern covering every row each step produces
bit-identical trajectories to the dense optimizer.  Untouched rows are
frozen, which matches the dense optimizer bit-for-bit wherever the dense
update is a no-op on zero gradient:

* plain ``SGD`` (no momentum, no weight decay) and ``Adagrad`` are
  bit-identical under *any* touch pattern (``x - lr*0 == x`` and
  ``accum += 0`` are exact no-ops);
* ``Adam``/``SparseAdam`` rows are bit-identical from each row's first
  touch onward as long as the row stays touched (zero first/second moments
  make the dense update an exact no-op before the first touch); rows whose
  moments are non-zero while skipped would drift under the dense rule, and
  the lazy path intentionally freezes them instead, catching up the moment
  decay (``m *= beta1**gap``, ``v *= beta2**gap``) and applying the global
  step's bias correction on the next touch;
* momentum ``SGD`` and weight decay likewise update touched rows only.

Optimizer state (velocity, moments, accumulators) is keyed by the stable
parameter *index* in ``self.params`` — never ``id(param)``, which the
allocator may reuse after garbage collection, silently aliasing state
across parameters.  State arrays are updated in place; no per-step
re-allocation of table-sized buffers.
"""

from __future__ import annotations

from typing import Dict, Iterable, List

import numpy as np

from .module import Parameter
from .sparse import RowSparseGrad, grad_scale_, grad_sq_sum


class Optimizer:
    """Base optimizer holding a parameter list."""

    def __init__(self, params: Iterable[Parameter], lr: float) -> None:
        self.params: List[Parameter] = list(params)
        if not self.params:
            raise ValueError("optimizer received no parameters")
        if lr <= 0:
            raise ValueError(f"learning rate must be positive, got {lr}")
        self.lr = lr

    def zero_grad(self) -> None:
        for param in self.params:
            param.zero_grad()

    def step(self) -> None:
        raise NotImplementedError

    def clip_grad_norm(self, max_norm: float) -> float:
        """Clip gradients jointly to ``max_norm``; return the pre-clip norm.

        Representation-aware: a row-sparse gradient contributes the sum of
        squares of its stored rows (its zero rows add exactly zero) and is
        scaled in place without densifying.
        """
        total = 0.0
        for param in self.params:
            if param.grad is not None:
                total += grad_sq_sum(param.grad)
        norm = float(np.sqrt(total))
        if norm > max_norm and norm > 0:
            scale = max_norm / norm
            for param in self.params:
                if param.grad is not None:
                    grad_scale_(param.grad, scale)
        return norm


class SGD(Optimizer):
    """Stochastic gradient descent with optional momentum and weight decay."""

    def __init__(self, params: Iterable[Parameter], lr: float = 0.01,
                 momentum: float = 0.0, weight_decay: float = 0.0) -> None:
        super().__init__(params, lr)
        self.momentum = momentum
        self.weight_decay = weight_decay
        self._velocity: Dict[int, np.ndarray] = {}

    def step(self) -> None:
        for index, param in enumerate(self.params):
            grad = param.grad
            if grad is None:
                continue
            if isinstance(grad, RowSparseGrad):
                self._sparse_update(index, param, grad)
                continue
            if self.weight_decay:
                grad = grad + self.weight_decay * param.data
            if self.momentum:
                vel = self._velocity.get(index)
                if vel is None:
                    vel = np.zeros_like(param.data)
                    self._velocity[index] = vel
                vel *= self.momentum
                vel += grad
                grad = vel
            param.data -= self.lr * grad

    def _sparse_update(self, index: int, param: Parameter,
                       grad: RowSparseGrad) -> None:
        """Dense formula on the touched rows only (lazy momentum/decay)."""
        rows, vals = grad.indices, grad.values
        if self.weight_decay:
            vals = vals + self.weight_decay * param.data[rows]
        if self.momentum:
            vel = self._velocity.get(index)
            if vel is None:
                vel = np.zeros_like(param.data)
                self._velocity[index] = vel
            vel_rows = vel[rows]
            vel_rows *= self.momentum
            vel_rows += vals
            vel[rows] = vel_rows
            vals = vel_rows
        param.data[rows] -= self.lr * vals


class Adam(Optimizer):
    """Adam optimizer (Kingma & Ba, 2015), with a lazy row-sparse path.

    Dense gradients follow the textbook update with the shared step counter
    ``_t``.  Row-sparse gradients update only the touched rows: per-row
    last-touch steps record how many steps a row skipped, the moment decay
    is caught up exactly (``m *= beta1**gap``, ``v *= beta2**gap`` — what
    ``gap`` zero-gradient dense updates would have left behind), and the
    bias correction uses the global step, so a row touched every step since
    its first touch follows the dense trajectory bit-for-bit.
    """

    def __init__(self, params: Iterable[Parameter], lr: float = 1e-3,
                 betas: tuple = (0.9, 0.999), eps: float = 1e-8,
                 weight_decay: float = 0.0) -> None:
        super().__init__(params, lr)
        self.beta1, self.beta2 = betas
        self.eps = eps
        self.weight_decay = weight_decay
        self._m: Dict[int, np.ndarray] = {}
        self._v: Dict[int, np.ndarray] = {}
        #: Per-parameter ``(rows,)`` int64 array of each row's last-touch
        #: step; present only for parameters that have seen sparse grads.
        self._row_steps: Dict[int, np.ndarray] = {}
        self._t = 0

    def step(self) -> None:
        self._t += 1
        bias1 = 1.0 - self.beta1 ** self._t
        bias2 = 1.0 - self.beta2 ** self._t
        for index, param in enumerate(self.params):
            grad = param.grad
            if grad is None:
                continue
            if isinstance(grad, RowSparseGrad):
                self._sparse_update(index, param, grad.indices, grad.values)
                continue
            if index in self._row_steps:
                # Sparse-tracked parameter receiving a dense gradient: a
                # dense grad touches every row, so route it through the
                # row path to keep the per-row step bookkeeping coherent.
                all_rows = np.arange(param.data.shape[0], dtype=np.int64)
                self._sparse_update(index, param, all_rows, grad)
                continue
            if self.weight_decay:
                grad = grad + self.weight_decay * param.data
            m = self._m.get(index)
            if m is None:
                m = np.zeros_like(param.data)
                v = np.zeros_like(param.data)
                self._m[index] = m
                self._v[index] = v
            else:
                v = self._v[index]
            m *= self.beta1
            m += (1.0 - self.beta1) * grad
            v *= self.beta2
            v += (1.0 - self.beta2) * np.square(grad)
            param.data -= self.lr * (m / bias1) / (np.sqrt(v / bias2) + self.eps)

    def _sparse_update(self, index: int, param: Parameter,
                       rows: np.ndarray, vals: np.ndarray) -> None:
        had_state = index in self._m
        steps = self._row_steps.get(index)
        if steps is None:
            # First sparse grad for this parameter.  If it was updated
            # densely before, every row was effectively touched at the
            # previous step; otherwise rows start untouched at step 0.
            start = self._t - 1 if had_state else 0
            steps = np.full(param.data.shape[0], start, dtype=np.int64)
            self._row_steps[index] = steps
        m = self._m.get(index)
        if m is None:
            m = np.zeros_like(param.data)
            v = np.zeros_like(param.data)
            self._m[index] = m
            self._v[index] = v
        else:
            v = self._v[index]
        if self.weight_decay:
            vals = vals + self.weight_decay * param.data[rows]
        gaps = self._t - steps[rows]
        steps[rows] = self._t
        m_rows = m[rows]
        v_rows = v[rows]
        if np.all(gaps == 1):
            # Rows touched on the previous step too: plain EMA update,
            # bit-identical to the dense in-place formula.
            m_rows *= self.beta1
            v_rows *= self.beta2
        else:
            # Catch up the decay the skipped steps would have applied.
            corr_shape = (-1,) + (1,) * (param.data.ndim - 1)
            gap_col = gaps.reshape(corr_shape)
            m_rows *= self.beta1 ** gap_col
            v_rows *= self.beta2 ** gap_col
        m_rows += (1.0 - self.beta1) * vals
        v_rows += (1.0 - self.beta2) * np.square(vals)
        m[rows] = m_rows
        v[rows] = v_rows
        bias1 = 1.0 - self.beta1 ** self._t
        bias2 = 1.0 - self.beta2 ** self._t
        param.data[rows] -= (self.lr * (m_rows / bias1)
                             / (np.sqrt(v_rows / bias2) + self.eps))


class SparseAdam(Adam):
    """Adam variant named for its lazy handling of row-sparse gradients.

    :class:`Adam` already routes sparse gradients through the lazy row
    path; this subclass exists as the explicit spelling (mirroring
    ``torch.optim.SparseAdam``) for configs that train embedding-heavy
    models.
    """


class Adagrad(Optimizer):
    """Adagrad optimizer, the historical choice for sparse recommenders.

    The lazy row path is bit-identical to the dense update under *any*
    touch pattern: a zero gradient leaves the accumulator and the
    parameter bitwise unchanged.
    """

    def __init__(self, params: Iterable[Parameter], lr: float = 0.01,
                 eps: float = 1e-10) -> None:
        super().__init__(params, lr)
        self.eps = eps
        self._accum: Dict[int, np.ndarray] = {}

    def step(self) -> None:
        for index, param in enumerate(self.params):
            grad = param.grad
            if grad is None:
                continue
            accum = self._accum.get(index)
            if accum is None:
                accum = np.zeros_like(param.data)
                self._accum[index] = accum
            if isinstance(grad, RowSparseGrad):
                rows, vals = grad.indices, grad.values
                accum_rows = accum[rows]
                accum_rows += np.square(vals)
                accum[rows] = accum_rows
                param.data[rows] -= (self.lr * vals
                                     / (np.sqrt(accum_rows) + self.eps))
            else:
                accum += np.square(grad)
                param.data -= self.lr * grad / (np.sqrt(accum) + self.eps)


def make_optimizer(name: str, params: Iterable[Parameter], lr: float,
                   weight_decay: float = 0.0) -> Optimizer:
    """Factory used by the experiment configs
    ('adam' | 'sparseadam' | 'sgd' | 'adagrad')."""
    name = name.lower()
    if name == "adam":
        return Adam(params, lr=lr, weight_decay=weight_decay)
    if name in ("sparseadam", "sparse_adam"):
        return SparseAdam(params, lr=lr, weight_decay=weight_decay)
    if name == "sgd":
        return SGD(params, lr=lr, weight_decay=weight_decay)
    if name == "adagrad":
        return Adagrad(params, lr=lr)
    raise ValueError(f"unknown optimizer: {name!r}")
