"""First-order optimizers and gradient clipping.

Every gradient is a dense ``ndarray`` shaped like its parameter, and every
optimizer applies the textbook dense update to the whole parameter each
step, as ``torch.optim`` does.

Optimizer state (moments, accumulators) is keyed by the stable
parameter *index* in ``self.params`` — never ``id(param)``, which the
allocator may reuse after garbage collection, silently aliasing state
across parameters.  State arrays are updated in place; no per-step
re-allocation of table-sized buffers.
"""

from __future__ import annotations

from typing import Dict, Iterable, List

import numpy as np

from .module import Parameter

#: Adam's moment decay rates and denominator guard.
ADAM_BETAS = (0.9, 0.999)
ADAM_EPS = 1e-8
#: Adagrad's denominator guard.
ADAGRAD_EPS = 1e-10


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
        """Clip gradients jointly to ``max_norm``; return the pre-clip norm."""
        total = 0.0
        for param in self.params:
            if param.grad is not None:
                total += float((param.grad ** 2).sum())
        norm = float(np.sqrt(total))
        if norm > max_norm and norm > 0:
            scale = max_norm / norm
            for param in self.params:
                if param.grad is not None:
                    param.grad *= scale
        return norm


class SGD(Optimizer):
    """Stochastic gradient descent with optional weight decay."""

    def __init__(self, params: Iterable[Parameter], lr: float = 0.01,
                 weight_decay: float = 0.0) -> None:
        super().__init__(params, lr)
        self.weight_decay = weight_decay

    def step(self) -> None:
        for param in self.params:
            grad = param.grad
            if grad is None:
                continue
            if self.weight_decay:
                grad = grad + self.weight_decay * param.data
            param.data -= self.lr * grad


class Adam(Optimizer):
    """Adam optimizer (Kingma & Ba, 2015) with the shared step counter ``_t``."""

    def __init__(self, params: Iterable[Parameter], lr: float = 1e-3,
                 weight_decay: float = 0.0) -> None:
        super().__init__(params, lr)
        self.beta1, self.beta2 = ADAM_BETAS
        self.weight_decay = weight_decay
        self._m: Dict[int, np.ndarray] = {}
        self._v: Dict[int, np.ndarray] = {}
        self._t = 0

    def step(self) -> None:
        self._t += 1
        bias1 = 1.0 - self.beta1 ** self._t
        bias2 = 1.0 - self.beta2 ** self._t
        for index, param in enumerate(self.params):
            grad = param.grad
            if grad is None:
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
            param.data -= (self.lr * (m / bias1)
                           / (np.sqrt(v / bias2) + ADAM_EPS))


class Adagrad(Optimizer):
    """Adagrad optimizer, the historical choice for sparse recommenders."""

    def __init__(self, params: Iterable[Parameter], lr: float = 0.01) -> None:
        super().__init__(params, lr)
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
            accum += np.square(grad)
            param.data -= self.lr * grad / (np.sqrt(accum) + ADAGRAD_EPS)


def make_optimizer(name: str, params: Iterable[Parameter], lr: float,
                   weight_decay: float = 0.0) -> Optimizer:
    """Factory used by the experiment configs ('adam' | 'sgd' | 'adagrad')."""
    name = name.lower()
    if name == "adam":
        return Adam(params, lr=lr, weight_decay=weight_decay)
    if name == "sgd":
        return SGD(params, lr=lr, weight_decay=weight_decay)
    if name == "adagrad":
        return Adagrad(params, lr=lr)
    raise ValueError(f"unknown optimizer: {name!r}")
