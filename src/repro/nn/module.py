"""Module/Parameter abstractions and common layers.

The API intentionally mirrors a small subset of ``torch.nn``: modules own
parameters and sub-modules, ``parameters()`` walks the tree, and
``train()``/``eval()`` set the ``training`` flag across the tree.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Mapping, Optional, Tuple

import numpy as np

from . import functional as F
from . import init
from .tensor import Tensor

#: Standard deviation of the Gaussian embedding initialisation.
EMBEDDING_STD = 0.05
#: Variance guard of :class:`LayerNorm`.
LAYER_NORM_EPS = 1e-5


class Parameter(Tensor):
    """A :class:`Tensor` that is registered as trainable by modules."""

    def __init__(self, data) -> None:
        super().__init__(data, requires_grad=True)


import contextlib


@contextlib.contextmanager
def no_grad(module: "Module"):
    """Temporarily disable gradient tracking for every parameter of
    ``module``: forward passes inside the block build no autograd graph,
    which makes inference measurably cheaper."""
    params = list(module.parameters())
    flags = [p.requires_grad for p in params]
    for param in params:
        param.requires_grad = False
    try:
        yield
    finally:
        for param, flag in zip(params, flags):
            param.requires_grad = flag


class Module:
    """Base class for all neural network modules."""

    def __init__(self) -> None:
        self._parameters: Dict[str, Parameter] = {}
        self._modules: Dict[str, "Module"] = {}
        self.training = True

    # -- registration ---------------------------------------------------
    def __setattr__(self, name: str, value) -> None:
        if isinstance(value, Parameter):
            self.__dict__.setdefault("_parameters", {})[name] = value
        elif isinstance(value, Module):
            self.__dict__.setdefault("_modules", {})[name] = value
        object.__setattr__(self, name, value)

    def register_module(self, name: str, module: "Module") -> None:
        self._modules[name] = module
        object.__setattr__(self, name, module)

    # -- traversal ------------------------------------------------------
    def parameters(self) -> Iterator[Parameter]:
        """Yield every trainable parameter in this module tree (deduplicated)."""
        seen = set()
        for param in self._parameters.values():
            if id(param) not in seen:
                seen.add(id(param))
                yield param
        for module in self._modules.values():
            for param in module.parameters():
                if id(param) not in seen:
                    seen.add(id(param))
                    yield param

    def named_parameters(self) -> Iterator[Tuple[str, Parameter]]:
        yield from self._parameters.items()
        for mod_name, module in self._modules.items():
            for name, param in module.named_parameters():
                yield f"{mod_name}.{name}", param

    def modules(self) -> Iterator["Module"]:
        yield self
        for module in self._modules.values():
            yield from module.modules()

    # -- mode & gradient management --------------------------------------
    def train(self, mode: bool = True) -> "Module":
        for module in self.modules():
            module.training = mode
        return self

    def eval(self) -> "Module":
        return self.train(False)

    def zero_grad(self) -> None:
        for param in self.parameters():
            param.zero_grad()

    def non_finite_parameters(self) -> List[Tuple[str, str]]:
        """``(name, field)`` pairs whose data or gradient contains NaN/Inf.

        ``field`` is ``"data"`` or ``"grad"``.  Used by the training guards
        (and the anomaly sanitizer's error messages) to name exactly which
        parameters went bad instead of reporting a bare non-finite loss.
        """
        bad: List[Tuple[str, str]] = []
        for name, param in self.named_parameters():
            if not np.all(np.isfinite(param.data)):
                bad.append((name, "data"))
            if param.grad is not None and not np.all(np.isfinite(param.grad)):
                bad.append((name, "grad"))
        return bad

    # -- state dict -------------------------------------------------------
    def state_dict(self) -> Dict[str, np.ndarray]:
        return {name: param.data.copy() for name, param in self.named_parameters()}

    def load_state_dict(self, state: Mapping[str, np.ndarray],
                        assign: bool = False) -> None:
        """Load parameters from ``state`` (any mapping, lazily fetched).

        ``assign=False`` copies into the existing parameter buffers (the
        historical behavior, safe for a model that keeps training).
        ``assign=True`` *adopts* each array as ``param.data`` without a
        copy — fetching values one key at a time — so loading never holds
        two full copies of the model in memory; mmap-backed arrays stay
        mmap-backed.  Adopted arrays may be read-only: use ``assign``
        for inference/serving, not for a model about to be optimized
        in place.
        """
        own = dict(self.named_parameters())
        missing = set(own) - set(state)
        if missing:
            raise KeyError(f"state dict is missing parameters: {sorted(missing)}")
        for name in state:
            if name not in own:
                raise KeyError(f"unexpected parameter in state dict: {name}")
            values = state[name]
            if own[name].data.shape != values.shape:
                raise ValueError(
                    f"shape mismatch for {name}: "
                    f"{own[name].data.shape} vs {values.shape}")
            if assign:
                own[name].data = values
            else:
                own[name].data[...] = values

    # -- call protocol ----------------------------------------------------
    def forward(self, *args, **kwargs):
        raise NotImplementedError

    def __call__(self, *args, **kwargs):
        return self.forward(*args, **kwargs)


class Linear(Module):
    """Affine layer ``y = x W^T + b`` with Xavier-uniform weights."""

    def __init__(self, in_features: int, out_features: int,
                 rng: np.random.Generator, bias: bool = True) -> None:
        super().__init__()
        self.in_features = in_features
        self.out_features = out_features
        self.weight = Parameter(init.xavier_uniform((out_features, in_features), rng))
        self.bias = Parameter(init.zeros((out_features,))) if bias else None

    def forward(self, x: Tensor) -> Tensor:
        return F.linear(x, self.weight, self.bias)


class Embedding(Module):
    """Lookup table of dense vectors, with optional padding index.

    Row ``padding_idx`` is kept at zero: its gradient updates are masked out
    after each backward pass by the optimizers via the ``frozen_rows`` hint.
    """

    def __init__(self, num_embeddings: int, embedding_dim: int,
                 rng: np.random.Generator,
                 padding_idx: Optional[int] = None) -> None:
        super().__init__()
        self.num_embeddings = num_embeddings
        self.embedding_dim = embedding_dim
        self.padding_idx = padding_idx
        weight = init.normal((num_embeddings, embedding_dim), rng,
                             std=EMBEDDING_STD)
        if padding_idx is not None:
            weight[padding_idx] = 0.0
        self.weight = Parameter(weight)

    def forward(self, indices: np.ndarray) -> Tensor:
        out = F.embedding_lookup(self.weight, indices)
        return out

    def zero_padding_row(self) -> None:
        """Re-zero the padding row (call after optimizer steps)."""
        if self.padding_idx is not None:
            self.weight.data[self.padding_idx] = 0.0


class LayerNorm(Module):
    """Layer normalization over the last dimension."""

    def __init__(self, dim: int) -> None:
        super().__init__()
        self.gamma = Parameter(np.ones(dim))
        self.beta = Parameter(np.zeros(dim))

    def forward(self, x: Tensor) -> Tensor:
        mean = x.mean(axis=-1, keepdims=True)
        centered = x - mean
        var = (centered * centered).mean(axis=-1, keepdims=True)
        normed = centered / (var + LAYER_NORM_EPS).sqrt()
        return normed * self.gamma + self.beta
