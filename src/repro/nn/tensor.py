"""Reverse-mode automatic differentiation on top of numpy.

This module is the foundation of the :mod:`repro.nn` substrate.  The paper's
models were originally written in PyTorch/MindSpore; neither is available in
this environment, so we provide a small but complete autograd engine whose
semantics mirror PyTorch where the two overlap:

* a :class:`Tensor` wraps a ``numpy.ndarray`` and remembers the operations
  that produced it,
* calling :meth:`Tensor.backward` walks the graph in reverse topological
  order, accumulates gradients into every tensor with
  ``requires_grad=True`` and releases the graph as it goes (single use,
  like PyTorch's default ``retain_graph=False``),
* broadcasting follows numpy rules; gradients are un-broadcast back to the
  operand shapes.

The engine stores data as ``float64`` which keeps finite-difference gradient
checks tight; model sizes in this reproduction are small enough that the
extra width costs little.
"""

from __future__ import annotations

from typing import Callable, Iterable, List, Optional, Sequence, Tuple, Union

import numpy as np

ArrayLike = Union[np.ndarray, float, int, Sequence]

# ----------------------------------------------------------------------
# Graph observer hook points (anomaly detection)
# ----------------------------------------------------------------------
# The optional observer receives callbacks at the engine's choke points:
# node creation, gradient accumulation and the backward walk.  It exists so
# `repro.analysis.sanitizer` can implement torch-style detect-anomaly mode
# without the engine importing (or paying for) any of it: with no observer
# installed every hook is a single `is None` check.
_OBSERVER = None


def set_graph_observer(observer):
    """Install ``observer`` (or ``None`` to disable); returns the previous one.

    The observer must provide ``on_create(out, parents)``,
    ``on_backward_start(root, topo)``, ``on_node_backward(node)``,
    ``on_backward_end(root)`` and ``on_accumulate(tensor, grad)``.
    """
    global _OBSERVER
    previous = _OBSERVER
    _OBSERVER = observer
    return previous


def graph_observer():
    """The currently installed graph observer, or ``None``."""
    return _OBSERVER


def _as_array(value: ArrayLike) -> np.ndarray:
    """Coerce ``value`` to a float64 numpy array without copying needlessly."""
    if isinstance(value, np.ndarray):
        if value.dtype == np.float64:
            return value
        return value.astype(np.float64)
    return np.asarray(value, dtype=np.float64)


def _stable_sigmoid(data: np.ndarray) -> np.ndarray:
    """Numerically stable logistic used by every sigmoid in the engine.

    Kept as a module-level helper so the fused kernels in
    :mod:`repro.nn.fused` share the exact same numerics as
    :meth:`Tensor.sigmoid` (the golden-equivalence tests rely on this).
    """
    clipped = np.clip(data, -500, 500)
    # One exp of -|x| serves both branches: for x >= 0 it equals exp(-x)
    # and for x < 0 it equals exp(x), so each branch below is bit-identical
    # to the textbook two-sided form while halving the exp calls.
    decay = np.exp(-np.abs(clipped))
    return np.where(data >= 0,
                    1.0 / (1.0 + decay),
                    decay / (1.0 + decay))


def _is_basic_index(index) -> bool:
    """True for indices where every output element maps to a distinct input.

    Basic indexing (ints, slices, Ellipsis, None) and boolean masks never
    select the same source element twice, so the gradient scatter can use a
    direct ``+=`` store instead of the much slower ``np.add.at``.
    """
    basic = (int, np.integer, slice, type(Ellipsis), type(None))
    if isinstance(index, basic):
        return True
    if isinstance(index, np.ndarray):
        return index.dtype == np.bool_
    if isinstance(index, tuple):
        return all(isinstance(part, basic) for part in index)
    return False


def _scatter_add(target: np.ndarray, index, grad: np.ndarray) -> None:
    """Accumulate ``grad`` into ``target[index]``, duplicate-safe and fast.

    Three tiers: direct ``+=`` for duplicate-free (basic/bool) indices, a
    single-``bincount`` scatter for the integer-array gathers on the
    embedding hot path, and ``np.add.at`` as the general fallback.
    """
    if _is_basic_index(index):
        target[index] += grad
        return
    if (isinstance(index, np.ndarray) and index.dtype != np.bool_
            and target.ndim >= 1):
        rows = target.shape[0]
        tail = int(np.prod(target.shape[1:], dtype=np.int64))
        if rows * tail <= 50_000_000:
            flat_idx = np.asarray(index, dtype=np.int64).ravel() % rows
            grad2d = np.ascontiguousarray(grad).reshape(flat_idx.size, tail)
            composite = flat_idx[:, None] * tail + np.arange(tail)
            summed = np.bincount(composite.ravel(), weights=grad2d.ravel(),
                                 minlength=rows * tail)
            target += summed.reshape(target.shape)
            return
    np.add.at(target, index, grad)


def _released_backward(node: "Tensor") -> None:
    """The ``_backward`` of a node whose backward already ran; raises.

    ``Tensor.backward`` checks for it (passing the node, not a gradient) so
    the error can name the op, as recorded by anomaly mode.
    """
    meta = getattr(node, "_op_meta", None)
    op = f"op `{meta[0]}`" if meta else "a node"
    raise RuntimeError(
        f"backward() reached {op} whose backward already ran: a graph is "
        "single-use and is released as backward() consumes it; recompute "
        "the forward to backpropagate again"
        + ("" if meta else " (detect_anomaly() names the op)"))


def _unbroadcast(grad: np.ndarray, shape: Tuple[int, ...]) -> np.ndarray:
    """Sum ``grad`` down to ``shape``, undoing numpy broadcasting.

    When an operand of shape ``shape`` was broadcast up to ``grad.shape``
    during the forward pass, the chain rule requires summing the incoming
    gradient over every broadcast axis.
    """
    if grad.shape == shape:
        return grad
    # Sum over leading axes added by broadcasting.
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    # Sum over axes that were size-1 in the original shape.
    axes = tuple(i for i, dim in enumerate(shape) if dim == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


class Tensor:
    """A node in the autograd graph.

    Parameters
    ----------
    data:
        Array-like payload; coerced to ``float64``.
    requires_grad:
        Whether gradients should be accumulated into this tensor.
    """

    __slots__ = ("data", "grad", "requires_grad", "_backward", "_parents",
                 "_op_meta")

    def __init__(self, data: ArrayLike, requires_grad: bool = False) -> None:
        self.data = _as_array(data)
        self.grad: Optional[np.ndarray] = None
        self.requires_grad = bool(requires_grad)
        self._backward: Optional[Callable[[np.ndarray], None]] = None
        self._parents: Tuple["Tensor", ...] = ()
        # (op name, creation traceback) — populated only in anomaly mode.
        self._op_meta: Optional[Tuple[str, str]] = None

    # ------------------------------------------------------------------
    # Introspection helpers
    # ------------------------------------------------------------------
    @property
    def shape(self) -> Tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def T(self) -> "Tensor":
        return self.transpose()

    def __len__(self) -> int:
        return len(self.data)

    def __repr__(self) -> str:
        grad_flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor({np.array2string(self.data, precision=4)}{grad_flag})"

    def item(self) -> float:
        return float(self.data)

    def zero_grad(self) -> None:
        self.grad = None

    # ------------------------------------------------------------------
    # Pickling (process-boundary transport)
    # ------------------------------------------------------------------
    def __getstate__(self):
        """Pickle data/grad/flags only — a pickled tensor is detached.

        ``_backward`` closures and parent links cannot cross a process
        boundary; dropping them mirrors :meth:`detach` semantics, which is
        exactly what `repro.parallel` needs when shipping trained models
        to evaluation workers.
        """
        return (self.data, self.grad, self.requires_grad)

    def __setstate__(self, state) -> None:
        self.data, self.grad, self.requires_grad = state
        self._backward = None
        self._parents = ()
        self._op_meta = None

    # ------------------------------------------------------------------
    # Graph construction
    # ------------------------------------------------------------------
    @staticmethod
    def _make(data: np.ndarray, parents: Tuple["Tensor", ...],
              backward: Callable[[np.ndarray], None]) -> "Tensor":
        """Create a result tensor wired into the graph if any parent needs grad."""
        requires = any(p.requires_grad for p in parents)
        out = Tensor(data, requires_grad=requires)
        if requires:
            out._parents = parents
            out._backward = backward
        if _OBSERVER is not None:
            _OBSERVER.on_create(out, parents)
        return out

    def _accumulate(self, grad: np.ndarray, own: bool = False) -> None:
        """Add ``grad`` into this tensor's gradient buffer.

        ``own=True`` asserts the caller freshly allocated ``grad`` and holds
        no other reference, letting the buffer be adopted without the
        defensive copy — the engine's gradient-buffer reuse fast path.
        Closures that may pass through a shared upstream buffer (e.g. the
        identity branch of ``_unbroadcast``) must leave ``own`` False.
        """
        if _OBSERVER is not None:
            _OBSERVER.on_accumulate(self, grad)
        if self.grad is None:
            self.grad = grad if own else grad.copy()
        else:
            self.grad += grad

    def backward(self) -> None:
        """Backpropagate from this tensor, seeding its gradient with ones.

        Single use: each node's closure and parent links are released once
        its backward has run, so backpropagating through a consumed node
        again raises ``RuntimeError``.
        """
        if not self.requires_grad:
            raise RuntimeError("backward() called on a tensor that does not require grad")
        if self._backward is _released_backward:
            _released_backward(self)
        seed = np.ones_like(self.data)

        # Iterative post-order topological sort.  The stack holds plain
        # nodes; a node is emitted when popped for the second time, which
        # the `emitted` set distinguishes from the first visit — no
        # (node, flag) tuple allocation per push.
        topo: List[Tensor] = []
        topo_append = topo.append
        visited = set()
        visited_add = visited.add
        emitted = set()
        stack: List[Tensor] = [self]
        stack_pop = stack.pop
        stack_append = stack.append
        while stack:
            node = stack_pop()
            node_id = id(node)
            if node_id in emitted:
                continue
            if node_id in visited:
                emitted.add(node_id)
                topo_append(node)
                continue
            visited_add(node_id)
            stack_append(node)
            for parent in node._parents:
                if id(parent) not in visited:
                    stack_append(parent)

        observer = _OBSERVER
        if observer is not None:
            observer.on_backward_start(self, topo)
        self._accumulate(seed)
        try:
            # Popping (reverse topological order) drops the walk's own
            # reference to each node as it is consumed, so a node no caller
            # holds dies right after its backward instead of at the end.
            topo_pop = topo.pop
            while topo:
                node = topo_pop()
                backward = node._backward
                if backward is not None and node.grad is not None:
                    if backward is _released_backward:
                        _released_backward(node)
                    if observer is not None:
                        observer.on_node_backward(node)
                    backward(node.grad)
                    # Single use: dropping the closure and the parent links
                    # frees the forward's saved arrays now, not when the
                    # caller rebinds the root (a training loop's `loss`).
                    node._backward = _released_backward
                    node._parents = ()
                    # All consumers of an interior node have already run,
                    # so its gradient buffer is dead weight from here on.
                    # Leaves (no `_backward`) and the root keep their
                    # gradients for the caller.
                    if node is not self:
                        node.grad = None
        finally:
            if observer is not None:
                observer.on_backward_end(self)

    # ------------------------------------------------------------------
    # Elementwise arithmetic
    # ------------------------------------------------------------------
    def __add__(self, other: ArrayLike) -> "Tensor":
        other_t = other if isinstance(other, Tensor) else Tensor(other)
        out_data = self.data + other_t.data

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                g = _unbroadcast(grad, self.shape)
                self._accumulate(g, own=g is not grad)
            if other_t.requires_grad:
                g = _unbroadcast(grad, other_t.shape)
                other_t._accumulate(g, own=g is not grad)

        return Tensor._make(out_data, (self, other_t), backward)

    __radd__ = __add__

    def __neg__(self) -> "Tensor":
        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(-grad, own=True)

        return Tensor._make(-self.data, (self,), backward)

    def __sub__(self, other: ArrayLike) -> "Tensor":
        other_t = other if isinstance(other, Tensor) else Tensor(other)
        return self + (-other_t)

    def __rsub__(self, other: ArrayLike) -> "Tensor":
        return Tensor(other) + (-self)

    def __mul__(self, other: ArrayLike) -> "Tensor":
        other_t = other if isinstance(other, Tensor) else Tensor(other)
        out_data = self.data * other_t.data

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(_unbroadcast(grad * other_t.data, self.shape),
                                 own=True)
            if other_t.requires_grad:
                other_t._accumulate(_unbroadcast(grad * self.data,
                                                 other_t.shape), own=True)

        return Tensor._make(out_data, (self, other_t), backward)

    __rmul__ = __mul__

    def __truediv__(self, other: ArrayLike) -> "Tensor":
        other_t = other if isinstance(other, Tensor) else Tensor(other)
        out_data = self.data / other_t.data

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(_unbroadcast(grad / other_t.data, self.shape),
                                 own=True)
            if other_t.requires_grad:
                other_t._accumulate(
                    _unbroadcast(-grad * self.data / (other_t.data ** 2),
                                 other_t.shape), own=True)

        return Tensor._make(out_data, (self, other_t), backward)

    # ------------------------------------------------------------------
    # Matrix operations
    # ------------------------------------------------------------------
    def __matmul__(self, other: "Tensor") -> "Tensor":
        other_t = other if isinstance(other, Tensor) else Tensor(other)
        out_data = self.data @ other_t.data

        def backward(grad: np.ndarray) -> None:
            a, b = self.data, other_t.data
            if self.requires_grad:
                if b.ndim == 1:
                    grad_a = np.multiply.outer(grad, b) if a.ndim > 1 else grad * b
                elif a.ndim == 1:
                    grad_a = grad @ np.swapaxes(b, -1, -2)
                else:
                    grad_a = grad @ np.swapaxes(b, -1, -2)
                self._accumulate(_unbroadcast(grad_a, a.shape), own=True)
            if other_t.requires_grad:
                if a.ndim == 1:
                    grad_b = np.multiply.outer(a, grad) if b.ndim > 1 else a * grad
                elif b.ndim == 1:
                    grad_b = np.swapaxes(a, -1, -2) @ grad if a.ndim > 2 else a.T @ grad
                else:
                    grad_b = np.swapaxes(a, -1, -2) @ grad
                other_t._accumulate(_unbroadcast(grad_b, b.shape), own=True)

        return Tensor._make(out_data, (self, other_t), backward)

    def transpose(self, *axes: int) -> "Tensor":
        order = axes if axes else None
        out_data = np.transpose(self.data, order)
        if order is None:
            inverse = None
        else:
            inverse = tuple(np.argsort(order))

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(np.transpose(grad, inverse).copy(), own=True)

        return Tensor._make(out_data, (self,), backward)

    def reshape(self, *shape: int) -> "Tensor":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        out_data = self.data.reshape(shape)
        original = self.shape

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                g = grad.reshape(original)
                self._accumulate(g, own=g is not grad)

        return Tensor._make(out_data, (self,), backward)

    def __getitem__(self, index) -> "Tensor":
        out_data = self.data[index]

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                # np.zeros is calloc-backed: untouched pages stay unmapped,
                # which matters when the index selects a small slice of a
                # large tensor (the per-timestep input slices of an unroll).
                full = np.zeros(self.data.shape)
                _scatter_add(full, index, grad)
                self._accumulate(full, own=True)

        return Tensor._make(out_data, (self,), backward)

    # ------------------------------------------------------------------
    # Reductions
    # ------------------------------------------------------------------
    def sum(self, axis: Optional[Union[int, Tuple[int, ...]]] = None,
            keepdims: bool = False) -> "Tensor":
        out_data = self.data.sum(axis=axis, keepdims=keepdims)

        def backward(grad: np.ndarray) -> None:
            if not self.requires_grad:
                return
            g = grad
            if axis is not None and not keepdims:
                axes = (axis,) if isinstance(axis, int) else tuple(axis)
                g = np.expand_dims(g, axis=tuple(a % self.data.ndim for a in axes))
            self._accumulate(np.broadcast_to(g, self.shape).copy(), own=True)

        return Tensor._make(out_data, (self,), backward)

    def mean(self, axis: Optional[Union[int, Tuple[int, ...]]] = None,
             keepdims: bool = False) -> "Tensor":
        if axis is None:
            count = self.data.size
        else:
            axes = (axis,) if isinstance(axis, int) else tuple(axis)
            count = int(np.prod([self.shape[a % self.ndim] for a in axes]))
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / count)

    # ------------------------------------------------------------------
    # Elementwise nonlinearities
    # ------------------------------------------------------------------
    def exp(self) -> "Tensor":
        out_data = np.exp(self.data)

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad * out_data, own=True)

        return Tensor._make(out_data, (self,), backward)

    def log(self) -> "Tensor":
        out_data = np.log(self.data)

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad / self.data, own=True)

        return Tensor._make(out_data, (self,), backward)

    def sqrt(self) -> "Tensor":
        out_data = np.sqrt(self.data)

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad * 0.5 / out_data, own=True)

        return Tensor._make(out_data, (self,), backward)

    def abs(self) -> "Tensor":
        out_data = np.abs(self.data)

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad * np.sign(self.data), own=True)

        return Tensor._make(out_data, (self,), backward)

    def tanh(self) -> "Tensor":
        out_data = np.tanh(self.data)

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad * (1.0 - out_data ** 2), own=True)

        return Tensor._make(out_data, (self,), backward)

    def sigmoid(self) -> "Tensor":
        out_data = _stable_sigmoid(self.data)

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad * out_data * (1.0 - out_data), own=True)

        return Tensor._make(out_data, (self,), backward)

    def relu(self) -> "Tensor":
        mask = self.data > 0
        out_data = self.data * mask

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad * mask, own=True)

        return Tensor._make(out_data, (self,), backward)

    def clip(self, low: float, high: float) -> "Tensor":
        out_data = np.clip(self.data, low, high)
        mask = (self.data > low) & (self.data < high)

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad * mask, own=True)

        return Tensor._make(out_data, (self,), backward)


# ----------------------------------------------------------------------
# Free functions that combine several tensors
# ----------------------------------------------------------------------
def concat(tensors: Sequence[Tensor], axis: int = -1) -> Tensor:
    """Concatenate tensors along ``axis`` with gradient routing to each input."""
    tensors = list(tensors)
    out_data = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def backward(grad: np.ndarray) -> None:
        for tensor, start, stop in zip(tensors, offsets[:-1], offsets[1:]):
            if tensor.requires_grad:
                slicer = [slice(None)] * grad.ndim
                slicer[axis] = slice(start, stop)
                tensor._accumulate(grad[tuple(slicer)])

    return Tensor._make(out_data, tuple(tensors), backward)


def gradient_check(func: Callable[..., Tensor],
                   inputs: Iterable[Tensor]) -> float:
    """Return the max relative error between analytic and numeric gradients.

    ``func`` must produce a scalar tensor from ``inputs``; the numeric
    gradient is a central difference with step ``1e-6``.  Used extensively
    by the test-suite to validate every op in this module.
    """
    eps = 1e-6
    inputs = list(inputs)
    for tensor in inputs:
        tensor.zero_grad()
    out = func(*inputs)
    out.backward()
    worst = 0.0
    for tensor in inputs:
        analytic = (tensor.grad if tensor.grad is not None
                    else np.zeros_like(tensor.data))
        numeric = np.zeros_like(tensor.data)
        flat = tensor.data.ravel()
        numeric_flat = numeric.ravel()
        for i in range(flat.size):
            original = flat[i]
            flat[i] = original + eps
            plus = func(*inputs).data.item()
            flat[i] = original - eps
            minus = func(*inputs).data.item()
            flat[i] = original
            numeric_flat[i] = (plus - minus) / (2 * eps)
        denom = max(np.abs(analytic).max(), np.abs(numeric).max(), 1e-8)
        worst = max(worst, float(np.abs(analytic - numeric).max() / denom))
    return worst
