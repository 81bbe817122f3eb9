"""Runtime gradient sanitizer — an opt-in anomaly mode for the autograd engine.

Analogous to ``torch.autograd.detect_anomaly``: when enabled, every
graph node records the op that created it plus a short creation traceback,
and the engine's hook points (see :mod:`repro.nn.tensor`) let the sanitizer

* reject non-finite values the moment an op produces them in the forward
  pass,
* re-scan the whole graph at ``backward()`` time, so a tensor *poisoned
  after creation* (e.g. an in-place write) is still attributed to its
  creating op,
* validate the gradient shape contract — after un-broadcasting, the
  gradient accumulated into a tensor must match the tensor's own shape,
* flag NaN/Inf gradients as they are accumulated, naming the op whose
  backward closure produced them.

The mode costs one ``np.isfinite`` sweep per op and is strictly opt-in;
with anomaly mode off the engine pays a single ``is None`` check per hook.

Usage::

    from repro.analysis import detect_anomaly

    with detect_anomaly():
        loss = model.training_loss(batch)
        loss.backward()
"""

from __future__ import annotations

import contextlib
import sys
import traceback
from typing import Iterator, Optional, Sequence, Tuple

import numpy as np

from ..nn import tensor as tensor_mod
from ..nn.tensor import Tensor


class GradientAnomalyError(RuntimeError):
    """Raised by the sanitizer when the autograd graph misbehaves.

    Attributes
    ----------
    kind:
        ``"forward"`` (non-finite op output), ``"poisoned"`` (non-finite
        value found during the pre-backward graph scan), ``"gradient"``
        (non-finite accumulated gradient) or ``"shape"`` (gradient/tensor
        shape contract violation).
    op:
        Name of the creating op of the offending node, when known.
    where:
        Formatted creation traceback of the offending node, when recorded.
    """

    def __init__(self, message: str, kind: str, op: Optional[str] = None,
                 where: Optional[str] = None) -> None:
        details = [message]
        if where:
            details.append("Node created at (most recent call last):\n" + where)
        super().__init__("\n".join(details))
        self.kind = kind
        self.op = op
        self.where = where


def _describe(data: np.ndarray) -> str:
    data = np.asarray(data)
    nan = int(np.isnan(data).sum())
    inf = int(np.isinf(data).sum())
    return (f"shape {data.shape}: {nan} NaN / {inf} Inf "
            f"of {data.size} element(s)")


#: Stack frames recorded per graph node (innermost last).
STACK_DEPTH = 6


class GradientSanitizer:
    """Observer plugged into :mod:`repro.nn.tensor`'s hook points."""

    def __init__(self) -> None:
        self._current: Optional[Tensor] = None

    # -- helpers --------------------------------------------------------
    def _node_meta(self, node: Optional[Tensor]) -> Tuple[str, Optional[str]]:
        meta = getattr(node, "_op_meta", None) if node is not None else None
        if meta is None:
            return "<unknown op>", None
        return meta

    # -- hook points (called by repro.nn.tensor) ------------------------
    def on_create(self, out: Tensor, parents: Sequence[Tensor]) -> None:
        """Record provenance for ``out`` and reject non-finite op outputs."""
        # Frame 0 is this method, 1 is Tensor._make, 2 is the op itself
        # (Tensor.__add__, concat, ...).
        frame = sys._getframe(2)
        op = frame.f_code.co_name
        where = "".join(traceback.format_list(
            traceback.extract_stack(frame, limit=STACK_DEPTH)))
        out._op_meta = (op, where)
        if not np.all(np.isfinite(out.data)):
            raise GradientAnomalyError(
                f"op `{op}` produced a non-finite forward value "
                f"({_describe(out.data)})", kind="forward", op=op, where=where)

    def on_backward_start(self, root: Tensor,
                          topo: Sequence[Tensor]) -> None:
        """Scan every node's forward value before gradients start flowing."""
        for node in topo:
            if not np.all(np.isfinite(node.data)):
                op, where = self._node_meta(node)
                raise GradientAnomalyError(
                    f"non-finite forward value detected in the graph at "
                    f"backward() time ({_describe(node.data)}); the "
                    f"offending node was created by op `{op}`",
                    kind="poisoned", op=op, where=where)

    def on_node_backward(self, node: Tensor) -> None:
        self._current = node

    def on_backward_end(self, root: Tensor) -> None:
        self._current = None

    def on_accumulate(self, target: Tensor, grad: np.ndarray) -> None:
        """Shape contract + finiteness of every accumulated gradient."""
        op, where = self._node_meta(self._current)
        grad = np.asarray(grad)
        if grad.shape != target.data.shape:
            raise GradientAnomalyError(
                f"gradient shape contract violated: backward of op `{op}` "
                f"accumulated a gradient of shape {grad.shape} into a "
                f"tensor of shape {target.data.shape} (missing "
                f"`_unbroadcast`?)", kind="shape", op=op, where=where)
        if not np.all(np.isfinite(grad)):
            raise GradientAnomalyError(
                f"backward of op `{op}` produced a non-finite gradient "
                f"({_describe(grad)})", kind="gradient", op=op, where=where)


# ----------------------------------------------------------------------
# Mode management
# ----------------------------------------------------------------------
def anomaly_mode_enabled() -> bool:
    return isinstance(tensor_mod.graph_observer(), GradientSanitizer)


@contextlib.contextmanager
def detect_anomaly() -> Iterator[GradientSanitizer]:
    """Scoped anomaly mode; restores the previous observer on exit."""
    sanitizer = GradientSanitizer()
    previous = tensor_mod.set_graph_observer(sanitizer)
    try:
        yield sanitizer
    finally:
        tensor_mod.set_graph_observer(previous)
