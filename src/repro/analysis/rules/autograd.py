"""Autograd-specific lint rules (GL001–GL003).

These target the failure modes of the hand-rolled reverse-mode engine in
:mod:`repro.nn.tensor`:

* a backward closure that pushes a broadcast-shaped gradient into an
  operand without summing it back down (``_unbroadcast``) silently corrupts
  every downstream update;
* numpy math on ``Tensor.data`` inside the differentiable layers detaches
  the value from the graph, so its gradient is silently dropped;
* in-place writes to ``.data``/``.grad`` outside the sanctioned engine
  sites invalidate values already captured by backward closures.
"""

from __future__ import annotations

import ast
from typing import Iterator, Optional, Tuple

from ..report import Finding
from .base import LintContext, Rule, attribute_chain, contains_data_attribute

#: Files that implement differentiable ops on top of Tensor and therefore
#: must route every value through the graph (GL002 scope).
GRAPH_LAYER_SUFFIXES = ("nn/functional.py", "nn/rnn.py", "nn/attention.py")

#: Files allowed to mutate ``.data``/``.grad`` in place: the engine itself,
#: the optimizers (parameter updates are the whole point) and the module
#: plumbing (``load_state_dict``, padding-row re-zeroing) — GL003 scope.
SANCTIONED_MUTATION_SUFFIXES = ("nn/tensor.py", "nn/optim.py", "nn/module.py")


def _accumulate_target(call: ast.Call) -> Optional[str]:
    """Name of ``X`` in an ``X._accumulate(...)`` call, else ``None``."""
    func = call.func
    if (isinstance(func, ast.Attribute) and func.attr == "_accumulate"
            and isinstance(func.value, ast.Name)):
        return func.value.id
    return None


class MissingUnbroadcastRule(Rule):
    """GL001 — backward closure accumulates a foreign-operand product raw.

    Inside a ``def backward(grad)`` closure, ``X._accumulate(expr)`` where
    ``expr`` references ``.data`` of a tensor *other than X* must wrap the
    expression in ``_unbroadcast(..., X.shape)``: the foreign operand may
    have been broadcast during the forward pass, and the raw product then
    carries the broadcast shape instead of ``X``'s.
    """

    id = "GL001"
    name = "missing-unbroadcast"
    severity = "error"
    description = ("backward closure accumulates a gradient built from "
                   "another operand's .data without _unbroadcast")
    node_types = (ast.FunctionDef,)

    def check_node(self, node: ast.AST, ctx: LintContext) -> Iterator[Finding]:
        assert isinstance(node, ast.FunctionDef)
        if node.name != "backward":
            return
        for call in ast.walk(node):
            if not isinstance(call, ast.Call):
                continue
            target = _accumulate_target(call)
            if target is None or not call.args:
                continue
            arg = call.args[0]
            if self._is_guarded(arg):
                continue
            foreign = self._foreign_data_reference(arg, target)
            if foreign is not None:
                yield self.finding(
                    ctx, call,
                    f"`{target}._accumulate(...)` uses `{foreign}.data` "
                    f"without `_unbroadcast(..., {target}.shape)`; if "
                    f"`{foreign}` was broadcast in the forward pass the "
                    f"gradient keeps the broadcast shape")

    @staticmethod
    def _is_guarded(arg: ast.AST) -> bool:
        """True when the accumulated expression is `_unbroadcast(...)`."""
        return (isinstance(arg, ast.Call)
                and isinstance(arg.func, ast.Name)
                and arg.func.id == "_unbroadcast")

    @staticmethod
    def _foreign_data_reference(arg: ast.AST, target: str) -> Optional[str]:
        for sub in ast.walk(arg):
            if (isinstance(sub, ast.Attribute) and sub.attr == "data"
                    and isinstance(sub.value, ast.Name)
                    and sub.value.id != target):
                return sub.value.id
        return None


class GraphBypassRule(Rule):
    """GL002 — numpy math on ``Tensor.data`` inside differentiable layers.

    In the graph-building layers (``nn/functional.py``, ``nn/rnn.py``,
    ``nn/attention.py``) any ``np.fn(x.data)`` or ``x.data.method()``
    produces a value the autograd graph cannot see.  Intentional detaches
    (e.g. the stable-softmax max shift, whose gradient contribution cancels)
    must carry an inline suppression explaining why.
    """

    id = "GL002"
    name = "graph-bypass"
    severity = "error"
    description = ("direct numpy call on Tensor.data inside a "
                   "differentiable layer bypasses the autograd graph")
    node_types = (ast.Call,)

    def applies_to(self, ctx: LintContext) -> bool:
        return ctx.path_endswith(*GRAPH_LAYER_SUFFIXES)

    def check_node(self, node: ast.AST, ctx: LintContext) -> Iterator[Finding]:
        assert isinstance(node, ast.Call)
        func = node.func
        # Pattern (a): method call on a `.data` chain — `x.data.max(...)`.
        if isinstance(func, ast.Attribute) and contains_data_attribute(func):
            yield self.finding(
                ctx, node,
                f"numpy method `{func.attr}` called directly on Tensor.data "
                f"— the result is detached from the autograd graph")
            return
        # Pattern (b): `np.fn(... x.data ...)`.
        chain = attribute_chain(func)
        if chain.startswith(("np.", "numpy.")):
            for arg in list(node.args) + [kw.value for kw in node.keywords]:
                if contains_data_attribute(arg):
                    yield self.finding(
                        ctx, node,
                        f"`{chain}` applied to Tensor.data — the result is "
                        f"detached from the autograd graph")
                    break


class InPlaceMutationRule(Rule):
    """GL003 — in-place write to ``.data``/``.grad`` outside the engine.

    Backward closures capture forward values by reference; mutating a
    tensor's ``.data`` after graph construction silently changes what the
    closure will read.  Only the engine, optimizers and module plumbing are
    sanctioned; everything else needs a justifying suppression.
    """

    id = "GL003"
    name = "inplace-mutation"
    severity = "error"
    description = ("in-place mutation of Tensor.data/.grad outside "
                   "sanctioned engine/optimizer sites")
    node_types = (ast.Assign, ast.AugAssign)

    def applies_to(self, ctx: LintContext) -> bool:
        return not ctx.path_endswith(*SANCTIONED_MUTATION_SUFFIXES)

    def check_node(self, node: ast.AST, ctx: LintContext) -> Iterator[Finding]:
        targets: Tuple[ast.AST, ...]
        if isinstance(node, ast.Assign):
            targets = tuple(node.targets)
        else:
            assert isinstance(node, ast.AugAssign)
            targets = (node.target,)
        for target in targets:
            attr = self._mutated_attribute(target,
                                           augmented=isinstance(node, ast.AugAssign))
            if attr is not None:
                yield self.finding(
                    ctx, node,
                    f"in-place write to `.{attr}` outside the autograd "
                    f"engine/optimizers; backward closures may hold stale "
                    f"references to the old buffer")

    @staticmethod
    def _mutated_attribute(target: ast.AST, augmented: bool) -> Optional[str]:
        # `x.data[...] = v` / `x.data[...] += v` — subscript store.
        if isinstance(target, ast.Subscript):
            inner = target.value
            if isinstance(inner, ast.Attribute) and inner.attr in ("data", "grad"):
                return inner.attr
            return None
        # `x.data += v` / `x.grad += v` — augmented attribute store.
        if augmented and isinstance(target, ast.Attribute) \
                and target.attr in ("data", "grad"):
            return target.attr
        # `x.grad = v` — rebinding the gradient buffer.  Plain `.data = v`
        # assignments are deliberately not flagged: ordinary classes (e.g.
        # dataset wrappers) legitimately own a `data` attribute.
        if not augmented and isinstance(target, ast.Attribute) \
                and target.attr == "grad":
            return target.attr
        return None

