"""Reachability guard: no code in ``src/repro`` that only tests reach.

Two levels are checked:

* Every public (no leading underscore) top-level function or class in
  ``src/repro/**/*.py`` must be used by the program itself: some file in
  ``src/``, ``examples/`` or ``benchmarks/`` mentions it as an
  ``ast.Name`` or as the attribute of an ``ast.Attribute``.
* Every non-dunder method of every class in ``src/repro`` must be used
  the same way, or appear as a token of a string constant that is not a
  docstring (so ``"Class.method"`` trace sites and ``getattr`` names
  count).

Mentions inside import statements, inside ``__all__`` and inside the
definition itself do not count, so re-exports and recursion cannot keep a
name alive.  Tests do not count either: code that only a test reaches is
deleted, unless ``KEEP`` lists it with the reason a test needs it.
"""

import ast
import collections
import pathlib
import re

ROOT = pathlib.Path(__file__).resolve().parents[1]
SOURCE = ROOT / "src" / "repro"
PROGRAM_DIRS = ("src", "examples", "benchmarks")
_TOKEN = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")

#: Names only tests use, kept because they are references or seams, and
#: callbacks the standard library calls by name.  Methods are written
#: ``Class.method``.
KEEP = {
    "gradient_check": "finite-difference reference for autograd tests",
    "polynomial_h_value": "truncated-series reference for h(W) tests",
    "is_dag": "acyclicity check the tests of every DAG output assert with",
    "ExactIndex": "brute-force oracle the IVF recall tests compare against",
    "anomaly_mode_enabled": "lets tests see detect_anomaly() restore the mode",
    "lint_paths": "in-process gradlint entry point for analysis tests",
    "quick_settings": "smallest experiment settings for harness tests",
    "registered_model_classes": "read-only registry view for round-trip tests",
    "InProcessClient": "socket-free client the serving tests drive",
    "_Handler.do_GET": "http.server calls it by name for each GET; the HTTP "
                       "tests drive it",
    "_Handler.do_POST": "http.server calls it by name for each POST; the "
                        "HTTP tests drive it",
    "_Handler.log_message": "http.server calls it per request; the override "
                            "keeps access logs off stderr",
    "PaddedBatch.flat_history_sets": "per-row history sets the batching "
                                     "and negative-sampling tests check "
                                     "against",
    "BehaviorSimulator.preferred_effects": "ground-truth affinity the "
                                           "simulator tests check for "
                                           "determinism and cluster "
                                           "membership",
    "SyntheticDataset.item_causal_matrix": "item-level truth the causal "
                                           "discovery tests score against",
    "ThreadSanitizer.wrap_lock": "wraps a test-built lock so the sanitizer "
                                 "tests can seed findings on it",
    "LockProxy.locked": "completes the Lock protocol for the code the "
                        "sanitizer tests run with proxied locks",
    "MetricsRegistry.counter_value": "read seam the serving and online "
                                     "tests assert counters through",
    "MetricsRegistry.gauge_value": "read seam the online tests assert "
                                   "gauges through",
    "MetricsRegistry.percentiles": "read seam the serving tests assert "
                                   "latency summaries through",
    "MetricsRegistry.observation_count": "read seam the serving tests "
                                         "assert observation counts through",
    "QuantizedTable.nbytes": "the quantization tests assert the int8 table "
                             "is smaller through it",
}


def _docstrings(tree) -> set:
    """``id`` of every docstring constant in ``tree``."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr)
                    and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                found.add(id(first.value))
    return found


class _Uses(ast.NodeVisitor):
    """Count ``Name`` ids and ``Attribute`` attrs outside imports/__all__.

    Given the ``docstrings`` of its module it also counts the identifier
    tokens of every other string constant.
    """

    def __init__(self, node, docstrings=None) -> None:
        self.names = collections.Counter()
        self._docstrings = docstrings
        self.visit(node)

    def visit_Import(self, node) -> None:
        pass

    visit_ImportFrom = visit_Import

    def visit_Assign(self, node) -> None:
        if any(isinstance(t, ast.Name) and t.id == "__all__"
               for t in node.targets):
            return
        self.generic_visit(node)

    def visit_Name(self, node) -> None:
        self.names[node.id] += 1

    def visit_Attribute(self, node) -> None:
        self.names[node.attr] += 1
        self.generic_visit(node)

    def visit_Constant(self, node) -> None:
        if (self._docstrings is not None and isinstance(node.value, str)
                and id(node) not in self._docstrings):
            self.names.update(_TOKEN.findall(node.value))


def _public_defs(tree):
    return [node for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef))
            and not node.name.startswith("_")]


def _methods(tree):
    """``(qualified name, node)`` of every non-dunder method in ``tree``."""
    for cls in ast.walk(tree):
        if not isinstance(cls, ast.ClassDef):
            continue
        for node in cls.body:
            if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                    and not (node.name.startswith("__")
                             and node.name.endswith("__"))):
                yield f"{cls.name}.{node.name}", node


def _program():
    return {path: ast.parse(path.read_text(), filename=str(path))
            for folder in PROGRAM_DIRS
            for path in sorted((ROOT / folder).rglob("*.py"))}


def _unreached(trees, level):
    """``(module path, name)`` for every definition nothing else uses."""
    docstrings = {path: _docstrings(tree) if level == "method" else None
                  for path, tree in trees.items()}
    uses = {path: _Uses(tree, docstrings[path]).names
            for path, tree in trees.items()}
    unreached = []
    for path, tree in trees.items():
        if SOURCE not in path.parents:
            continue
        if level == "method":
            definitions = list(_methods(tree))
        else:
            definitions = [(node.name, node) for node in _public_defs(tree)]
        for qualified, definition in definitions:
            name = definition.name
            own = _Uses(definition, docstrings[path]).names
            if uses[path][name] > own[name] or any(
                    names[name] for other, names in uses.items()
                    if other != path):
                continue
            unreached.append((str(path.relative_to(ROOT)), qualified))
    return unreached


def _report(level):
    unreached = [f"{path}: {name}" for path, name in _unreached(_program(),
                                                                 level)
                 if name not in KEEP]
    assert not unreached, (
        f"{level}s that nothing in src/, examples/ or benchmarks/ uses; "
        "delete them or add them to KEEP with a reason:\n  "
        + "\n  ".join(unreached))


def test_every_public_name_is_reached():
    _report("name")


def test_every_method_is_reached():
    _report("method")


def test_keep_entries_are_defined():
    defined = set()
    for path in SOURCE.rglob("*.py"):
        tree = ast.parse(path.read_text())
        defined.update(definition.name for definition in _public_defs(tree))
        defined.update(qualified for qualified, _ in _methods(tree))
    assert not set(KEEP) - defined, "stale KEEP entries"
