"""Reachability guard: no public code in ``src/repro`` that only tests reach.

Every public (no leading underscore) top-level function or class in
``src/repro/**/*.py`` must be used by the program itself: some file in
``src/``, ``examples/`` or ``benchmarks/`` mentions it as an ``ast.Name``
or as the attribute of an ``ast.Attribute``. Mentions inside import
statements, inside ``__all__`` and inside the name's own definition do
not count, so re-exports and recursion cannot keep a name alive. Tests do
not count either: code that only a test reaches is deleted, unless
``KEEP`` lists it with the reason a test needs it.
"""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parents[1]
SOURCE = ROOT / "src" / "repro"
PROGRAM_DIRS = ("src", "examples", "benchmarks")

#: Names only tests use, kept because they are references or seams.
KEEP = {
    "gradient_check": "finite-difference reference for autograd tests",
    "polynomial_h_value": "truncated-series reference for h(W) tests",
    "ExactIndex": "brute-force oracle the IVF recall tests compare against",
    "clear_expm_cache": "resets the expm cache between cache tests",
    "anomaly_mode_enabled": "lets tests see detect_anomaly() restore the mode",
    "lint_paths": "in-process gradlint entry point for analysis tests",
    "quick_settings": "smallest experiment settings for harness tests",
    "registered_model_classes": "read-only registry view for round-trip tests",
    "InProcessClient": "socket-free client the serving tests drive",
}


class _Uses(ast.NodeVisitor):
    """Collect ``Name`` ids and ``Attribute`` attrs outside imports/__all__."""

    def __init__(self) -> None:
        self.names = set()

    def visit_Import(self, node) -> None:
        pass

    visit_ImportFrom = visit_Import

    def visit_Assign(self, node) -> None:
        if any(isinstance(t, ast.Name) and t.id == "__all__"
               for t in node.targets):
            return
        self.generic_visit(node)

    def visit_Name(self, node) -> None:
        self.names.add(node.id)

    def visit_Attribute(self, node) -> None:
        self.names.add(node.attr)
        self.generic_visit(node)


def _uses(nodes) -> set:
    visitor = _Uses()
    for node in nodes:
        visitor.visit(node)
    return visitor.names


def _public_defs(tree):
    return [node for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef))
            and not node.name.startswith("_")]


def _unreached():
    """``(module path, name)`` for every public definition nothing uses."""
    trees = {path: ast.parse(path.read_text(), filename=str(path))
             for folder in PROGRAM_DIRS
             for path in sorted((ROOT / folder).rglob("*.py"))}
    uses = {path: _uses([tree]) for path, tree in trees.items()}
    unreached = []
    for path, tree in trees.items():
        if SOURCE not in path.parents:
            continue
        for definition in _public_defs(tree):
            name = definition.name
            own_module = _uses(node for node in tree.body
                               if node is not definition)
            if name in own_module or any(
                    name in names for other, names in uses.items()
                    if other != path):
                continue
            unreached.append((str(path.relative_to(ROOT)), name))
    return unreached


def test_every_public_name_is_reached():
    unreached = [f"{path}: {name}" for path, name in _unreached()
                 if name not in KEEP]
    assert not unreached, (
        "public names that nothing in src/, examples/ or benchmarks/ uses; "
        "delete them or add them to KEEP with a reason:\n  "
        + "\n  ".join(unreached))


def test_keep_entries_are_defined():
    defined = {definition.name
               for path in SOURCE.rglob("*.py")
               for definition in _public_defs(ast.parse(path.read_text()))}
    assert not set(KEEP) - defined, "stale KEEP entries"
