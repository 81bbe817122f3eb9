"""The user-facing docs point only at files that exist.

Covers ``README.md``, ``DESIGN.md``, ``EXPERIMENTS.md`` and ``docs/*.md``:
every relative markdown link, and every back-ticked repo path (inline or
in a fenced block) starting with ``src/``, ``tests/``, ``benchmarks/``,
``docs/`` or ``examples/``, or naming an upper-case ``*.json`` artifact at
the repo root, must resolve.  Lower-case ``*.json`` names (``header.json``)
are files a program writes at run time, not repo files.  Every back-ticked
dotted name ``repro.<module>...`` whose second part is a module or package
under ``src/repro`` must resolve by import plus ``getattr``; other
``repro.*`` strings (the ``repro.eventlog`` format tag) are not code.
In every ```` ```python ```` fence, each call of a name imported from
``repro`` must bind its arguments to that name's signature.
"""

import ast
import importlib
import inspect
import re
import textwrap
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DOCS = [ROOT / "README.md", ROOT / "DESIGN.md", ROOT / "EXPERIMENTS.md",
        *sorted((ROOT / "docs").glob("*.md"))]

_CODE = re.compile(r"^```.*?^```|`[^`\n]+`", re.M | re.S)
_PATH = re.compile(r"(?<![\w./-])((?:src|tests|benchmarks|docs|examples)/"
                   r"[\w./*-]*|[A-Z][A-Z0-9_]*\.json\b)")
_LINK = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")
_DOTTED = re.compile(r"(?<![\w./-])repro(?:\.\w+)+")
_MODULES = {path.stem for path in (ROOT / "src" / "repro").iterdir()
            if path.suffix == ".py" or (path / "__init__.py").exists()}


def _exists(reference: str) -> bool:
    path = reference.split("::")[0].rstrip(".")
    if "*" in path:
        return any(ROOT.glob(path))
    return (ROOT / path).exists()


@pytest.mark.parametrize("doc", DOCS, ids=lambda doc: doc.name)
def test_references_resolve(doc):
    text = doc.read_text(encoding="utf-8")
    broken = [reference for code in _CODE.findall(text)
              for reference in _PATH.findall(code)
              if not _exists(reference)]
    broken += [target for target in _LINK.findall(text)
               if not re.match(r"[a-z]+:|#", target)
               and not (doc.parent / target.split("#")[0]).exists()]
    assert not broken, f"{doc.name} points at missing files: {broken}"
    assert not re.search(r"python -m repro\.bench\b", text)


def _resolves(dotted: str) -> bool:
    """Import the longest module prefix of ``dotted``, getattr the rest."""
    parts = dotted.split(".")
    for split in range(len(parts), 0, -1):
        module = ".".join(parts[:split])
        try:
            obj = importlib.import_module(module)
        except ModuleNotFoundError as exc:
            if not (module + ".").startswith(f"{exc.name}."):
                raise  # a real import error inside an existing module
            continue
        for attr in parts[split:]:
            if not hasattr(obj, attr):
                return False
            obj = getattr(obj, attr)
        return True
    return False


@pytest.mark.parametrize("doc", DOCS, ids=lambda doc: doc.name)
def test_module_names_resolve(doc):
    text = doc.read_text(encoding="utf-8")
    names = {name for code in _CODE.findall(text)
             for name in _DOTTED.findall(code)
             if name.split(".")[1] in _MODULES}
    broken = sorted(name for name in names if not _resolves(name))
    assert not broken, f"{doc.name} names missing code: {broken}"


_PYTHON = re.compile(r"^([ \t]*)```python[^\n]*\n(.*?)^\1```", re.M | re.S)


def _repro_calls(source: str):
    """``(call, imported object)`` for each call of a name the snippet
    imports from ``repro``."""
    tree = ast.parse(source)
    imported = {alias.asname or alias.name: (node.module, alias.name)
                for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom)
                and (node.module or "").split(".")[0] == "repro"
                for alias in node.names}
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) \
                and node.func.id in imported:
            module, name = imported[node.func.id]
            yield node, getattr(importlib.import_module(module), name)


@pytest.mark.parametrize("doc", DOCS, ids=lambda doc: doc.name)
def test_snippet_calls_bind(doc):
    """A documented call passes only arguments its target takes."""
    broken = []
    for _, fence in _PYTHON.findall(doc.read_text(encoding="utf-8")):
        for call, target in _repro_calls(textwrap.dedent(fence)):
            starred = any(isinstance(arg, ast.Starred) for arg in call.args)
            positional = [] if starred else [None] * len(call.args)
            keywords = {k.arg: None for k in call.keywords if k.arg}
            try:
                inspect.signature(target).bind_partial(*positional,
                                                       **keywords)
            except TypeError as exc:
                broken.append(f"{ast.unparse(call)}: {exc}")
    assert not broken, f"{doc.name} shows calls that raise: {broken}"
