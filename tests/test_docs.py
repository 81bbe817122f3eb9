"""The user-facing docs point only at files that exist.

Covers ``README.md``, ``DESIGN.md``, ``EXPERIMENTS.md`` and ``docs/*.md``:
every relative markdown link, and every back-ticked repo path (inline or
in a fenced block) starting with ``src/``, ``tests/``, ``benchmarks/``,
``docs/`` or ``examples/``, or naming an upper-case ``*.json`` artifact at
the repo root, must resolve.  Lower-case ``*.json`` names (``header.json``)
are files a program writes at run time, not repo files.
"""

import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DOCS = [ROOT / "README.md", ROOT / "DESIGN.md", ROOT / "EXPERIMENTS.md",
        *sorted((ROOT / "docs").glob("*.md"))]

_CODE = re.compile(r"^```.*?^```|`[^`\n]+`", re.M | re.S)
_PATH = re.compile(r"(?<![\w./-])((?:src|tests|benchmarks|docs|examples)/"
                   r"[\w./*-]*|[A-Z][A-Z0-9_]*\.json\b)")
_LINK = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")


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
