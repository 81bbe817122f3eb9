"""The docs index exactly the registered paper experiments.

DESIGN.md §4's "Bench target" column names each entry of
``repro.exp.EXPERIMENTS`` once as `` `repro <name>` ``, so a new entry
cannot ship unindexed and a deleted one cannot leave a stale row.  The
EXPERIMENTS.md headings name the same entries.
"""

import re
from pathlib import Path

from repro.exp import EXPERIMENTS

ROOT = Path(__file__).resolve().parents[1]
_COMMAND = re.compile(r"`repro (\w+)`")


def _section(text: str, heading: str) -> str:
    start = text.index(heading)
    end = text.find("\n## ", start + len(heading))
    return text[start:] if end < 0 else text[start:end]


def test_design_index_names_exactly_the_registry():
    section = _section((ROOT / "DESIGN.md").read_text(encoding="utf-8"),
                       "## 4. Per-experiment index")
    rows = [line.strip().strip("|").split("|")
            for line in section.splitlines() if line.startswith("|")]
    column = [cell.strip() for cell in rows[0]].index("Bench target")
    named = [name for row in rows[2:]
             for name in _COMMAND.findall(row[column])]
    assert len(named) == len(set(named)), f"duplicate rows: {named}"
    assert sorted(named) == sorted(EXPERIMENTS)


def test_experiments_md_headings_name_exactly_the_registry():
    text = (ROOT / "EXPERIMENTS.md").read_text(encoding="utf-8")
    named = [name for line in text.splitlines() if line.startswith("## ")
             for name in _COMMAND.findall(line)]
    assert len(named) == len(set(named)), f"duplicate headings: {named}"
    assert sorted(named) == sorted(EXPERIMENTS)
