"""The rule catalogue in ``docs/ANALYSIS.md`` matches the registered rules.

Every row of the gradlint and racelint tables names one rule id and its
name; the set of rows must be exactly ``repro.analysis.rules.all_rules()``,
so a deleted rule cannot leave a stale row and a new rule cannot ship
undocumented.
"""

import re
from pathlib import Path

from repro.analysis.rules import all_rules

ANALYSIS_MD = Path(__file__).resolve().parents[1] / "docs" / "ANALYSIS.md"

_ROW = re.compile(r"^\| ([A-Z]{2}\d{3}) \| `([a-z0-9-]+)` \|", re.M)


def test_rule_table_lists_exactly_the_registered_rules():
    documented = _ROW.findall(ANALYSIS_MD.read_text(encoding="utf-8"))
    ids = [rule_id for rule_id, _ in documented]
    assert len(ids) == len(set(ids)), f"duplicate rows: {sorted(ids)}"
    registered = {rule.id: rule.name for rule in all_rules()}
    assert dict(documented) == registered
