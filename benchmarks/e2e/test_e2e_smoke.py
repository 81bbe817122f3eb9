"""Smoke test of the end-to-end benchmark (outside the tier-1 testpaths).

    python -m pytest benchmarks/e2e

Runs every workload of ``BENCHMARK.json`` on the ``smoke`` profile,
untraced and traced, and checks that every metric is printed with its
unit, that every correctness gate passes, and that every non-root span
in both span dumps has its parent.
"""

from __future__ import annotations

import json
import math
import re
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
BUDGET_S = 90.0


def _sections(stdout: str) -> dict:
    sections, current = {}, None
    for line in stdout.splitlines():
        header = re.fullmatch(r"== (\S+) ==", line)
        if header:
            current = sections.setdefault(header.group(1), [])
        elif current is not None:
            current.append(line)
    return sections


def _printed(lines, name: str, unit: str) -> list:
    pattern = rf"{re.escape(name)} (\S+) {re.escape(unit)}"
    return [float(m.group(1)) for m in
            (re.fullmatch(pattern, line) for line in lines) if m]


def _run(trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--profile", "smoke",
         "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=4 * BUDGET_S)
    assert proc.returncode == 0, proc.stdout + proc.stderr[-5000:]
    return _sections(proc.stdout)


def _check(lines, workload: str, metrics) -> None:
    for metric in metrics:
        values = _printed(lines, metric["name"], metric["unit"])
        assert values, f"{workload}: {metric['name']} not printed"
        assert math.isfinite(values[0]), (workload, metric)
    gates = [line for line in lines if line.startswith("gate ")]
    assert gates, f"{workload}: no correctness gates ran"
    assert not [g for g in gates if " FAIL " in g], gates


def test_smoke_profile_untraced_and_traced():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    started = time.monotonic()
    untraced, traced = _run(0), _run(1)
    elapsed = time.monotonic() - started
    assert elapsed < BUDGET_S, f"smoke runs took {elapsed:.0f} s"

    for workload in spec["workloads"]:
        name = workload["name"]
        _check(untraced[name], name, spec["end_to_end"])
        _check(traced[name], name, spec["end_to_end"] + spec["per_layer"])
        assert _printed(traced[name], "trace.orphan_spans", "count") == [0.0]
        assert any(line.startswith("gate trace_spans_linked ok")
                   for line in traced[name])
        assert any(line.startswith("gate trace_parity ok")
                   for line in traced[name])
