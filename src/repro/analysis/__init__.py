"""`repro.analysis` — correctness tooling for the autograd substrate.

Three halves (see ``docs/ANALYSIS.md``):

**gradlint / racelint** — an AST-based static lint suite with
autograd-specific rules (GL family: missing ``_unbroadcast`` in backward
closures, graph-bypassing numpy math on ``Tensor.data``, unsanctioned
in-place mutation, legacy ``np.random`` global-state calls, swallowed
exceptions, ``__all__`` drift) and concurrency rules (CL family: unguarded
shared-state mutation, bare acquire/release, blocking calls under a lock,
static lock-order inversions, undeclared thread lifecycle).  Run it as
``python -m repro.analysis src``; restrict to one family with
``--rules CL``; suppress individual findings with
``# gradlint: disable=RULE — justification``.

**gradient sanitizer** — an opt-in runtime anomaly mode à la
``torch.autograd.detect_anomaly`` that attributes NaN/Inf forward
values and gradients to the op that created the offending node and
enforces the gradient shape contract.  Enable with
:func:`detect_anomaly`, or pass
``--detect-anomaly`` to the training CLI.

**thread sanitizer** — an opt-in runtime lock instrumentation layer that
detects lock-order inversions, long holds, and torn reads of
generation-counted serving artifacts, attributing each finding to the
recorded acquisition stacks.  Enable with :func:`threadsan`, or pass
``--thread-sanitizer`` to the serve CLI.
"""

from .concurrency import (ConcurrencyFinding, LockProxy, ThreadSanitizer,
                          threadsan)
from .engine import LintEngine, discover_files, lint_paths
from .report import Finding, Report, rule_family
from .rules import all_rules
from .sanitizer import (GradientAnomalyError, GradientSanitizer,
                        anomaly_mode_enabled, detect_anomaly)

__all__ = [
    "LintEngine", "lint_paths", "discover_files",
    "Finding", "Report", "rule_family", "all_rules",
    "GradientSanitizer", "GradientAnomalyError",
    "detect_anomaly", "anomaly_mode_enabled",
    "ThreadSanitizer", "ConcurrencyFinding", "LockProxy", "threadsan",
]
