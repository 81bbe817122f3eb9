"""`repro.core` — the paper's primary contribution.

The Causer framework (§III): differentiable item clustering (eqs. 6–8), the
cluster-level causal graph with NOTEARS acyclicity (eq. 9 + constraint),
the causally-filtered sequential model (eq. 10), the augmented-Lagrangian
trainer (Algorithm 1) and the explanation machinery (§V-E).
"""

from .causal_graph import ClusterCausalGraph
from .causer import Causer
from .clustering import ItemClusterModule
from .config import CauserConfig, ablation_config
from .explain import (ExplanationBreakdown, explanation_breakdown,
                      format_case_study, make_explainer)

__all__ = [
    "Causer", "CauserConfig", "ablation_config",
    "ItemClusterModule", "ClusterCausalGraph",
    "ExplanationBreakdown", "explanation_breakdown", "make_explainer",
    "format_case_study",
]
