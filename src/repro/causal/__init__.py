"""`repro.causal` — causal discovery substrate.

Implements the NOTEARS machinery the paper builds on (§II-B): the
differentiable acyclicity constraint, a standalone linear NOTEARS solver
with augmented-Lagrangian optimization, Markov-equivalence (Definition 1),
structure-recovery metrics, and the synthetic SEM machinery used to verify
Theorem 1 empirically.
"""

from .dag_constraint import (expm_cache_info, h_tensor, h_value,
                             h_value_and_grad, polynomial_h_value)
from .graph import (binarize, is_dag, markov_equivalent, parents,
                    prune_to_dag, skeleton, topological_order, v_structures,
                    validate_adjacency)
from .identifiability import (IdentifiabilityReport, IdentifiabilityTrial,
                              run_identifiability_study,
                              run_identifiability_trial)
from .metrics import (StructureMetrics, evaluate_structure, skeleton_scores,
                      structural_hamming_distance, v_structure_scores)
from .notears import NotearsResult, notears_linear
from .sem import random_dag, simulate_linear_sem, standardize, weighted_dag

__all__ = [
    "h_value", "h_value_and_grad", "h_tensor", "polynomial_h_value",
    "expm_cache_info",
    "validate_adjacency", "binarize", "is_dag", "topological_order",
    "parents", "skeleton", "v_structures",
    "markov_equivalent", "prune_to_dag",
    "StructureMetrics", "structural_hamming_distance", "skeleton_scores",
    "v_structure_scores", "evaluate_structure",
    "NotearsResult", "notears_linear",
    "random_dag", "weighted_dag",
    "simulate_linear_sem", "standardize",
    "IdentifiabilityTrial", "IdentifiabilityReport",
    "run_identifiability_trial", "run_identifiability_study",
]
