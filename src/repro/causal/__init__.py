"""`repro.causal` — causal discovery substrate.

Implements the NOTEARS machinery the paper builds on (§II-B): the
differentiable acyclicity constraint Algorithm 1 trains with,
Markov-equivalence (Definition 1), random ground-truth DAGs, and the
structure-recovery metrics, with cluster matching, that check Theorem 1
on Causer's learned cluster graph.
"""

from .dag_constraint import (expm_cache_info, h_tensor, h_value,
                             h_value_and_grad, polynomial_h_value)
from .graph import (binarize, is_dag, markov_equivalent, parents,
                    prune_to_dag, random_dag, skeleton, topological_order,
                    v_structures, validate_adjacency)
from .metrics import (StructureMetrics, evaluate_structure, match_clusters,
                      skeleton_scores, structural_hamming_distance,
                      v_structure_scores)

__all__ = [
    "h_value", "h_value_and_grad", "h_tensor", "polynomial_h_value",
    "expm_cache_info",
    "validate_adjacency", "binarize", "is_dag", "topological_order",
    "parents", "skeleton", "v_structures",
    "markov_equivalent", "prune_to_dag", "random_dag",
    "StructureMetrics", "structural_hamming_distance", "skeleton_scores",
    "v_structure_scores", "evaluate_structure", "match_clusters",
]
