"""`repro.eval` — evaluation harness.

Ranking metrics (F1@Z, NDCG@Z and friends), the model evaluator, paired
t-tests for the paper's significance stars, and the explanation-quality
protocol of Fig. 7.
"""

from .evaluator import EvaluationResult, evaluate_model, evaluate_rankings
from .explanation import (ExplanationEvalResult, evaluate_explanations,
                          top_k_history_items)
from .metrics import (dcg_at_z, f1_at_z, ideal_dcg, mean_metric, ndcg_at_z,
                      precision_at_z, recall_at_z)
from .significance import PairedTestResult, paired_t_test

__all__ = [
    "precision_at_z", "recall_at_z", "f1_at_z", "dcg_at_z", "ideal_dcg",
    "ndcg_at_z", "mean_metric",
    "EvaluationResult", "evaluate_rankings", "evaluate_model",
    "PairedTestResult", "paired_t_test",
    "ExplanationEvalResult", "evaluate_explanations", "top_k_history_items",
]
