"""repro — reproduction of "Sequential Recommendation with User Causal
Behavior Discovery" (Causer, ICDE 2023).

Subpackages
-----------
``repro.nn``
    From-scratch autograd/neural substrate (tensors, RNN cells, attention,
    optimizers) replacing the paper's PyTorch dependency.
``repro.causal``
    NOTEARS causal discovery: acyclicity constraint, random DAGs,
    Markov-equivalence, structure metrics and cluster matching.
``repro.data``
    Sequential-interaction corpora, the causal behaviour simulator that
    substitutes for the paper's five public datasets, batching and the
    derived explanation-label dataset.
``repro.models``
    The Table IV baselines (BPR, NCF, GRU4Rec, NARM, STAMP, SASRec, VTRNN,
    MMSARec) and a popularity floor on a unified interface.
``repro.core``
    The Causer model itself: differentiable item clustering, the
    cluster-level causal graph, eq. 10's causally-filtered scorer and the
    augmented-Lagrangian trainer.
``repro.eval``
    F1@Z / NDCG@Z ranking metrics, paired t-tests and the explanation
    evaluation protocol.
``repro.exp``
    One reproduction function per paper table/figure plus grid search.
``repro.analysis``
    Correctness tooling: the gradlint static-analysis suite
    (``python -m repro.analysis``) and the opt-in runtime gradient
    sanitizer (``detect_anomaly``).

Subpackages load on first access (``repro.nn.Tensor`` imports
``repro.nn``), so ``import repro`` alone costs nothing and a serving
process never pulls in the experiment or analysis layers.
"""

import importlib

__version__ = "1.0.0"

__all__ = ["__version__"]


def __getattr__(name: str):
    if name in ("analysis", "causal", "core", "data", "eval", "exp", "models",
                "nn"):
        return importlib.import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
