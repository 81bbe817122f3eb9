"""`repro.retrieval` — two-stage candidate generation for serving.

Two-tower factorization of the frozen serving artifacts
(:mod:`repro.retrieval.towers`), a from-scratch numpy IVF index with a
brute-force oracle (:mod:`repro.retrieval.index`), and exact re-ranking
of the shortlist through the model head (:mod:`repro.retrieval.rerank`).
See ``docs/RETRIEVAL.md``.
"""

from .config import RETRIEVAL_MODES, RetrievalConfig
from .index import (ASSIGN_CHUNK, ExactIndex, IVFIndex, kmeans_fit,
                    top_ids_by_score)
from .rerank import rerank_top_z
from .towers import (QUANTIZE_MODES, ItemTower, QuantizedTable, as_dense,
                     build_item_tower, dot_scores, take_rows, user_vector)

__all__ = [
    "ASSIGN_CHUNK", "ExactIndex", "IVFIndex", "ItemTower",
    "QUANTIZE_MODES", "QuantizedTable", "RETRIEVAL_MODES",
    "RetrievalConfig", "as_dense", "build_item_tower", "dot_scores",
    "kmeans_fit", "rerank_top_z",
    "take_rows", "top_ids_by_score", "user_vector",
]
