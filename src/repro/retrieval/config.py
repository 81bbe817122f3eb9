"""Retrieval-stage configuration shared by the index, serve, and bench."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

#: Retrieval modes the serving layer accepts (``--retrieval``).
RETRIEVAL_MODES = ("exact", "ivf")


@dataclass(frozen=True)
class RetrievalConfig:
    """Knobs for the candidate-generation stage.

    ``exact`` scores the full catalog through the model head (the
    pre-retrieval serving path, bit-identical to offline evaluation) and
    only labels the response; ``ivf`` runs the two-tower IVF index to cut
    a ``shortlist`` of candidates and re-ranks them through the exact
    head.  ``nprobe`` trades recall for latency; ``n_clusters=None``
    defaults to ``round(sqrt(catalog))``.
    """

    mode: str = "exact"
    shortlist: int = 500
    nprobe: int = 8
    n_clusters: Optional[int] = None
    scorer: str = "dot"          # "dot" | "l2" (see retrieval.towers.SCORERS)
    kmeans_iters: int = 8
    seed: int = 0

    def __post_init__(self) -> None:
        if self.mode not in RETRIEVAL_MODES:
            raise ValueError(f"retrieval mode must be one of "
                             f"{RETRIEVAL_MODES}, got {self.mode!r}")
        if self.shortlist < 1:
            raise ValueError("shortlist must be a positive candidate count")
        if self.nprobe < 1:
            raise ValueError("nprobe must be >= 1")
        if self.n_clusters is not None and self.n_clusters < 1:
            raise ValueError("n_clusters must be >= 1 when given")
