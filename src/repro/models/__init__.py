"""`repro.models` — the paper's Table IV baselines.

Non-sequential: Pop (sanity floor), BPR, NCF.  Sequential: GRU4Rec, NARM,
STAMP, SASRec.  Side-information-aware: VTRNN, MMSARec.  All share
the :class:`~repro.models.base.Recommender` interface and (for the neural
sequence models) the training loop in
:class:`~repro.models.base.NeuralSequentialRecommender`.
"""

from .base import (FitResult, NeuralSequentialRecommender,
                   PopularityRecommender, Recommender, TrainConfig)
from .bpr import BPR
from .gru4rec import GRU4Rec
from .mmsarec import MMSARec
from .narm import NARM
from .ncf import NCF
from .sasrec import SASRec
from .stamp import STAMP
from .vtrnn import VTRNN

__all__ = [
    "Recommender", "NeuralSequentialRecommender", "PopularityRecommender",
    "TrainConfig", "FitResult",
    "BPR", "NCF", "GRU4Rec", "NARM", "STAMP", "SASRec", "VTRNN", "MMSARec",
]
