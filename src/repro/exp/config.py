"""Experiment configuration: the reproduction's counterpart of Table III.

The paper tunes hyper-parameters by grid search per dataset; this module
records the settings that grid search selected for the *scaled* synthetic
profiles (scale=0.05 by default), plus the shared training budget used by
every model so comparisons stay fair.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, Optional

from ..core.config import CauserConfig
from ..models.base import TrainConfig

#: Grid-search outcome per scaled profile: cluster count tracks each
#: profile's diversity (homogeneous Baby → small K, diverse Epinions →
#: large K, matching §V-C1), ε and the causal-update pace balance graph
#: sparsification against the gate's gradient blackout.
CAUSER_TUNED: Dict[str, Dict] = {
    "epinions": {"num_clusters": 16, "epsilon": 0.3, "eta": 0.5,
                 "update_every": 2},
    "foursquare": {"num_clusters": 12, "epsilon": 0.2, "eta": 0.5,
                   "update_every": 2},
    "patio": {"num_clusters": 8, "epsilon": 0.2, "eta": 0.5,
              "update_every": 2},
    "baby": {"num_clusters": 5, "epsilon": 0.3, "eta": 0.5,
             "update_every": 1},
    "video": {"num_clusters": 10, "epsilon": 0.1, "eta": 0.5,
              "update_every": 2},
}


@dataclass
class BenchmarkSettings:
    """Shared knobs for every benchmark run.

    ``scale`` shrinks the Table II dataset sizes for the CPU budget;
    ``quick`` further cuts epochs for smoke-testing the harness.
    """

    scale: float = 0.05
    data_seed: int = 1
    model_seed: int = 0
    z: int = 5
    num_epochs: int = 12
    embedding_dim: int = 16
    hidden_dim: int = 16
    learning_rate: float = 0.01
    batch_size: int = 128
    max_history: int = 15
    num_negatives: int = 4
    lambda_l1: float = 0.001
    quick: bool = False

    def train_config(self) -> TrainConfig:
        """The baseline-model budget (identical across all models)."""
        return TrainConfig(
            embedding_dim=self.embedding_dim,
            hidden_dim=self.hidden_dim,
            learning_rate=self.learning_rate,
            num_epochs=2 if self.quick else self.num_epochs,
            batch_size=self.batch_size,
            num_negatives=self.num_negatives,
            max_history=self.max_history,
            seed=self.model_seed,
        )

    def causer_config(self, dataset: str, cell_type: str = "gru",
                      **overrides) -> CauserConfig:
        """Causer budget plus the per-dataset tuned causal knobs."""
        tuned = dict(CAUSER_TUNED.get(dataset.lower(),
                                      CAUSER_TUNED["baby"]))
        tuned.update(overrides)
        return CauserConfig(
            embedding_dim=self.embedding_dim,
            hidden_dim=self.hidden_dim,
            learning_rate=self.learning_rate,
            num_epochs=2 if self.quick else self.num_epochs,
            batch_size=self.batch_size,
            num_negatives=self.num_negatives,
            max_history=self.max_history,
            seed=self.model_seed,
            lambda_l1=self.lambda_l1,
            cell_type=cell_type,
            **tuned,
        )


def quick_settings() -> BenchmarkSettings:
    """Tiny settings for harness smoke tests."""
    return BenchmarkSettings(scale=0.02, num_epochs=2, quick=True)
