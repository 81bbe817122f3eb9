"""Named dataset profiles calibrated to the paper's Table II.

Each profile configures the behaviour simulator to match the character of
one of the paper's five datasets — relative size, average sequence length,
item diversity (cluster count), basket behaviour and feature kind.  A global
``scale`` shrinks user/item counts proportionally so the full benchmark
suite runs on a CPU budget; ``scale=1.0`` reproduces Table II magnitudes.

Paper statistics (Table II):

========== ======= ======= ============= ======== ========
dataset    users   items   interactions  seqlen   sparsity
========== ======= ======= ============= ======== ========
Epinions    1,530     683          4,600    3.01    99.56%
Foursquare  2,292   5,494        120,736   52.68    99.04%
Patio       7,153   2,952         29,625    4.14    99.86%
Baby       16,898   6,178         77,046    4.56    99.93%
Video      19,939   9,275        142,658    7.15    99.92%
========== ======= ======= ============= ======== ========
"""

from __future__ import annotations

from typing import Dict, Tuple

from .synthetic import BehaviorSimulator, SimulatorConfig, SyntheticDataset

#: The Table II reference numbers (users, items, interactions, seqlen).
PAPER_STATISTICS: Dict[str, Dict[str, float]] = {
    "epinions": {"users": 1530, "items": 683, "interactions": 4600,
                 "seqlen": 3.01, "sparsity": 0.9956},
    "foursquare": {"users": 2292, "items": 5494, "interactions": 120736,
                   "seqlen": 52.68, "sparsity": 0.9904},
    "patio": {"users": 7153, "items": 2952, "interactions": 29625,
              "seqlen": 4.14, "sparsity": 0.9986},
    "baby": {"users": 16898, "items": 6178, "interactions": 77046,
             "seqlen": 4.56, "sparsity": 0.9993},
    "video": {"users": 19939, "items": 9275, "interactions": 142658,
              "seqlen": 7.15, "sparsity": 0.9992},
}

#: Per-dataset simulator character.  ``clusters`` encodes the paper's §V-C
#: finding: Baby is homogeneous (best K in [4, 6]) while Epinions is diverse
#: (best K in [15, 20]).
_PROFILE_TRAITS: Dict[str, Dict] = {
    "epinions": {"clusters": 16, "edge_prob": 0.25, "basket_extra_prob": 0.10,
                 "feature_kind": "text", "causal_follow_prob": 0.70,
                 "noise_prob": 0.15},
    "foursquare": {"clusters": 12, "edge_prob": 0.35, "basket_extra_prob": 0.02,
                   "feature_kind": "gps", "causal_follow_prob": 0.80,
                   "noise_prob": 0.08},
    "patio": {"clusters": 8, "edge_prob": 0.40, "basket_extra_prob": 0.15,
              "feature_kind": "text", "causal_follow_prob": 0.75,
              "noise_prob": 0.12},
    "baby": {"clusters": 5, "edge_prob": 0.50, "basket_extra_prob": 0.15,
             "feature_kind": "text", "causal_follow_prob": 0.75,
             "noise_prob": 0.10},
    "video": {"clusters": 10, "edge_prob": 0.35, "basket_extra_prob": 0.08,
              "feature_kind": "text", "causal_follow_prob": 0.75,
              "noise_prob": 0.12},
}

DATASET_NAMES: Tuple[str, ...] = tuple(PAPER_STATISTICS)

#: Default scale for benchmarks: small enough for CPU training of ten
#: models, large enough to preserve the datasets' relative character.
DEFAULT_SCALE = 0.05


def dataset_config(name: str, scale: float = DEFAULT_SCALE,
                   seed: int = 0) -> SimulatorConfig:
    """Build the simulator config for a named profile at a given scale."""
    key = name.lower()
    if key not in PAPER_STATISTICS:
        raise KeyError(
            f"unknown dataset {name!r}; choose from {sorted(PAPER_STATISTICS)}")
    if scale <= 0:
        raise ValueError("scale must be positive")
    stats = PAPER_STATISTICS[key]
    traits = _PROFILE_TRAITS[key]
    # Floors keep the smallest profiles statistically meaningful at tiny
    # scales: at least ~300 users and ~8 items per latent cluster.
    num_users = max(300, int(round(stats["users"] * scale)))
    num_items = max(traits["clusters"] * 8, int(round(stats["items"] * scale)))
    mean_len = min(stats["seqlen"] + 1.0, 20.0)  # +1: geometric mode shift; cap for CPU
    return SimulatorConfig(
        num_users=num_users,
        num_items=num_items,
        num_clusters=traits["clusters"],
        edge_prob=traits["edge_prob"],
        mean_sequence_length=mean_len,
        min_sequence_length=3,
        max_sequence_length=30,
        causal_follow_prob=traits["causal_follow_prob"],
        noise_prob=traits["noise_prob"],
        basket_extra_prob=traits["basket_extra_prob"],
        feature_kind=traits["feature_kind"],
        feature_dim=16,
        seed=seed,
    )


def load_dataset(name: str, scale: float = DEFAULT_SCALE,
                 seed: int = 0) -> SyntheticDataset:
    """Generate the named dataset profile."""
    config = dataset_config(name, scale=scale, seed=seed)
    return BehaviorSimulator(config, name=name.lower()).generate()
