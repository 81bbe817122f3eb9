"""Configuration for the Causer model (Table III tuning ranges)."""

from __future__ import annotations

from dataclasses import dataclass, field

from ..models.base import TrainConfig


@dataclass
class CauserConfig(TrainConfig):
    """Hyper-parameters of the Causer framework.

    Extends the shared :class:`~repro.models.base.TrainConfig` with the
    causal-discovery knobs of §III:

    * ``num_clusters`` — K, the latent cluster count (Fig. 4 sweeps it),
    * ``epsilon`` — the causal-filter threshold of eq. 10 (Fig. 5),
    * ``eta`` — the softmax temperature of the cluster assignment (Fig. 6),
    * ``lambda_l1`` — sparsity weight on ``W^c`` (eq. 11),
    * ``beta1/beta2/kappa1/kappa2`` — augmented-Lagrangian state
      (Algorithm 1 lines 14–15),
    * ``update_every`` — epochs between ``Θ_a``/``W^c`` updates (the §III-C
      efficiency device; 1 = always update),
    * ``filtering_mode`` — how eq. 10's per-candidate history masking is
      realised (see the field's own comment below),
    * ablation switches matching Table V's variants.
    """

    cell_type: str = "gru"
    num_clusters: int = 8
    epsilon: float = 0.3
    eta: float = 1.0
    lambda_l1: float = 0.01
    cluster_weight: float = 1.0
    reconstruction_weight: float = 1.0
    encoder_hidden_dim: int = 32
    beta1_init: float = 0.0
    beta2_init: float = 0.25
    kappa1: float = 2.0
    kappa2: float = 0.9
    beta2_max: float = 1e8
    update_every: int = 1
    #: How eq. 10's per-candidate history filtering is realised:
    #: * ``"shared"`` (default) — a single unfiltered RNN pass; causality
    #:   enters only through the aggregation weights ``Ŵ α``.
    #: * ``"cluster"`` — one filtered RNN pass per candidate *cluster*:
    #:   every candidate hard-assigned to cluster k shares the mask
    #:   ``1(W_.k > ε)``, so K passes reproduce strict filtering exactly
    #:   in the hard-assignment limit at 1/|V| of the cost.
    #: * ``"strict"`` — the literal per-candidate re-run (evaluation only).
    filtering_mode: str = "shared"
    #: Seed ``W^c`` from decay-weighted cluster-transition lift estimated on
    #: the training data before joint optimization (§III-C's pre-training
    #: suggestion).  Ablated in the ablation benchmark.
    pretrain_graph: bool = True
    # Table V ablation switches (all True = full Causer).
    use_clustering_loss: bool = True
    use_reconstruction_loss: bool = True
    use_attention: bool = True
    use_causal: bool = True

    def __post_init__(self) -> None:
        if self.cell_type not in ("gru", "lstm"):
            raise ValueError(f"cell_type must be 'gru' or 'lstm', got {self.cell_type!r}")
        if self.num_clusters < 2:
            raise ValueError("need at least two clusters for a causal graph")
        if not 0.0 <= self.epsilon <= 1.0:
            raise ValueError("epsilon is a threshold on mixture weights; use [0, 1]")
        if self.eta <= 0:
            raise ValueError("temperature eta must be positive")
        if self.kappa1 <= 1.0:
            raise ValueError("kappa1 must exceed 1 (Algorithm 1)")
        if not 0.0 < self.kappa2 < 1.0:
            raise ValueError("kappa2 must lie in (0, 1) (Algorithm 1)")
        if self.update_every < 1:
            raise ValueError("update_every must be at least 1")
        if self.filtering_mode not in ("cluster", "shared", "strict"):
            raise ValueError(
                f"filtering_mode must be 'cluster', 'shared' or 'strict', "
                f"got {self.filtering_mode!r}")


def ablation_config(base: CauserConfig, variant: str) -> CauserConfig:
    """Clone ``base`` with one Table V ablation applied.

    ``variant`` is one of ``"full"``, ``"-clus"``, ``"-rec"``, ``"-att"``,
    ``"-causal"``.
    """
    from dataclasses import replace
    flags = {
        "full": {},
        "-clus": {"use_clustering_loss": False},
        "-rec": {"use_reconstruction_loss": False},
        "-att": {"use_attention": False},
        "-causal": {"use_causal": False},
    }
    if variant not in flags:
        raise ValueError(f"unknown ablation variant {variant!r}; "
                         f"choose from {sorted(flags)}")
    return replace(base, **flags[variant])
