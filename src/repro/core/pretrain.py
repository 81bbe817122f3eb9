"""Data-driven initialization of the cluster-level causal graph.

§III-C of the paper notes that when prior knowledge of ``W`` is available
one may *pre-train* it to improve training efficiency.  We realise that
suggestion without external knowledge: estimate directed cluster-level
transition lift from the training sequences themselves —

    lift[p, k] = P(target in cluster k | cluster p in recent history)
               - P(target in cluster k)

with a geometric recency decay over history steps.  Positive lift marks
candidate causal edges; the clipped, rescaled, cycle-pruned matrix seeds
``W^c`` so the ε gate of eq. 10 passes genuinely-predictive history from
the first epoch, and the joint objective (BCE + L1 + acyclicity) refines it.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..data.interactions import EvalSample

#: Recency decay of a history step's vote, per step of gap to the target.
DECAY = 0.6
#: Off-diagonal seed weights span ``[SEED_FLOOR, SEED_CEILING]``.
SEED_FLOOR = 0.35
SEED_CEILING = 0.7


def estimate_cluster_transitions(samples: Sequence[EvalSample],
                                 hard_clusters: np.ndarray,
                                 num_clusters: int) -> np.ndarray:
    """Decay-weighted directed co-occurrence counts between clusters.

    ``counts[p, k]`` accumulates, for every (history item ``a``, target
    item ``b``) pair, ``DECAY^(gap - 1)`` where ``gap`` is the number of
    steps between them; rows are history clusters, columns target
    clusters.
    """
    counts = np.zeros((num_clusters, num_clusters))
    target_totals = np.zeros(num_clusters)
    for sample in samples:
        history = sample.history
        gaps = len(history) - np.arange(len(history))  # last step has gap 1
        for target_item in sample.target:
            k = hard_clusters[target_item]
            target_totals[k] += 1.0
            for step, basket in enumerate(history):
                weight = DECAY ** (gaps[step] - 1)
                for item in basket:
                    counts[hard_clusters[item], k] += weight
    return counts


def transition_lift(counts: np.ndarray) -> np.ndarray:
    """Ratio lift ``P(k | p in history) / P(k) - 1``.

    Using the ratio (not the difference) keeps edges into *popular* target
    clusters visible: a sink cluster with a large base rate would swallow
    any additive lift.
    """
    row_sums = counts.sum(axis=1, keepdims=True)
    conditional = np.divide(counts, np.maximum(row_sums, 1e-12))
    base_rate = counts.sum(axis=0)
    base_rate = base_rate / max(base_rate.sum(), 1e-12)
    return conditional / np.maximum(base_rate[None, :], 1e-12) - 1.0


def pretrain_cluster_graph(samples: Sequence[EvalSample],
                           hard_clusters: np.ndarray,
                           num_clusters: int) -> np.ndarray:
    """Seed matrix for ``W^c``: dense, lift-ordered weights in
    ``[SEED_FLOOR, SEED_CEILING]``.

    The seed stays *dense* on purpose: entries below the ε gate receive no
    data gradient (eq. 10's hard threshold), so a sparse seed freezes most
    of the graph at birth.  Instead every off-diagonal entry starts above
    typical thresholds, ordered by the estimated transition lift; the joint
    objective (BCE + L1 + acyclicity) then prunes the spurious directions.
    """
    counts = estimate_cluster_transitions(samples, hard_clusters,
                                          num_clusters)
    lift = transition_lift(counts)
    np.fill_diagonal(lift, 0.0)
    positive = np.clip(lift, 0.0, None)
    peak = positive.max()
    scaled = positive / peak if peak > 0 else positive
    seed = SEED_FLOOR + (SEED_CEILING - SEED_FLOOR) * scaled
    np.fill_diagonal(seed, 0.0)
    return seed
