"""Causal user-behaviour simulator.

The paper evaluates on five public datasets that cannot be downloaded in
this offline environment.  This module provides the substitute: a generator
that samples user interaction sequences from a *known* cluster-level causal
DAG, so that

* the produced corpora exercise exactly the same code paths (sparse
  multi-hot sequences, baskets, leave-one-out splits), and
* ground-truth causal structure and per-event cause annotations exist,
  enabling both the explanation evaluation (Fig. 7/8) and structure-recovery
  checks that the real datasets could never support.

Generative story for one user:

1. The user draws a preference distribution over clusters (Dirichlet).
2. The first basket is spontaneous: a cluster from the preference, an item
   from that cluster by popularity.
3. Each later step is *causal* with probability ``causal_follow_prob``: pick
   a trigger item from the recent history (geometric recency bias), follow a
   random outgoing edge of its cluster in the causal DAG, and emit an item
   of the child cluster.  Otherwise the step is spontaneous (preference
   draw) or pure noise with probability ``noise_prob`` (uniform popular
   item), mirroring the causally-irrelevant "T-shirt / football" items of
   the paper's Fig. 1.
4. With probability ``basket_extra_prob`` extra items join the basket,
   making the step a multi-hot interaction set.

Every causally-generated item records its trigger, producing the ground
truth that substitutes for the paper's human-labeled explanation dataset.

Categorical draws read cached CDFs instead of calling
``Generator.choice`` per draw: cluster popularity, noise popularity and
child-cluster lists are built once per simulator, recency weights once
per history length, and the preference CDFs once per user.  Each draw
makes exactly the stream calls ``choice`` would (one ``random()`` for a
weighted draw, one ``integers(0, n)`` for an unweighted one) and returns
the same element, so corpora are byte-identical to per-draw ``choice``
sampling; ``tests/data/test_synthetic.py`` pins this against a reference
simulator that still calls ``choice``.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from functools import cached_property
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..causal.graph import random_dag
from .features import gps_like_features, text_like_features
from .interactions import UserSequence

if TYPE_CHECKING:
    from .eventlog import SequenceCorpus

CauseMap = Dict[int, Tuple[int, ...]]

#: SeedSequence spawn-key tags for the simulator's independent streams.
#: Per-user streams make generation invariant to worker count and shard
#: size: user ``u`` always draws from ``SeedSequence(seed, spawn_key=
#: (_USER_STREAM_TAG, u))`` no matter which process simulates it.
_USER_STREAM_TAG = 1
_FEATURE_STREAM_TAG = 2


@dataclass
class SimulatorConfig:
    """Knobs of the behaviour simulator; see the module docstring."""

    num_users: int = 300
    num_items: int = 150
    num_clusters: int = 8
    edge_prob: float = 0.3
    mean_sequence_length: float = 6.0
    min_sequence_length: int = 3
    max_sequence_length: int = 50
    causal_follow_prob: float = 0.65
    noise_prob: float = 0.1
    basket_extra_prob: float = 0.15
    max_basket_size: int = 3
    popularity_alpha: float = 0.8
    preference_concentration: float = 0.3
    #: Probability that a spontaneous (non-causal) draw enters at a *root*
    #: cluster of the causal DAG.  Users typically enter a shopping episode
    #: at a cause ("printer", "coffee pot") and cascade to effects ("ink
    #: box", "pot cleaner"); later steps are then causally predictable.
    spontaneous_root_bias: float = 0.7
    #: Item-specific causation: when a causal step fires, with this
    #: probability the effect item is drawn from the trigger item's few
    #: *preferred* children inside the child cluster (a specific printer
    #: causes specific ink cartridges), otherwise from the whole child
    #: cluster by popularity.
    affinity_strength: float = 0.5
    #: How many preferred effect items each (trigger, child-cluster) pair has.
    affinity_fanout: int = 3
    #: Geometric recency bias of trigger choice.  1.0 = uniform over the
    #: history: causal chains *interleave* across the sequence (the paper's
    #: Fig. 1 regime, where recency heuristics mislead and causal filtering
    #: pays off); values < 1 favour recent triggers and produce contiguous
    #: chains that plain recurrent models capture equally well.
    recency_decay: float = 1.0
    feature_dim: int = 16
    feature_kind: str = "text"
    seed: int = 0

    def __post_init__(self) -> None:
        if self.num_items < self.num_clusters:
            raise ValueError("need at least one item per cluster")
        if not 0.0 <= self.causal_follow_prob <= 1.0:
            raise ValueError("causal_follow_prob must be a probability")
        if self.feature_kind not in ("text", "gps"):
            raise ValueError(f"feature_kind must be 'text' or 'gps', got {self.feature_kind!r}")


@dataclass
class SyntheticDataset:
    """A generated corpus plus all the ground truth behind it.

    A dataset loaded from an event log
    (:func:`~repro.data.eventlog.load_eventlog_dataset`) has no
    ``cause_log``, and its other ground truth is ``None`` where the log
    stores none.
    """

    name: str
    config: Optional[SimulatorConfig]
    corpus: SequenceCorpus
    features: Optional[np.ndarray]         # (num_items + 1, feature_dim)
    cluster_of_item: Optional[np.ndarray]  # (num_items + 1,), entry 0 = -1
    cluster_graph: Optional[np.ndarray]    # (K, K) 0/1 ground-truth DAG
    cause_log: List[List[CauseMap]] = field(default_factory=list)

    @property
    def num_items(self) -> int:
        return self.corpus.num_items

    def item_causal_matrix(self) -> np.ndarray:
        """Ground-truth item-level causal adjacency implied by eq. (9).

        ``out[a, b] = 1`` iff cluster(a) -> cluster(b); shape
        ``(num_items + 1, num_items + 1)`` with row/col 0 zero.
        """
        v = self.num_items
        out = np.zeros((v + 1, v + 1), dtype=np.int64)
        clusters = self.cluster_of_item
        for a in range(1, v + 1):
            ca = clusters[a]
            child_clusters = np.nonzero(self.cluster_graph[ca])[0]
            if len(child_clusters) == 0:
                continue
            targets = np.isin(clusters[1:], child_clusters)
            out[a, 1:][targets] = 1
        return out

    def true_causes_in_history(self, history_items: Sequence[int],
                               target_item: int) -> List[int]:
        """History items whose cluster causally points at the target's cluster."""
        target_cluster = int(self.cluster_of_item[target_item])
        parent_clusters = set(np.nonzero(self.cluster_graph[:, target_cluster])[0])
        return [item for item in history_items
                if int(self.cluster_of_item[item]) in parent_clusters]


def _assign_items_to_clusters(num_items: int, num_clusters: int,
                              rng: np.random.Generator) -> np.ndarray:
    """Round-robin base assignment plus random remainder; entry 0 is -1."""
    assignment = np.empty(num_items + 1, dtype=np.int64)
    assignment[0] = -1
    base = np.arange(num_items) % num_clusters
    rng.shuffle(base)
    assignment[1:] = base
    return assignment


def _popularity_weights(num_items: int, alpha: float,
                        rng: np.random.Generator) -> np.ndarray:
    """Zipf-like popularity over items (index 0 gets weight 0)."""
    ranks = rng.permutation(num_items) + 1
    weights = 1.0 / np.power(ranks, alpha)
    return np.concatenate([[0.0], weights])


#: Knuth's multiplicative hash constant, spreading a trigger's preferred
#: effects over its child clusters (see ``preferred_effects``).
_AFFINITY_HASH = 2654435761

#: ``Generator.choice``'s tolerance on ``|sum(p) - 1|``.
_CHOICE_ATOL = float(np.sqrt(np.finfo(np.float64).eps))


def _choice_cdf(p: np.ndarray) -> List[float]:
    """The CDF ``Generator.choice(a, p=p)`` searches, after the same checks.

    ``a[_draw(cdf, rng)]`` then consumes the stream exactly as
    ``rng.choice(a, p=p)`` does (one ``random()``) and returns the same
    element, but the validation and accumulation run once per cached CDF
    instead of once per draw.  The CDF is non-decreasing, so
    ``bisect_right`` on its list finds the index ``choice``'s
    ``searchsorted(side="right")`` finds, without numpy's per-call cost.
    """
    p = np.asarray(p, dtype=np.float64)
    total = p.sum()
    if np.isnan(total):
        raise ValueError("probabilities contain NaN")
    if (p < 0).any():
        raise ValueError("probabilities are not non-negative")
    if abs(total - 1.0) > _CHOICE_ATOL:
        raise ValueError("probabilities do not sum to 1")
    cdf = p.cumsum()
    cdf /= cdf[-1]
    return cdf.tolist()


def _draw(cdf: List[float], rng: np.random.Generator) -> int:
    """One weighted index draw from a :func:`_choice_cdf` table."""
    return bisect_right(cdf, rng.random())


class _UserPreference:
    """One user's cluster-preference CDFs, each built on first use.

    Building lazily keeps ``Generator.choice``'s failure points too: an
    invalid preference raises only when a draw would have used it.
    """

    def __init__(self, preference: np.ndarray,
                 root_clusters: np.ndarray) -> None:
        self.preference = preference
        self.root_clusters = root_clusters

    @cached_property
    def cluster_cdf(self) -> List[float]:
        return _choice_cdf(self.preference)

    @cached_property
    def root_cdf(self) -> Optional[List[float]]:
        """``None`` when no root is preferred: the draw is then uniform."""
        root_pref = self.preference[self.root_clusters]
        total = root_pref.sum()
        return _choice_cdf(root_pref / total) if total > 0 else None


class BehaviorSimulator:
    """Samples :class:`SyntheticDataset` instances from a causal story."""

    def __init__(self, config: SimulatorConfig, name: str = "synthetic") -> None:
        self.config = config
        self.name = name
        self._rng = np.random.default_rng(config.seed)
        cfg = config
        self.cluster_graph = random_dag(cfg.num_clusters, cfg.edge_prob, self._rng)
        # Guarantee at least one edge so causal steps are possible.
        if self.cluster_graph.sum() == 0 and cfg.num_clusters >= 2:
            order = self._rng.permutation(cfg.num_clusters)
            self.cluster_graph[order[0], order[1]] = 1
        self.cluster_of_item = _assign_items_to_clusters(
            cfg.num_items, cfg.num_clusters, self._rng)
        self.popularity = _popularity_weights(cfg.num_items,
                                              cfg.popularity_alpha, self._rng)
        self._items_by_cluster = [
            np.nonzero(self.cluster_of_item[1:] == k)[0] + 1
            for k in range(cfg.num_clusters)
        ]
        # Clusters with no incoming causal edge (the DAG's entry points).
        self._root_clusters = np.nonzero(
            self.cluster_graph.sum(axis=0) == 0)[0]
        # Draw tables fixed for the simulator's lifetime (see _choice_cdf).
        # Round-robin assignment gives every cluster at least one item.
        self._child_clusters = [np.nonzero(row)[0] for row in self.cluster_graph]
        self._cluster_cdfs = [
            _choice_cdf(self.popularity[members]
                        / self.popularity[members].sum())
            for members in self._items_by_cluster]
        self._noise_cdf = _choice_cdf(self.popularity[1:]
                                      / self.popularity[1:].sum())
        #: Recency CDFs of ``_pick_trigger``, keyed by history length.
        self._recency_cdfs: Dict[int, List[float]] = {}

    # ------------------------------------------------------------------
    def user_rng(self, user_id: int) -> np.random.Generator:
        """The dedicated RNG stream of one user.

        Keyed by ``(seed, _USER_STREAM_TAG, user_id)``, so the stream is
        identical whether the user is simulated serially, in a different
        shard, or on a different worker — the contract behind the
        event-log generator's bit-identical serial/parallel outputs.
        """
        seq = np.random.SeedSequence(self.config.seed,
                                     spawn_key=(_USER_STREAM_TAG, user_id))
        return np.random.default_rng(seq)

    def feature_rng(self) -> np.random.Generator:
        """The dedicated RNG stream for item raw features."""
        seq = np.random.SeedSequence(self.config.seed,
                                     spawn_key=(_FEATURE_STREAM_TAG,))
        return np.random.default_rng(seq)

    def generate_features(self, rng: Optional[np.random.Generator] = None
                          ) -> np.ndarray:
        """Item raw features; pass :meth:`feature_rng` for the keyed stream."""
        cfg = self.config
        if rng is None:
            rng = self._rng
        clusters = self.cluster_of_item * (self.cluster_of_item >= 0)
        if cfg.feature_kind == "text":
            features = text_like_features(clusters, cfg.feature_dim, rng)
        else:
            features = gps_like_features(clusters, rng)
        features[0] = 0.0
        return features

    def generate(self) -> SyntheticDataset:
        """Generate the full dataset (corpus + features + annotations).

        One generator drives every user in order, then the features.  The
        event-log generator instead draws each user from :meth:`user_rng`
        and the features from :meth:`feature_rng`.
        """
        from .eventlog import SequenceCorpus
        cfg = self.config
        sequences: List[UserSequence] = []
        cause_log: List[List[CauseMap]] = []
        for user_id in range(cfg.num_users):
            baskets, causes = self._simulate_user()
            sequences.append(UserSequence(user_id=user_id,
                                          baskets=tuple(baskets)))
            cause_log.append(causes)
        corpus = SequenceCorpus(num_items=cfg.num_items, sequences=sequences)
        features = self.generate_features()
        return SyntheticDataset(name=self.name, config=cfg, corpus=corpus,
                                features=features,
                                cluster_of_item=self.cluster_of_item,
                                cluster_graph=self.cluster_graph,
                                cause_log=cause_log)

    # ------------------------------------------------------------------
    def _simulate_user(self, rng: Optional[np.random.Generator] = None
                       ) -> Tuple[List[Tuple[int, ...]], List[CauseMap]]:
        cfg = self.config
        if rng is None:
            rng = self._rng
        preference = _UserPreference(rng.dirichlet(
            np.full(cfg.num_clusters, cfg.preference_concentration)),
            self._root_clusters)
        length = min(max(int(rng.geometric(1.0 / cfg.mean_sequence_length)),
                         cfg.min_sequence_length), cfg.max_sequence_length)
        history: List[int] = []
        baskets: List[Tuple[int, ...]] = []
        causes: List[CauseMap] = []
        for _ in range(length):
            basket: List[int] = []
            basket_causes: CauseMap = {}
            for slot in range(cfg.max_basket_size):
                if slot > 0 and rng.random() >= cfg.basket_extra_prob:
                    break
                item, cause = self._sample_item(history, preference, rng)
                if item not in basket:
                    basket.append(item)
                    basket_causes[item] = cause
            baskets.append(tuple(basket))
            causes.append(basket_causes)
            history.extend(basket)
        return baskets, causes

    def _sample_item(self, history: List[int], preference: _UserPreference,
                     rng: np.random.Generator) -> Tuple[int, Tuple[int, ...]]:
        """Sample one item; return ``(item, cause_items)``."""
        cfg = self.config
        if history and rng.random() < cfg.causal_follow_prob:
            # Retry a few triggers: a user acting causally follows *some*
            # past item that has consequences, not necessarily the first
            # one that comes to mind.
            for _ in range(3):
                trigger = self._pick_trigger(history, rng)
                child_clusters = self._child_clusters[
                    self.cluster_of_item[trigger]]
                if len(child_clusters) > 0:
                    child = int(child_clusters[
                        rng.integers(0, len(child_clusters))])
                    item = self._pick_effect_item(trigger, child, rng)
                    return item, (trigger,)
        if rng.random() < cfg.noise_prob:
            # Pure popularity noise, causally irrelevant.
            return _draw(self._noise_cdf, rng) + 1, ()
        if self._root_clusters.size and rng.random() < cfg.spontaneous_root_bias:
            roots = self._root_clusters
            root_cdf = preference.root_cdf
            if root_cdf is None:
                cluster = int(roots[rng.integers(0, len(roots))])
            else:
                cluster = int(roots[_draw(root_cdf, rng)])
        else:
            cluster = _draw(preference.cluster_cdf, rng)
        return self._pick_item_from_cluster(cluster, rng), ()

    def _pick_trigger(self, history: List[int],
                      rng: np.random.Generator) -> int:
        """Recency-biased trigger choice (geometric decay toward the past)."""
        n = len(history)
        cdf = self._recency_cdfs.get(n)
        if cdf is None:
            weights = np.power(self.config.recency_decay, np.arange(n)[::-1])
            cdf = self._recency_cdfs[n] = _choice_cdf(weights / weights.sum())
        return history[_draw(cdf, rng)]

    def preferred_effects(self, trigger: int, child_cluster: int) -> np.ndarray:
        """The trigger item's preferred effect items in ``child_cluster``.

        Deterministic (hash-like) so it needs no O(|V|²) affinity storage:
        the same trigger always prefers the same few children, which is the
        item-specific regularity sequential models can learn.
        """
        members = self._items_by_cluster[child_cluster]
        fanout = min(self.config.affinity_fanout, len(members))
        start = (trigger * _AFFINITY_HASH) % len(members)
        return members[(start + np.arange(fanout)) % len(members)]

    def _pick_effect_item(self, trigger: int, child_cluster: int,
                          rng: np.random.Generator) -> int:
        """Sample the effect of a causal step (affinity-aware)."""
        members = self._items_by_cluster[child_cluster]
        fanout = min(self.config.affinity_fanout, len(members))
        if fanout and rng.random() < self.config.affinity_strength:
            # A uniform pick from ``preferred_effects(trigger,
            # child_cluster)`` without building the array.
            start = (trigger * _AFFINITY_HASH) % len(members)
            return int(members[(start + rng.integers(0, fanout))
                               % len(members)])
        return self._pick_item_from_cluster(child_cluster, rng)

    def _pick_item_from_cluster(self, cluster: int,
                                rng: np.random.Generator) -> int:
        return int(self._items_by_cluster[cluster][
            _draw(self._cluster_cdfs[cluster], rng)])


def generate_dataset(config: SimulatorConfig,
                     name: str = "synthetic") -> SyntheticDataset:
    """Convenience wrapper: build a simulator and generate once."""
    return BehaviorSimulator(config, name=name).generate()
