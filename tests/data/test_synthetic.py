"""Tests for the causal behaviour simulator."""

import dataclasses

import numpy as np
import pytest

from repro.causal import is_dag
from repro.data import (DATASET_NAMES, BehaviorSimulator, SimulatorConfig,
                        dataset_config, generate_dataset)
from repro.data.synthetic import _choice_cdf


class TestConfigValidation:
    def test_items_per_cluster(self):
        with pytest.raises(ValueError):
            SimulatorConfig(num_items=3, num_clusters=5)

    def test_probability_range(self):
        with pytest.raises(ValueError):
            SimulatorConfig(causal_follow_prob=1.5)

    def test_feature_kind(self):
        with pytest.raises(ValueError):
            SimulatorConfig(feature_kind="audio")


class TestGeneration:
    def test_reproducible(self):
        cfg = SimulatorConfig(num_users=30, num_items=20, num_clusters=4,
                              seed=11)
        a = generate_dataset(cfg)
        b = generate_dataset(cfg)
        assert [s.baskets for s in a.corpus] == [s.baskets for s in b.corpus]
        np.testing.assert_array_equal(a.cluster_graph, b.cluster_graph)
        np.testing.assert_allclose(a.features, b.features)

    def test_different_seeds_differ(self):
        a = generate_dataset(SimulatorConfig(num_users=30, num_items=20,
                                             num_clusters=4, seed=1))
        b = generate_dataset(SimulatorConfig(num_users=30, num_items=20,
                                             num_clusters=4, seed=2))
        assert [s.baskets for s in a.corpus] != [s.baskets for s in b.corpus]

    def test_cluster_graph_is_dag_with_edges(self, tiny_dataset):
        assert is_dag(tiny_dataset.cluster_graph)
        assert tiny_dataset.cluster_graph.sum() >= 1

    def test_sequence_length_bounds(self, tiny_dataset):
        cfg = tiny_dataset.config
        for s in tiny_dataset.corpus:
            assert cfg.min_sequence_length <= s.length <= cfg.max_sequence_length

    def test_basket_sizes_bounded(self, tiny_dataset):
        for s in tiny_dataset.corpus:
            for basket in s.baskets:
                assert 1 <= len(basket) <= tiny_dataset.config.max_basket_size

    def test_features_cover_padded_vocab(self, tiny_dataset):
        assert tiny_dataset.features.shape[0] == tiny_dataset.num_items + 1
        np.testing.assert_allclose(tiny_dataset.features[0], 0.0)

    def test_cluster_assignment_shape(self, tiny_dataset):
        assert tiny_dataset.cluster_of_item[0] == -1
        real = tiny_dataset.cluster_of_item[1:]
        assert real.min() >= 0
        assert real.max() < tiny_dataset.cluster_graph.shape[0]


class TestCauseLog:
    def test_aligned_with_baskets(self, tiny_dataset):
        for seq, causes in zip(tiny_dataset.corpus, tiny_dataset.cause_log):
            assert len(causes) == seq.length
            for basket, cause_map in zip(seq.baskets, causes):
                assert set(cause_map) == set(basket)

    def test_triggers_precede_effects(self, tiny_dataset):
        for seq, causes in zip(tiny_dataset.corpus, tiny_dataset.cause_log):
            seen = set()
            for basket, cause_map in zip(seq.baskets, causes):
                for item in basket:
                    for trigger in cause_map[item]:
                        assert trigger in seen
                seen.update(basket)

    def test_triggers_respect_cluster_graph(self, tiny_dataset):
        graph = tiny_dataset.cluster_graph
        clusters = tiny_dataset.cluster_of_item
        for seq, causes in zip(tiny_dataset.corpus, tiny_dataset.cause_log):
            for basket, cause_map in zip(seq.baskets, causes):
                for item in basket:
                    for trigger in cause_map[item]:
                        assert graph[clusters[trigger], clusters[item]] == 1

    def test_causal_fraction_plausible(self, tiny_dataset):
        total, caused = 0, 0
        for causes in tiny_dataset.cause_log:
            for cause_map in causes[1:]:  # first step cannot be causal
                for cause in cause_map.values():
                    total += 1
                    caused += bool(cause)
        assert caused / total > 0.3


class TestGroundTruthHelpers:
    def test_item_causal_matrix_matches_clusters(self, tiny_dataset):
        matrix = tiny_dataset.item_causal_matrix()
        clusters = tiny_dataset.cluster_of_item
        graph = tiny_dataset.cluster_graph
        rng = np.random.default_rng(0)
        for _ in range(50):
            a, b = rng.integers(1, tiny_dataset.num_items + 1, size=2)
            expected = graph[clusters[a], clusters[b]]
            assert matrix[a, b] == expected

    def test_padding_rows_zero(self, tiny_dataset):
        matrix = tiny_dataset.item_causal_matrix()
        assert matrix[0].sum() == 0
        assert matrix[:, 0].sum() == 0

    def test_true_causes_in_history(self, tiny_dataset):
        clusters = tiny_dataset.cluster_of_item
        graph = tiny_dataset.cluster_graph
        target = 1
        history = list(range(1, tiny_dataset.num_items + 1))
        causes = tiny_dataset.true_causes_in_history(history, target)
        for item in causes:
            assert graph[clusters[item], clusters[target]] == 1


class TestAffinity:
    def test_preferred_effects_deterministic(self, tiny_dataset):
        sim = BehaviorSimulator(tiny_dataset.config)
        a = sim.preferred_effects(5, 1)
        b = sim.preferred_effects(5, 1)
        np.testing.assert_array_equal(a, b)

    def test_preferred_effects_in_cluster(self, tiny_dataset):
        sim = BehaviorSimulator(tiny_dataset.config)
        for cluster in range(tiny_dataset.cluster_graph.shape[0]):
            for trigger in (1, 7, 13):
                for item in sim.preferred_effects(trigger, cluster):
                    assert sim.cluster_of_item[item] == cluster

    def test_fanout_respected(self, tiny_dataset):
        sim = BehaviorSimulator(tiny_dataset.config)
        fanout = tiny_dataset.config.affinity_fanout
        assert len(sim.preferred_effects(3, 0)) <= fanout


class TestClusters:
    @pytest.mark.parametrize("num_clusters", [1, 2, 5, 16])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_every_cluster_nonempty_at_one_item_each(self, num_clusters,
                                                     seed):
        cfg = SimulatorConfig(num_users=5, num_items=num_clusters,
                              num_clusters=num_clusters, seed=seed)
        sim = BehaviorSimulator(cfg)
        counts = np.bincount(sim.cluster_of_item[1:], minlength=num_clusters)
        assert counts.min() == 1
        for cluster in range(num_clusters):
            assert len(sim.preferred_effects(1, cluster)) >= 1
        sim.generate()


# ----------------------------------------------------------------------
# Oracle: the cached-CDF simulator against per-draw ``Generator.choice``
# ----------------------------------------------------------------------
def _reference_simulate_user(sim, rng, uniform_root_draws):
    """One user simulated with a ``Generator.choice`` call per draw.

    The simulator must make exactly these stream calls and return exactly
    these baskets and causes.  ``uniform_root_draws`` counts the root
    draws whose preference mass is zero (``choice(..., p=None)``).
    """
    cfg = sim.config
    roots = np.nonzero(sim.cluster_graph.sum(axis=0) == 0)[0]
    preference = rng.dirichlet(
        np.full(cfg.num_clusters, cfg.preference_concentration))
    length = int(np.clip(rng.geometric(1.0 / cfg.mean_sequence_length),
                         cfg.min_sequence_length, cfg.max_sequence_length))

    def from_cluster(cluster):
        members = np.nonzero(sim.cluster_of_item[1:] == cluster)[0] + 1
        weights = sim.popularity[members]
        return int(rng.choice(members, p=weights / weights.sum()))

    def sample(history):
        if history and rng.random() < cfg.causal_follow_prob:
            for _ in range(3):
                weights = np.power(cfg.recency_decay,
                                   np.arange(len(history))[::-1])
                trigger = int(rng.choice(history, p=weights / weights.sum()))
                children = np.nonzero(
                    sim.cluster_graph[sim.cluster_of_item[trigger]])[0]
                if len(children) > 0:
                    child = int(rng.choice(children))
                    preferred = sim.preferred_effects(trigger, child)
                    if (len(preferred)
                            and rng.random() < cfg.affinity_strength):
                        return int(rng.choice(preferred)), (trigger,)
                    return from_cluster(child), (trigger,)
        if rng.random() < cfg.noise_prob:
            probs = sim.popularity[1:] / sim.popularity[1:].sum()
            return int(rng.choice(cfg.num_items, p=probs)) + 1, ()
        if roots.size and rng.random() < cfg.spontaneous_root_bias:
            root_pref = preference[roots]
            if root_pref.sum() > 0:
                root_pref = root_pref / root_pref.sum()
            else:
                root_pref = None
                uniform_root_draws.append(1)
            return from_cluster(int(rng.choice(roots, p=root_pref))), ()
        return from_cluster(int(rng.choice(cfg.num_clusters,
                                           p=preference))), ()

    history, baskets, causes = [], [], []
    for _ in range(length):
        basket, basket_causes = [], {}
        for slot in range(cfg.max_basket_size):
            if slot > 0 and rng.random() >= cfg.basket_extra_prob:
                break
            item, cause = sample(history)
            if item not in basket:
                basket.append(item)
                basket_causes[item] = cause
        baskets.append(tuple(basket))
        causes.append(basket_causes)
        history.extend(basket)
    return baskets, causes


def _outcome(fn):
    """``fn()``'s result, or ``ValueError`` if it raised one."""
    try:
        return fn()
    except ValueError:
        return ValueError


#: Every Table II profile, plus recency-biased triggers and a preference
#: so concentrated that root draws fall back to ``p=None``.
ORACLE_CASES = (
    [pytest.param(name, {}, id=name) for name in DATASET_NAMES]
    + [pytest.param("video", {"recency_decay": 0.7}, id="video-decay"),
       pytest.param("epinions", {"recency_decay": 0.7}, id="epinions-decay"),
       pytest.param("baby", {"preference_concentration": 1e-3},
                    id="baby-concentrated"),
       pytest.param("video", {"preference_concentration": 1e-3},
                    id="video-concentrated")])


def _oracle_config(name, overrides):
    cfg = dataset_config(name, scale=0.02, seed=3)
    return dataclasses.replace(cfg, num_users=60, **overrides)


@pytest.mark.parametrize("name,overrides", ORACLE_CASES)
class TestChoiceOracle:
    def test_keyed_user_streams(self, name, overrides):
        cfg = _oracle_config(name, overrides)
        sim = BehaviorSimulator(cfg)
        uniform_root_draws = []
        for user in range(cfg.num_users):
            ours, theirs = sim.user_rng(user), sim.user_rng(user)
            assert (_outcome(lambda: sim._simulate_user(ours))
                    == _outcome(lambda: _reference_simulate_user(
                        sim, theirs, uniform_root_draws))), user
            # Same calls on the stream, not merely the same output.
            assert ours.bit_generator.state == theirs.bit_generator.state
        if "preference_concentration" in overrides:
            assert uniform_root_draws, "p=None root branch never reached"

    def test_shared_stream_generate(self, name, overrides):
        cfg = _oracle_config(name, overrides)
        reference = BehaviorSimulator(cfg)

        def expected():
            users = [_reference_simulate_user(reference, reference._rng, [])
                     for _ in range(cfg.num_users)]
            return users, reference.generate_features()

        def actual():
            dataset = BehaviorSimulator(cfg).generate()
            users = [(list(s.baskets), causes) for s, causes
                     in zip(dataset.corpus, dataset.cause_log)]
            return users, dataset.features

        want, got = _outcome(expected), _outcome(actual)
        if want is ValueError or got is ValueError:
            assert want is got
            return
        assert got[0] == want[0]
        # The features follow the users on the shared stream.
        np.testing.assert_array_equal(got[1], want[1])


class _ChoiceForbidden:
    """A ``Generator`` stand-in that forwards the simulator's stream calls
    and fails on ``choice``: a per-draw ``choice`` is the cost the cached
    CDFs removed, and shared CI runners cannot time it reliably."""

    def __init__(self, rng):
        self._rng = rng

    def random(self):
        return self._rng.random()

    def integers(self, low, high):
        return self._rng.integers(low, high)

    def dirichlet(self, alpha):
        return self._rng.dirichlet(alpha)

    def geometric(self, p):
        return self._rng.geometric(p)

    def choice(self, *args, **kwargs):
        raise AssertionError("Generator.choice called per draw in the "
                             "simulator's sampling loop")


@pytest.mark.parametrize("name,overrides", ORACLE_CASES)
def test_simulation_makes_no_choice_calls(name, overrides):
    cfg = _oracle_config(name, overrides)
    sim = BehaviorSimulator(cfg)
    for user in range(cfg.num_users):
        sim._simulate_user(_ChoiceForbidden(sim.user_rng(user)))


class TestChoiceCdfValidation:
    @pytest.mark.parametrize("p", [[0.5, np.nan, 0.5], [1.5, -0.5],
                                   [-0.2, 0.6, 0.6], [0.5, 0.4]],
                             ids=["nan", "negative", "negative-sum-1",
                                  "sum-below-1"])
    def test_rejects_what_choice_rejects(self, p):
        p = np.array(p)
        with pytest.raises(ValueError):
            np.random.default_rng(0).choice(len(p), p=p)
        with pytest.raises(ValueError):
            _choice_cdf(p)

    def test_accepts_normalised_weights(self):
        weights = np.array([0.0, 3.0, 1.0, 0.0, 2.0])
        cdf = _choice_cdf(weights / weights.sum())
        assert cdf[-1] == 1.0
        assert cdf == sorted(cdf)
