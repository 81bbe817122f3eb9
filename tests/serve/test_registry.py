"""Checkpoint registry: artifact precompute, dispatch, hot swap."""

import numpy as np

from repro.core import Causer, CauserConfig
from repro.io import save_model
from repro.models import NARM, TrainConfig
from repro.nn.fused import basket_effects
from repro.serve import (CausalServingArtifacts, CheckpointRegistry,
                         GRUServingArtifacts, build_artifacts)


def assert_factors_match(art, model):
    """Artifacts carry ``causal_factors()`` bitwise, frozen read-only."""
    for served, expected in zip((art.cause_rows, art.assignments),
                                model.causal_factors()):
        assert served.shape == expected.shape
        assert served.shape[1] == model.config.num_clusters
        assert served.dtype == expected.dtype
        assert served.tobytes() == expected.tobytes()  # bitwise
        assert not served.flags.writeable
    assert art.epsilon == model.config.epsilon


class TestBuildArtifacts:
    def test_causer_precompute(self, served_causer):
        art = build_artifacts(served_causer, generation=1)
        assert isinstance(art, CausalServingArtifacts)
        assert art.mode == "incremental"
        assert_factors_match(art, served_causer)
        rows, cols = served_causer.causal_factors()
        matrix = rows @ cols.T
        expected_gate = np.where(matrix > served_causer.config.epsilon,
                                 matrix, 0.0)
        # One singleton basket per item: step t's effects are row t of
        # the gated W.
        items = np.arange(len(matrix))[:, None]
        effects, _ = basket_effects(art.cause_rows, art.assignments,
                                    art.epsilon, items,
                                    np.ones(items.shape, dtype=bool))
        np.testing.assert_allclose(effects.T, expected_gate, rtol=0,
                                   atol=1e-12)
        assert art.recurrent.cell_type == "gru"
        assert art.recurrent.track_states
        assert art.recurrent.max_history == served_causer.config.max_history
        assert art.supports_explain

    def test_causer_input_table_matches_model(self, served_causer):
        """The frozen input table equals encode() + free item embeddings."""
        art = build_artifacts(served_causer, generation=1)
        expected = (served_causer.clusters.encode().data
                    + served_causer.item_embedding.weight.data)
        np.testing.assert_allclose(art.recurrent.input_table, expected,
                                   atol=1e-12)

    def test_gru4rec_incremental(self, served_gru4rec):
        art = build_artifacts(served_gru4rec, generation=1)
        assert isinstance(art, GRUServingArtifacts)
        assert art.mode == "incremental"
        assert not art.recurrent.track_states
        assert not art.supports_explain

    def test_strict_causer_falls_back_to_replay(self, tiny_dataset):
        config = CauserConfig(embedding_dim=8, hidden_dim=8, num_clusters=4,
                              filtering_mode="strict", seed=0)
        model = Causer(tiny_dataset.corpus.num_users, tiny_dataset.num_items,
                       tiny_dataset.features, config)
        art = build_artifacts(model, generation=1)
        assert art.mode == "replay"
        assert art.supports_explain  # still a Causer: /v1/explain works

    def test_attention_model_replays(self, tiny_dataset):
        model = NARM(tiny_dataset.corpus.num_users, tiny_dataset.num_items,
                     TrainConfig(embedding_dim=8, hidden_dim=8, seed=0))
        art = build_artifacts(model, generation=1)
        assert art.mode == "replay"
        assert art.recurrent is None


class TestCheckpointRegistry:
    def test_install_bumps_generation(self, served_causer, served_gru4rec):
        registry = CheckpointRegistry()
        assert registry.current() is None
        first = registry.install(served_causer)
        second = registry.install(served_gru4rec)
        assert second.generation == first.generation + 1
        assert registry.current() is second

    def test_load_from_file(self, served_causer, tmp_path):
        path = tmp_path / "causer.npz"
        save_model(served_causer, path)
        registry = CheckpointRegistry()
        art = registry.load(path)
        assert art.path == str(path)
        assert art.model_class == "Causer"
        assert_factors_match(art, served_causer)


class TestItemCausalMatrix:
    def test_reflects_parameter_updates(self, served_causer):
        def item_causal_matrix():
            rows, cols = served_causer.causal_factors()
            return rows @ cols.T

        before = item_causal_matrix()
        weights = served_causer.graph.weights.data
        original = weights.copy()
        try:
            weights[0, 1] += 0.25
            after = item_causal_matrix()
            assert after is not before
            assert not np.array_equal(after, before)
        finally:
            weights[...] = original
