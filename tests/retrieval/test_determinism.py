"""Index builds and searches must be bit-identical across runs.

The contract: k-means draws its initial centroids from
``SeedSequence(seed, spawn_key=(0,))``, the assignment step is
arithmetic over fixed-size row chunks, and every ranking breaks ties by
ascending item id — so rerunning cannot change a single bit.
"""

import numpy as np
import pytest

from repro.retrieval import ExactIndex, IVFIndex, ItemTower, kmeans_fit


def make_tower(seed, n=400, d=6):
    rng = np.random.default_rng(seed)
    centers = rng.normal(size=(10, d)) * 2.5
    vectors = centers[rng.integers(0, 10, size=n)] + rng.normal(size=(n, d))
    return ItemTower(vectors=vectors, bias=rng.normal(size=n) * 0.1,
                     ids=np.arange(1, n + 1, dtype=np.int64))


def assert_indexes_identical(a, b):
    assert np.array_equal(a.centroids, b.centroids)
    assert len(a.list_ids) == len(b.list_ids)
    for ids_a, ids_b in zip(a.list_ids, b.list_ids):
        assert np.array_equal(ids_a, ids_b)
    for vec_a, vec_b in zip(a.list_vectors, b.list_vectors):
        assert np.array_equal(vec_a, vec_b)
    for bias_a, bias_b in zip(a.list_bias, b.list_bias):
        assert np.array_equal(bias_a, bias_b)


@pytest.mark.parametrize("seed", [0, 3])
def test_rebuild_same_seed_is_bitwise_identical(seed):
    tower = make_tower(seed)
    first = IVFIndex.build(tower, n_clusters=12, seed=seed)
    second = IVFIndex.build(tower, n_clusters=12, seed=seed)
    assert_indexes_identical(first, second)


def test_kmeans_same_seed_same_centroids():
    tower = make_tower(5)
    c1, a1 = kmeans_fit(tower.vectors, 8, seed=42)
    c2, a2 = kmeans_fit(tower.vectors, 8, seed=42)
    assert np.array_equal(c1, c2)
    assert np.array_equal(a1, a2)


def test_repeated_search_is_identical():
    tower = make_tower(2)
    ivf = IVFIndex.build(tower, n_clusters=9, seed=2)
    exact = ExactIndex(tower)
    query = np.random.default_rng(4).normal(size=tower.dim)
    for index, kwargs in ((ivf, {"nprobe": 4}), (exact, {})):
        first = index.search(query, 25, **kwargs)
        for _ in range(3):
            assert np.array_equal(index.search(query, 25, **kwargs), first)


def test_probe_order_tie_break_by_cell_id():
    """Identical centroids -> probe order falls back to ascending cell id."""
    n = 12
    tower = ItemTower(vectors=np.ones((n, 3)), bias=np.zeros(n),
                      ids=np.arange(1, n + 1, dtype=np.int64))
    ivf = IVFIndex.build(tower, n_clusters=4, seed=0)
    probes = ivf.probe_order(np.ones(3), nprobe=4)
    assert probes.tolist() == sorted(probes.tolist())


def test_duplicate_ties_rank_by_ascending_id():
    rng = np.random.default_rng(8)
    base = rng.normal(size=5)
    vectors = np.tile(base, (20, 1))
    # Shuffled ids so the canonical order is NOT storage order.
    ids = np.arange(1, 21, dtype=np.int64)
    rng.shuffle(ids)
    tower = ItemTower(vectors=vectors, bias=np.zeros(20), ids=ids)
    exact = ExactIndex(tower)
    assert exact.search(base, 6).tolist() == [1, 2, 3, 4, 5, 6]
    ivf = IVFIndex.build(tower, n_clusters=3, seed=0)
    assert ivf.search(base, 6, nprobe=3).tolist() == [1, 2, 3, 4, 5, 6]
