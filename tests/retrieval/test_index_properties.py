"""Property-based retrieval tests (seeded random towers, no hypothesis).

Each property is checked over a seeded family of random towers and
queries — the poor man's property-based testing the repo uses instead of
a hypothesis dependency.  The properties:

* IVF with ``nprobe == n_clusters`` IS brute force (bitwise id-for-id),
* recall@shortlist is monotone non-decreasing in ``nprobe`` and in the
  shortlist size (larger candidate sets can only keep or gain true
  top-z members),
* degenerate towers (all-equal rows, zero vectors, duplicates, fewer
  points than clusters) build and search without crashing and never
  return out-of-range or duplicate ids.
"""

import numpy as np
import pytest

from repro.retrieval import ExactIndex, IVFIndex, ItemTower, top_ids_by_score
from repro.retrieval import index

SEEDS = [0, 1, 2, 3, 4]
#: The one score both indexes rank by (the inner product); it names the
#: cases of the exactness and degenerate-tower tests.
SCORER_NAMES = ["dot"]


def random_tower(seed, n=256, d=8, clustered=True):
    rng = np.random.default_rng(seed)
    if clustered:
        centers = rng.normal(size=(8, d)) * 3.0
        which = rng.integers(0, centers.shape[0], size=n)
        vectors = centers[which] + rng.normal(size=(n, d)) * 0.4
    else:
        vectors = rng.normal(size=(n, d))
    bias = rng.normal(size=n) * 0.1
    return ItemTower(vectors=vectors, bias=bias,
                     ids=np.arange(1, n + 1, dtype=np.int64)), rng


def recall_at(shortlist_ids, exact_top_z):
    exact = set(int(i) for i in exact_top_z)
    return len(exact & set(int(i) for i in shortlist_ids)) / len(exact)


def build_ivf(monkeypatch, tower, n_clusters, seed):
    """An IVF index whose k-means starts from ``seed``."""
    monkeypatch.setattr(index, "KMEANS_SEED", seed)
    return IVFIndex.build(tower, n_clusters)


@pytest.mark.parametrize("scorer", SCORER_NAMES)
@pytest.mark.parametrize("seed", SEEDS)
def test_full_nprobe_is_brute_force(seed, scorer, monkeypatch):
    tower, rng = random_tower(seed)
    exact = ExactIndex(tower)
    ivf = build_ivf(monkeypatch, tower, 12, seed)
    for _ in range(5):
        query = rng.normal(size=tower.vectors.shape[1])
        want = exact.search(query, 25)
        got = ivf.search(query, 25, nprobe=ivf.n_clusters)
        assert np.array_equal(want, got)


@pytest.mark.parametrize("seed", SEEDS)
def test_recall_monotone_in_nprobe(seed, monkeypatch):
    tower, rng = random_tower(seed)
    exact = ExactIndex(tower)
    ivf = build_ivf(monkeypatch, tower, 16, seed)
    for _ in range(3):
        query = rng.normal(size=tower.vectors.shape[1])
        top_z = exact.search(query, 10)
        last = -1.0
        for nprobe in range(1, ivf.n_clusters + 1):
            rec = recall_at(ivf.search(query, 40, nprobe=nprobe), top_z)
            assert rec >= last, (nprobe, rec, last)
            last = rec
        assert last == 1.0  # all probes == brute force == perfect recall


@pytest.mark.parametrize("seed", SEEDS)
def test_recall_monotone_in_shortlist_size(seed, monkeypatch):
    tower, rng = random_tower(seed)
    exact = ExactIndex(tower)
    ivf = build_ivf(monkeypatch, tower, 16, seed)
    query = rng.normal(size=tower.vectors.shape[1])
    top_z = exact.search(query, 10)
    last = -1.0
    for shortlist in (5, 10, 20, 40, 80, 160):
        rec = recall_at(ivf.search(query, shortlist, nprobe=4), top_z)
        assert rec >= last, (shortlist, rec, last)
        last = rec


@pytest.mark.parametrize("seed", SEEDS)
def test_shortlists_are_nested_prefixes(seed, monkeypatch):
    """search(k1) is literally the first k1 entries of search(k2), k1<k2."""
    tower, rng = random_tower(seed)
    ivf = build_ivf(monkeypatch, tower, 10, seed)
    query = rng.normal(size=tower.vectors.shape[1])
    big = ivf.search(query, 60, nprobe=3)
    for k in (1, 7, 30):
        assert np.array_equal(ivf.search(query, k, nprobe=3), big[:k])


def _assert_valid_ids(ids, n):
    ids = np.asarray(ids)
    assert ids.dtype.kind == "i"
    if ids.size:
        assert ids.min() >= 1 and ids.max() <= n
    assert len(set(ids.tolist())) == ids.size  # no duplicates


@pytest.mark.parametrize("scorer", SCORER_NAMES)
def test_degenerate_all_equal_rows(scorer):
    n = 40
    tower = ItemTower(vectors=np.ones((n, 4)), bias=np.zeros(n),
                      ids=np.arange(1, n + 1, dtype=np.int64))
    ivf = IVFIndex.build(tower, 6)
    assert sum(len(ids) for ids in ivf.list_ids) == n
    got = ivf.search(np.ones(4), 15, nprobe=6)
    _assert_valid_ids(got, n)
    # All scores tie -> canonical ascending-id order.
    assert np.array_equal(got, np.arange(1, 16))


@pytest.mark.parametrize("scorer", SCORER_NAMES)
def test_degenerate_zero_vectors(scorer, monkeypatch):
    n = 25
    tower = ItemTower(vectors=np.zeros((n, 6)), bias=np.zeros(n),
                      ids=np.arange(1, n + 1, dtype=np.int64))
    exact = ExactIndex(tower)
    ivf = build_ivf(monkeypatch, tower, 4, 1)
    query = np.zeros(6)
    _assert_valid_ids(exact.search(query, 10), n)
    got = ivf.search(query, 10, nprobe=4)
    _assert_valid_ids(got, n)
    assert np.array_equal(got, exact.search(query, 10))


def test_more_clusters_than_points_clamps(monkeypatch):
    n = 5
    tower, rng = random_tower(9, n=n, d=3)
    ivf = build_ivf(monkeypatch, tower, 64, 2)
    assert ivf.n_clusters == n
    got = ivf.search(rng.normal(size=3), 10, nprobe=64)
    _assert_valid_ids(got, n)
    assert got.size == n  # whole catalog fits in the shortlist


def test_duplicate_vectors_rank_by_id(monkeypatch):
    rng = np.random.default_rng(11)
    base = rng.normal(size=8)
    vectors = np.tile(base, (30, 1))
    tower = ItemTower(vectors=vectors, bias=np.zeros(30),
                      ids=np.arange(1, 31, dtype=np.int64))
    ivf = build_ivf(monkeypatch, tower, 5, 4)
    got = ivf.search(base, 10, nprobe=5)
    assert np.array_equal(got, np.arange(1, 11))


def test_top_ids_by_score_tie_break():
    scores = np.array([1.0, 2.0, 2.0, 0.5, 2.0])
    ids = np.array([9, 7, 3, 1, 5], dtype=np.int64)
    assert top_ids_by_score(scores, ids, 4).tolist() == [3, 5, 7, 9]
    with pytest.raises(ValueError):
        top_ids_by_score(scores, ids[:3], 2)


def test_search_never_returns_padding_or_unknown_ids(monkeypatch):
    for seed in SEEDS:
        tower, rng = random_tower(seed, n=100)
        ivf = build_ivf(monkeypatch, tower, 9, seed)
        for nprobe in (1, 3, 9):
            got = ivf.search(rng.normal(size=tower.vectors.shape[1]), 30, nprobe=nprobe)
            _assert_valid_ids(got, 100)
            assert 0 not in got
