"""From-scratch numpy ANN: brute-force oracle + IVF inverted-file index.

:class:`ExactIndex` scores every item and is the correctness oracle the
property tests compare against.  :class:`IVFIndex` is the classic
inverted-file design: a k-means **coarse quantizer** partitions the item
tower into ``n_clusters`` cells, each cell keeps a contiguous copy of its
members' vectors (an inverted list), and a query scans only the
``nprobe`` cells whose centroids are nearest — ``nprobe = n_clusters``
degenerates to brute force and is *exactly* the oracle, which the tests
assert bitwise.

Determinism contract (asserted by ``tests/retrieval/test_determinism.py``):

* k-means initialisation draws from ``SeedSequence(seed, spawn_key=(0,))``
  and every other step is arithmetic on fixed-order arrays, so a build is
  bit-identical across runs for a fixed seed;
* the assignment step runs over fixed-size row chunks
  (:data:`ASSIGN_CHUNK`), so the chunk boundaries — and every matrix
  product — are the same on every build;
* every ranking (probe order, candidate top-k) breaks score ties by
  ascending id via ``np.lexsort``, so duplicate/degenerate vectors have
  one canonical order.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from .towers import SCORERS, ItemTower, as_dense

#: Rows per assignment chunk: bounds the ``(chunk, n_clusters)`` distance
#: block.  Fixed, so the chunk boundaries — and therefore every matrix
#: product — are identical from build to build.
ASSIGN_CHUNK = 16_384


def top_ids_by_score(scores: np.ndarray, ids: np.ndarray,
                     k: int) -> np.ndarray:
    """Top-``k`` ids by descending score, ties broken by ascending id.

    The retrieval-wide ranking rule: both index types and the serve
    re-rank stage use it, so IVF-with-all-probes matches brute force
    bitwise and degenerate (all-tied) towers still rank canonically.
    """
    if scores.shape[0] != ids.shape[0]:
        raise ValueError("scores/ids length mismatch")
    order = np.lexsort((ids, -scores))
    return ids[order[:min(k, ids.shape[0])]]


class ExactIndex:
    """Brute-force scorer over the full item tower (the oracle)."""

    def __init__(self, tower: ItemTower, scorer: str = "dot") -> None:
        if scorer not in SCORERS:
            raise ValueError(f"unknown scorer {scorer!r}; "
                             f"choose from {sorted(SCORERS)}")
        self.tower = tower
        self.scorer_name = scorer
        self._scorer = SCORERS[scorer]

    @property
    def size(self) -> int:
        return self.tower.size

    def search(self, query: np.ndarray, k: int) -> np.ndarray:
        """Ids of the ``k`` best items for ``query``, best first."""
        scores = self._scorer(np.asarray(query, dtype=np.float64),
                              self.tower.vectors, self.tower.bias)
        return top_ids_by_score(scores, self.tower.ids, k)


# ----------------------------------------------------------------------
# k-means coarse quantizer
# ----------------------------------------------------------------------

def _assign_all(vectors: np.ndarray, centroids: np.ndarray
                ) -> Tuple[np.ndarray, np.ndarray]:
    """Nearest centroid (and its distance) for every row, chunk by chunk."""
    cent_sq = (centroids * centroids).sum(axis=1)
    assign_parts, mindist_parts = [], []
    for start in range(0, vectors.shape[0], ASSIGN_CHUNK):
        chunk = vectors[start:start + ASSIGN_CHUNK]
        # ||x - c||^2 = ||x||^2 - 2 x.c + ||c||^2; the ||x||^2 term is
        # constant per row and dropped (it cannot change the argmin).
        d2 = cent_sq[None, :] - 2.0 * (chunk @ centroids.T)
        assign = np.argmin(d2, axis=1)
        assign_parts.append(assign.astype(np.int64))
        mindist_parts.append(d2[np.arange(chunk.shape[0]), assign])
    return np.concatenate(assign_parts), np.concatenate(mindist_parts)


def kmeans_fit(vectors: np.ndarray, n_clusters: int, seed: int = 0,
               iters: int = 8) -> Tuple[np.ndarray, np.ndarray]:
    """Lloyd's algorithm; returns ``(centroids, assignments)``.

    Initial centroids are ``n_clusters`` distinct rows drawn from
    ``SeedSequence(seed, spawn_key=(0,))``.  Empty cells are re-seeded to
    the point farthest from its centroid (ties -> lowest row index), so
    degenerate towers (all-equal rows, zero vectors) terminate with every
    cell owning at least one point whenever ``n_clusters <= n``.
    """
    n = vectors.shape[0]
    if n == 0:
        raise ValueError("cannot cluster an empty item tower")
    n_clusters = max(1, min(n_clusters, n))
    rng = np.random.default_rng(np.random.SeedSequence(seed,
                                                       spawn_key=(0,)))
    picks = rng.choice(n, size=n_clusters, replace=False)
    centroids = vectors[picks].copy()
    assign = np.full(n, -1, dtype=np.int64)
    for _ in range(max(1, iters)):
        new_assign, mindist = _assign_all(vectors, centroids)
        # Re-seed empty cells from the worst-served points so no cell
        # stays empty (deterministic: argmax breaks ties by lowest index).
        counts = np.bincount(new_assign, minlength=n_clusters)
        for empty in np.flatnonzero(counts == 0):
            donor = int(np.argmax(mindist))
            counts[new_assign[donor]] -= 1
            new_assign[donor] = empty
            counts[empty] += 1
            mindist[donor] = -np.inf
        if np.array_equal(new_assign, assign):
            break
        assign = new_assign
        sums = np.zeros_like(centroids)
        np.add.at(sums, assign, vectors)
        counts = np.bincount(assign, minlength=n_clusters)
        centroids = sums / counts[:, None]
    return centroids, assign


# ----------------------------------------------------------------------
# IVF index
# ----------------------------------------------------------------------

class IVFIndex:
    """Inverted-file index over an :class:`ItemTower`.

    Built via :meth:`build`; all arrays are frozen after construction —
    a hot swap replaces the whole index object, never mutates it.
    """

    def __init__(self, centroids: np.ndarray, list_ids: List[np.ndarray],
                 list_vectors: List[np.ndarray], list_bias: List[np.ndarray],
                 scorer: str = "dot", seed: int = 0) -> None:
        if scorer not in SCORERS:
            raise ValueError(f"unknown scorer {scorer!r}; "
                             f"choose from {sorted(SCORERS)}")
        self.centroids = centroids
        self.list_ids = list_ids
        self.list_vectors = list_vectors
        self.list_bias = list_bias
        self.scorer_name = scorer
        self.seed = seed
        self._scorer = SCORERS[scorer]
        self._cent_sq = (centroids * centroids).sum(axis=1)
        self._cluster_order = np.arange(centroids.shape[0])
        for array in (self.centroids, self._cent_sq, *list_ids,
                      *list_vectors, *list_bias):
            array.setflags(write=False)

    @classmethod
    def build(cls, tower: ItemTower, n_clusters: Optional[int] = None,
              scorer: str = "dot", seed: int = 0,
              iters: int = 8) -> "IVFIndex":
        """Train the coarse quantizer and materialize the inverted lists."""
        n = tower.size
        if n_clusters is None:
            n_clusters = max(1, int(round(np.sqrt(n))))
        centroids, assign = kmeans_fit(tower.vectors, n_clusters, seed=seed,
                                       iters=iters)
        list_ids: List[np.ndarray] = []
        list_vectors: List[np.ndarray] = []
        list_bias: List[np.ndarray] = []
        for cluster in range(centroids.shape[0]):
            members = np.flatnonzero(assign == cluster)
            list_ids.append(tower.ids[members].copy())
            list_vectors.append(np.ascontiguousarray(tower.vectors[members]))
            list_bias.append(tower.bias[members].copy())
        return cls(centroids, list_ids, list_vectors, list_bias,
                   scorer=scorer, seed=seed)

    @property
    def n_clusters(self) -> int:
        return int(self.centroids.shape[0])

    @property
    def size(self) -> int:
        return int(sum(ids.shape[0] for ids in self.list_ids))

    def probe_order(self, query: np.ndarray, nprobe: int) -> np.ndarray:
        """The ``nprobe`` nearest cells, nearest first (ties by cell id)."""
        d2 = self._cent_sq - 2.0 * (self.centroids @ query)
        order = np.lexsort((self._cluster_order, d2))
        return order[:min(max(1, nprobe), self.n_clusters)]

    def search(self, query: np.ndarray, k: int,
               nprobe: int = 8) -> np.ndarray:
        """Top-``k`` ids among the probed cells' members, best first.

        The probed lists' rows are scored in one call, and each row's
        score is independent of the rows it is scored with, so the bits
        match a brute-force scan; the final cut uses the shared tie-break
        rule, which makes ``nprobe == n_clusters`` literally the
        :class:`ExactIndex` result.
        """
        query = np.asarray(query, dtype=np.float64)
        probes = [j for j in self.probe_order(query, nprobe)
                  if self.list_ids[j].size]
        if not probes:
            return np.empty(0, dtype=np.int64)
        # ``as_dense`` makes quantized inverted lists scoreable: fp16
        # lists upcast inside the scorer, int8 lists dequantize per
        # probed cell (cost comparable to the scoring matmul itself).
        vectors = np.concatenate([as_dense(self.list_vectors[j])
                                  for j in probes])
        scores = self._scorer(query, vectors, np.concatenate(
            [self.list_bias[j] for j in probes]))
        return top_ids_by_score(
            scores, np.concatenate([self.list_ids[j] for j in probes]), k)
