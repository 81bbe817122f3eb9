"""The PC algorithm — constraint-based causal discovery.

The paper (§IV) contrasts two causal-discovery families: *constraint-based*
methods that test conditional independencies (Spirtes et al.'s PC being the
canonical member) and *score-based* methods like NOTEARS that Causer builds
on.  This module implements PC for Gaussian data so the two families can be
compared on the same synthetic SEMs:

1. start from the complete undirected graph,
2. remove edges whose endpoints are conditionally independent given some
   subset of neighbours (Fisher-z partial-correlation tests of growing
   conditioning size),
3. orient v-structures from the stored separating sets,
4. propagate orientations with Meek's rules R1-R3.

The output is a CPDAG in the same encoding as
:func:`repro.causal.graph.cpdag`, so :func:`markov_equivalent`-style
comparisons and :func:`evaluate_structure` work directly.
"""

from __future__ import annotations

from itertools import combinations
from typing import Dict, FrozenSet, List, Optional, Set, Tuple

import numpy as np


def fisher_z_test(corr: np.ndarray, x: int, y: int, given: Tuple[int, ...],
                  num_samples: int) -> float:
    """p-value of the partial-correlation independence test x ⟂ y | given.

    Uses the Fisher z-transform of the partial correlation computed from
    the inverse of the relevant correlation submatrix.
    """
    idx = [x, y] + list(given)
    sub = corr[np.ix_(idx, idx)]
    try:
        precision = np.linalg.inv(sub)
    except np.linalg.LinAlgError:
        precision = np.linalg.pinv(sub)
    partial = -precision[0, 1] / np.sqrt(precision[0, 0] * precision[1, 1])
    partial = np.clip(partial, -0.999999, 0.999999)
    dof = num_samples - len(given) - 3
    if dof <= 0:
        return 1.0
    z = 0.5 * np.log((1 + partial) / (1 - partial)) * np.sqrt(dof)
    from scipy import stats
    return float(2 * (1 - stats.norm.cdf(abs(z))))


class PCResult:
    """Outcome of a PC run: the CPDAG and the separating sets found."""

    def __init__(self, cpdag: np.ndarray,
                 separating_sets: Dict[FrozenSet[int], Tuple[int, ...]]) -> None:
        self.cpdag = cpdag
        self.separating_sets = separating_sets

    def undirected_edges(self) -> List[Tuple[int, int]]:
        out = []
        n = self.cpdag.shape[0]
        for i in range(n):
            for j in range(i + 1, n):
                if self.cpdag[i, j] and self.cpdag[j, i]:
                    out.append((i, j))
        return out

    def directed_edges(self) -> List[Tuple[int, int]]:
        out = []
        n = self.cpdag.shape[0]
        for i in range(n):
            for j in range(n):
                if self.cpdag[i, j] and not self.cpdag[j, i]:
                    out.append((i, j))
        return out


def pc_algorithm(data: np.ndarray, alpha: float = 0.05,
                 max_condition_size: Optional[int] = None) -> PCResult:
    """Run PC on an ``(n, m)`` data matrix; returns the estimated CPDAG."""
    data = np.asarray(data, dtype=np.float64)
    if data.ndim != 2:
        raise ValueError(f"data must be 2-d, got shape {data.shape}")
    n, m = data.shape
    corr = np.corrcoef(data, rowvar=False)
    adjacency = np.ones((m, m), dtype=bool)
    np.fill_diagonal(adjacency, False)
    separating: Dict[FrozenSet[int], Tuple[int, ...]] = {}

    # -- Phase 1: skeleton discovery -----------------------------------
    limit = m - 2 if max_condition_size is None else max_condition_size
    size = 0
    while size <= limit:
        any_testable = False
        for x in range(m):
            for y in range(x + 1, m):
                if not adjacency[x, y]:
                    continue
                neighbours = set(np.nonzero(adjacency[x])[0]) - {y}
                if len(neighbours) < size:
                    continue
                any_testable = True
                removed = False
                for given in combinations(sorted(neighbours), size):
                    p_value = fisher_z_test(corr, x, y, given, n)
                    if p_value > alpha:
                        adjacency[x, y] = adjacency[y, x] = False
                        separating[frozenset((x, y))] = given
                        removed = True
                        break
                if removed:
                    continue
        if not any_testable:
            break
        size += 1

    # -- Phase 2: v-structure orientation ------------------------------
    # cpdag[i, j] = 1 means "i - j or i -> j" per the pattern encoding.
    pattern = adjacency.astype(np.int64)
    for z in range(m):
        neighbours = np.nonzero(adjacency[z])[0]
        for x, y in combinations(neighbours, 2):
            if adjacency[x, y]:
                continue  # shielded
            sep = separating.get(frozenset((x, y)), ())
            if z not in sep:
                # x -> z <- y
                pattern[z, x] = 0
                pattern[z, y] = 0

    # -- Phase 3: Meek's orientation rules ------------------------------
    pattern = _apply_meek_rules(pattern)
    return PCResult(cpdag=pattern, separating_sets=separating)


def _apply_meek_rules(pattern: np.ndarray) -> np.ndarray:
    """Meek rules R1-R3, iterated to a fixed point.

    Edge encodings: directed i->j iff pattern[i,j]=1, pattern[j,i]=0;
    undirected iff both 1.
    """
    pattern = pattern.copy()
    m = pattern.shape[0]

    def directed(i, j):
        return pattern[i, j] == 1 and pattern[j, i] == 0

    def undirected(i, j):
        return pattern[i, j] == 1 and pattern[j, i] == 1

    changed = True
    while changed:
        changed = False
        for a in range(m):
            for b in range(m):
                if not undirected(a, b):
                    continue
                # R1: c -> a and c not adjacent to b  =>  a -> b
                for c in range(m):
                    if directed(c, a) and not pattern[c, b] and not pattern[b, c]:
                        pattern[b, a] = 0
                        changed = True
                        break
                if not undirected(a, b):
                    continue
                # R2: a -> c -> b  =>  a -> b
                for c in range(m):
                    if directed(a, c) and directed(c, b):
                        pattern[b, a] = 0
                        changed = True
                        break
                if not undirected(a, b):
                    continue
                # R3: a - c -> b and a - d -> b with c, d non-adjacent => a -> b
                parents_of_b = [c for c in range(m)
                                if directed(c, b) and undirected(a, c)]
                stop = False
                for c_idx in range(len(parents_of_b)):
                    for d_idx in range(c_idx + 1, len(parents_of_b)):
                        c, d = parents_of_b[c_idx], parents_of_b[d_idx]
                        if not pattern[c, d] and not pattern[d, c]:
                            pattern[b, a] = 0
                            changed = True
                            stop = True
                            break
                    if stop:
                        break
    return pattern
