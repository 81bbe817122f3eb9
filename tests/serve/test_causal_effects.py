"""Eq.-9 effects from the rank-K factors: subset-stable and gated.

Serving computes a request's gated causal effects from ``(Ā Wᶜ, Ā)``
with :func:`repro.nn.fused.basket_effects`, the kernel training and
evaluation share, never from a (V+1)² matrix.  The IVF re-rank needs the
effects on a candidate subset to be bitwise equal to the full-catalog
pass gathered at those candidates.
CI also runs this file with one BLAS thread.
"""

import numpy as np
import pytest

from repro.data import EvalSample, pad_samples
from repro.nn.fused import CANDIDATE_BLOCK, basket_effects
from repro.serve import (SessionStore, build_artifacts, score_view_candidates,
                         score_views)

NUM_ROWS = 101        # V + 1: not a multiple of the candidate block
RANK = 5
EPSILON = 0.05

#: Basket sizes per step.  Past 8 items numpy's pairwise sum unrolls, and
#: a size of 0 is a step with an empty basket.
BASKETS = {"singletons": (1, 1, 1), "wide": (11, 3, 17),
           "empty_step": (2, 0, 9, 0, 1)}
CANDIDATES = {"single": 1, "one_block": CANDIDATE_BLOCK,
              "off_block": 2 * CANDIDATE_BLOCK + 5}


@pytest.fixture(scope="module")
def factors():
    """A random ``(Ā Wᶜ, Ā)`` pair with soft assignments."""
    rng = np.random.default_rng(19)
    assignments = rng.dirichlet(np.full(RANK, 0.3), size=NUM_ROWS)
    graph = rng.normal(scale=0.5, size=(RANK, RANK))
    return assignments @ graph, assignments


def events_effects(cause_rows, effect_cols, events):
    """The kernel on one session's baskets, padded as serving pads them."""
    history = pad_samples([EvalSample(0, tuple(events), ())])
    return basket_effects(cause_rows, effect_cols, EPSILON, history.items[0],
                          history.basket_mask[0] > 0)[0]


def random_events(rng, sizes):
    return [tuple(int(i) for i in rng.integers(1, NUM_ROWS, size=size))
            for size in sizes]


@pytest.mark.parametrize("sizes", BASKETS.values(), ids=BASKETS)
@pytest.mark.parametrize("count", CANDIDATES.values(), ids=CANDIDATES)
def test_subset_is_bitwise_the_gathered_full_pass(factors, sizes, count):
    cause_rows, assignments = factors
    rng = np.random.default_rng(count)
    events = random_events(rng, sizes)
    full = events_effects(cause_rows, assignments, events)
    candidates = rng.choice(NUM_ROWS, size=count, replace=False)
    subset = events_effects(cause_rows, assignments[candidates], events)
    assert subset.shape == (count, len(sizes))
    assert subset.tobytes() == full[candidates].tobytes()


def test_matches_the_gated_matrix(factors):
    """Each step sums its basket's rows of ``np.where(W > ε, W, 0)``."""
    cause_rows, assignments = factors
    matrix = cause_rows @ assignments.T
    gated = np.where(matrix > EPSILON, matrix, 0.0)
    events = random_events(np.random.default_rng(2), (3, 0, 12))
    effects = events_effects(cause_rows, assignments, events)
    expected = np.stack([gated[list(basket)].sum(axis=0)
                         for basket in events], axis=1)
    assert (effects[:, 1] == 0).all()
    np.testing.assert_allclose(effects, expected, rtol=0, atol=1e-12)


def test_nan_effects_gate_to_zero(factors):
    """A NaN entry gates like ``np.where``: to zero, as a zero row would."""
    cause_rows, assignments = factors
    poisoned, zeroed = cause_rows.copy(), cause_rows.copy()
    poisoned[4] = np.nan
    zeroed[4] = 0.0
    events = [(4,), (4, 5)]
    effects = events_effects(poisoned, assignments, events)
    assert (effects[:, 0] == 0).all()
    assert effects.tobytes() == events_effects(zeroed, assignments,
                                               events).tobytes()


@pytest.mark.parametrize("count", CANDIDATES.values(), ids=CANDIDATES)
def test_served_rerank_with_wide_baskets(served_causer, count):
    """The re-rank contract on a live session whose baskets exceed 8."""
    artifacts = build_artifacts(served_causer, generation=1)
    store = SessionStore()
    rng = np.random.default_rng(5)
    for width in (10, 1, 9, 3):
        basket = rng.integers(1, served_causer.num_items + 1, size=width)
        store.append_event(0, tuple(int(i) for i in basket), artifacts)
    view = store.view(0, artifacts)
    full = np.asarray(score_views(artifacts, [view]))[0]
    candidates = rng.choice(np.arange(1, served_causer.num_items + 1),
                            size=count, replace=False)
    restricted = score_view_candidates(artifacts, view, candidates)
    assert restricted.tobytes() == full[candidates].tobytes()
