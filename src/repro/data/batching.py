"""Padding, negative sampling and mini-batch iteration.

Sequences are ragged (variable length, variable basket size); models consume
dense arrays.  :func:`pad_samples` converts a list of
:class:`~repro.data.interactions.EvalSample` into a :class:`PaddedBatch`:

* ``items``     — ``(batch, time, slot)`` int64, item ids left-aligned in
  time, 0-padded,
* ``basket_mask`` — ``(batch, time, slot)`` float, 1 where a real item sits,
* ``step_mask`` — ``(batch, time)`` bool, True on real timesteps,
* ``users``     — ``(batch,)`` int64,
* ``positives`` — ``(batch, pos_slot)`` target item ids (0-padded) with
  ``positive_mask``.

Training additionally samples ``num_negatives`` negatives per positive slot
uniformly from items outside the row's history and target basket (the
paper's sigmoid + negative-sampling objective).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, List, Optional, Sequence

import numpy as np

from .interactions import EvalSample


def _exclusive_cumsum(counts: np.ndarray) -> np.ndarray:
    """``[0, c0, c0+c1, ...]`` — offsets from segment lengths."""
    out = np.empty(len(counts) + 1, dtype=np.int64)
    out[0] = 0
    np.cumsum(counts, out=out[1:])
    return out


def _segmented_arange(counts: np.ndarray) -> np.ndarray:
    """``[0..c0), [0..c1), ...`` concatenated, without a Python loop."""
    counts = counts.astype(np.int64, copy=False)
    total = int(counts.sum())
    if total == 0:
        return np.zeros(0, dtype=np.int64)
    starts = np.repeat(_exclusive_cumsum(counts)[:-1], counts)
    return np.arange(total, dtype=np.int64) - starts


@dataclass
class PaddedBatch:
    """Dense representation of a batch of (history, target) samples."""

    users: np.ndarray          # (B,)
    items: np.ndarray          # (B, T, S)
    basket_mask: np.ndarray    # (B, T, S)
    step_mask: np.ndarray      # (B, T)
    positives: np.ndarray      # (B, P)
    positive_mask: np.ndarray  # (B, P)
    negatives: Optional[np.ndarray] = None  # (B, P, N)

    @property
    def batch_size(self) -> int:
        return self.items.shape[0]

    def flat_history_sets(self) -> List[set]:
        """Set of all items in each row's history (for sampling exclusions)."""
        result = []
        for row in range(self.batch_size):
            present = self.items[row][self.basket_mask[row].astype(bool)]
            result.append(set(int(i) for i in present))
        return result


def pad_samples(samples: Sequence[EvalSample],
                max_history: Optional[int] = None) -> PaddedBatch:
    """Convert ragged samples into a :class:`PaddedBatch` (no negatives).

    The dense arrays are each allocated once and filled by a single
    fancy-indexed scatter over (row, step, slot) coordinates — no
    per-sample row assignment.
    """
    if not samples:
        raise ValueError("cannot pad an empty batch")
    histories = []
    for sample in samples:
        history = sample.history
        if max_history is not None and len(history) > max_history:
            history = history[-max_history:]
        histories.append(history)

    batch = len(samples)
    lengths = np.fromiter((len(h) for h in histories), dtype=np.int64,
                          count=batch)
    widths = np.fromiter((len(b) for h in histories for b in h),
                         dtype=np.int64, count=int(lengths.sum()))
    values = np.fromiter((i for h in histories for b in h for i in b),
                         dtype=np.int64, count=int(widths.sum()))
    pos_widths = np.fromiter((len(s.target) for s in samples),
                             dtype=np.int64, count=batch)
    pos_values = np.fromiter((i for s in samples for i in s.target),
                             dtype=np.int64, count=int(pos_widths.sum()))

    max_time = int(lengths.max())
    max_slot = int(widths.max()) if widths.size else 1
    max_pos = int(pos_widths.max())
    users = np.fromiter((s.user_id for s in samples), dtype=np.int64,
                        count=batch)
    step_mask = np.arange(max_time)[None, :] < lengths[:, None]

    items = np.zeros((batch, max_time, max_slot), dtype=np.int64)
    basket_mask = np.zeros((batch, max_time, max_slot), dtype=np.float64)
    rows_e = np.repeat(np.repeat(np.arange(batch), lengths), widths)
    t_e = np.repeat(_segmented_arange(lengths), widths)
    slot = _segmented_arange(widths)
    items[rows_e, t_e, slot] = values
    basket_mask[rows_e, t_e, slot] = 1.0

    positives = np.zeros((batch, max_pos), dtype=np.int64)
    positive_mask = np.zeros((batch, max_pos), dtype=np.float64)
    rows_p = np.repeat(np.arange(batch), pos_widths)
    pslot = _segmented_arange(pos_widths)
    positives[rows_p, pslot] = pos_values
    positive_mask[rows_p, pslot] = 1.0

    return PaddedBatch(users=users, items=items, basket_mask=basket_mask,
                       step_mask=step_mask, positives=positives,
                       positive_mask=positive_mask)


def _exclusion_keys(batch: PaddedBatch, num_items: int) -> np.ndarray:
    """Sorted ``row * (num_items + 1) + item`` keys of every excluded item.

    Excluded = the row's flattened history plus its target basket.  The
    composite-key encoding makes per-row membership tests a single
    ``searchsorted`` over one sorted array — no ``(B, V)`` boolean mask
    (infeasible at large vocabularies) and no per-row Python sets.
    """
    stride = num_items + 1
    hist_rows, hist_t, hist_s = np.nonzero(batch.basket_mask)
    hist_keys = hist_rows * stride + batch.items[hist_rows, hist_t, hist_s]
    pos_rows, pos_slots = np.nonzero(batch.positive_mask)
    pos_keys = pos_rows * stride + batch.positives[pos_rows, pos_slots]
    return np.unique(np.concatenate([hist_keys, pos_keys]))


def sample_negatives(batch: PaddedBatch, num_items: int, num_negatives: int,
                     rng: np.random.Generator) -> np.ndarray:
    """Uniform negatives per positive slot, avoiding history and targets.

    A "negative" the user actually interacted with is not negative
    evidence, so draws are rejected against the union of the row's
    flattened history (``flat_history_sets`` semantics, vectorized) and
    its target basket.  All randomness comes from the passed ``rng``.

    Returns an ``(B, P, N)`` int64 array and also stores it on the batch.
    """
    if num_items < 2:
        raise ValueError("need at least two items to sample negatives")
    b, p = batch.positives.shape
    stride = num_items + 1
    excluded = _exclusion_keys(batch, num_items)
    row_key = (np.arange(b, dtype=np.int64) * stride)[:, None, None]
    negatives = rng.integers(1, num_items + 1, size=(b, p, num_negatives))

    def _collisions(neg: np.ndarray) -> np.ndarray:
        if excluded.size == 0:
            return np.zeros(neg.shape, dtype=bool)
        keys = row_key + neg
        pos = np.searchsorted(excluded, keys)
        pos = np.minimum(pos, excluded.size - 1)
        return excluded[pos] == keys

    # Vectorized rejection: a handful of redraw passes suffices whenever
    # the exclusion set is sparse relative to the catalog.
    for _ in range(8):
        collisions = _collisions(negatives)
        if not collisions.any():
            break
        redraw = rng.integers(1, num_items + 1, size=int(collisions.sum()))
        negatives[collisions] = redraw
    else:
        # Dense rows (exclusions covering most of a tiny catalog) can
        # survive every pass; resolve them exactly from the row's
        # explicit complement.
        collisions = _collisions(negatives)
        if collisions.any():
            catalog = np.arange(1, num_items + 1)
            for row in np.unique(np.nonzero(collisions)[0]):
                lo = np.searchsorted(excluded, row * stride)
                hi = np.searchsorted(excluded, (row + 1) * stride)
                row_excluded = excluded[lo:hi] - row * stride
                allowed = np.setdiff1d(catalog, row_excluded,
                                       assume_unique=True)
                if allowed.size == 0:
                    raise ValueError(
                        f"row {row}: every catalog item (num_items="
                        f"{num_items}) is in the row's history or targets; "
                        f"no negative exists")
                row_mask = collisions[row]
                negatives[row][row_mask] = rng.choice(
                    allowed, size=int(row_mask.sum()), replace=True)
    batch.negatives = negatives
    return negatives


def iterate_batches(samples: Sequence[EvalSample], batch_size: int,
                    rng: Optional[np.random.Generator] = None,
                    max_history: Optional[int] = None) -> Iterator[PaddedBatch]:
    """Yield :class:`PaddedBatch` chunks, shuffled each epoch.

    ``samples`` is a :class:`~repro.data.eventlog.PrefixSampleView`, whose
    ``gather_batch`` assembles each batch from the corpus columns, or a
    plain list of samples (the online refresh's log window), padded with
    :func:`pad_samples`; both give the same bits for the same samples.

    Shuffling requires an explicit ``rng``: an unseeded fallback generator
    would silently break run-to-run reproducibility (the repo-wide
    contract is that every RNG is an explicitly seeded
    ``np.random.Generator``).
    """
    if batch_size <= 0:
        raise ValueError("batch_size must be positive")
    if rng is None:
        raise ValueError(
            "iterate_batches needs an explicit rng so epoch order is "
            "reproducible; pass np.random.default_rng(seed)")
    order = np.arange(len(samples))
    rng.shuffle(order)
    for start in range(0, len(samples), batch_size):
        indices = order[start:start + batch_size]
        if isinstance(samples, list):
            yield pad_samples([samples[i] for i in indices],
                              max_history=max_history)
        else:
            yield samples.gather_batch(indices, max_history=max_history)
