"""Out-of-core columnar event log: memmapped shards + streaming views.

The in-memory :class:`~repro.data.interactions.SequenceCorpus` holds every
interaction as nested Python tuples — fine at Table II scale, linear RSS at
10M+ interactions.  This module stores the same data column-wise on disk
and streams it:

* **Layout** — a directory of npy shards plus a versioned ``header.json``
  (written through :func:`repro.io.write_json_header`).  Shard ``k`` holds
  six columns, all loaded with ``np.load(mmap_mode="r")``:

  ========================  =======  ====================================
  file                      dtype    contents
  ========================  =======  ====================================
  ``shard-K.user.npy``      int64    user id of each event          (E,)
  ``shard-K.item.npy``      int32    item id of each event          (E,)
  ``shard-K.ts.npy``        int32    basket index within the user   (E,)
  ``shard-K.offsets.npy``   int64    per-user event offsets         (U+1,)
  ``shard-K.boffsets.npy``  int64    per-basket event offsets       (B+1,)
  ``shard-K.uboffsets.npy`` int64    per-user basket offsets        (U+1,)
  ========================  =======  ====================================

  Events are grouped by user (user ids strictly increasing across the
  log, so a user never spans shards) and ordered by basket; consecutive
  events with equal ``ts`` form one basket.  The three offset indices
  make every per-user / per-basket access a pair of O(1) memmap reads —
  no scan, no ``np.diff`` over event columns.

* **Writer** — :class:`EventLogWriter` buffers at most one shard of
  columns, so writing an arbitrarily large log needs memory proportional
  to ``shard_events``, not the corpus.

* **Views** — :class:`EventLogCorpus` duck-types ``SequenceCorpus``
  (statistics, iteration, splits); :func:`~repro.data.interactions.
  leave_one_out_split` and :func:`~repro.data.interactions.
  training_prefixes` dispatch to :meth:`EventLogCorpus.streaming_split` /
  :meth:`EventLogCorpus.prefix_samples`, and
  :func:`~repro.data.batching.iterate_batches` calls
  :meth:`PrefixSampleView.gather_batch` to assemble ``PaddedBatch``es
  directly from the memmaps — trainers, eval and the online trainer run
  unchanged on either backend.

* **Generation** — :func:`generate_eventlog` fans
  ``BehaviorSimulator._simulate_user`` over ``repro.parallel`` with
  per-user ``SeedSequence`` streams (see
  :meth:`~repro.data.synthetic.BehaviorSimulator.user_rng`), so serial
  and parallel runs produce byte-identical shards at any worker count.

Memmap hygiene: never call ``np.asarray``/``np.array`` on a whole column
(gradlint GL008) — it silently materializes the file and re-inflates RSS.
Fancy-indexing a memmap with a bounded index array is the sanctioned way
to touch it: the copy is the size of the request, not the file.
"""

from __future__ import annotations

import dataclasses
import hashlib
import pathlib
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence, Tuple, Union

import numpy as np

from .batching import PaddedBatch, _exclusive_cumsum, _segmented_arange
from .interactions import PAD_ITEM, EvalSample, Split, UserSequence
from .synthetic import BehaviorSimulator, SimulatorConfig

__all__ = [
    "EVENTLOG_FORMAT", "EVENTLOG_VERSION", "EventLogWriter", "EventLogStore",
    "EventLogCorpus", "EventLogDataset", "EvalSampleView", "PrefixSampleView",
    "generate_eventlog", "load_eventlog_dataset", "open_eventlog",
]

EVENTLOG_FORMAT = "repro.eventlog"
EVENTLOG_VERSION = 1

_COLUMN_DTYPES = {
    "user": "int64", "item": "int32", "ts": "int32",
    "offsets": "int64", "boffsets": "int64", "uboffsets": "int64",
}

PathLike = Union[str, pathlib.Path]


def _shard_file(k: int, column: str) -> str:
    return f"shard-{k:05d}.{column}.npy"


# ======================================================================
# Writer
# ======================================================================
class EventLogWriter:
    """Streams (user, baskets) records into columnar shards.

    Memory is bounded by one shard: buffers flush to disk whenever the
    buffered event count reaches ``shard_events`` (always at a user
    boundary).  Pass ``shard_events=None`` to disable the automatic
    flush and cut shards manually with :meth:`flush` — the generator
    does this so shard boundaries are fixed user ranges, independent of
    realized sequence lengths and of the worker count.
    """

    def __init__(self, path: PathLike, num_items: int,
                 shard_events: Optional[int] = 1_000_000,
                 meta: Optional[Dict] = None) -> None:
        if num_items < 1:
            raise ValueError("num_items must be positive")
        if shard_events is not None and shard_events < 1:
            raise ValueError("shard_events must be positive or None")
        self.path = pathlib.Path(path)
        self.path.mkdir(parents=True, exist_ok=True)
        if (self.path / "header.json").exists():
            raise FileExistsError(
                f"{self.path} already contains an event log; refusing to "
                f"overwrite (delete the directory to regenerate)")
        self.num_items = int(num_items)
        self.shard_events = shard_events
        self.meta = dict(meta or {})
        self._shards: List[Dict] = []
        self._closed = False
        self._last_user = -1
        self._num_users = 0
        self._num_events = 0
        self._num_baskets = 0
        self._reset_buffers()

    def _reset_buffers(self) -> None:
        self._buf_uids: List[int] = []
        self._buf_items: List[np.ndarray] = []
        self._buf_ts: List[np.ndarray] = []
        self._buf_widths: List[np.ndarray] = []
        self._buf_event_counts: List[int] = []
        self._buf_basket_counts: List[int] = []
        self._buf_events = 0

    # ------------------------------------------------------------------
    def add_user(self, user_id: int,
                 baskets: Sequence[Sequence[int]]) -> None:
        """Append one user's chronological baskets (Python-object path)."""
        widths = np.fromiter((len(b) for b in baskets), dtype=np.int64,
                             count=len(baskets))
        if len(widths) and widths.min() == 0:
            raise ValueError("baskets must be non-empty")
        items = np.fromiter((i for b in baskets for i in b), dtype=np.int32,
                            count=int(widths.sum()))
        ts = np.repeat(np.arange(len(baskets), dtype=np.int32), widths)
        self.add_user_columns(user_id, items, ts)

    def add_user_columns(self, user_id: int, items: np.ndarray,
                         ts: np.ndarray) -> None:
        """Append one user from pre-built columns.

        ``items`` are 1-based item ids; ``ts`` is the basket index of
        each event (starting at 0, increasing by 0 or 1 between
        consecutive events).
        """
        if self._closed:
            raise ValueError("writer is closed")
        user_id = int(user_id)
        if user_id <= self._last_user:
            raise ValueError(
                f"user ids must be strictly increasing (got {user_id} "
                f"after {self._last_user})")
        items = items.astype(np.int32, copy=False)
        ts = ts.astype(np.int32, copy=False)
        if items.shape != ts.shape or items.ndim != 1 or items.size == 0:
            raise ValueError("items/ts must be equal-length non-empty 1-D")
        if int(items.min()) <= PAD_ITEM or int(items.max()) > self.num_items:
            raise ValueError(
                f"item ids must lie in [1, {self.num_items}]")
        if int(ts[0]) != 0:
            raise ValueError("ts must start at basket index 0")
        steps = np.diff(ts)
        if steps.size and (int(steps.min()) < 0 or int(steps.max()) > 1):
            raise ValueError("ts must be dense basket indices "
                             "(consecutive events differ by 0 or 1)")
        num_baskets = int(ts[-1]) + 1
        widths = np.bincount(ts, minlength=num_baskets).astype(np.int64)

        self._buf_uids.append(user_id)
        self._buf_items.append(items)
        self._buf_ts.append(ts)
        self._buf_widths.append(widths)
        self._buf_event_counts.append(items.size)
        self._buf_basket_counts.append(num_baskets)
        self._buf_events += items.size
        self._last_user = user_id
        self._num_users += 1
        self._num_events += items.size
        self._num_baskets += num_baskets
        if self.shard_events is not None and self._buf_events >= self.shard_events:
            self.flush()

    # ------------------------------------------------------------------
    def flush(self) -> None:
        """Write buffered users as the next shard (no-op when empty)."""
        if not self._buf_uids:
            return
        k = len(self._shards)
        uids = np.array(self._buf_uids, dtype=np.int64)
        event_counts = np.array(self._buf_event_counts, dtype=np.int64)
        basket_counts = np.array(self._buf_basket_counts, dtype=np.int64)
        user_col = np.repeat(uids, event_counts)
        item_col = np.concatenate(self._buf_items)
        ts_col = np.concatenate(self._buf_ts)
        offsets = _exclusive_cumsum(event_counts)
        boffsets = _exclusive_cumsum(np.concatenate(self._buf_widths))
        uboffsets = _exclusive_cumsum(basket_counts)
        for name, col in (("user", user_col), ("item", item_col),
                          ("ts", ts_col), ("offsets", offsets),
                          ("boffsets", boffsets), ("uboffsets", uboffsets)):
            np.save(self.path / _shard_file(k, name), col)
        self._shards.append({
            "events": int(event_counts.sum()),
            "users": int(len(uids)),
            "baskets": int(basket_counts.sum()),
            "user_start": int(uids[0]),
            "user_stop": int(uids[-1]) + 1,
        })
        self._reset_buffers()

    def close(self) -> "EventLogStore":
        """Flush the tail shard, write the header, return a reader."""
        if self._closed:
            return EventLogStore(self.path)
        self.flush()
        if not self._shards:
            raise ValueError("cannot close an event log with zero events")
        payload = {
            "num_items": self.num_items,
            "num_users": self._num_users,
            "num_events": self._num_events,
            "num_baskets": self._num_baskets,
            "num_shards": len(self._shards),
            "columns": dict(_COLUMN_DTYPES),
            "shards": self._shards,
            "meta": self.meta,
        }
        from ..io import write_json_header
        write_json_header(self.path / "header.json", EVENTLOG_FORMAT,
                          EVENTLOG_VERSION, payload)
        self._closed = True
        return EventLogStore(self.path)

    def __enter__(self) -> "EventLogWriter":
        return self

    def __exit__(self, exc_type, *_exc) -> None:
        if exc_type is None:
            self.close()


# ======================================================================
# Store (reader)
# ======================================================================
class EventLogStore:
    """Read side of a columnar event log: lazily memmapped shards.

    Opening a store reads only ``header.json``; columns fault in on
    first touch and stay evictable (``mmap_mode="r"``).
    """

    def __init__(self, path: PathLike) -> None:
        self.path = pathlib.Path(path)
        from ..io import read_json_header
        header = read_json_header(self.path / "header.json",
                                  EVENTLOG_FORMAT, EVENTLOG_VERSION)
        self.num_items = int(header["num_items"])
        self.num_users = int(header["num_users"])
        self.num_events = int(header["num_events"])
        self.num_baskets = int(header["num_baskets"])
        self.shards: List[Dict] = list(header["shards"])
        self.meta: Dict = dict(header.get("meta") or {})
        self.num_shards = len(self.shards)
        self._user_cum = _exclusive_cumsum(
            np.array([s["users"] for s in self.shards], dtype=np.int64))
        self._columns: Dict[Tuple[int, str], np.ndarray] = {}
        self._uids: Dict[int, np.ndarray] = {}

    # ------------------------------------------------------------------
    def column(self, k: int, name: str) -> np.ndarray:
        """Shard ``k``'s column ``name`` as a read-only memmap (cached)."""
        key = (k, name)
        if key not in self._columns:
            if name not in _COLUMN_DTYPES:
                raise KeyError(f"unknown column {name!r}")
            self._columns[key] = np.load(self.path / _shard_file(k, name),
                                         mmap_mode="r")
        return self._columns[key]

    def user_ids(self, k: int) -> np.ndarray:
        """User ids of shard ``k`` (small materialized array, cached)."""
        if k not in self._uids:
            offsets = self.column(k, "offsets")
            self._uids[k] = self.column(k, "user")[offsets[:-1]]
        return self._uids[k]

    def locate(self, gids: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Global user index -> (shard index, local user index), vectorized."""
        k = np.searchsorted(self._user_cum, gids, side="right") - 1
        return k, gids - self._user_cum[k]

    def user_events(self, gid: int) -> Tuple[int, np.ndarray, np.ndarray]:
        """One user's ``(user_id, items, ts)`` as memmap slices."""
        k, u = self.locate(np.array([gid], dtype=np.int64))
        k, u = int(k[0]), int(u[0])
        offsets = self.column(k, "offsets")
        start, stop = int(offsets[u]), int(offsets[u + 1])
        return (int(self.user_ids(k)[u]),
                self.column(k, "item")[start:stop],
                self.column(k, "ts")[start:stop])

    def iter_users(self) -> Iterator[Tuple[int, np.ndarray, np.ndarray]]:
        """Yield ``(user_id, items, ts)`` per user, one shard at a time."""
        for k in range(self.num_shards):
            offsets = self.column(k, "offsets")
            items = self.column(k, "item")
            ts = self.column(k, "ts")
            uids = self.user_ids(k)
            for u in range(len(uids)):
                start, stop = int(offsets[u]), int(offsets[u + 1])
                yield int(uids[u]), items[start:stop], ts[start:stop]

    # ------------------------------------------------------------------
    def features(self) -> Optional[np.ndarray]:
        """Item raw features, when generated with them (else ``None``)."""
        path = self.path / "features.npy"
        return np.load(path) if path.exists() else None

    def truth(self) -> Optional[Dict[str, np.ndarray]]:
        """Ground-truth causal annotations, when present."""
        path = self.path / "truth.npz"
        if not path.exists():
            return None
        with np.load(path) as archive:
            return {name: archive[name] for name in archive.files}

    def checksum(self) -> str:
        """SHA-256 over every shard file's bytes, in shard/column order.

        Serial and shard-parallel generation of the same config must
        produce equal checksums — the bit-identity contract.
        """
        digest = hashlib.sha256()
        for k in range(self.num_shards):
            for name in sorted(_COLUMN_DTYPES):
                with open(self.path / _shard_file(k, name), "rb") as fh:
                    for chunk in iter(lambda: fh.read(1 << 20), b""):
                        digest.update(chunk)
        return digest.hexdigest()

    def corpus(self) -> "EventLogCorpus":
        return EventLogCorpus(self)


def open_eventlog(path: PathLike) -> EventLogStore:
    """Open an existing on-disk event log."""
    return EventLogStore(path)


# ======================================================================
# Corpus view (duck-types SequenceCorpus)
# ======================================================================
class EventLogCorpus:
    """A streaming corpus over an :class:`EventLogStore`.

    ``holdout > 0`` hides the last ``holdout`` baskets of every user
    with at least ``min_length`` baskets — exactly the users
    :func:`~repro.data.interactions.leave_one_out_split` trims — without
    rewriting any data.  All statistics and views honor the holdout.

    Peak memory is O(num_users) for the offset indices (a few int64 per
    user), never O(num_events).
    """

    def __init__(self, store: EventLogStore, holdout: int = 0,
                 min_length: int = 3) -> None:
        if holdout < 0:
            raise ValueError("holdout must be non-negative")
        self.store = store
        self.holdout = int(holdout)
        self.min_length = int(min_length)
        self._full_lengths: Optional[np.ndarray] = None
        self._train_lengths: Optional[np.ndarray] = None

    # -- lengths ---------------------------------------------------------
    def full_lengths(self) -> np.ndarray:
        """Basket count per user before any holdout (global, O(U))."""
        if self._full_lengths is None:
            parts = [np.diff(self.store.column(k, "uboffsets"))
                     for k in range(self.store.num_shards)]
            self._full_lengths = np.concatenate(parts).astype(np.int64)
        return self._full_lengths

    def lengths(self) -> np.ndarray:
        """Basket count per user after the holdout."""
        if self._train_lengths is None:
            full = self.full_lengths()
            if self.holdout == 0:
                self._train_lengths = full
            else:
                trimmed = full - self.holdout * (full >= self.min_length)
                self._train_lengths = np.maximum(trimmed, 0)
        return self._train_lengths

    # -- SequenceCorpus-compatible statistics ---------------------------
    @property
    def num_items(self) -> int:
        return self.store.num_items

    @property
    def num_users(self) -> int:
        return self.store.num_users

    @property
    def num_interactions(self) -> int:
        if self.holdout == 0:
            return self.store.num_events
        total = 0
        cum = self.store._user_cum
        lengths = self.lengths()
        for k in range(self.store.num_shards):
            ubo = self.store.column(k, "uboffsets")
            bo = self.store.column(k, "boffsets")
            local = lengths[cum[k]:cum[k + 1]]
            bstart = ubo[:-1]
            total += int((bo[bstart + local] - bo[bstart]).sum())
        return total

    @property
    def average_sequence_length(self) -> float:
        lengths = self.lengths()
        return float(lengths.mean()) if lengths.size else 0.0

    @property
    def sparsity(self) -> float:
        if self.num_users == 0 or self.num_items == 0:
            return 1.0
        return 1.0 - self.num_interactions / (self.num_users * self.num_items)

    def sequence_lengths(self) -> np.ndarray:
        return self.lengths().copy()

    def item_popularity(self) -> np.ndarray:
        """Interaction count per item, streamed shard-by-shard."""
        counts = np.zeros(self.num_items + 1, dtype=np.int64)
        cum = self.store._user_cum
        lengths = self.lengths()
        for k in range(self.store.num_shards):
            items = self.store.column(k, "item")
            if self.holdout == 0:
                # Chunked bincount: each slice copies at most one chunk.
                for start in range(0, items.shape[0], 1 << 20):
                    chunk = items[start:start + (1 << 20)]
                    counts += np.bincount(chunk,
                                          minlength=self.num_items + 1)
            else:
                ts = self.store.column(k, "ts")
                offsets = self.store.column(k, "offsets")
                local = lengths[cum[k]:cum[k + 1]]
                per_user_events = np.diff(offsets)
                limit = np.repeat(local, per_user_events)
                keep = ts[:] < limit
                counts += np.bincount(items[:][keep],
                                      minlength=self.num_items + 1)
        return counts

    # -- iteration (compatibility path; O(1) memory per user) -----------
    def __len__(self) -> int:
        return self.num_users

    def __iter__(self) -> Iterator[UserSequence]:
        lengths = self.lengths()
        for gid, (uid, items, ts) in enumerate(self.store.iter_users()):
            keep = int(lengths[gid])
            baskets = _baskets_from_columns(items, ts, keep)
            if baskets:
                yield UserSequence(user_id=uid, baskets=baskets)

    # -- streaming splits and samples -----------------------------------
    def streaming_split(self, min_length: int = 3) -> Split:
        """Leave-one-out split without materializing anything.

        Mirrors :func:`~repro.data.interactions.leave_one_out_split`:
        last basket of every eligible user -> test, second-last ->
        validation, both removed from the training view.
        """
        if self.holdout:
            raise ValueError("cannot re-split a corpus that already holds "
                             "out baskets")
        train = EventLogCorpus(self.store, holdout=2, min_length=min_length)
        return Split(
            train=train,
            validation=EvalSampleView(self, "validation", min_length),
            test=EvalSampleView(self, "test", min_length),
        )

    def prefix_samples(self, max_history: Optional[int] = None
                       ) -> "PrefixSampleView":
        """Lazy (history, next-basket) training samples over this view."""
        return PrefixSampleView(self, max_history=max_history)


def _baskets_from_columns(items: np.ndarray, ts: np.ndarray,
                          keep: int) -> Tuple[Tuple[int, ...], ...]:
    """First ``keep`` baskets of one user's columns, as nested tuples."""
    if keep <= 0:
        return ()
    stop = int(np.searchsorted(ts, keep, side="left"))
    items = items[:stop]
    ts = ts[:stop]
    bounds = np.flatnonzero(np.diff(ts)) + 1
    return tuple(tuple(int(i) for i in part)
                 for part in np.split(items, bounds))


# ======================================================================
# Lazy sample views
# ======================================================================
class EvalSampleView:
    """Lazy sequence of held-out :class:`EvalSample`s (validation/test)."""

    def __init__(self, corpus: EventLogCorpus, kind: str,
                 min_length: int = 3) -> None:
        if kind not in ("validation", "test"):
            raise ValueError("kind must be 'validation' or 'test'")
        self.corpus = corpus
        self.kind = kind
        self.min_length = int(min_length)
        lengths = corpus.full_lengths()
        self._gids = np.flatnonzero(lengths >= self.min_length)

    def __len__(self) -> int:
        return int(self._gids.size)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self[i] for i in range(*index.indices(len(self)))]
        index = int(index)
        if index < 0:
            index += len(self)
        if not 0 <= index < len(self):
            raise IndexError(index)
        gid = int(self._gids[index])
        uid, items, ts = self.corpus.store.user_events(gid)
        baskets = _baskets_from_columns(items, ts, int(ts[-1]) + 1)
        cut = -1 if self.kind == "test" else -2
        return EvalSample(user_id=uid, history=baskets[:cut],
                          target=baskets[cut])

    def __iter__(self) -> Iterator[EvalSample]:
        for i in range(len(self)):
            yield self[i]


class PrefixSampleView:
    """Lazy training-prefix samples with a vectorized batch gather.

    Sample order is exactly
    ``training_prefixes(leave_one_out_split(corpus).train)``: users in id
    order, step ``j`` ascending — so shuffled epochs (driven by the same
    RNG) visit identical samples on both backends.

    ``__getitem__`` builds one :class:`EvalSample` from memmap slices;
    :meth:`gather_batch` assembles a whole :class:`PaddedBatch` in a
    handful of vectorized gathers and is the path
    :func:`~repro.data.batching.iterate_batches` uses.
    """

    def __init__(self, corpus: EventLogCorpus,
                 max_history: Optional[int] = None) -> None:
        self.corpus = corpus
        self.max_history = max_history
        lengths = corpus.lengths()
        self._sample_cum = _exclusive_cumsum(np.maximum(lengths - 1, 0))

    def __len__(self) -> int:
        return int(self._sample_cum[-1])

    def _locate(self, indices: np.ndarray
                ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Sample index -> (user gid, history start j0, target step j)."""
        gids = np.searchsorted(self._sample_cum, indices, side="right") - 1
        j = indices - self._sample_cum[gids] + 1
        if self.max_history is None:
            j0 = np.zeros_like(j)
        else:
            j0 = np.maximum(j - self.max_history, 0)
        return gids, j0, j

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self[i] for i in range(*index.indices(len(self)))]
        index = int(index)
        if index < 0:
            index += len(self)
        if not 0 <= index < len(self):
            raise IndexError(index)
        idx = np.array([index], dtype=np.int64)
        gids, j0, j = self._locate(idx)
        uid, items, ts = self.corpus.store.user_events(int(gids[0]))
        baskets = _baskets_from_columns(items, ts, int(j[0]) + 1)
        return EvalSample(user_id=uid,
                          history=baskets[int(j0[0]):int(j[0])],
                          target=baskets[int(j[0])])

    def __iter__(self) -> Iterator[EvalSample]:
        for i in range(len(self)):
            yield self[i]

    # ------------------------------------------------------------------
    def gather_batch(self, indices: np.ndarray,
                     max_history: Optional[int] = None) -> PaddedBatch:
        """Assemble ``pad_samples([self[i] for i in indices])`` directly.

        Bit-identical to the in-memory path (same dtypes, same padding
        geometry) but built from a constant number of numpy operations
        per shard touched: basket offsets are looked up through the
        on-disk index, events arrive via one fancy-indexed gather per
        shard, and values scatter into the padded arrays in one
        assignment.
        """
        idx = np.array(indices, dtype=np.int64)
        if idx.size == 0:
            raise ValueError("cannot gather an empty batch")
        store = self.corpus.store
        if max_history is None:
            max_history = self.max_history
        gids, j0, j = self._locate(idx)
        if max_history is not None:
            j0 = np.maximum(j - max_history, 0)
        T = j - j0                       # history steps per row
        shard_of, local_u = store.locate(gids)

        # Pass 1: per-shard basket widths (history + target) via the
        # offset indices; global padding geometry falls out of the maxes.
        per_shard = []
        for k in np.unique(shard_of):
            sel = np.flatnonzero(shard_of == k)
            bo = store.column(int(k), "boffsets")
            ubo = store.column(int(k), "uboffsets")
            first_basket = ubo[local_u[sel]]
            t_counts = T[sel]
            bidx = np.repeat(first_basket + j0[sel], t_counts) \
                + _segmented_arange(t_counts)
            bstart = bo[bidx]
            widths = bo[bidx + 1] - bstart
            tgt = first_basket + j[sel]
            pstart = bo[tgt]
            pwidths = bo[tgt + 1] - pstart
            per_shard.append((int(k), sel, bstart, widths, pstart, pwidths))

        max_time = int(T.max())
        max_slot = max(int(w.max()) for _, _, _, w, _, _ in per_shard)
        max_pos = max(int(pw.max()) for _, _, _, _, _, pw in per_shard)

        batch = idx.size
        users = np.zeros(batch, dtype=np.int64)
        items = np.zeros((batch, max_time, max_slot), dtype=np.int64)
        basket_mask = np.zeros((batch, max_time, max_slot), dtype=np.float64)
        positives = np.zeros((batch, max_pos), dtype=np.int64)
        positive_mask = np.zeros((batch, max_pos), dtype=np.float64)
        step_mask = np.arange(max_time)[None, :] < T[:, None]

        # Pass 2: gather event values and scatter them into place.
        for k, sel, bstart, widths, pstart, pwidths in per_shard:
            item_col = store.column(k, "item")
            t_counts = T[sel]
            row_of_basket = np.repeat(sel, t_counts)
            t_of_basket = _segmented_arange(t_counts)
            slot = _segmented_arange(widths)
            ev = np.repeat(bstart, widths) + slot
            rows_e = np.repeat(row_of_basket, widths)
            t_e = np.repeat(t_of_basket, widths)
            values = item_col[ev]
            items[rows_e, t_e, slot] = values
            basket_mask[rows_e, t_e, slot] = 1.0

            pslot = _segmented_arange(pwidths)
            pev = np.repeat(pstart, pwidths) + pslot
            rows_p = np.repeat(sel, pwidths)
            positives[rows_p, pslot] = item_col[pev]
            positive_mask[rows_p, pslot] = 1.0

            users[sel] = store.user_ids(k)[local_u[sel]]

        return PaddedBatch(users=users, items=items, basket_mask=basket_mask,
                           step_mask=step_mask, positives=positives,
                           positive_mask=positive_mask)


# ======================================================================
# Shard-parallel synthetic generation
# ======================================================================
def _simulate_shard(spec: Tuple[BehaviorSimulator, int, int]
                    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Simulate a contiguous user range into concatenated columns.

    Every user draws from its own keyed stream
    (:meth:`BehaviorSimulator.user_rng`), so the output depends only on
    ``(config, user range)`` — not on which process runs it.  Module-level
    so it pickles by qualified name under every start method.
    """
    sim, user_start, user_stop = spec
    items_parts: List[np.ndarray] = []
    ts_parts: List[np.ndarray] = []
    event_counts = np.zeros(user_stop - user_start, dtype=np.int64)
    for offset, user_id in enumerate(range(user_start, user_stop)):
        baskets, _causes = sim._simulate_user(sim.user_rng(user_id))
        widths = np.fromiter((len(b) for b in baskets), dtype=np.int64,
                             count=len(baskets))
        flat = np.fromiter((i for b in baskets for i in b), dtype=np.int32,
                           count=int(widths.sum()))
        items_parts.append(flat)
        ts_parts.append(np.repeat(np.arange(len(baskets), dtype=np.int32),
                                  widths))
        event_counts[offset] = flat.size
    return (np.concatenate(items_parts), np.concatenate(ts_parts),
            event_counts)


def _write_shard(writer: EventLogWriter, user_start: int,
                 columns: Tuple[np.ndarray, np.ndarray, np.ndarray]) -> None:
    items, ts, event_counts = columns
    offsets = _exclusive_cumsum(event_counts)
    for offset in range(len(event_counts)):
        start, stop = int(offsets[offset]), int(offsets[offset + 1])
        writer.add_user_columns(user_start + offset, items[start:stop],
                                ts[start:stop])
    writer.flush()


def generate_eventlog(config: SimulatorConfig, path: PathLike, *,
                      name: str = "synthetic",
                      users_per_shard: Optional[int] = None,
                      workers: Optional[int] = None) -> EventLogStore:
    """Generate a synthetic corpus straight to a columnar event log.

    Shards are fixed contiguous user ranges (``users_per_shard`` wide);
    workers simulate ranges with per-user seeded streams and the parent
    writes shards in order — so any worker count (including the serial
    in-process path) produces byte-identical files.  Parent memory is
    bounded by one *wave* of ``workers`` shards, not the corpus.

    The matching in-memory corpus is ``BehaviorSimulator(config,
    name).generate(user_seeds=True)``; per-event cause annotations are
    not stored at event-log scale (use the in-memory generator for
    explanation evaluation).
    """
    config = dataclasses.replace(config)
    sim = BehaviorSimulator(config, name=name)
    if users_per_shard is None:
        users_per_shard = max(1, min(config.num_users, 200_000))
    ranges = [(start, min(start + users_per_shard, config.num_users))
              for start in range(0, config.num_users, users_per_shard)]
    meta = {
        "name": name,
        "generator": "repro.data.eventlog.generate_eventlog",
        "config": dataclasses.asdict(config),
        "users_per_shard": int(users_per_shard),
    }
    writer = EventLogWriter(path, config.num_items, shard_events=None,
                            meta=meta)
    from ..parallel import parallel_map, resolve_workers
    # Waves bound parent memory to ~``workers`` shards of columns.
    wave_size = resolve_workers(workers, len(ranges))
    for wave_start in range(0, len(ranges), wave_size):
        wave = ranges[wave_start:wave_start + wave_size]
        shards = parallel_map(_simulate_shard,
                              [(sim, start, stop) for start, stop in wave],
                              workers=wave_size, name="eventlog shard")
        for (user_start, _), columns in zip(wave, shards):
            _write_shard(writer, user_start, columns)
    np.save(writer.path / "features.npy",
            sim.generate_features(sim.feature_rng()))
    np.savez(writer.path / "truth.npz", cluster_graph=sim.cluster_graph,
             cluster_of_item=sim.cluster_of_item)
    return writer.close()


# ======================================================================
# Dataset adapter (build_model-compatible)
# ======================================================================
@dataclass
class EventLogDataset:
    """An on-disk dataset exposing the :class:`SyntheticDataset` surface.

    ``corpus`` is an :class:`EventLogCorpus`; ``features`` /
    ``cluster_of_item`` / ``cluster_graph`` come from the generation
    sidecars when present, so feature-hungry models (Causer, VTRNN,
    MMSARec) build unchanged.
    """

    name: str
    store: EventLogStore
    corpus: EventLogCorpus
    config: Optional[SimulatorConfig] = None
    features: Optional[np.ndarray] = None
    cluster_of_item: Optional[np.ndarray] = None
    cluster_graph: Optional[np.ndarray] = None

    @property
    def num_items(self) -> int:
        return self.store.num_items

    @property
    def num_clusters(self) -> int:
        if self.cluster_graph is None:
            raise ValueError(f"{self.name}: no ground-truth cluster graph "
                             f"stored with this event log")
        return int(self.cluster_graph.shape[0])


def load_eventlog_dataset(path: PathLike) -> EventLogDataset:
    """Open a generated event log as a dataset adapter."""
    store = EventLogStore(path)
    meta = store.meta
    config = None
    if isinstance(meta.get("config"), dict):
        known = {f.name for f in dataclasses.fields(SimulatorConfig)}
        config = SimulatorConfig(**{k: v for k, v in meta["config"].items()
                                    if k in known})
    truth = store.truth()
    return EventLogDataset(
        name=str(meta.get("name", store.path.name)),
        store=store,
        corpus=EventLogCorpus(store),
        config=config,
        features=store.features(),
        cluster_of_item=None if truth is None else truth["cluster_of_item"],
        cluster_graph=None if truth is None else truth["cluster_graph"],
    )
