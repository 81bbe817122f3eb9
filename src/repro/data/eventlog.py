"""The corpus: six columns per shard, held in RAM or memmapped from disk.

The paper's data model (§II-A) is one chronological sequence of baskets
per user.  This module stores it column-wise, once, whatever the scale:

* **Layout** — shard ``k`` holds six columns:

  ===============  =======  ===========================================
  column           dtype    contents
  ===============  =======  ===========================================
  ``user``         int64    user id of each event                  (E,)
  ``item``         int32    item id of each event                  (E,)
  ``ts``           int32    basket index within the user           (E,)
  ``offsets``      int64    per-user event offsets                 (U+1,)
  ``boffsets``     int64    per-basket event offsets               (B+1,)
  ``uboffsets``    int64    per-user basket offsets                (U+1,)
  ===============  =======  ===========================================

  Events are grouped by user (user ids strictly increasing across the
  store, so a user never spans shards) and ordered by basket; consecutive
  events with equal ``ts`` form one basket.  The three offset indices
  make every per-user / per-basket access a pair of O(1) reads — no
  scan, no ``np.diff`` over event columns.

* **Storage** — an :class:`EventLogStore` holds either one shard of
  plain arrays in RAM (``SequenceCorpus(num_items, sequences)``) or a
  directory of ``shard-K.<column>.npy`` files plus a versioned
  ``header.json`` (written through :func:`repro.io.write_json_header`),
  opened with ``np.load(mmap_mode="r")`` by :func:`open_eventlog`.  Both
  are built by the same columns (:func:`_event_columns`, which refuses
  empty baskets and derives dense ``ts``), the same checks
  (:func:`_check_users`: strictly increasing user ids, no user without
  events, items in ``[1, num_items]``) and the same packing
  (:func:`_pack_shard`).

* **Corpus** — :class:`SequenceCorpus` is the one corpus class: a view
  of a store that may hide each user's last baskets (the training side
  of :func:`~repro.data.interactions.leave_one_out_split`).  Its splits
  and training prefixes are the lazy :class:`EvalSampleView` and
  :class:`PrefixSampleView`; :func:`~repro.data.batching.iterate_batches`
  assembles training batches with :meth:`PrefixSampleView.gather_batch`.
  Behaviour does not depend on where the columns live.

* **Generation** — :func:`generate_eventlog` fans
  ``BehaviorSimulator._simulate_user`` over one ``repro.parallel`` call.
  Each task writes its own shard from per-user ``SeedSequence`` streams
  (see :meth:`~repro.data.synthetic.BehaviorSimulator.user_rng`), so any
  worker count produces byte-identical shards.

Memmap hygiene: never call ``np.asarray``/``np.array`` on a whole column
(gradlint GL008) — it silently materializes the file and re-inflates RSS.
Fancy-indexing a memmap with a bounded index array is the sanctioned way
to touch it: the copy is the size of the request, not the file.
"""

from __future__ import annotations

import dataclasses
import hashlib
import pathlib
from typing import (Dict, Iterable, Iterator, List, Optional, Sequence,
                    Tuple, Union)

import numpy as np

from .batching import PaddedBatch, _exclusive_cumsum, _segmented_arange
from .interactions import MIN_LENGTH, PAD_ITEM, EvalSample, UserSequence
from .synthetic import BehaviorSimulator, SimulatorConfig, SyntheticDataset

__all__ = [
    "EVENTLOG_FORMAT", "EVENTLOG_VERSION", "EventLogStore", "SequenceCorpus",
    "EvalSampleView", "PrefixSampleView", "generate_eventlog",
    "load_eventlog_dataset", "open_eventlog",
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
# Checks and packing: every store is built through these
# ======================================================================
def _event_columns(users: Sequence[Sequence[Sequence[int]]]
                   ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Flatten each user's baskets into ``(items, ts, events per user)``."""
    basket_counts = np.fromiter((len(u) for u in users), dtype=np.int64,
                                count=len(users))
    widths = np.fromiter((len(b) for u in users for b in u), dtype=np.int64,
                         count=int(basket_counts.sum()))
    if widths.size and widths.min() == 0:
        raise ValueError("baskets must be non-empty")
    items = np.fromiter((i for u in users for b in u for i in b),
                        dtype=np.int64, count=int(widths.sum()))
    ts = np.repeat(_segmented_arange(basket_counts), widths).astype(np.int32)
    event_cum = _exclusive_cumsum(widths)
    basket_cum = _exclusive_cumsum(basket_counts)
    return items, ts, event_cum[basket_cum[1:]] - event_cum[basket_cum[:-1]]


def _check_users(num_items: int, uids: np.ndarray, items: np.ndarray,
                 event_counts: np.ndarray) -> None:
    """Refuse columns that break the layout, naming what is wrong.

    User ids must strictly increase, every user needs an event, and items
    lie in ``[1, num_items]``.  ``ts`` needs no check: every store derives
    it from basket lists in :func:`_event_columns`.
    """
    previous = np.concatenate([[-1], uids[:-1]]).astype(np.int64)
    unordered = np.flatnonzero(uids <= previous)
    if unordered.size:
        i = int(unordered[0])
        raise ValueError(f"user ids must be strictly increasing (got "
                         f"{int(uids[i])} after {int(previous[i])})")
    empty = np.flatnonzero(event_counts == 0)
    if empty.size:
        raise ValueError(f"user {int(uids[empty[0]])} has no events")
    if items.size and (int(items.min()) <= PAD_ITEM
                       or int(items.max()) > num_items):
        raise ValueError(f"item ids must lie in [1, {num_items}]")


def _pack_shard(uids: np.ndarray, items: np.ndarray, ts: np.ndarray,
                event_counts: np.ndarray
                ) -> Tuple[Dict[str, np.ndarray], Dict]:
    """Checked users' events as one shard: its six columns and header record."""
    ts = ts.astype(np.int32, copy=False)
    offsets = _exclusive_cumsum(event_counts)
    new_basket = np.ones(ts.size, dtype=bool)
    new_basket[1:] = ts[1:] != ts[:-1]
    new_basket[offsets[:-1]] = True
    basket_counts = ts[offsets[1:] - 1].astype(np.int64) + 1
    columns = {
        "user": np.repeat(uids.astype(np.int64), event_counts),
        "item": items.astype(np.int32),
        "ts": ts,
        "offsets": offsets,
        "boffsets": np.append(np.flatnonzero(new_basket),
                              ts.size).astype(np.int64),
        "uboffsets": _exclusive_cumsum(basket_counts),
    }
    record = {
        "events": int(ts.size),
        "users": int(uids.size),
        "baskets": int(basket_counts.sum()),
        "user_start": int(uids[0]),
        "user_stop": int(uids[-1]) + 1,
    }
    return columns, record


def _save_shard(path: pathlib.Path, k: int, uids: np.ndarray,
                items: np.ndarray, ts: np.ndarray,
                event_counts: np.ndarray) -> Dict:
    """Pack checked users as shard ``k`` of ``path``; its header record."""
    columns, record = _pack_shard(uids, items, ts, event_counts)
    for name, column in columns.items():
        np.save(path / _shard_file(k, name), column)
    return record


def _new_log_dir(path: PathLike) -> pathlib.Path:
    path = pathlib.Path(path)
    path.mkdir(parents=True, exist_ok=True)
    if (path / "header.json").exists():
        raise FileExistsError(
            f"{path} already contains an event log; refusing to "
            f"overwrite (delete the directory to regenerate)")
    return path


def _write_header(path: pathlib.Path, num_items: int, shards: List[Dict],
                  meta: Dict) -> None:
    """Write ``header.json`` last and atomically: the log's commit point."""
    payload = {
        "num_items": num_items,
        "num_users": sum(s["users"] for s in shards),
        "num_events": sum(s["events"] for s in shards),
        "num_baskets": sum(s["baskets"] for s in shards),
        "num_shards": len(shards),
        "columns": dict(_COLUMN_DTYPES),
        "shards": shards,
        "meta": meta,
    }
    from ..io import write_json_header
    write_json_header(path / "header.json", EVENTLOG_FORMAT,
                      EVENTLOG_VERSION, payload)


# ======================================================================
# Store
# ======================================================================
class EventLogStore:
    """The columns of each shard, memmapped from disk or held in RAM.

    ``path`` is the log directory, whose columns fault in on first touch
    and stay evictable (``mmap_mode="r"``); an in-RAM store has no path
    and is given all its ``columns`` up front.
    """

    def __init__(self, num_items: int, shards: List[Dict], *,
                 path: Optional[PathLike] = None,
                 columns: Optional[Dict[Tuple[int, str], np.ndarray]] = None,
                 meta: Optional[Dict] = None) -> None:
        self.path = None if path is None else pathlib.Path(path)
        self.num_items = int(num_items)
        self.shards: List[Dict] = list(shards)
        self.meta: Dict = dict(meta or {})
        self.num_shards = len(self.shards)
        self.num_users = sum(int(s["users"]) for s in self.shards)
        self.num_events = sum(int(s["events"]) for s in self.shards)
        self.num_baskets = sum(int(s["baskets"]) for s in self.shards)
        self._user_cum = _exclusive_cumsum(
            np.array([s["users"] for s in self.shards], dtype=np.int64))
        self._columns: Dict[Tuple[int, str], np.ndarray] = dict(columns or {})
        self._uids: Dict[int, np.ndarray] = {}

    # ------------------------------------------------------------------
    def column(self, k: int, name: str) -> np.ndarray:
        """Shard ``k``'s column ``name`` (a read-only memmap on disk)."""
        key = (k, name)
        if key not in self._columns:
            if name not in _COLUMN_DTYPES or self.path is None:
                raise KeyError(f"no column {name!r} in shard {k}")
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
        """Global user index -> (shard index, local user index); takes an
        index array or a single index."""
        k = np.searchsorted(self._user_cum, gids, side="right") - 1
        return k, gids - self._user_cum[k]

    def user_baskets(self, gid: int, keep: int
                     ) -> Tuple[int, Tuple[Tuple[int, ...], ...]]:
        """Global user ``gid``'s id and first ``keep`` baskets as tuples."""
        k, u = map(int, self.locate(gid))
        first = int(self.column(k, "uboffsets")[u])
        bounds = self.column(k, "boffsets")[first:first + keep + 1].tolist()
        start = bounds[0]
        values = self.column(k, "item")[start:bounds[-1]].tolist()
        return int(self.user_ids(k)[u]), tuple(
            tuple(values[a - start:b - start])
            for a, b in zip(bounds, bounds[1:]))

    # ------------------------------------------------------------------
    def checksum(self) -> str:
        """SHA-256 over every shard file's bytes, in shard/column order.

        Generation at any worker count must produce equal checksums —
        the bit-identity contract.
        """
        if self.path is None:
            raise ValueError("an in-RAM store has no shard files")
        digest = hashlib.sha256()
        for k in range(self.num_shards):
            for name in sorted(_COLUMN_DTYPES):
                with open(self.path / _shard_file(k, name), "rb") as fh:
                    for chunk in iter(lambda: fh.read(1 << 20), b""):
                        digest.update(chunk)
        return digest.hexdigest()

    def corpus(self) -> "SequenceCorpus":
        return SequenceCorpus.from_store(self)


def open_eventlog(path: PathLike) -> EventLogStore:
    """Open an on-disk event log; only ``header.json`` is read."""
    from ..io import read_json_header
    path = pathlib.Path(path)
    header = read_json_header(path / "header.json", EVENTLOG_FORMAT,
                              EVENTLOG_VERSION)
    return EventLogStore(header["num_items"], header["shards"], path=path,
                         meta=header.get("meta"))


def _memory_store(num_items: int,
                  sequences: Iterable[UserSequence]) -> EventLogStore:
    """Pack user sequences into one in-RAM shard (none when empty)."""
    users = list(sequences)
    if not users:
        return EventLogStore(num_items, [])
    uids = np.fromiter((u.user_id for u in users), dtype=np.int64,
                       count=len(users))
    items, ts, event_counts = _event_columns([u.baskets for u in users])
    _check_users(num_items, uids, items, event_counts)
    columns, record = _pack_shard(uids, items, ts, event_counts)
    return EventLogStore(num_items, [record], columns={
        (0, name): column for name, column in columns.items()})


# ======================================================================
# Corpus
# ======================================================================
class SequenceCorpus:
    """Every user's chronological baskets over a shared item vocabulary.

    ``SequenceCorpus(num_items, sequences)`` packs :class:`UserSequence`s
    into an in-RAM store; :meth:`from_store` views any store, such as an
    on-disk event log.  Iteration yields one :class:`UserSequence` per
    user, in user-id order.

    A corpus may show fewer baskets than its store holds: ``lengths``
    gives the number of leading baskets visible per user, which is how
    the training side of a leave-one-out split hides held-out baskets
    without copying data.  Statistics, iteration and the sample views
    honour it.  Beyond the store, memory is O(num_users).
    """

    def __init__(self, num_items: int,
                 sequences: Iterable[UserSequence] = ()) -> None:
        self._bind(_memory_store(num_items, sequences), None)

    @classmethod
    def from_store(cls, store: EventLogStore,
                   lengths: Optional[np.ndarray] = None) -> "SequenceCorpus":
        """A corpus over ``store``; ``lengths`` trims each user's baskets."""
        corpus = cls.__new__(cls)
        corpus._bind(store, lengths)
        return corpus

    def _bind(self, store: EventLogStore,
              lengths: Optional[np.ndarray]) -> None:
        self.store = store
        self._trimmed = lengths is not None
        self._lengths = lengths

    # -- lengths ---------------------------------------------------------
    def lengths(self) -> np.ndarray:
        """Visible basket count per user, in user-id order (O(U))."""
        if self._lengths is None:
            parts = [np.diff(self.store.column(k, "uboffsets"))
                     for k in range(self.store.num_shards)]
            self._lengths = (np.concatenate(parts).astype(np.int64)
                             if parts else np.zeros(0, dtype=np.int64))
        return self._lengths

    # -- statistics (Table II) ------------------------------------------
    @property
    def num_items(self) -> int:
        return self.store.num_items

    @property
    def num_users(self) -> int:
        return self.store.num_users

    @property
    def num_interactions(self) -> int:
        if not self._trimmed:
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
        """1 - |interactions| / (|users| * |items|), the Table II definition."""
        if self.num_users == 0 or self.num_items == 0:
            return 1.0
        return 1.0 - self.num_interactions / (self.num_users * self.num_items)

    def sequence_lengths(self) -> np.ndarray:
        return self.lengths().copy()

    def item_popularity(self) -> np.ndarray:
        """Interaction count per item (index 0 unused), shard by shard."""
        counts = np.zeros(self.num_items + 1, dtype=np.int64)
        cum = self.store._user_cum
        lengths = self.lengths()
        for k in range(self.store.num_shards):
            items = self.store.column(k, "item")
            if not self._trimmed:
                # Chunked bincount: each slice copies at most one chunk.
                for start in range(0, items.shape[0], 1 << 20):
                    chunk = items[start:start + (1 << 20)]
                    counts += np.bincount(chunk,
                                          minlength=self.num_items + 1)
            else:
                ts = self.store.column(k, "ts")
                offsets = self.store.column(k, "offsets")
                local = lengths[cum[k]:cum[k + 1]]
                limit = np.repeat(local, np.diff(offsets))
                keep = ts[:] < limit
                counts += np.bincount(items[:][keep],
                                      minlength=self.num_items + 1)
        return counts

    # -- iteration (O(1) memory per user) -------------------------------
    def __iter__(self) -> Iterator[UserSequence]:
        for gid, keep in enumerate(self.lengths().tolist()):
            uid, baskets = self.store.user_baskets(gid, keep)
            yield UserSequence(user_id=uid, baskets=baskets)


# ======================================================================
# Lazy sample views
# ======================================================================
class EvalSampleView:
    """Lazy sequence of held-out :class:`EvalSample`s (validation/test).

    Covers the users of ``corpus`` with at least ``MIN_LENGTH`` visible
    baskets, in user-id order: ``test`` targets each one's last visible
    basket, ``validation`` the one before.
    """

    def __init__(self, corpus: SequenceCorpus, kind: str) -> None:
        if kind not in ("validation", "test"):
            raise ValueError("kind must be 'validation' or 'test'")
        self.corpus = corpus
        self.kind = kind
        self._gids = np.flatnonzero(corpus.lengths() >= MIN_LENGTH)

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
        uid, baskets = self.corpus.store.user_baskets(
            gid, int(self.corpus.lengths()[gid]))
        cut = -1 if self.kind == "test" else -2
        return EvalSample(user_id=uid, history=baskets[:cut],
                          target=baskets[cut])

    def __iter__(self) -> Iterator[EvalSample]:
        for i in range(len(self)):
            yield self[i]


class PrefixSampleView:
    """Lazy training-prefix samples with a vectorized batch gather.

    Sample order: users in id order, step ``j`` ascending, so shuffled
    epochs driven by the same RNG visit the same samples wherever the
    columns live.

    ``__getitem__`` builds one :class:`EvalSample` from column slices;
    :meth:`gather_batch` assembles a whole :class:`PaddedBatch` in a
    handful of vectorized gathers and is the path
    :func:`~repro.data.batching.iterate_batches` uses.
    """

    def __init__(self, corpus: SequenceCorpus,
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
        uid, baskets = self.corpus.store.user_baskets(int(gids[0]),
                                                      int(j[0]) + 1)
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

        Bit-identical to :func:`~repro.data.batching.pad_samples` (same
        dtypes, same padding geometry) but built from a constant number
        of numpy operations per shard touched: basket offsets are looked
        up through the offset indices, events arrive via one
        fancy-indexed gather per shard, and values scatter into the
        padded arrays in one assignment.
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
def _simulate_shard(spec: Tuple[BehaviorSimulator, pathlib.Path, int,
                                int, int]) -> Dict:
    """Simulate a contiguous user range and write it as shard ``k``.

    Every user draws from its own keyed stream
    (:meth:`BehaviorSimulator.user_rng`), so the shard's bytes depend
    only on ``(config, user range)`` — not on which process runs it, nor
    when.  Returns the shard's header record.  Module-level so it
    pickles by qualified name under every start method.
    """
    sim, path, k, user_start, user_stop = spec
    users = [sim._simulate_user(sim.user_rng(user_id))[0]
             for user_id in range(user_start, user_stop)]
    uids = np.arange(user_start, user_stop, dtype=np.int64)
    items, ts, event_counts = _event_columns(users)
    _check_users(sim.config.num_items, uids, items, event_counts)
    return _save_shard(path, k, uids, items, ts, event_counts)


def generate_eventlog(config: SimulatorConfig, path: PathLike, *,
                      name: str = "synthetic",
                      users_per_shard: Optional[int] = None,
                      workers: Optional[int] = None) -> EventLogStore:
    """Generate a synthetic corpus straight to a columnar event log.

    Shards are fixed contiguous user ranges (``users_per_shard`` wide).
    One ``parallel_map`` call simulates them; each task writes its own
    shard's files from per-user seeded streams, so any worker count
    (including the serial in-process path) produces byte-identical
    files, and the parent holds no shard columns.  The parent then
    writes the item features, the ground truth and, last, the header.

    The same users in RAM are ``sim._simulate_user(sim.user_rng(u))`` for
    each user ``u`` (``BehaviorSimulator.generate`` draws every user from
    one shared stream instead, a different corpus); per-event cause
    annotations are not stored at event-log scale (use the in-RAM
    generator for explanation evaluation).
    """
    config = dataclasses.replace(config)
    sim = BehaviorSimulator(config, name=name)
    if users_per_shard is None:
        users_per_shard = max(1, min(config.num_users, 200_000))
    path = _new_log_dir(path)
    specs = [(sim, path, k, start, min(start + users_per_shard,
                                       config.num_users))
             for k, start in enumerate(range(0, config.num_users,
                                             users_per_shard))]
    from ..parallel import parallel_map
    shards = parallel_map(_simulate_shard, specs, workers=workers,
                          name="eventlog shard")
    np.save(path / "features.npy", sim.generate_features(sim.feature_rng()))
    np.savez(path / "truth.npz", cluster_graph=sim.cluster_graph,
             cluster_of_item=sim.cluster_of_item)
    _write_header(path, config.num_items, shards, {
        "name": name,
        "generator": "repro.data.eventlog.generate_eventlog",
        "config": dataclasses.asdict(config),
        "users_per_shard": int(users_per_shard),
    })
    return open_eventlog(path)


def load_eventlog_dataset(path: PathLike) -> SyntheticDataset:
    """Open a generated event log as a dataset over its memmapped columns.

    ``features``, ``cluster_of_item`` and ``cluster_graph`` come from the
    generation sidecars and stay ``None`` when a log lacks them; an
    event log stores no per-event cause annotations.
    """
    store = open_eventlog(path)
    meta = store.meta
    config = None
    if isinstance(meta.get("config"), dict):
        known = {f.name for f in dataclasses.fields(SimulatorConfig)}
        config = SimulatorConfig(**{k: v for k, v in meta["config"].items()
                                    if k in known})
    features = store.path / "features.npy"
    truth = {}
    if (store.path / "truth.npz").exists():
        with np.load(store.path / "truth.npz") as archive:
            truth = {key: archive[key] for key in archive.files}
    return SyntheticDataset(
        name=str(meta.get("name", store.path.name)),
        config=config,
        corpus=store.corpus(),
        features=np.load(features) if features.exists() else None,
        cluster_of_item=truth.get("cluster_of_item"),
        cluster_graph=truth.get("cluster_graph"),
    )
