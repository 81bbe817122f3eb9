"""Shared-memory checkpoint transport for multi-process serving.

One coordinator process materializes each generation's frozen artifact
bundle into a single POSIX shared-memory segment; N worker processes
attach read-only numpy views over the same physical pages.  The segment
layout is::

    [0:8]                u64 little-endian manifest length M
    [8:8+M]              manifest pickle (object graph + array table)
    [align64(8+M):]      array pool — every ndarray, 64-byte aligned

The manifest is produced by a :class:`pickle.Pickler` whose
``persistent_id`` externalizes every ndarray it meets (model parameters,
composed embedding tables, eq. 9's two (V+1, K) causal factors, IVF
inverted lists; no (V+1)² array) into the pool, deduplicated by object
identity — the pickle stream holds only (dtype, shape, offset) stubs.
Attaching reverses the trick: ``persistent_load`` returns zero-copy
``np.ndarray`` views over the segment buffer, marked read-only, so a
worker's resident cost for the artifacts is page tables, not pages.

Quantization happens at publish time (:func:`quantize_artifacts`): the
designated frozen tables (output/input embedding tables, item tower,
inverted lists) are rewrapped as :class:`repro.retrieval.towers.
QuantizedTable`; the serving scorers dequantize on the fly.  The
``none`` mode publishes the float64 arrays untouched, which keeps
multi-process scores byte-identical to single-process serving.

Lifetime: the coordinator owns ``unlink`` (and its resource tracker is
the crash backstop); workers must *unregister* attached segments from
their own resource tracker, otherwise the first worker to exit would
destroy a segment its siblings still map (see :func:`attach_segment`).
"""

from __future__ import annotations

import copy
import io
import itertools
import os
import pickle
import struct
import threading
from dataclasses import dataclass
from dataclasses import replace as dataclass_replace
from multiprocessing import shared_memory
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from ..retrieval import IVFIndex
from ..retrieval.towers import QUANTIZE_MODES, QuantizedTable, table_nbytes
from .registry import (CausalServingArtifacts, GRUServingArtifacts,
                       ServingArtifacts)

#: Every segment this module creates carries this name prefix, so leak
#: checks and emergency cleanup can find ours without touching other
#: tenants of ``/dev/shm``.
SEGMENT_PREFIX = "repro-serve"

_ALIGN = 64
_HEADER = struct.Struct("<Q")
_name_seq = itertools.count()
#: Serializes SharedMemory construction against the resource-tracker
#: patch in :func:`attach_segment`, so a concurrent create cannot slip
#: through the window where registration is disabled.
_tracker_lock = threading.Lock()


def _align(offset: int) -> int:
    return (offset + _ALIGN - 1) & ~(_ALIGN - 1)


def _new_segment(tag: str, size: int) -> shared_memory.SharedMemory:
    """Create a uniquely-named segment (pid + sequence keeps local runs
    apart; collide-and-retry covers stale leftovers from killed runs)."""
    while True:
        name = f"{SEGMENT_PREFIX}-{tag}-p{os.getpid()}-{next(_name_seq)}"
        try:
            with _tracker_lock:
                return shared_memory.SharedMemory(name=name, create=True,
                                                  size=max(size, 1))
        except FileExistsError:
            continue


def attach_segment(name: str) -> shared_memory.SharedMemory:
    """Attach an existing segment without adopting its lifetime.

    ``SharedMemory(name=...)`` registers the mapping with the attaching
    process's resource tracker (until Python 3.13's ``track=False``),
    which would unlink the segment when this process exits even though
    the coordinator and sibling workers still use it.  On older Pythons
    the registration is suppressed outright (unregistering after the
    fact would also cancel the *creator's* registration when attaching
    in-process, the single-process ``--quantize`` path).
    """
    try:
        return shared_memory.SharedMemory(name=name, track=False)
    except TypeError:                        # Python < 3.13
        pass
    from multiprocessing import resource_tracker
    with _tracker_lock:
        original = resource_tracker.register
        resource_tracker.register = lambda *args, **kwargs: None
        try:
            return shared_memory.SharedMemory(name=name)
        finally:
            resource_tracker.register = original


def list_segments(prefix: str = SEGMENT_PREFIX) -> List[str]:
    """Names of live segments under ``prefix`` (empty off-Linux)."""
    try:
        entries = os.listdir("/dev/shm")
    except OSError:
        return []
    return sorted(entry for entry in entries if entry.startswith(prefix))


def cleanup_segments(prefix: str = SEGMENT_PREFIX) -> List[str]:
    """Force-unlink every segment under ``prefix``; returns the names.

    The test-fixture finalizer: guarantees a failing test cannot leak
    ``/dev/shm`` entries into later tests (or the host).
    """
    removed = []
    for name in list_segments(prefix):
        try:
            # Plain (tracked) attach: unlink() unregisters, so the
            # register/unregister pair stays balanced in the tracker.
            segment = shared_memory.SharedMemory(name=name)
            segment.unlink()
            segment.close()
            removed.append(name)
        except OSError:
            continue
    return removed


# ----------------------------------------------------------------------
# ndarray-externalizing pickler
# ----------------------------------------------------------------------

class _PoolPickler(pickle.Pickler):
    """Pickles an object graph, diverting every ndarray into a pool.

    Arrays are deduplicated by object identity — artifact fields are
    views of model parameters (``param.data``), and pooling them twice
    would double the segment.  ``_keepalive`` pins the originals so
    ``id()`` cannot be recycled mid-dump.
    """

    def __init__(self, buffer: io.BytesIO) -> None:
        super().__init__(buffer, protocol=pickle.HIGHEST_PROTOCOL)
        self.arrays: List[np.ndarray] = []
        self._index: Dict[int, int] = {}
        self._keepalive: List[np.ndarray] = []

    def persistent_id(self, obj: Any) -> Optional[int]:
        if isinstance(obj, np.ndarray) and obj.dtype != object:
            idx = self._index.get(id(obj))
            if idx is None:
                idx = len(self.arrays)
                # No-op for already-contiguous inputs (the common case);
                # memmap-backed params stream their pages here once.
                self.arrays.append(np.ascontiguousarray(obj))
                self._index[id(obj)] = idx
                self._keepalive.append(obj)
            return idx
        return None


class _PoolUnpickler(pickle.Unpickler):
    def __init__(self, buffer: io.BytesIO, arrays: List[np.ndarray]) -> None:
        super().__init__(buffer)
        self._arrays = arrays

    def persistent_load(self, pid: int) -> np.ndarray:
        return self._arrays[pid]


# ----------------------------------------------------------------------
# quantization at publish time
# ----------------------------------------------------------------------

def frozen_table_bytes(artifacts: ServingArtifacts) -> int:
    """Storage footprint of the quantizable frozen tables, in bytes."""
    total = table_nbytes(getattr(artifacts, "output_table", None))
    if artifacts.recurrent is not None:
        total += table_nbytes(artifacts.recurrent.input_table)
    if artifacts.retrieval is not None:
        total += table_nbytes(artifacts.retrieval.tower.vectors)
        total += sum(table_nbytes(vectors)
                     for vectors in artifacts.retrieval.index.list_vectors)
    return total


def quantize_artifacts(artifacts: ServingArtifacts,
                       mode: str) -> ServingArtifacts:
    """A shallow re-wrap of ``artifacts`` with quantized frozen tables.

    Quantizes the embedding tables every score reads — the composed
    input table, the output table, the item tower, and the IVF inverted
    lists.  Biases, eq. 9's causal factors ``(Ā Wᶜ, Ā)``, attention
    and adapter weights, and the model itself stay float64: they are
    either small, or (the causal head's case) part of the bit-for-bit
    eq.-10 contract that quantization tolerances are defined against.
    ``none`` returns the input unchanged.
    """
    if mode not in QUANTIZE_MODES:
        raise ValueError(f"quantize must be one of {QUANTIZE_MODES}, "
                         f"got {mode!r}")
    if mode == "none":
        return artifacts
    bundle = copy.copy(artifacts)
    if bundle.recurrent is not None:
        bundle.recurrent = dataclass_replace(
            bundle.recurrent,
            input_table=QuantizedTable.quantize(
                bundle.recurrent.input_table, mode))
    if isinstance(bundle, (CausalServingArtifacts, GRUServingArtifacts)):
        bundle.output_table = QuantizedTable.quantize(bundle.output_table,
                                                      mode)
    if bundle.retrieval is not None:
        retrieval = bundle.retrieval
        tower = dataclass_replace(
            retrieval.tower,
            vectors=QuantizedTable.quantize(retrieval.tower.vectors, mode))
        old = retrieval.index
        index = IVFIndex(
            old.centroids, old.list_ids,
            [QuantizedTable.quantize(vectors, mode)
             for vectors in old.list_vectors],
            old.list_bias, scorer=old.scorer_name, seed=old.seed)
        bundle.retrieval = dataclass_replace(retrieval, tower=tower,
                                             index=index)
    return bundle


# ----------------------------------------------------------------------
# publish / attach
# ----------------------------------------------------------------------

@dataclass
class ShmCheckpoint:
    """Coordinator-side handle for one published generation."""

    name: str
    generation: int
    quantize: str
    nbytes: int                  # whole segment
    artifact_bytes: int          # array pool only
    table_bytes: int             # quantizable tables, post-quantization
    table_bytes_dense: int       # same tables before quantization
    _shm: shared_memory.SharedMemory

    def close(self) -> None:
        try:
            self._shm.close()
        except OSError:
            pass

    def unlink(self) -> None:
        try:
            self._shm.unlink()
        except OSError:          # already gone (double unlink is fine)
            pass


class AttachedArtifacts:
    """Worker-side handle: zero-copy artifact views over one segment."""

    def __init__(self, name: str) -> None:
        self._shm = attach_segment(name)
        self.name = name
        buf = self._shm.buf
        (manifest_len,) = _HEADER.unpack_from(buf, 0)
        manifest = pickle.loads(bytes(buf[_HEADER.size:
                                          _HEADER.size + manifest_len]))
        pool_start = _align(_HEADER.size + manifest_len)
        views: List[np.ndarray] = []
        for offset, dtype, shape in manifest["arrays"]:
            dt = np.dtype(dtype)
            start = pool_start + offset
            count = int(np.prod(shape, dtype=np.int64))
            # Deliberately ``frombuffer`` over a memoryview *slice*, not
            # ``np.ndarray(buffer=shm.buf, offset=...)``: numpy releases
            # its Py_buffer right after construction, so a plain ndarray
            # does NOT pin the mmap and ``SharedMemory.close`` would
            # silently unmap memory that in-flight requests still read
            # (observed as a worker SIGSEGV mid-swap).  A sliced
            # memoryview keeps an export on the mmap for as long as any
            # derived array lives, turning a premature close into the
            # BufferError that :meth:`detach` retries on.
            slab = buf[start:start + count * dt.itemsize]
            view = np.frombuffer(slab, dtype=dt).reshape(shape)
            view.setflags(write=False)
            views.append(view)
        self.artifacts: Optional[ServingArtifacts] = _PoolUnpickler(
            io.BytesIO(manifest["payload"]), views).load()
        self.generation: int = manifest["generation"]
        self.quantize: str = manifest["quantize"]

    def detach(self) -> bool:
        """Drop the bundle and try to detach; ``False`` while views live.

        ``SharedMemory.close`` raises ``BufferError`` as long as any
        numpy view still exports the segment buffer — in-flight requests
        may hold the old bundle for a while after a hot swap, so callers
        retry until the release sticks.
        """
        self.artifacts = None
        try:
            self._shm.close()
        except BufferError:
            return False
        return True


def publish_artifacts(artifacts: ServingArtifacts,
                      quantize: str = "none") -> ShmCheckpoint:
    """Materialize one generation's frozen bundle into shared memory."""
    dense_bytes = frozen_table_bytes(artifacts)
    bundle = quantize_artifacts(artifacts, quantize)
    if bundle.model is not None:
        # Gradients are training state, not serving state — drop them
        # rather than ship megabytes of stale accumulators per worker.
        bundle.model.zero_grad()
    payload = io.BytesIO()
    pickler = _PoolPickler(payload)
    pickler.dump(bundle)
    offsets: List[Tuple[int, str, Tuple[int, ...]]] = []
    cursor = 0
    for array in pickler.arrays:
        offsets.append((cursor, array.dtype.str, array.shape))
        cursor = _align(cursor + array.nbytes)
    manifest = pickle.dumps({
        "payload": payload.getvalue(),
        "arrays": offsets,
        "generation": artifacts.generation,
        "quantize": quantize,
    }, protocol=pickle.HIGHEST_PROTOCOL)
    pool_start = _align(_HEADER.size + len(manifest))
    shm = _new_segment(f"g{artifacts.generation}", pool_start + cursor)
    buf = shm.buf
    _HEADER.pack_into(buf, 0, len(manifest))
    buf[_HEADER.size:_HEADER.size + len(manifest)] = manifest
    for array, (offset, dtype, shape) in zip(pickler.arrays, offsets):
        if array.size == 0:
            continue
        dest = np.ndarray(shape, dtype=np.dtype(dtype), buffer=buf,
                          offset=pool_start + offset)
        dest[...] = array
    return ShmCheckpoint(
        name=shm.name, generation=artifacts.generation, quantize=quantize,
        nbytes=shm.size, artifact_bytes=cursor,
        table_bytes=frozen_table_bytes(bundle),
        table_bytes_dense=dense_bytes, _shm=shm)


# ----------------------------------------------------------------------
# cross-worker metrics slab
# ----------------------------------------------------------------------

#: Gauge slots (per worker row): last installed generation, worker pid,
#: and a loop heartbeat so a stuck worker is visible from /metrics.
SLAB_GAUGES = ("generation", "pid", "heartbeat")
#: Counter slots mirrored from each worker's MetricsRegistry.
SLAB_COUNTERS = ("requests", "recommend", "events", "errors", "fallback")
#: Ring-buffer capacity for recommend latencies (seconds), per worker.
SLAB_LATENCY_RING = 512

_SLAB_COLS = (len(SLAB_GAUGES) + len(SLAB_COUNTERS) + 2 + SLAB_LATENCY_RING)
_RING_COUNT = len(SLAB_GAUGES) + len(SLAB_COUNTERS)      # observations
_RING_SUM = _RING_COUNT + 1
_RING_BASE = _RING_SUM + 1


class MetricsSlab:
    """One float64 matrix in shared memory, one row per worker.

    Every slot is written by exactly one process (worker ``i`` owns row
    ``i``; the coordinator only reads), so there are no cross-process
    locks: aligned 8-byte stores are atomic on every platform numpy
    supports, and the merge loop tolerates counters that move while it
    reads.
    """

    def __init__(self, num_workers: int, name: Optional[str] = None) -> None:
        self.num_workers = num_workers
        size = num_workers * _SLAB_COLS * 8
        if name is None:
            self._shm = _new_segment("metrics", size)
            self._owner = True
        else:
            self._shm = attach_segment(name)
            self._owner = False
        self.name = self._shm.name
        self.cells = np.ndarray((num_workers, _SLAB_COLS), dtype=np.float64,
                               buffer=self._shm.buf)
        if self._owner:
            self.cells[...] = 0.0

    # -- single-writer (worker) side ----------------------------------
    def set_gauge(self, worker: int, key: str, value: float) -> None:
        self.cells[worker, SLAB_GAUGES.index(key)] = value

    def add(self, worker: int, key: str, delta: float = 1.0) -> None:
        self.cells[worker, len(SLAB_GAUGES)
                  + SLAB_COUNTERS.index(key)] += delta

    def observe(self, worker: int, seconds: float) -> None:
        row = self.cells[worker]
        count = int(row[_RING_COUNT])
        row[_RING_BASE + count % SLAB_LATENCY_RING] = seconds
        row[_RING_SUM] += seconds
        row[_RING_COUNT] = count + 1

    # -- reader (coordinator) side ------------------------------------
    def gauge(self, worker: int, key: str) -> float:
        return float(self.cells[worker, SLAB_GAUGES.index(key)])

    def counters(self, worker: int) -> Dict[str, float]:
        base = len(SLAB_GAUGES)
        return {key: float(self.cells[worker, base + i])
                for i, key in enumerate(SLAB_COUNTERS)}

    def latencies(self, worker: int) -> np.ndarray:
        row = self.cells[worker]
        count = int(row[_RING_COUNT])
        window = min(count, SLAB_LATENCY_RING)
        return row[_RING_BASE:_RING_BASE + window].copy()

    def observation_count(self, worker: int) -> int:
        return int(self.cells[worker, _RING_COUNT])

    def generations(self) -> List[int]:
        return [int(self.gauge(w, "generation"))
                for w in range(self.num_workers)]

    def close(self) -> None:
        self.cells = None
        try:
            self._shm.close()
        except (OSError, BufferError):
            pass

    def unlink(self) -> None:
        try:
            self._shm.unlink()
        except OSError:
            pass
