"""Sharded multi-process serving: coordinator, workers, hash router.

Architecture (see ``docs/SERVING.md`` → "Multi-process architecture"):

* **Coordinator** (:class:`ServeCluster`) owns the
  :class:`~repro.serve.registry.CheckpointRegistry`.  ``install`` builds
  the frozen bundle once (riding the registry's generation counter),
  publishes it into one shared-memory segment
  (:func:`repro.serve.shm.publish_artifacts`, optionally quantized) and
  broadcasts the segment name to every worker over a per-worker pipe.
* **Workers** are ``spawn``-started processes, each running a complete
  single-process :class:`~repro.serve.http.ServeApp` +
  ``ThreadingHTTPServer`` on an ephemeral localhost port.  A worker
  attaches the segment read-only (zero-copy numpy views), adopts the
  bundle via :meth:`CheckpointRegistry.adopt`, and acks.  Old segments
  are refcounted: a worker acks ``detached`` once the last in-flight
  request drops the old bundle, and the coordinator unlinks a segment
  only after every live worker acked (dead workers count as detached).
* **Router**: sessions are partitioned by user-id hash
  (:func:`partition`), so one user's recurrent state lives in exactly
  one process and the hot path needs no cross-process locks.  The
  coordinator-side router forwards each request to the owning worker
  over keep-alive HTTP connections (one set per router thread).

Worker lifecycle reuses :mod:`repro.parallel`'s idioms: BLAS thread
pinning (both in the spawn environment and again inside the worker),
explicit ``daemon=`` flags, a reaper thread that detects crashed
workers and respawns them, and a graceful SIGTERM drain.

Metrics: each worker mirrors its headline counters into one row of a
shared :class:`~repro.serve.shm.MetricsSlab`; the router's ``/metrics``
merges all rows into a single Prometheus exposition with per-worker
``serve_worker_generation`` / ``serve_worker_up`` gauges, so a stuck or
stale worker is visible at a glance.
"""

from __future__ import annotations

import http.client
import json
import multiprocessing
import os
import queue
import signal
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Set, Tuple

import numpy as np

from ..parallel.pool import _pin_blas_environ, _pinned_parent_env
from ..retrieval import RetrievalConfig
from ..retrieval.towers import QUANTIZE_MODES
from .http import JSON_TYPE, TEXT_TYPE, Response, ServeApp, ServeError
from .http import ServeServer, _require_int, check_route, endpoint_label
from .metrics import MetricsRegistry
from .registry import CheckpointRegistry, ServingArtifacts
from .shm import AttachedArtifacts, MetricsSlab, ShmCheckpoint
from .shm import publish_artifacts

#: Knuth's multiplicative hash keeps sequential user ids uniformly
#: spread over workers while staying trivially portable (no PYTHONHASHSEED
#: dependence — the partition must agree across processes and restarts).
_HASH_MULT = 0x9E3779B1


def partition(user_id: int, num_workers: int) -> int:
    """The worker index owning ``user_id``'s session state."""
    return ((user_id * _HASH_MULT) & 0xFFFFFFFF) % num_workers


def worker_uss_kb() -> Optional[int]:
    """Private (unshared) memory of this process in kB, from smaps.

    Plain RSS counts the shared artifact pages once per attached worker;
    USS (private clean + dirty) is the true incremental cost of one more
    worker, which is what the RSS-per-worker acceptance bound is about.
    """
    try:
        with open("/proc/self/smaps_rollup", "r", encoding="ascii") as fh:
            total = 0
            for line in fh:
                if line.startswith(("Private_Clean:", "Private_Dirty:")):
                    total += int(line.split()[1])
            return total
    except OSError:
        return None


def worker_rss_kb() -> Optional[int]:
    try:
        with open("/proc/self/status", "r", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmRSS:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return None


@dataclass(frozen=True)
class WorkerSpec:
    """Everything a spawned worker needs, picklable for ``spawn``."""

    worker_id: int
    num_workers: int
    slab_name: str
    host: str = "127.0.0.1"
    session_capacity: int = 10_000
    max_batch_size: int = 32
    max_wait_ms: float = 2.0
    default_z: int = 5
    retrieval: Optional[RetrievalConfig] = None
    thread_sanitizer: bool = False


class SlabMetrics(MetricsRegistry):
    """Worker-local registry that mirrors headline series into the slab.

    The slab row is single-writer (this worker only), so the mirror
    needs no cross-process locks; the in-process registry keeps serving
    the worker's own ``/metrics`` endpoint unchanged.
    """

    def __init__(self, slab: MetricsSlab, worker_id: int) -> None:
        super().__init__()
        self.slab = slab
        self.worker_id = worker_id

    def inc(self, name, labels=None, by: float = 1.0) -> None:
        super().inc(name, labels, by)
        if name == "serve_requests_total":
            self.slab.add(self.worker_id, "requests", by)
            if labels and labels.get("endpoint") == "/v1/recommend":
                self.slab.add(self.worker_id, "recommend", by)
        elif name == "serve_events_total":
            self.slab.add(self.worker_id, "events", by)
        elif name == "serve_errors_total":
            self.slab.add(self.worker_id, "errors", by)
        elif name == "serve_fallback_total":
            self.slab.add(self.worker_id, "fallback", by)

    def observe(self, name, value: float, labels=None) -> None:
        super().observe(name, value, labels)
        if (name == "serve_request_latency_seconds" and labels
                and labels.get("endpoint") == "/v1/recommend"):
            self.slab.observe(self.worker_id, value)


def _worker_stats(app: ServeApp, attached_gen: int) -> Dict[str, Any]:
    return {"pid": os.getpid(),
            "generation": attached_gen,
            "sessions": len(app.sessions),
            "rss_kb": worker_rss_kb(),
            "uss_kb": worker_uss_kb()}


def _retire(retiring: List[AttachedArtifacts], control,
            worker_id: int, force_gc: bool) -> None:
    """Try to detach released generations; ack each successful close."""
    if not retiring:
        return
    if force_gc:
        import gc
        gc.collect()
    for attached in list(retiring):
        if attached.detach():
            retiring.remove(attached)
            try:
                control.send(("detached", worker_id, attached.generation))
            except (BrokenPipeError, OSError):
                pass


def worker_main(spec: WorkerSpec, control) -> None:
    """Entry point of one spawned serving worker.

    Runs a full single-process serve app on an ephemeral port, a control
    loop over the coordinator pipe (install / stats / shutdown), and a
    graceful SIGTERM drain.  Exit code 1 signals thread-sanitizer
    findings (the hot-swap stress test asserts 0 across the fleet).
    """
    # Belt and braces: the coordinator spawns us with a pinned
    # environment, but re-pin before any BLAS-heavy work in case the
    # worker was launched by hand.
    _pin_blas_environ()
    drain = threading.Event()
    signal.signal(signal.SIGTERM, lambda signum, frame: drain.set())
    signal.signal(signal.SIGINT, signal.SIG_IGN)

    slab = MetricsSlab(spec.num_workers, name=spec.slab_name)
    metrics = SlabMetrics(slab, spec.worker_id)
    app = ServeApp(metrics=metrics,
                   session_capacity=spec.session_capacity,
                   max_batch_size=spec.max_batch_size,
                   max_wait_ms=spec.max_wait_ms,
                   default_z=spec.default_z,
                   retrieval=spec.retrieval)
    sanitizer = None
    if spec.thread_sanitizer:
        from ..analysis.concurrency import ThreadSanitizer
        sanitizer = ThreadSanitizer()
        sanitizer.instrument_app(app)

    exit_code = 0
    current: Optional[AttachedArtifacts] = None
    retiring: List[AttachedArtifacts] = []
    try:
        server = ServeServer(app, host=spec.host, port=0).start()
        slab.set_gauge(spec.worker_id, "pid", float(os.getpid()))
        control.send(("ready", spec.worker_id, server.address[1],
                      os.getpid()))
        tick = 0
        while not drain.is_set():
            if control.poll(0.05):
                try:
                    message = control.recv()
                except (EOFError, OSError):
                    break
                kind = message[0]
                if kind == "install":
                    _, segment_name, generation = message
                    attached = AttachedArtifacts(segment_name)
                    if app.registry.adopt(attached.artifacts):
                        if current is not None:
                            retiring.append(current)
                        current = attached
                        slab.set_gauge(spec.worker_id, "generation",
                                       float(generation))
                    else:
                        retiring.append(attached)
                    control.send(("installed", spec.worker_id, generation))
                elif kind == "stats":
                    gen = 0 if current is None else current.generation
                    control.send(("stats", spec.worker_id,
                                  _worker_stats(app, gen)))
                elif kind == "shutdown":
                    break
            tick += 1
            slab.set_gauge(spec.worker_id, "heartbeat", float(tick))
            _retire(retiring, control, spec.worker_id,
                    force_gc=bool(retiring) and tick % 20 == 0)
    finally:
        # Graceful drain: stop accepting, finish in-flight requests,
        # then detach every generation (the registry ref goes last).
        try:
            server.shutdown()
        except OSError:
            pass
        app.registry.clear()
        app.sessions.clear()
        if current is not None:
            retiring.append(current)
        deadline = time.monotonic() + 5.0
        while retiring and time.monotonic() < deadline:
            _retire(retiring, control, spec.worker_id, force_gc=True)
            if retiring:
                time.sleep(0.05)
        if sanitizer is not None:
            sanitizer.restore()
            if sanitizer.findings:
                print(sanitizer.render_report(), flush=True)
                exit_code = 1
        try:
            control.send(("bye", spec.worker_id, exit_code))
        except (BrokenPipeError, OSError):
            pass
        control.close()
    raise SystemExit(exit_code)


@dataclass
class _Worker:
    """Coordinator-side record of one live worker process."""

    worker_id: int
    process: Any
    conn: Any
    port: int
    pid: int
    send_lock: threading.Lock = field(default_factory=threading.Lock)
    stats_replies: "queue.Queue[Dict[str, Any]]" = field(
        default_factory=queue.Queue)
    generation: int = 0
    alive: bool = True
    exit_code: Optional[int] = None

    def send(self, message: Tuple) -> bool:
        with self.send_lock:
            try:
                self.conn.send(message)
                return True
            except (BrokenPipeError, OSError):
                return False


@dataclass
class _Segment:
    """One published generation and the workers still attached to it."""

    checkpoint: ShmCheckpoint
    acks: Set[int] = field(default_factory=set)


class ServeCluster:
    """N-worker serving layer with shared-memory checkpoints.

    Implements the same ``handle(method, path, payload)`` contract as
    :class:`~repro.serve.http.ServeApp`, so :class:`InProcessClient`
    and :class:`ServeServer` wrap a cluster exactly like a single app.
    """

    def __init__(self, num_workers: int, *, quantize: str = "none",
                 retrieval: Optional[RetrievalConfig] = None,
                 session_capacity: int = 10_000, max_batch_size: int = 32,
                 max_wait_ms: float = 2.0, default_z: int = 5,
                 host: str = "127.0.0.1", thread_sanitizer: bool = False,
                 ready_timeout: float = 120.0, event_sink=None) -> None:
        if num_workers < 1:
            raise ValueError("num_workers must be >= 1")
        if quantize not in QUANTIZE_MODES:
            raise ValueError(f"quantize must be one of {QUANTIZE_MODES}, "
                             f"got {quantize!r}")
        self.num_workers = num_workers
        self.quantize = quantize
        #: Optional ``callable(user_id, basket)`` invoked on the
        #: coordinator for every event a worker accepted (status 200) —
        #: the multi-process tee into the online event log, so one log
        #: covers the whole fleet regardless of shard ownership.
        self.event_sink = event_sink
        self.host = host
        self.thread_sanitizer = thread_sanitizer
        self.ready_timeout = ready_timeout
        self._spec_kwargs = dict(session_capacity=session_capacity,
                                 max_batch_size=max_batch_size,
                                 max_wait_ms=max_wait_ms,
                                 default_z=default_z, retrieval=retrieval)
        self.registry = CheckpointRegistry(retrieval=retrieval)
        self.metrics = MetricsRegistry()
        self.slab: Optional[MetricsSlab] = None
        # ``spawn`` on purpose: workers must re-import, not inherit, the
        # coordinator's heap — the artifacts travel via shared memory.
        self._ctx = multiprocessing.get_context("spawn")
        self._lock = threading.Lock()
        self._workers: Dict[int, _Worker] = {}
        self._segments: Dict[int, _Segment] = {}
        self._current_segment: Optional[ShmCheckpoint] = None
        self._closing = False
        self._started = False
        self._local = threading.local()
        self._reaper: Optional[threading.Thread] = None
        self.exit_codes: Dict[int, Optional[int]] = {}

    # -- lifecycle -----------------------------------------------------
    def start(self) -> "ServeCluster":
        with self._lock:
            if self._started:
                return self
            self._started = True
        self.slab = MetricsSlab(self.num_workers)
        for worker_id in range(self.num_workers):
            worker = self._spawn(worker_id)
            with self._lock:
                self._workers[worker_id] = worker
            self._start_listener(worker)
        reaper = threading.Thread(target=self._reap_loop, daemon=True,
                                  name="repro-mp-reaper")
        with self._lock:
            self._reaper = reaper
        reaper.start()
        return self

    def _spawn(self, worker_id: int) -> _Worker:
        spec = WorkerSpec(worker_id=worker_id,
                          num_workers=self.num_workers,
                          slab_name=self.slab.name, host=self.host,
                          thread_sanitizer=self.thread_sanitizer,
                          **self._spec_kwargs)
        parent_conn, child_conn = self._ctx.Pipe()
        # Pin BLAS/OpenMP in the spawn environment (the reliable moment:
        # thread counts are read when the child loads numpy).  daemon=True
        # so a crashed coordinator cannot strand worker processes.
        with _pinned_parent_env(True):
            process = self._ctx.Process(target=worker_main,
                                        args=(spec, child_conn),
                                        name=f"repro-serve-w{worker_id}",
                                        daemon=True)
            process.start()
        child_conn.close()
        deadline = time.monotonic() + self.ready_timeout
        while not parent_conn.poll(0.1):
            if time.monotonic() > deadline or not process.is_alive():
                process.terminate()
                raise RuntimeError(f"serve worker {worker_id} failed to "
                                   f"come up within {self.ready_timeout}s")
        message = parent_conn.recv()
        if message[0] != "ready":
            process.terminate()
            raise RuntimeError(f"serve worker {worker_id} sent "
                               f"{message[0]!r} instead of ready")
        _, _, port, pid = message
        return _Worker(worker_id=worker_id, process=process,
                       conn=parent_conn, port=port, pid=pid)

    def _start_listener(self, worker: _Worker) -> None:
        listener = threading.Thread(target=self._listen, args=(worker,),
                                    daemon=True,
                                    name=f"repro-mp-listen-{worker.worker_id}")
        listener.start()

    def _listen(self, worker: _Worker) -> None:
        """Drain one worker's pipe; the only thread that recv()s it."""
        while True:
            try:
                message = worker.conn.recv()
            except (EOFError, OSError):
                return
            kind = message[0]
            if kind == "detached":
                self._ack_detach(message[1], message[2])
            elif kind == "installed":
                worker.generation = message[2]
            elif kind == "stats":
                worker.stats_replies.put(message[2])
            elif kind == "bye":
                worker.exit_code = message[2]

    def _reap_loop(self) -> None:
        """Detect crashed workers, replace them, resweep segment acks."""
        while True:
            time.sleep(0.2)
            with self._lock:
                if self._closing:
                    return
                dead = [worker for worker in self._workers.values()
                        if worker.alive and not worker.process.is_alive()]
                for worker in dead:
                    worker.alive = False
                    self.exit_codes[worker.worker_id] = \
                        worker.process.exitcode
            for worker in dead:
                self.metrics.inc("serve_worker_restarts_total",
                                 {"worker": str(worker.worker_id)})
                try:
                    replacement = self._spawn(worker.worker_id)
                except RuntimeError:
                    continue
                with self._lock:
                    if self._closing:
                        replacement.process.terminate()
                        return
                    self._workers[worker.worker_id] = replacement
                    current = self._current_segment
                self._start_listener(replacement)
                if current is not None:
                    replacement.send(("install", current.name,
                                      current.generation))
            if dead:
                self._sweep_segments()

    # -- checkpoint publication ----------------------------------------
    def install(self, model, path: Optional[str] = None
                ) -> ServingArtifacts:
        """Build, publish, and broadcast one checkpoint generation."""
        artifacts = self.registry.install(model, path=path)
        checkpoint = publish_artifacts(artifacts, self.quantize)
        with self._lock:
            live = [worker for worker in self._workers.values()
                    if worker.alive]
            self._segments[checkpoint.generation] = _Segment(checkpoint)
            previous = self._current_segment
            if (previous is None
                    or previous.generation < checkpoint.generation):
                self._current_segment = checkpoint
        for worker in live:
            worker.send(("install", checkpoint.name,
                         checkpoint.generation))
        self._sweep_segments()
        return artifacts

    def load_checkpoint(self, path) -> ServingArtifacts:
        from ..io import load_model
        return self.install(load_model(path), path=str(path))

    def current_checkpoint(self) -> Optional[ShmCheckpoint]:
        with self._lock:
            return self._current_segment

    def _ack_detach(self, worker_id: int, generation: int) -> None:
        with self._lock:
            segment = self._segments.get(generation)
            if segment is not None:
                segment.acks.add(worker_id)
        self._sweep_segments()

    def _sweep_segments(self) -> None:
        """Unlink every stale segment all live workers have released."""
        removable: List[_Segment] = []
        with self._lock:
            live_ids = {worker.worker_id
                        for worker in self._workers.values() if worker.alive}
            current = self._current_segment
            for generation in list(self._segments):
                if current is not None and generation >= current.generation:
                    continue
                segment = self._segments[generation]
                if live_ids.issubset(segment.acks):
                    removable.append(self._segments.pop(generation))
        for segment in removable:
            segment.checkpoint.unlink()
            segment.checkpoint.close()

    # -- fleet introspection -------------------------------------------
    def worker_stats(self, worker_id: int,
                     timeout: float = 10.0) -> Optional[Dict[str, Any]]:
        """Round-trip a stats request to one worker (None if it's gone)."""
        with self._lock:
            worker = self._workers.get(worker_id)
        if worker is None or not worker.alive:
            return None
        if not worker.send(("stats",)):
            return None
        try:
            return worker.stats_replies.get(timeout=timeout)
        except queue.Empty:
            return None

    def worker_generations(self) -> List[int]:
        """Per-worker installed generation, straight from the slab."""
        return [] if self.slab is None else self.slab.generations()

    def worker_ports(self) -> List[int]:
        with self._lock:
            return [self._workers[i].port
                    for i in sorted(self._workers)]

    # -- request routing -----------------------------------------------
    def handle(self, method: str, path: str,
               payload: Optional[Dict[str, Any]] = None) -> Response:
        """Route one request; same contract as ``ServeApp.handle``."""
        try:
            check_route(method, path)
            if path == "/healthz":
                return 200, self._healthz(), JSON_TYPE
            if path == "/metrics":
                return 200, self._render_metrics(), TEXT_TYPE
            if payload is None or not isinstance(payload, dict):
                raise ServeError(400, "request body must be a JSON object")
            worker_id = partition(_require_int(payload, "user_id"),
                                  self.num_workers)
            status, parsed, ctype = self._forward(worker_id, method, path,
                                                  payload)
            if (path == "/v1/events" and status == 200
                    and self.event_sink is not None):
                # The owning worker validated and applied the event; only
                # accepted events reach the log (mirrors ServeApp._events).
                try:
                    self.event_sink(payload["user_id"],
                                    tuple(payload["basket"]))
                except Exception:  # noqa: BLE001 — the stream must not 500
                    self.metrics.inc("serve_event_sink_errors_total")
            return status, parsed, ctype
        except ServeError as exc:
            self.metrics.inc("serve_router_errors_total",
                             {"endpoint": endpoint_label(path)})
            return exc.status, {"error": str(exc)}, JSON_TYPE

    def _forward(self, worker_id: int, method: str, path: str,
                 payload: Optional[Dict[str, Any]]) -> Response:
        """Proxy to the owning worker over a thread-local keep-alive
        connection; one reconnect attempt before degrading to 503."""
        with self._lock:
            worker = self._workers.get(worker_id)
            port = None if worker is None or not worker.alive else worker.port
        if port is None:
            self.metrics.inc("serve_router_unavailable_total",
                             {"worker": str(worker_id)})
            return 503, {"error": f"worker {worker_id} unavailable"}, \
                JSON_TYPE
        body = None if payload is None else json.dumps(payload)
        for attempt in (0, 1):
            connection = self._connection(worker_id, port,
                                          fresh=attempt > 0)
            try:
                connection.request(
                    method, path, body=body,
                    headers={"Content-Type": JSON_TYPE} if body else {})
                response = connection.getresponse()
                data = response.read()
                ctype = response.getheader("Content-Type", JSON_TYPE)
                parsed = (json.loads(data) if ctype.startswith(JSON_TYPE)
                          else data.decode("utf-8"))
                self.metrics.inc("serve_router_requests_total",
                                 {"endpoint": path,
                                  "worker": str(worker_id)})
                return response.status, parsed, ctype
            except (OSError, http.client.HTTPException,
                    json.JSONDecodeError):
                self._drop_connection(worker_id)
        self.metrics.inc("serve_router_unavailable_total",
                         {"worker": str(worker_id)})
        return 503, {"error": f"worker {worker_id} unavailable"}, JSON_TYPE

    def _connection(self, worker_id: int, port: int,
                    fresh: bool = False) -> http.client.HTTPConnection:
        cache = getattr(self._local, "connections", None)
        if cache is None:
            cache = self._local.connections = {}
        cached = cache.get(worker_id)
        if cached is not None and cached[0] == port and not fresh:
            return cached[1]
        if cached is not None:
            cached[1].close()
        connection = http.client.HTTPConnection(self.host, port, timeout=30)
        cache[worker_id] = (port, connection)
        return connection

    def _drop_connection(self, worker_id: int) -> None:
        cache = getattr(self._local, "connections", None)
        if cache is not None:
            cached = cache.pop(worker_id, None)
            if cached is not None:
                cached[1].close()

    # -- merged observability ------------------------------------------
    def _healthz(self) -> Dict[str, Any]:
        artifacts = self.registry.current()
        with self._lock:
            workers = [{"worker": worker.worker_id, "pid": worker.pid,
                        "port": worker.port, "alive": worker.alive,
                        "generation": (0 if self.slab is None else
                                       int(self.slab.gauge(
                                           worker.worker_id, "generation")))}
                       for worker in self._workers.values()]
        all_up = all(entry["alive"] for entry in workers)
        return {"status": ("ok" if artifacts is not None and all_up
                           else "degraded"),
                "checkpoint": (None if artifacts is None
                               else artifacts.describe()),
                "quantize": self.quantize,
                "workers": sorted(workers, key=lambda entry: entry["worker"]),
                "num_workers": self.num_workers}

    def _render_metrics(self) -> str:
        """One Prometheus exposition merging every worker's slab row."""
        slab = self.slab
        lines: List[str] = []
        totals = {key: 0.0 for key in
                  ("requests", "recommend", "events", "errors", "fallback")}
        latencies: List[np.ndarray] = []
        with self._lock:
            alive = {worker.worker_id: worker.alive
                     for worker in self._workers.values()}
        for worker_id in range(self.num_workers):
            counters = slab.counters(worker_id)
            for key, value in counters.items():
                totals[key] += value
            lines.append(f'serve_worker_up{{worker="{worker_id}"}} '
                         f'{1 if alive.get(worker_id) else 0}')
            lines.append(f'serve_worker_generation{{worker="{worker_id}"}} '
                         f'{int(slab.gauge(worker_id, "generation"))}')
            lines.append(f'serve_worker_heartbeat{{worker="{worker_id}"}} '
                         f'{int(slab.gauge(worker_id, "heartbeat"))}')
            lines.append(f'serve_worker_requests_total'
                         f'{{worker="{worker_id}"}} '
                         f'{counters["requests"]:.0f}')
            latencies.append(slab.latencies(worker_id))
        for key, value in totals.items():
            lines.append(f'serve_mp_{key}_total {value:.0f}')
        merged = (np.concatenate(latencies) if latencies
                  else np.zeros(0))
        if merged.size:
            for q in (50, 95, 99):
                lines.append(
                    f'serve_mp_recommend_latency_seconds'
                    f'{{quantile="{q / 100}"}} '
                    f'{float(np.percentile(merged, q)):.6f}')
        return "\n".join(lines) + "\n" + self.metrics.render()

    # -- shutdown ------------------------------------------------------
    def close(self, timeout: float = 15.0) -> Dict[int, Optional[int]]:
        """Graceful drain: shutdown message, SIGTERM, then escalate.

        Returns the final per-worker exit codes (0 = clean, 1 = the
        worker's thread sanitizer reported findings).
        """
        with self._lock:
            if self._closing:
                return dict(self.exit_codes)
            self._closing = True
            workers = list(self._workers.values())
            segments = [segment.checkpoint
                        for segment in self._segments.values()]
            self._segments.clear()
            self._current_segment = None
        for worker in workers:
            if not worker.send(("shutdown",)):
                try:
                    worker.process.terminate()
                except (OSError, ValueError):
                    pass
        deadline = time.monotonic() + timeout
        for worker in workers:
            worker.process.join(timeout=max(0.1,
                                            deadline - time.monotonic()))
            if worker.process.is_alive():
                worker.process.terminate()
                worker.process.join(timeout=5.0)
            if worker.process.is_alive():
                worker.process.kill()
                worker.process.join(timeout=5.0)
            self.exit_codes[worker.worker_id] = worker.process.exitcode
            worker.alive = False
            try:
                worker.conn.close()
            except OSError:
                pass
        for checkpoint in segments:
            checkpoint.unlink()
            checkpoint.close()
        if self.slab is not None:
            self.slab.unlink()
            self.slab.close()
        self.registry.clear()
        return dict(self.exit_codes)
