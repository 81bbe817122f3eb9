"""Runtime thread sanitizer: lock-order, long-hold, and torn-read checks.

The static racelint family (CL001–CL005) polices locking discipline that
is visible in the source; this module polices what actually happens at
runtime.  :func:`threadsan` wraps the locks of a live system in
instrumented proxies that record per-thread acquisition stacks and feed
three detectors:

* **lock-order inversion** — every acquisition of lock B while holding
  lock A adds an ``A → B`` edge to a dynamic lock-order graph; an edge
  that closes a cycle means two code paths disagree on the global
  acquisition order (the precondition for deadlock), and the finding
  carries the recorded stacks of *both* acquiring sites.  Inversions are
  detected even when the conflicting acquisitions never overlap in time —
  this checks order discipline, not whether the deadlock happened to fire.
* **long hold** — a lock held longer than ``LONG_HOLD_MS`` (wall clock)
  is reported with the acquisition stack.  ``Condition.wait`` releases
  the underlying lock, so time spent waiting does not count as holding.
* **torn read** — generation-counted artifacts (``CheckpointRegistry``
  bundles, per-user session syncs) are shadow-checked: the generation a
  thread observes must never move backwards *within that thread*, and two
  observations of the same ``(name, generation)`` must agree on the
  artifact's identity fingerprint.  Cross-thread ordering is deliberately
  not checked — observations are timestamped after the lock is released,
  so cross-thread "regressions" would be scheduling artifacts, not bugs.

Like the gradient sanitizer, findings carry recorded tracebacks pointing
at the acquiring/observing sites, and the whole thing uninstalls cleanly
when the ``with threadsan():`` block exits.

Usage::

    from repro.analysis import threadsan

    with threadsan() as san:
        san.instrument_app(app)          # a repro.serve.ServeApp
        ... drive traffic ...
    assert san.findings == [], san.render_report()

or, for arbitrary lock owners::

    with threadsan() as san:
        san.instrument(obj, "_alpha", "_beta")
        ...

Instrumentation swaps instance attributes; only locks reached through the
instrumented attributes are observed.  Restore happens on context exit —
make sure worker threads holding proxied locks are joined first.
"""

from __future__ import annotations

import contextlib
import threading
import time
import traceback
from dataclasses import dataclass
from typing import Any, Dict, Iterator, List, Optional, Set, Tuple

#: Threshold of the long-hold detector, in milliseconds.  Serving locks
#: guard dict lookups and pointer swaps; anything beyond a few
#: milliseconds under a lock is a foreign blocking call (cf. CL003).
LONG_HOLD_MS = 100.0

#: Stack frames recorded per acquisition (innermost last).
STACK_DEPTH = 8


@dataclass
class ConcurrencyFinding:
    """One runtime violation with the recorded stacks that produced it."""

    kind: str                   # "lock-inversion" | "long-hold" | "torn-read"
    message: str
    thread: str
    where: Optional[str] = None     # stack of the offending site
    also: Optional[str] = None      # stack of the conflicting site (if any)

    def render(self) -> str:
        parts = [f"[{self.kind}] {self.message} (thread {self.thread})"]
        if self.where:
            parts.append("  offending site:\n" + _indent(self.where))
        if self.also:
            parts.append("  conflicting site:\n" + _indent(self.also))
        return "\n".join(parts)


def _indent(stack: str) -> str:
    return "\n".join("    " + line for line in stack.rstrip().splitlines())


class _HeldLock:
    """Per-thread bookkeeping for one currently-held proxy."""

    __slots__ = ("proxy", "since", "stack", "depth")

    def __init__(self, proxy: "LockProxy", since: float, stack: str) -> None:
        self.proxy = proxy
        self.since = since
        self.stack = stack
        self.depth = 1


class LockProxy:
    """Duck-typed stand-in for ``Lock``/``RLock``/``Condition``.

    Delegates every operation to the wrapped primitive and reports
    acquisition/release events to the owning :class:`ThreadSanitizer`.
    ``Condition.wait`` is treated as release-then-reacquire, matching the
    primitive's actual semantics.
    """

    def __init__(self, inner: Any, name: str,
                 sanitizer: "ThreadSanitizer") -> None:
        self._inner = inner
        self._name = name
        self._san = sanitizer

    @property
    def name(self) -> str:
        return self._name

    @property
    def wrapped(self) -> Any:
        return self._inner

    # -- lock protocol ---------------------------------------------------
    def acquire(self, *args: Any, **kwargs: Any) -> bool:
        got = self._inner.acquire(*args, **kwargs)
        if got:
            self._san._on_acquired(self)
        return got

    def release(self) -> None:
        self._san._on_released(self)
        self._inner.release()

    def __enter__(self) -> "LockProxy":
        self.acquire()
        return self

    def __exit__(self, *exc: Any) -> None:
        self.release()

    def locked(self) -> bool:
        return self._inner.locked()

    # -- condition protocol (present only on wrapped Conditions) ---------
    def wait(self, timeout: Optional[float] = None) -> bool:
        self._san._on_released(self, waiting=True)
        try:
            return self._inner.wait(timeout)
        finally:
            self._san._on_acquired(self, reacquired=True)

    def wait_for(self, predicate: Any,
                 timeout: Optional[float] = None) -> Any:
        self._san._on_released(self, waiting=True)
        try:
            return self._inner.wait_for(predicate, timeout)
        finally:
            self._san._on_acquired(self, reacquired=True)

    def notify(self, n: int = 1) -> None:
        self._inner.notify(n)

    def notify_all(self) -> None:
        self._inner.notify_all()


class ThreadSanitizer:
    """Records lock events across threads and turns them into findings."""

    def __init__(self) -> None:
        self._lock = threading.Lock()   # guards everything below
        self._findings: List[ConcurrencyFinding] = []
        #: dynamic lock-order graph: name -> set of names acquired under it
        self._graph: Dict[str, Set[str]] = {}
        #: (outer, inner) -> (inner-acquisition stack, thread name)
        self._edge_sites: Dict[Tuple[str, str], Tuple[str, str]] = {}
        self._reported_pairs: Set[frozenset] = set()
        #: (name, generation) -> (fingerprint, observing stack, thread)
        self._gen_fingerprints: Dict[Tuple[str, int],
                                     Tuple[Any, str, str]] = {}
        self._patches: List[Tuple[Any, str, Any, bool]] = []
        self._tls = threading.local()

    # -- public surface --------------------------------------------------
    @property
    def findings(self) -> List[ConcurrencyFinding]:
        with self._lock:
            return list(self._findings)

    def render_report(self) -> str:
        findings = self.findings
        if not findings:
            return "threadsan: no findings"
        lines = [f.render() for f in findings]
        lines.append(f"threadsan: {len(findings)} finding(s)")
        return "\n\n".join(lines)

    def wrap_lock(self, lock: Any, name: str) -> LockProxy:
        """Wrap a lock/condition without attaching it to an owner."""
        if isinstance(lock, LockProxy):
            return lock
        return LockProxy(lock, name, self)

    def instrument(self, owner: Any, *attrs: str) -> None:
        """Replace ``owner.<attr>`` locks with recording proxies.

        Proxy names are ``ClassName.attr`` so dynamic findings line up
        with the static CL004 node naming.
        """
        for attr in attrs:
            lock = getattr(owner, attr)
            if isinstance(lock, LockProxy):
                continue
            name = f"{type(owner).__name__}.{attr}"
            self._patch(owner, attr, LockProxy(lock, name, self))

    def instrument_app(self, app: Any) -> None:
        """Instrument a :class:`repro.serve.ServeApp` end to end.

        Duck-typed on purpose (no serve import): proxies every lock in the
        serving stack and hooks the generation observation points —
        ``CheckpointRegistry.install``/``current`` (bundle identity per
        generation) and ``SessionStore._sync`` (per-user adoption of a
        swapped generation, observed while the store lock is held).
        """
        registry = getattr(app, "registry", None)
        sessions = getattr(app, "sessions", None)
        batcher = getattr(app, "batcher", None)
        metrics = getattr(app, "metrics", None)
        if registry is not None:
            self.instrument(registry, "_lock")
            self._hook_registry(registry)
        if sessions is not None:
            self.instrument(sessions, "_lock")
            self._hook_sessions(sessions)
        if batcher is not None:
            self.instrument(batcher, "_nonempty")
        if metrics is not None:
            self.instrument(metrics, "_lock")
        if hasattr(app, "_pop_lock"):
            self.instrument(app, "_pop_lock")

    def observe_generation(self, name: str, generation: int,
                           fingerprint: Any = None) -> None:
        """Shadow-check one observation of a generation-counted artifact."""
        thread = threading.current_thread().name
        high = self._tls_dict("gen_high")
        last = high.get(name)
        if last is not None and generation < last:
            self._add_finding(ConcurrencyFinding(
                kind="torn-read",
                message=(f"generation of `{name}` moved backwards on one "
                         f"thread: {last} -> {generation}"),
                thread=thread, where=self._capture_stack()))
        high[name] = generation if last is None else max(last, generation)
        if fingerprint is None:
            return
        with self._lock:
            prev = self._gen_fingerprints.get((name, generation))
            if prev is None:
                self._gen_fingerprints[(name, generation)] = (
                    fingerprint, self._capture_stack(), thread)
                return
        if prev[0] != fingerprint:
            self._add_finding(ConcurrencyFinding(
                kind="torn-read",
                message=(f"`{name}` generation {generation} observed with "
                         f"two different artifact identities "
                         f"({prev[0]!r} vs {fingerprint!r}) — torn read "
                         f"across a swap"),
                thread=thread, where=self._capture_stack(), also=prev[1]))

    def restore(self) -> None:
        """Undo every instrumentation patch (LIFO)."""
        with self._lock:
            patches, self._patches = self._patches, []
        for owner, attr, original, had_attr in reversed(patches):
            if had_attr:
                setattr(owner, attr, original)
            else:
                # We shadowed a class-level method with an instance
                # attribute; removing it re-exposes the original.
                try:
                    delattr(owner, attr)
                except AttributeError:
                    pass

    # -- instrumentation plumbing ----------------------------------------
    def _patch(self, owner: Any, attr: str, replacement: Any) -> None:
        had_attr = attr in vars(owner)
        original = vars(owner).get(attr)
        setattr(owner, attr, replacement)
        with self._lock:
            self._patches.append((owner, attr, original, had_attr))

    def _hook_registry(self, registry: Any) -> None:
        orig_install = registry.install
        orig_current = registry.current
        san = self

        def install(model: Any, path: Optional[str] = None) -> Any:
            artifacts = orig_install(model, path=path)
            san.observe_generation("CheckpointRegistry",
                                   artifacts.generation, id(artifacts))
            return artifacts

        def current() -> Any:
            artifacts = orig_current()
            if artifacts is not None:
                san.observe_generation("CheckpointRegistry",
                                       artifacts.generation, id(artifacts))
            return artifacts

        self._patch(registry, "install", install)
        self._patch(registry, "current", current)

    def _hook_sessions(self, sessions: Any) -> None:
        orig_sync = sessions._sync
        san = self

        def _sync(session: Any, artifacts: Any) -> int:
            dropped = orig_sync(session, artifacts)
            if artifacts is not None:
                # Runs under the store lock, so the pair (user session,
                # adopted generation) is consistent by construction here;
                # the check catches torn adoption ordering per thread.
                san.observe_generation(
                    f"SessionStore.user[{session.user_id}]",
                    session.generation)
            return dropped

        self._patch(sessions, "_sync", _sync)

    # -- lock event handlers (called from LockProxy) ---------------------
    def _held_stack(self) -> List[_HeldLock]:
        held = getattr(self._tls, "held", None)
        if held is None:
            held = self._tls.held = []
        return held

    def _tls_dict(self, name: str) -> Dict[str, int]:
        value = getattr(self._tls, name, None)
        if value is None:
            value = {}
            setattr(self._tls, name, value)
        return value

    def _capture_stack(self) -> str:
        frames = traceback.extract_stack()
        frames = [f for f in frames
                  if not f.filename.endswith("concurrency.py")]
        return "".join(traceback.format_list(frames[-STACK_DEPTH:]))

    def _on_acquired(self, proxy: LockProxy,
                     reacquired: bool = False) -> None:
        held = self._held_stack()
        for entry in held:
            if entry.proxy is proxy and not reacquired:
                # RLock re-entry by the same thread: no new edge, and the
                # hold clock keeps running from the outermost acquire.
                entry.depth += 1
                return
        stack = self._capture_stack()
        for entry in held:
            if entry.proxy is not proxy:
                self._record_edge(entry.proxy.name, proxy.name, stack)
        held.append(_HeldLock(proxy, time.monotonic(), stack))

    def _on_released(self, proxy: LockProxy, waiting: bool = False) -> None:
        held = self._held_stack()
        for index in range(len(held) - 1, -1, -1):
            entry = held[index]
            if entry.proxy is not proxy:
                continue
            if entry.depth > 1 and not waiting:
                entry.depth -= 1
                return
            held.pop(index)
            held_ms = (time.monotonic() - entry.since) * 1000.0
            if held_ms > LONG_HOLD_MS:
                self._add_finding(ConcurrencyFinding(
                    kind="long-hold",
                    message=(f"`{proxy.name}` held for {held_ms:.1f} ms "
                             f"(threshold {LONG_HOLD_MS:g} ms)"),
                    thread=threading.current_thread().name,
                    where=entry.stack))
            return

    def _record_edge(self, outer: str, inner: str, stack: str) -> None:
        thread = threading.current_thread().name
        with self._lock:
            if inner in self._graph.get(outer, ()):
                return
            path = self._find_path(inner, outer)
            self._graph.setdefault(outer, set()).add(inner)
            self._edge_sites[(outer, inner)] = (stack, thread)
            if path is None:
                return
            pair = frozenset((outer, inner))
            if pair in self._reported_pairs:
                return
            self._reported_pairs.add(pair)
            reverse_site = self._edge_sites.get((path[0], path[1]))
            cycle = " -> ".join([outer, inner] + path[1:])
            self._findings.append(ConcurrencyFinding(
                kind="lock-inversion",
                message=(f"`{inner}` acquired while holding `{outer}`, but "
                         f"another path acquires them in the opposite "
                         f"order (cycle: {cycle})"),
                thread=thread, where=stack,
                also=reverse_site[0] if reverse_site else None))

    def _find_path(self, start: str, goal: str) -> Optional[List[str]]:
        """DFS path ``start → ... → goal`` in the current order graph."""
        stack = [(start, [start])]
        seen: Set[str] = set()
        while stack:
            node, path = stack.pop()
            if node == goal:
                return path
            if node in seen:
                continue
            seen.add(node)
            for succ in sorted(self._graph.get(node, ())):
                stack.append((succ, path + [succ]))
        return None

    def _add_finding(self, finding: ConcurrencyFinding) -> None:
        with self._lock:
            self._findings.append(finding)


@contextlib.contextmanager
def threadsan() -> Iterator[ThreadSanitizer]:
    """Scoped runtime thread sanitizer; uninstalls all proxies on exit.

    Join any worker threads that may hold instrumented locks before the
    block exits — restore swaps the original primitives back in place.
    """
    sanitizer = ThreadSanitizer()
    try:
        yield sanitizer
    finally:
        sanitizer.restore()
