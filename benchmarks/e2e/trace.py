"""In-memory spans for the end-to-end benchmark's traced runs.

A :class:`Tracer` records one span per call of each wrapped callable:
``(id, parent, name, start, end, thread, request, tag)``.  Times come
from ``time.monotonic`` — system-wide on Linux — so spans recorded in
the server process line up with the load generator's timeline.  The
parent is the innermost open span on the same thread; the request id is
inherited from the root span that opened it (``ServeApp.handle`` starts
one per HTTP request).

Wrappers are installed at the *lookup sites* the program uses (a module
global such as ``repro.core.causer.iterate_batches``, or a class
attribute such as ``repro.nn.tensor.Tensor.backward``); nothing under
``src/`` changes.  :func:`install` returns an undo callable.

Spans stay in memory until :meth:`Tracer.dump`.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import itertools
import json
import threading
import time
from collections import defaultdict
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

#: (module, attribute path, span name).  A dotted attribute path names a
#: method on a class.  Generator functions get one span per ``next()``.
OFFLINE_SITES: Tuple[Tuple[str, str, str], ...] = (
    ("repro.models.base", "training_prefixes", "data.training_prefixes"),
    ("repro.core.causer", "iterate_batches", "data.iterate_batches"),
    ("repro.models.base", "iterate_batches", "data.iterate_batches"),
    ("repro.core.causer", "sample_negatives", "data.sample_negatives"),
    ("repro.models.base", "sample_negatives", "data.sample_negatives"),
    ("repro.data.eventlog", "EvalSampleView.__getitem__", "data.eval_samples"),
    ("repro.core.causer", "pretrain_cluster_graph", "core.pretrain_graph"),
    ("repro.core.causer", "Causer.training_loss", "core.training_loss"),
    ("repro.models.base", "NeuralSequentialRecommender.training_loss",
     "core.training_loss"),
    ("repro.core.causal_graph", "ClusterCausalGraph.acyclicity",
     "causal.acyclicity"),
    ("repro.core.causal_graph", "ClusterCausalGraph.acyclicity_value",
     "causal.acyclicity"),
    ("repro.nn.rnn", "fused_gru_sequence", "nn.gru_sequence"),
    ("repro.nn.tensor", "Tensor.backward", "nn.backward"),
    ("repro.nn.optim", "SGD.step", "nn.optim.step"),
    ("repro.nn.optim", "Adam.step", "nn.optim.step"),
    ("repro.nn.optim", "Adagrad.step", "nn.optim.step"),
    ("repro.nn.optim", "Optimizer.clip_grad_norm", "nn.optim.clip"),
    ("repro.nn.optim", "Optimizer.zero_grad", "nn.optim.zero_grad"),
    ("repro.core.causer", "Causer.score_samples", "eval.score_samples"),
    ("repro.models.base", "NeuralSequentialRecommender.score_samples",
     "eval.score_samples"),
    ("repro.models.base", "rank_top_z", "eval.rank_top_z"),
    ("repro.eval.evaluator", "evaluate_rankings", "eval.evaluate_rankings"),
)

SERVE_SITES: Tuple[Tuple[str, str, str], ...] = (
    ("repro.serve.http", "ServeApp.handle", "serve.handle"),
    ("repro.serve.sessions", "SessionStore.append_event",
     "serve.sessions.append_event"),
    ("repro.serve.sessions", "SessionStore.view", "serve.sessions.view"),
    ("repro.serve.batcher", "MicroBatcher.submit", "serve.batcher.submit"),
    ("repro.serve.http", "score_views", "serve.scoring.score_views"),
    ("repro.serve.http", "user_vector", "retrieval.user_vector"),
    ("repro.retrieval.index", "IVFIndex.search", "retrieval.search"),
    ("repro.serve.http", "rerank_top_z", "retrieval.rerank"),
    ("repro.serve.registry", "load_model", "io.load_model"),
    ("repro.io", "load_model", "io.load_model"),
    ("repro.serve.registry", "CheckpointRegistry.install",
     "serve.registry.install"),
    ("repro.online.log", "EventLog.append", "online.log.append"),
    ("repro.online.trainer", "OnlineTrainer.pump", "online.trainer.pump"),
    ("repro.online.refresh", "RefreshController.refresh_once",
     "online.refresh"),
) + OFFLINE_SITES

#: Positional argument recorded as the span's tag (``handle``'s path).
TAG_ARGS = {"serve.handle": 2}

#: Span fields, in dump order.
FIELDS = ("id", "parent", "name", "start", "end", "thread", "request", "tag")


class Tracer:
    """Collects spans from every thread of one process."""

    def __init__(self) -> None:
        self.spans: List[tuple] = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str, tag: Optional[str] = None) -> list:
        stack = self._stack()
        span_id = next(self._ids)
        if stack:
            parent, request = stack[-1][0], stack[-1][6]
        else:
            parent, request = None, span_id
        record = [span_id, parent, name, time.monotonic(), 0.0,
                  threading.get_ident(), request, tag]
        stack.append(record)
        return record

    def close(self, record: list) -> None:
        record[4] = time.monotonic()
        stack = self._stack()
        stack.pop()
        self.spans.append(tuple(record))

    @contextlib.contextmanager
    def span(self, name: str, tag: Optional[str] = None):
        record = self.open(name, tag)
        try:
            yield
        finally:
            self.close(record)

    def wrap(self, name: str, fn: Callable, generator: bool = False,
             tag_arg: Optional[int] = None) -> Callable:
        """``fn`` with one span per call (per ``next()`` for generators)."""
        tracer = self
        if generator:
            @functools.wraps(fn)
            def traced_gen(*args, **kwargs):
                iterator = fn(*args, **kwargs)
                while True:
                    record = tracer.open(name)
                    try:
                        item = next(iterator)
                    except StopIteration:
                        return
                    finally:
                        tracer.close(record)
                    yield item
            return traced_gen

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            tag = None
            if tag_arg is not None and len(args) > tag_arg:
                tag = str(args[tag_arg])
            record = tracer.open(name, tag)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.close(record)
        return traced

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"fields": FIELDS, "spans": self.spans}, handle)


def install(tracer: Tracer, sites: Iterable[Tuple[str, str, str]]
            ) -> Callable[[], None]:
    """Wrap every site; returns a callable that restores the originals."""
    undo: List[Tuple[object, str, object]] = []
    for module_name, attr_path, span_name in sites:
        target = importlib.import_module(module_name)
        owner, _, attr = attr_path.rpartition(".")
        if owner:
            target = getattr(target, owner)
        original = vars(target)[attr]
        wrapped = tracer.wrap(span_name, original,
                              generator=inspect.isgeneratorfunction(original),
                              tag_arg=TAG_ARGS.get(span_name))
        setattr(target, attr, wrapped)
        undo.append((target, attr, original))

    def restore() -> None:
        for target, attr, original in reversed(undo):
            setattr(target, attr, original)
    return restore


# ----------------------------------------------------------------------
# Reading spans back
# ----------------------------------------------------------------------
class SpanSet:
    """Spans with parent links resolved: self time, roots, windows."""

    def __init__(self, spans: Sequence[Sequence]) -> None:
        self.spans = [dict(zip(FIELDS, s)) for s in spans]
        self.by_id = {s["id"]: s for s in self.spans}
        child_time: Dict[int, float] = defaultdict(float)
        for s in self.spans:
            if s["parent"] is not None:
                child_time[s["parent"]] += s["end"] - s["start"]
        for s in self.spans:
            s["dur"] = s["end"] - s["start"]
            s["self"] = s["dur"] - child_time.get(s["id"], 0.0)
        self._roots: Dict[int, dict] = {}

    @classmethod
    def load(cls, path) -> "SpanSet":
        with open(path, encoding="utf-8") as handle:
            data = json.load(handle)
        return cls(data["spans"])

    def root(self, span: dict) -> dict:
        sid = span["id"]
        if sid not in self._roots:
            node = span
            while node["parent"] is not None:
                node = self.by_id[node["parent"]]
            self._roots[sid] = node
        return self._roots[sid]

    def orphans(self) -> int:
        """Non-root spans whose parent is missing from the dump."""
        return sum(1 for s in self.spans
                   if s["parent"] is not None and s["parent"] not in self.by_id)

    def select(self, name: str, roots: Optional[Sequence[str]] = None,
               windows: Optional[Sequence[Tuple[float, float]]] = None,
               tags: Optional[Sequence[str]] = None) -> List[dict]:
        """Spans named ``name``, optionally under given roots, starting
        inside one of ``windows``, or carrying one of ``tags``."""
        out = []
        for s in self.spans:
            if s["name"] != name:
                continue
            if roots is not None and self.root(s)["name"] not in roots:
                continue
            if windows is not None and not any(
                    lo <= s["start"] < hi for lo, hi in windows):
                continue
            if tags is not None and s["tag"] not in tags:
                continue
            out.append(s)
        return out

    def self_s(self, name: str, roots: Optional[Sequence[str]] = None) -> float:
        return sum(s["self"] for s in self.select(name, roots))

    def busy_s(self, name: str, roots: Optional[Sequence[str]] = None) -> float:
        return sum(s["dur"] for s in self.select(name, roots))

    def count(self, name: str, roots: Optional[Sequence[str]] = None) -> int:
        return len(self.select(name, roots))

    def percentile_ms(self, name: str, q: float, **kwargs) -> float:
        durations = [s["dur"] for s in self.select(name, **kwargs)]
        if not durations:
            return 0.0
        return 1000.0 * float(np.percentile(durations, q))

    def table(self) -> Dict[str, Dict[str, float]]:
        """Per span name: calls, busy and self seconds, p50/p99 in ms."""
        groups: Dict[str, List[dict]] = defaultdict(list)
        for s in self.spans:
            groups[s["name"]].append(s)
        return {name: {"calls": len(group),
                       "busy_s": sum(s["dur"] for s in group),
                       "self_s": sum(s["self"] for s in group),
                       "p50_ms": 1000.0 * float(np.percentile(
                           [s["dur"] for s in group], 50)),
                       "p99_ms": 1000.0 * float(np.percentile(
                           [s["dur"] for s in group], 99))}
                for name, group in sorted(groups.items())}

    def coverage(self, roots: Sequence[str]) -> float:
        """Share of the roots' wall time covered by their child spans."""
        total = sum(s["dur"] for s in self.spans
                    if s["parent"] is None and s["name"] in roots)
        own = sum(s["self"] for s in self.spans
                  if s["parent"] is None and s["name"] in roots)
        return 1.0 - own / total if total else 0.0
