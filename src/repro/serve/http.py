"""The serving application and its HTTP skin.

:class:`ServeApp` is the transport-agnostic core: ``handle(method, path,
payload)`` implements every endpoint against the checkpoint registry, the
session store and the micro-batcher, and returns ``(status, body,
content_type)``.  Two transports wrap it:

* :class:`InProcessClient` — calls ``handle`` directly (with a JSON
  round-trip so payloads and responses are provably serializable); this is
  what the tests and benchmarks use, no sockets involved.
* :class:`ServeServer` — a stdlib ``ThreadingHTTPServer`` speaking the
  same routes over real HTTP for ``python -m repro serve``.

Endpoints::

    POST /v1/recommend  {"user_id": int, "z"?: int, "history"?: [[int]]}
    POST /v1/events     {"user_id": int, "basket": [int]}
    POST /v1/explain    {"user_id": int, "target_item": int, "top"?: int,
                         "history"?: [[int]]}
    GET  /healthz
    GET  /metrics       (Prometheus text format)

With no checkpoint installed (or an empty session history) ``/v1/recommend``
degrades gracefully to an observed-popularity ranking and labels the
response ``"source": "popularity"``.
"""

from __future__ import annotations

import json
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..models.base import rank_top_z
from ..retrieval import RetrievalConfig, rerank_top_z, user_vector
from .batcher import MicroBatcher
from .metrics import MetricsRegistry
from .registry import CheckpointRegistry, ServingArtifacts
from .scoring import score_views, top_causal_edges
from .sessions import SessionStore

JSON_TYPE = "application/json"
TEXT_TYPE = "text/plain; version=0.0.4"

Response = Tuple[int, Any, str]

#: Every served path and the one method it answers.  Metrics label any
#: other path ``"other"``: a client must not be able to grow the registry,
#: or break its text format, by choosing paths.
ROUTES = {"/healthz": "GET", "/metrics": "GET", "/v1/recommend": "POST",
          "/v1/events": "POST", "/v1/explain": "POST"}

#: Largest accepted item id: ids travel through int64 arrays (session
#: replay, the popularity ranking), so anything wider is a client error.
#: Integer fields such as ``user_id`` get the same signed int64 bounds.
MAX_ITEM_ID = int(np.iinfo(np.int64).max)

#: Recommendations returned when a request does not ask for ``z``.
DEFAULT_Z = 5


class ServeError(Exception):
    """Client-visible failure with an HTTP status."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status


def endpoint_label(path: str) -> str:
    """The ``endpoint`` metrics label: the route, or ``"other"``."""
    return path if path in ROUTES else "other"


def check_route(method: str, path: str) -> None:
    """404 for a path no route serves, 405 for the wrong method."""
    expected = ROUTES.get(path)
    if expected is None:
        raise ServeError(404, f"unknown path {path!r}")
    if method != expected:
        raise ServeError(405, f"use {expected} for {path}")


def _require_int(payload: Dict[str, Any], key: str) -> int:
    value = payload.get(key)
    if isinstance(value, bool) or not isinstance(value, int):
        raise ServeError(400, f"field {key!r} must be an integer")
    if not -MAX_ITEM_ID - 1 <= value <= MAX_ITEM_ID:
        raise ServeError(400, f"field {key!r} = {value} exceeds the int64 "
                              f"range")
    return value


def _parse_basket(value: Any, num_items: Optional[int]) -> Tuple[int, ...]:
    if not isinstance(value, (list, tuple)) or not value:
        raise ServeError(400, "basket must be a non-empty list of item ids")
    basket: List[int] = []
    for item in value:
        if isinstance(item, bool) or not isinstance(item, int) or item < 1:
            raise ServeError(400, f"invalid item id {item!r}: item ids are "
                                  f"integers >= 1")
        if item > MAX_ITEM_ID:
            raise ServeError(400, f"item id {item} exceeds the int64 range")
        if num_items is not None and item > num_items:
            raise ServeError(400, f"item id {item} exceeds the loaded "
                                  f"catalog (num_items={num_items})")
        basket.append(item)
    return tuple(basket)


def _parse_history(value: Any, num_items: Optional[int]
                   ) -> List[Tuple[int, ...]]:
    if not isinstance(value, (list, tuple)):
        raise ServeError(400, "history must be a list of baskets")
    return [_parse_basket(basket, num_items) for basket in value]


class ServeApp:
    """Registry + sessions + batcher behind a route table."""

    def __init__(self, session_capacity: int = 10_000,
                 max_batch_size: int = 32, max_wait_ms: float = 2.0,
                 retrieval: Optional[RetrievalConfig] = None,
                 quantize: str = "none") -> None:
        #: Optional ``callable(user_id, basket)`` invoked after every
        #: accepted ``/v1/events`` request — the tee into the append-only
        #: event log that online training replays (see repro.online.log).
        #: Sink errors are counted, never surfaced to the client.
        self.event_sink = None
        self.retrieval = retrieval
        self.registry = CheckpointRegistry(retrieval=retrieval,
                                           quantize=quantize)
        self.metrics = MetricsRegistry()
        self.sessions = SessionStore(capacity=session_capacity,
                                     metrics=self.metrics)
        self.batcher = MicroBatcher(self._score_many,
                                    max_batch_size=max_batch_size,
                                    max_wait_ms=max_wait_ms,
                                    metrics=self.metrics)
        self._pop_lock = threading.Lock()
        #: item id -> accepted events naming it.  Keyed by the ids clients
        #: actually sent, so memory follows the observed vocabulary, not
        #: the largest id.
        self._pop_counts: Dict[int, int] = {}

    # -- checkpoint management -------------------------------------------
    def load_checkpoint(self, path) -> ServingArtifacts:
        return self.registry.load(path)

    def install_model(self, model) -> ServingArtifacts:
        return self.registry.install(model)

    def close(self) -> None:
        self.batcher.close()

    # -- popularity fallback ---------------------------------------------
    def _count_event(self, basket: Sequence[int]) -> None:
        with self._pop_lock:
            for item in basket:
                self._pop_counts[item] = self._pop_counts.get(item, 0) + 1

    def _popularity_items(self, artifacts: Optional[ServingArtifacts],
                          z: int) -> List[int]:
        """Top-``z`` item ids by observed event frequency.

        With a checkpoint loaded every catalog item is a candidate
        (unobserved ones score zero); without one only ids that some
        client sent are.  Ranking goes through :func:`rank_top_z` either
        way, so ties break exactly as model scores do.
        """
        with self._pop_lock:
            size = len(self._pop_counts)
            items = np.fromiter(self._pop_counts.keys(), np.int64, size)
            counts = np.fromiter(self._pop_counts.values(), np.float64, size)
        if artifacts is not None:
            row = np.zeros(artifacts.num_items + 1)
            in_catalog = items <= artifacts.num_items
            row[items[in_catalog]] = counts[in_catalog]
            ids = np.arange(row.shape[0])
        else:
            # Column 0 stays the padding slot rank_top_z masks.
            order = np.argsort(items)
            ids = np.concatenate([[0], items[order]])
            row = np.concatenate([[0.0], counts[order]])
        ranked = rank_top_z(row[None, :], z)[0]
        # Padding (item 0) leaks into the top-z when z exceeds the
        # candidates; drop it rather than recommend a non-item.
        return [int(ids[i]) for i in ranked if i != 0]

    # -- scoring ----------------------------------------------------------
    def _score_many(self, payloads: Sequence[Tuple[ServingArtifacts, Any]]
                    ) -> List[np.ndarray]:
        """Batcher callback: group by artifact bundle, score each group.

        Requests admitted under different generations (a hot swap landed
        mid-batch) score against the exact bundle they were admitted with.
        """
        results: List[Optional[np.ndarray]] = [None] * len(payloads)
        groups: Dict[int, Tuple[ServingArtifacts, List[int]]] = {}
        for index, (artifacts, _) in enumerate(payloads):
            groups.setdefault(id(artifacts), (artifacts, []))[1].append(index)
        for artifacts, indices in groups.values():
            views = [payloads[i][1] for i in indices]
            scores = score_views(artifacts, views)
            for row, index in enumerate(indices):
                results[index] = scores[row]
        return results

    # -- endpoints ---------------------------------------------------------
    def _recommend(self, payload: Dict[str, Any]) -> Dict[str, Any]:
        user_id = _require_int(payload, "user_id")
        z = payload.get("z", DEFAULT_Z)
        if isinstance(z, bool) or not isinstance(z, int) or z < 1:
            raise ServeError(400, "field 'z' must be a positive integer")
        artifacts = self.registry.current()
        num_items = None if artifacts is None else artifacts.num_items
        if "history" in payload:
            history = _parse_history(payload["history"], num_items)
            view = self.sessions.ephemeral_view(user_id, history, artifacts)
        else:
            view = self.sessions.view(user_id, artifacts)

        if artifacts is None or view is None or view.steps == 0:
            self.metrics.inc("serve_fallback_total")
            items = self._popularity_items(artifacts, z)
            return {"user_id": user_id, "items": items,
                    "source": "popularity", "model": None,
                    "generation": (None if artifacts is None
                                   else artifacts.generation)}

        if self.retrieval is not None and self.retrieval.mode == "ivf":
            items = self._retrieve_ivf(artifacts, view, z)
            if items is not None:
                return {"user_id": user_id, "items": items,
                        "source": "model", "retrieval": "ivf",
                        "model": artifacts.model_class,
                        "generation": artifacts.generation}

        row = self.batcher.submit((artifacts, view))
        items = [i for i in rank_top_z(row[None, :].copy(), z)[0] if i != 0]
        response = {"user_id": user_id, "items": items, "source": "model",
                    "model": artifacts.model_class,
                    "generation": artifacts.generation}
        if self.retrieval is not None:
            # Full-catalog scoring through the exact head: label it so
            # clients can tell the oracle path from the ANN shortlist.
            response["retrieval"] = "exact"
            self.metrics.inc("serve_retrieval_requests_total",
                             {"mode": "exact"})
        return response

    def _retrieve_ivf(self, artifacts: ServingArtifacts, view,
                      z: int) -> Optional[List[int]]:
        """Two-stage path: IVF shortlist, then exact re-rank.

        Returns ``None`` when this bundle cannot retrieve (replay model,
        no index, or a defensive generation mismatch) — the caller falls
        back to exact full-catalog scoring.
        """
        retrieval = artifacts.retrieval
        if retrieval is None:
            return None
        if retrieval.generation != artifacts.generation:
            # Unreachable by construction (the index rides inside the
            # bundle); counted rather than served if it ever regresses.
            self.metrics.inc("serve_retrieval_generation_mismatch_total")
            return None
        query = user_vector(artifacts, view)
        if query is None:
            return None
        config = self.retrieval
        started = time.perf_counter()
        shortlist = retrieval.index.search(query, config.shortlist,
                                           nprobe=config.nprobe)
        searched = time.perf_counter()
        items = rerank_top_z(artifacts, view, shortlist, z)
        self.metrics.observe("serve_retrieval_stage_seconds",
                             searched - started, {"stage": "search"})
        self.metrics.observe("serve_retrieval_stage_seconds",
                             time.perf_counter() - searched,
                             {"stage": "rerank"})
        self.metrics.inc("serve_retrieval_requests_total", {"mode": "ivf"})
        # Shortlist hit-rate: a "hit" filled the requested top-z entirely
        # from the shortlist; a miss means the probed cells held fewer
        # than z candidates (raise nprobe/shortlist if misses grow).
        self.metrics.inc("serve_shortlist_hit_total"
                         if len(items) >= z else "serve_shortlist_miss_total")
        return items

    def _events(self, payload: Dict[str, Any]) -> Dict[str, Any]:
        user_id = _require_int(payload, "user_id")
        artifacts = self.registry.current()
        num_items = None if artifacts is None else artifacts.num_items
        basket = _parse_basket(payload.get("basket"), num_items)
        session = self.sessions.append_event(user_id, basket, artifacts)
        self._count_event(basket)
        self.metrics.inc("serve_events_total")
        if self.event_sink is not None:
            try:
                self.event_sink(user_id, basket)
            except Exception:  # noqa: BLE001 — the stream must not 500
                self.metrics.inc("serve_event_sink_errors_total")
        return {"user_id": user_id,
                "session_length": len(session.events)}

    def _explain(self, payload: Dict[str, Any]) -> Dict[str, Any]:
        artifacts = self.registry.current()
        if artifacts is None:
            raise ServeError(409, "no checkpoint loaded; /v1/explain needs "
                                  "a Causer checkpoint")
        if not artifacts.supports_explain:
            raise ServeError(409, f"loaded model {artifacts.model_class!r} "
                                  f"does not provide causal explanations; "
                                  f"load a Causer checkpoint")
        user_id = _require_int(payload, "user_id")
        target = _require_int(payload, "target_item")
        if not 1 <= target <= artifacts.num_items:
            raise ServeError(400, f"target_item {target} outside the "
                                  f"catalog (1..{artifacts.num_items})")
        top = payload.get("top", 5)
        if isinstance(top, bool) or not isinstance(top, int) or top < 1:
            raise ServeError(400, "field 'top' must be a positive integer")
        if "history" in payload:
            events: Sequence[Tuple[int, ...]] = _parse_history(
                payload["history"], artifacts.num_items)
        else:
            view = self.sessions.view(user_id, artifacts)
            if view is None or view.steps == 0:
                raise ServeError(404, f"user {user_id} has no session "
                                      f"events and no history was given")
            events = view.events
        edges = top_causal_edges(artifacts, events, target, top=top)
        return {"user_id": user_id, "target_item": target, "edges": edges,
                "generation": artifacts.generation}

    def _healthz(self) -> Dict[str, Any]:
        artifacts = self.registry.current()
        return {"status": "ok" if artifacts is not None else "degraded",
                "checkpoint": (None if artifacts is None
                               else artifacts.describe()),
                "sessions": len(self.sessions)}

    # -- routing -----------------------------------------------------------
    def handle(self, method: str, path: str,
               payload: Optional[Dict[str, Any]] = None) -> Response:
        """Serve one request; never raises (errors become status codes)."""
        endpoint = endpoint_label(path)
        started = time.perf_counter()
        try:
            status, body, ctype = self._route(method, path, payload)
        except ServeError as exc:
            status, body, ctype = exc.status, {"error": str(exc)}, JSON_TYPE
            self.metrics.inc("serve_errors_total", {"endpoint": endpoint})
        except Exception as exc:  # noqa: BLE001 — the server must not die
            status = 500
            body, ctype = {"error": f"internal error: {exc}"}, JSON_TYPE
            self.metrics.inc("serve_errors_total", {"endpoint": endpoint})
        self.metrics.inc("serve_requests_total",
                         {"endpoint": endpoint, "status": str(status)})
        self.metrics.observe("serve_request_latency_seconds",
                             time.perf_counter() - started,
                             {"endpoint": endpoint})
        return status, body, ctype

    def _route(self, method: str, path: str,
               payload: Optional[Dict[str, Any]]) -> Response:
        check_route(method, path)
        if path == "/healthz":
            return 200, self._healthz(), JSON_TYPE
        if path == "/metrics":
            return 200, self.metrics.render(), TEXT_TYPE
        if payload is None or not isinstance(payload, dict):
            raise ServeError(400, "request body must be a JSON object")
        handlers = {"/v1/recommend": self._recommend,
                    "/v1/events": self._events,
                    "/v1/explain": self._explain}
        return 200, handlers[path](payload), JSON_TYPE


class InProcessClient:
    """Socket-free client: same routes, same JSON discipline, no server."""

    def __init__(self, app: ServeApp) -> None:
        self.app = app

    def request(self, method: str, path: str,
                payload: Optional[Dict[str, Any]] = None
                ) -> Tuple[int, Any]:
        if payload is not None:
            payload = json.loads(json.dumps(payload))
        status, body, ctype = self.app.handle(method, path, payload)
        if ctype == JSON_TYPE:
            # Round-trip so anything JSON-unserializable fails loudly here
            # exactly as it would over the wire.
            body = json.loads(json.dumps(body))
        return status, body

    def get(self, path: str) -> Tuple[int, Any]:
        return self.request("GET", path)

    def post(self, path: str, payload: Dict[str, Any]) -> Tuple[int, Any]:
        return self.request("POST", path, payload)


class _Handler(BaseHTTPRequestHandler):
    server_version = "repro-serve/1"

    def do_GET(self) -> None:  # noqa: N802 — http.server API
        self._dispatch("GET", None)

    def do_POST(self) -> None:  # noqa: N802 — http.server API
        # A body that cannot be framed or parsed dispatches as "no body", so
        # the app answers it (400 on the /v1 routes) and counts it like any
        # other rejected request.
        payload = None
        try:
            length = int(self.headers.get("Content-Length", 0) or 0)
        except ValueError:
            length = -1
        if length < 0:
            # Unframeable request: the body's end is unknown, so answer and
            # drop the connection instead of reading into the next request.
            self.close_connection = True
        elif length:
            try:
                payload = json.loads(self.rfile.read(length).decode("utf-8"))
            except (UnicodeDecodeError, json.JSONDecodeError):
                pass
        self._dispatch("POST", payload)

    def _dispatch(self, method: str, payload: Optional[Dict[str, Any]]
                  ) -> None:
        status, body, ctype = self.server.app.handle(  # type: ignore[attr-defined]
            method, self.path, payload)
        self._write(status, body, ctype)

    def _write(self, status: int, body: Any, ctype: str) -> None:
        data = (body if isinstance(body, str)
                else json.dumps(body)).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", ctype)
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)

    def log_message(self, format: str, *args: Any) -> None:  # noqa: A002
        pass  # access logs live in /metrics, not on stderr


class ServeServer:
    """ThreadingHTTPServer bound to a :class:`ServeApp`."""

    def __init__(self, app: ServeApp, host: str = "127.0.0.1",
                 port: int = 0) -> None:
        self.app = app
        self.httpd = ThreadingHTTPServer((host, port), _Handler)
        self.httpd.app = app  # type: ignore[attr-defined]

    @property
    def address(self) -> Tuple[str, int]:
        return self.httpd.server_address[0], self.httpd.server_address[1]

    def serve_forever(self) -> None:
        self.httpd.serve_forever()

    def shutdown(self) -> None:
        self.httpd.shutdown()
        self.httpd.server_close()
        self.app.close()
