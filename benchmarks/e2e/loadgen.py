"""Open-loop HTTP load generator for ``python -m repro serve``.

Arrivals are a seeded Poisson process.  Every request carries a *due*
time fixed before the step starts; latency is measured from that due
time, not from when the request was actually sent, so a stall in the
server (or in this generator) is charged to every request it delays.
How late the generator itself ran is reported separately.

Load comes from one process over ``lanes`` sender threads, one socket at
a time each.  A user is pinned to lane ``user % lanes``, so each user's
requests are sent and answered in schedule order — the session contents
the server ends up with are a pure function of the schedule.

The server speaks HTTP/1.0 and closes every connection after its
response, so each request opens a fresh loopback connection; the client
below writes the request bytes by hand to keep its own cost small.
"""

from __future__ import annotations

import json
import socket
import threading
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

RECOMMEND = "/v1/recommend"
EVENTS = "/v1/events"


def http_request(host: str, port: int, method: str, path: str,
                 payload: Optional[dict] = None,
                 timeout: float = 10.0) -> Tuple[int, bytes]:
    """One HTTP/1.0 exchange; returns ``(status, body)``."""
    body = b"" if payload is None else json.dumps(payload).encode()
    head = (f"{method} {path} HTTP/1.0\r\nHost: {host}\r\n"
            f"Content-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n\r\n").encode()
    with socket.create_connection((host, port), timeout=timeout) as sock:
        sock.sendall(head + body)
        chunks = []
        while True:
            chunk = sock.recv(65536)
            if not chunk:
                break
            chunks.append(chunk)
    raw = b"".join(chunks)
    header, _, content = raw.partition(b"\r\n\r\n")
    status = int(header.split(b" ", 2)[1])
    return status, content


def get_json(host: str, port: int, path: str) -> dict:
    status, body = http_request(host, port, "GET", path)
    if status != 200:
        raise RuntimeError(f"GET {path} returned {status}")
    return json.loads(body)


def get_metrics(host: str, port: int) -> Dict[str, float]:
    """Scrape ``/metrics`` into ``{series: value}``."""
    status, body = http_request(host, port, "GET", "/metrics")
    if status != 200:
        raise RuntimeError(f"GET /metrics returned {status}")
    series: Dict[str, float] = {}
    for line in body.decode().splitlines():
        if not line or line.startswith("#"):
            continue
        key, _, value = line.rpartition(" ")
        series[key] = float(value)
    return series


@dataclass
class Request:
    due: float            # seconds after the step's start
    path: str
    user: int
    basket: Optional[Tuple[int, ...]] = None
    z: int = 10


@dataclass
class Outcome:
    kind: str
    due: float            # absolute time.monotonic() values
    sent: float
    done: float
    ok: bool


@dataclass
class StepResult:
    rate: float
    start: float          # time.monotonic() the step's due times count from
    outcomes: List[Outcome] = field(default_factory=list)
    #: events accepted by the server, in per-user send order
    events: List[Tuple[int, Tuple[int, ...]]] = field(default_factory=list)

    def measured(self, discard_s: float) -> List[Outcome]:
        """Outcomes due after the first ``discard_s`` seconds."""
        return [o for o in self.outcomes if o.due - self.start >= discard_s]


def make_schedule(rng: np.random.Generator, rate: float, duration: float,
                  recommend_share: float, users: np.ndarray,
                  user_weights: np.ndarray, item_weights: np.ndarray,
                  z: int = 10) -> List[Request]:
    """Seeded Poisson arrivals with a read/write mix over Zipf users."""
    count = int(rng.poisson(rate * duration))
    dues = np.sort(rng.uniform(0.0, duration, size=count))
    picked = rng.choice(users, size=count, p=user_weights)
    reads = rng.random(count) < recommend_share
    items = rng.choice(item_weights.size, size=count, p=item_weights) + 1
    return [Request(due=float(d), path=RECOMMEND if r else EVENTS,
                    user=int(u), basket=None if r else (int(i),), z=z)
            for d, u, r, i in zip(dues, picked, reads, items)]


def run_schedule(host: str, port: int, schedule: Sequence[Request],
                 rate: float, lanes: int = 2, on_response=None) -> StepResult:
    """Send ``schedule`` open-loop and wait for every response.

    ``on_response(request, status, body)`` runs on the sender thread
    after each response (used to record recommend payloads for checks).
    """
    per_lane: List[List[Request]] = [[] for _ in range(lanes)]
    for request in schedule:
        per_lane[request.user % lanes].append(request)
    result = StepResult(rate=rate, start=time.monotonic() + 0.05)
    lock = threading.Lock()

    def sender(requests: List[Request]) -> None:
        local: List[Outcome] = []
        events: List[Tuple[int, Tuple[int, ...]]] = []
        for request in requests:
            due = result.start + request.due
            delay = due - time.monotonic()
            if delay > 0:
                time.sleep(delay)
            sent = time.monotonic()
            if request.path == EVENTS:
                payload = {"user_id": request.user,
                           "basket": list(request.basket)}
            else:
                payload = {"user_id": request.user, "z": request.z}
            try:
                status, body = http_request(host, port, "POST",
                                            request.path, payload)
            except OSError:
                status, body = 0, b""
            done = time.monotonic()
            ok = status == 200
            kind = "recommend" if request.path == RECOMMEND else "events"
            local.append(Outcome(kind, due, sent, done, ok))
            if ok and request.path == EVENTS:
                events.append((request.user, request.basket))
            if on_response is not None:
                on_response(request, status, body)
        with lock:
            result.outcomes.extend(local)
            result.events.extend(events)

    threads = [threading.Thread(target=sender, args=(lane,), daemon=True,
                                name=f"loadgen-lane-{i}")
               for i, lane in enumerate(per_lane)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return result


def percentile_ms(values: Sequence[float], q: float) -> float:
    if not len(values):
        return float("nan")
    return 1000.0 * float(np.percentile(np.asarray(values), q))


def summarize(outcomes: Sequence[Outcome], rate: float) -> Dict[str, float]:
    """Latency from due time, lateness, and failures of some outcomes."""
    out: Dict[str, float] = {"rate": rate, "sent": len(outcomes),
                             "failed": sum(not o.ok for o in outcomes)}
    for kind in ("recommend", "events"):
        lat = [o.done - o.due for o in outcomes if o.kind == kind]
        out[f"{kind}_n"] = len(lat)
        for q in (50, 90, 99):
            out[f"{kind}_p{q}_ms"] = percentile_ms(lat, q)
    out["late_p99_ms"] = percentile_ms([o.sent - o.due for o in outcomes], 99)
    out["rtt_p50_ms"] = percentile_ms([o.done - o.sent for o in outcomes], 50)
    return out
