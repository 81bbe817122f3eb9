"""One benchmark workload, end to end, in a fresh process.

    python benchmarks/e2e/workload.py --workload short_exact --seed 1 \\
        --seconds 10 --profile full --trace 0 --workdir DIR --out result.json

Every workload runs the whole production path through the public API:

1. set-up: ``generate_eventlog`` → ``load_eventlog_dataset`` →
   ``leave_one_out_split``;
2. the paper's efficiency twin: SASRec trained for one epoch;
3. training: repeated fresh ``build_model("Causer (GRU)")`` +
   ``model.fit``, each followed by ``evaluate_model(z=10)`` and, as its
   paired twin, SASRec's ``evaluate_model`` on the same split;
4. serving: ``io.save_model``, then ``python -m repro serve`` on
   loopback, session warm-up, a base-rate step, a rate ladder, and the
   correctness probes.

Set-up (corpus generation and a server start) is repeated before and
after serving; the median is reported.  Nothing else runs while training
is timed.  The raw measurements go to ``--out`` as JSON; ``run.py`` turns
them into metrics.
"""

from __future__ import annotations

import argparse
import ctypes
import ctypes.util
import dataclasses
import gc
import hashlib
import json
import os
import queue
import re
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path.insert(0, str(HERE))

import loadgen  # noqa: E402
import trace  # noqa: E402  (the benchmark's span recorder, not the stdlib)

HOST = "127.0.0.1"
Z = 10
ONLINE_BATCH_EVENTS = 32   # `repro serve --online-batch-events` default
ZIPF_EXPONENT = 0.8
#: Trained ndcg@10 on the test split must reach this multiple of what a
#: uniformly random ranking scores in expectation.  Measured: trained
#: 8x to 27x over 33 seeds, an untrained Causer 0.4x to 1.5x over 8.
QUALITY_FACTOR = 3.0
#: Share of --seconds spent in the base-rate step, where the latency
#: metrics are read; the ladder steps above only locate the SLO crossing.
BASE_SHARE = 0.6
#: Events each refresh re-derives from.  Warm-up fills the window, so
#: every refresh during the measured steps does the same amount of work.
REFRESH_WINDOW = 2048
#: Longest wait for the first refresh (every 4 s, plus its own run time).
REFRESH_WAIT_S = 15.0

IVF_ONLINE_FLAGS = ("--retrieval", "ivf", "--shortlist", "200",
                    "--nprobe", "4", "--online", "--refresh-every", "4",
                    "--window", str(REFRESH_WINDOW))


@dataclass(frozen=True)
class Workload:
    dataset: str                 # repro.data profile
    scale: float
    recommend_share: float       # rest of the traffic is /v1/events
    base_rate: int               # req/s of the base step
    rates: Tuple[int, ...]       # ladder steps bracketing the SLO crossing
    serve_flags: Tuple[str, ...] = ()
    num_users: Optional[int] = None
    num_items: Optional[int] = None

    @property
    def online(self) -> bool:
        return "--online" in self.serve_flags


WORKLOADS: Dict[str, Workload] = {
    "short_exact": Workload("video", 0.1, 0.5, 200, (450, 575, 700)),
    "long_exact": Workload("foursquare", 0.2, 0.5, 200, (350, 450, 550)),
    "writes_ivf_online": Workload("baby", 0.1, 0.2, 300, (500, 650, 800),
                                  serve_flags=IVF_ONLINE_FLAGS,
                                  num_users=700, num_items=1544),
}


@dataclass(frozen=True)
class Profile:
    setup_repeats: int
    train_repeats: int
    warm_users: int
    probe_users: int
    step_seconds: Optional[float]  # None: --seconds spread over the steps
    num_users: Optional[int] = None
    num_items: Optional[int] = None


PROFILES: Dict[str, Profile] = {
    "full": Profile(setup_repeats=3, train_repeats=3,
                    warm_users=1000, probe_users=50, step_seconds=None),
    "smoke": Profile(setup_repeats=1, train_repeats=2,
                     warm_users=150, probe_users=20, step_seconds=1.0,
                     num_users=150, num_items=240),
}


STARTED = time.monotonic()


def _log(message: str) -> None:
    print(f"[e2e +{time.monotonic() - STARTED:5.1f} s] {message}",
          file=sys.stderr, flush=True)


def _digest(*arrays) -> str:
    digest = hashlib.sha256()
    for array in arrays:
        digest.update(np.ascontiguousarray(array).tobytes())
    return digest.hexdigest()[:16]


def _vm_hwm_mb(pid="self") -> float:
    with open(f"/proc/{pid}/status", encoding="utf-8") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM in /proc/{pid}/status")


_LIBC = ctypes.CDLL(ctypes.util.find_library("c"))


def _reset_peak() -> None:
    """Restart this process's VmHWM at its live memory.

    Lets each phase report its own high-water mark.  ``malloc_trim``
    hands heap the previous phase freed back to the kernel first, so
    the mark starts from live data, not from what the allocator kept.
    Where the kernel refuses the reset, phase peaks degrade to the
    process peak so far.
    """
    gc.collect()
    _LIBC.malloc_trim(0)
    try:
        with open("/proc/self/clear_refs", "w", encoding="ascii") as handle:
            handle.write("5")
    except OSError as exc:
        _log(f"cannot reset VmHWM ({exc}); phase peaks are cumulative")


_REF_RNG = np.random.default_rng(0)
_REF_MATRIX = _REF_RNG.standard_normal((96, 96))
_REF_TABLE = _REF_RNG.standard_normal((4096, 16))
_REF_INDEX = _REF_RNG.integers(0, 4096, size=(256, 8))


def reference_s() -> float:
    """Seconds one run of the fixed reference kernel takes.

    An interpreter loop, small gathers and reductions and one BLAS size,
    the mix Causer's training and evaluation spend their time in.  It
    runs no repro code, so only the host's speed moves it.
    """
    started = time.perf_counter()
    total = 0
    for i in range(150_000):
        total += i * i
    for _ in range(400):
        rows = _REF_TABLE[_REF_INDEX]
        total += float(rows.sum(axis=1).max())
    for _ in range(200):
        _REF_MATRIX @ _REF_MATRIX
    return time.perf_counter() - started


def timed(tracer, name: str, fn, *args, **kwargs):
    started = time.perf_counter()
    if tracer is None:
        value = fn(*args, **kwargs)
    else:
        with tracer.span(name):
            value = fn(*args, **kwargs)
    return value, time.perf_counter() - started


# ----------------------------------------------------------------------
# Set-up, training and evaluation
# ----------------------------------------------------------------------
#: Results of one fit + evaluation that neither the repeat nor tracing
#: may change.
OUTCOME_KEYS = ("losses", "h", "ndcg", "eval_digest", "param_digest")


def _outcome(model, fit, result) -> dict:
    state = model.state_dict()
    return {
        "losses": list(fit.epoch_losses),
        "h": list(fit.extra.get("h", [])),
        "ndcg": result.mean("ndcg"),
        "eval_digest": _digest(*(np.asarray(result.per_user[k])
                                 for k in sorted(result.per_user))),
        "param_digest": _digest(*(state[k] for k in sorted(state))),
    }


def chance_ndcg(samples, num_items: int, z: int) -> float:
    """Mean ndcg@z of a uniformly random ranking of the catalog.

    Each of the top ``z`` positions holds one of a user's ``k`` target
    items with probability ``k / num_items``; the expected DCG is that
    times the summed discounts, over the ideal DCG for ``min(k, z)``
    hits.  Exact, so the quality gate has no sampling noise of its own.
    """
    discounts = 1.0 / np.log2(np.arange(2, z + 2))
    ideal = np.concatenate([[np.inf], np.cumsum(discounts)])
    targets = np.array([len(set(s.target)) for s in samples])
    return float(np.mean(targets / num_items * discounts.sum()
                         / ideal[np.minimum(targets, z)]))


def make_dataset(spec: Workload, profile: Profile, seed: int, path: Path):
    from repro.data import (dataset_config, generate_eventlog,
                            leave_one_out_split, load_eventlog_dataset)
    config = dataset_config(spec.dataset, scale=spec.scale, seed=seed)
    config = dataclasses.replace(
        config,
        num_users=profile.num_users or spec.num_users or config.num_users,
        num_items=profile.num_items or spec.num_items or config.num_items)
    generate_eventlog(config, path, name=spec.dataset, workers=1)
    dataset = load_eventlog_dataset(path)
    return dataset, leave_one_out_split(dataset.corpus)


class Offline:
    """Corpus set-up, the SASRec twin, and repeated Causer fit + eval."""

    def __init__(self, spec: Workload, profile: Profile, seed: int,
                 work: Path, tracer) -> None:
        from repro.data import training_prefixes
        from repro.exp.config import BenchmarkSettings
        from repro.exp.runner import build_model

        self.tracer = tracer
        started = time.perf_counter()
        self.dataset, self.split = make_dataset(spec, profile, seed,
                                                work / "eventlog")
        self.setup_s = [time.perf_counter() - started]
        self.settings = BenchmarkSettings(scale=spec.scale, data_seed=seed,
                                          num_epochs=1, z=Z)
        config = self.settings.causer_config(spec.dataset)
        prefixes = len(training_prefixes(self.split.train,
                                         max_history=config.max_history))
        _log(f"{spec.dataset}: {self.dataset.corpus.num_users} users, "
             f"{self.dataset.num_items} items, {prefixes} prefixes, "
             f"{len(self.split.test)} test users")

        self.sasrec = build_model("SASRec", self.dataset, self.settings)
        timed(tracer, "paper.sasrec.fit", self.sasrec.fit, self.split.train)
        self.train = {
            "prefixes": prefixes, "epochs": config.num_epochs,
            "users": len(self.split.test), "fit_s": [], "eval_s": [],
            "fit_peak_mb": [], "eval_peak_mb": [], "ref_s": [],
            "losses": [], "h": [],
            "ndcg": [], "eval_digest": [], "param_digest": [],
            # Quality floor: a change that breaks training or scoring
            # lands near chance.
            "chance_ndcg": chance_ndcg(self.split.test,
                                       self.dataset.num_items, Z)}
        self.paper = {"ratio": []}
        self.model = None

    def repeat(self) -> None:
        """One fresh Causer: fit, evaluate, then the SASRec twin."""
        from repro.eval import evaluate_model
        from repro.exp.runner import build_model
        train, split, tracer = self.train, self.split, self.tracer
        model = build_model("Causer (GRU)", self.dataset, self.settings)
        train["ref_s"].append(reference_s())
        _reset_peak()
        fit, fit_s = timed(tracer, "train.fit", model.fit, split.train)
        train["fit_peak_mb"].append(_vm_hwm_mb())
        _reset_peak()
        result, eval_s = timed(tracer, "eval.evaluate_model",
                               evaluate_model, model, split.test, z=Z)
        train["eval_peak_mb"].append(_vm_hwm_mb())
        train["ref_s"].append(reference_s())
        _, sasrec_s = timed(tracer, "paper.sasrec.eval", evaluate_model,
                            self.sasrec, split.test, z=Z)
        train["fit_s"].append(fit_s)
        train["eval_s"].append(eval_s)
        for key, value in _outcome(model, fit, result).items():
            train[key].append(value)
        self.paper["ratio"].append(eval_s / sasrec_s)
        self.model = model

    def untraced_twin(self) -> Tuple[float, dict]:
        """Fit and evaluate a fresh Causer with the span wrappers removed.

        Run next to each traced repeat, in the same process and host
        state, it is the baseline of the tracing overhead, and its
        results must equal the traced repeat's bit for bit.
        """
        from repro.eval import evaluate_model
        from repro.exp.runner import build_model
        model = build_model("Causer (GRU)", self.dataset, self.settings)
        started = time.perf_counter()
        fit = model.fit(self.split.train)
        result = evaluate_model(model, self.split.test, z=Z)
        return time.perf_counter() - started, _outcome(model, fit, result)

    def gates(self) -> dict:
        train = self.train
        same = all(all(v == train[key][0] for v in train[key])
                   for key in OUTCOME_KEYS)
        return {
            "repeat_determinism": {
                "ok": same,
                "detail": f"{len(train['losses'])} repeats: losses "
                          f"{train['losses'][0]}, ndcg {train['ndcg']}"},
            "quality_over_chance": {
                "ok": train["ndcg"][0] >= QUALITY_FACTOR * train["chance_ndcg"],
                "detail": f"ndcg@{Z}: trained {train['ndcg'][0]:.4f}, "
                          f"random ranking {train['chance_ndcg']:.4f}"},
        }


# ----------------------------------------------------------------------
# Serving
# ----------------------------------------------------------------------
class Server:
    """``python -m repro serve`` child process on an ephemeral port."""

    def __init__(self, checkpoint: Path, flags, work: Path,
                 spans_out: Optional[Path] = None) -> None:
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"),
                   PYTHONUNBUFFERED="1")
        if spans_out is None:
            cmd = [sys.executable, "-m", "repro", "serve"]
        else:
            cmd = [sys.executable, str(HERE / "serve_traced.py"),
                   str(spans_out)]
        cmd += ["--checkpoint", str(checkpoint), "--host", HOST,
                "--port", "0", *flags]
        started = time.monotonic()
        self.proc = subprocess.Popen(cmd, cwd=work, env=env,
                                     stdout=subprocess.PIPE, text=True)
        self.lines: "queue.Queue[Optional[str]]" = queue.Queue()
        self._reader = threading.Thread(target=self._drain, daemon=True,
                                        name="e2e-server-stdout")
        self._reader.start()
        try:
            self.port = self._await_port(deadline=started + 120.0)
            while loadgen.get_json(HOST, self.port,
                                   "/healthz")["status"] != "ok":
                time.sleep(0.01)
        except BaseException:
            self.stop()
            raise
        self.start_s = time.monotonic() - started

    def _drain(self) -> None:
        for line in self.proc.stdout:
            self.lines.put(line)
        self.lines.put(None)

    def _await_port(self, deadline: float) -> int:
        while True:
            try:
                line = self.lines.get(
                    timeout=max(0.0, deadline - time.monotonic()))
            except queue.Empty:
                raise RuntimeError("server did not start in time") from None
            if line is None:
                raise RuntimeError(f"server exited with {self.proc.wait()}")
            match = re.search(r"serving on http://[\d.]+:(\d+)", line)
            if match:
                return int(match.group(1))

    def metrics(self) -> Dict[str, float]:
        return loadgen.get_metrics(HOST, self.port)

    def peak_mb(self) -> float:
        return _vm_hwm_mb(self.proc.pid)

    def stop(self) -> int:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                _log("server ignored SIGINT for 10 s; killing it")
                self.proc.kill()
                self.proc.wait()
        self._reader.join(timeout=5)
        return self.proc.returncode


class Traffic:
    """Seeded open-loop traffic against one server, with its bookkeeping.

    ``events`` keeps every accepted event per user in send order — the
    history the server's session must hold, which the parity probe
    replays offline.
    """

    def __init__(self, spec: Workload, rng: np.random.Generator,
                 server: Server, warm, dataset) -> None:
        self.spec, self.rng, self.server = spec, rng, server
        self.users = rng.permutation(np.array([s.user_id for s in warm]))
        weights = 1.0 / np.arange(1, self.users.size + 1) ** ZIPF_EXPONENT
        self.user_weights = weights / weights.sum()
        popularity = dataset.corpus.item_popularity()[1:].astype(np.float64)
        self.item_weights = popularity / popularity.sum()
        self.events: Dict[int, List[Tuple[int, ...]]] = {}
        self.labels = {"model": 0, "ivf": 0, "fallback": 0}
        self.requests = self.failed = 0
        for user, basket in warm_events(warm, REFRESH_WINDOW
                                        if spec.online else 0):
            self.post(loadgen.EVENTS, {"user_id": user,
                                       "basket": list(basket)})
            self.events.setdefault(user, []).append(basket)

    def post(self, path: str, payload: dict) -> Tuple[int, bytes]:
        """One counted request outside the open-loop schedule."""
        status, body = loadgen.http_request(HOST, self.server.port, "POST",
                                            path, payload)
        self._count(status == 200)
        return status, body

    def _count(self, ok: bool) -> None:
        self.requests += 1
        self.failed += not ok

    def _on_response(self, request, status, body) -> None:
        if request.path != loadgen.RECOMMEND or status != 200:
            return
        reply = json.loads(body)
        if reply.get("source") != "model":
            self.labels["fallback"] += 1
            return
        self.labels["model"] += 1
        self.labels["ivf"] += reply.get("retrieval") == "ivf"

    def step(self, rate: float, duration: float) -> dict:
        """One open-loop step, summarised after its first eighth."""
        schedule = loadgen.make_schedule(
            self.rng, rate, duration, self.spec.recommend_share, self.users,
            self.user_weights, self.item_weights, Z)
        before = self.server.metrics()
        result = loadgen.run_schedule(HOST, self.server.port, schedule, rate,
                                      on_response=self._on_response)
        after = self.server.metrics()
        discard = max(0.25, duration / 8.0)
        kept = result.measured(discard)
        summary = loadgen.summarize(kept, rate)
        summary.update(window=[result.start + discard,
                               result.start + duration],
                       metrics_before=before, metrics_after=after)
        for outcome in result.outcomes:
            self._count(outcome.ok)
        for user, basket in result.events:
            self.events.setdefault(user, []).append(basket)
        return summary

    @property
    def events_sent(self) -> int:
        return sum(len(v) for v in self.events.values())

    def consumed(self, timeout: float) -> Tuple[int, int]:
        """Wait until the online trainer consumed every whole batch sent.

        Returns ``(consumed, expected)``.
        """
        expected = self.events_sent // ONLINE_BATCH_EVENTS * ONLINE_BATCH_EVENTS
        deadline = time.monotonic() + timeout
        while True:
            consumed = int(self.server.metrics().get(
                "online_events_consumed_total", 0))
            if consumed == expected or time.monotonic() > deadline:
                return consumed, expected
            time.sleep(0.05)


def warm_events(warm, minimum: int) -> List[Tuple[int, Tuple[int, ...]]]:
    """Each warm user's last history baskets, oldest first, user by user.

    One basket per user, or as many of the latest as it takes to reach
    ``minimum`` events in total.
    """
    depth, longest = 1, max(len(s.history) for s in warm)
    while True:
        events = [(s.user_id, tuple(basket))
                  for s in warm for basket in s.history[-depth:]]
        if len(events) >= minimum or depth >= longest:
            return events
        depth += 1


def step_durations(spec: Workload, profile: Profile,
                   seconds: float) -> Tuple[float, float]:
    """``(base step, ladder step)`` lengths in seconds."""
    if profile.step_seconds is not None:
        return profile.step_seconds, profile.step_seconds
    return (seconds * BASE_SHARE,
            seconds * (1.0 - BASE_SHARE) / len(spec.rates))


def serve(spec: Workload, profile: Profile, seed: int, seconds: float,
          checkpoint: Path, work: Path, offline: Offline,
          spans_out: Optional[Path]) -> Tuple[dict, dict, float]:
    """Start the measured server, then drive the base step and the ladder.

    Returns the serving results, the gates and the server's start time.
    """
    base_s, step_s = step_durations(spec, profile, seconds)
    warm = list(offline.split.test[:profile.warm_users])
    server = Server(checkpoint, spec.serve_flags, work, spans_out)
    gates: dict = {}
    out: dict = {}
    try:
        rng = np.random.default_rng(np.random.SeedSequence(seed,
                                                           spawn_key=(7,)))
        traffic = Traffic(spec, rng, server, warm, offline.dataset)
        if spec.online:
            traffic.consumed(timeout=30.0)   # start with no trainer backlog
        _log(f"server started and warmed with {traffic.requests} events")
        out["base"] = traffic.step(spec.base_rate, base_s)
        out["steps"] = [traffic.step(rate, step_s) for rate in spec.rates]
        out["server_hwm_mb"] = server.peak_mb()
        if spec.online:
            gates.update(_online_gates(traffic))
            out["probe"] = None
        else:
            out["probe"], gates["serve_offline_parity"] = _parity_probe(
                traffic, checkpoint, profile.probe_users)
        out["final_metrics"] = server.metrics()
    finally:
        server.stop()
    out.update(requests=traffic.requests, failed=traffic.failed)
    return out, gates, server.start_s


def setup_again(spec: Workload, profile: Profile, seed: int,
                checkpoint: Path, work: Path, setup: dict) -> None:
    """One more timed set-up: corpus generation and a server start.

    Repeats are spread over the run (after training, after serving), so
    a slow stretch of the shared host moves at most one of them.
    """
    index = len(setup["data_s"])
    started = time.perf_counter()
    make_dataset(spec, profile, seed, work / f"eventlog-{index}")
    setup["data_s"].append(time.perf_counter() - started)
    server = Server(checkpoint, spec.serve_flags, work)
    setup["server_start_s"].append(server.start_s)
    server.stop()


def _parity_probe(traffic: Traffic, checkpoint: Path, count: int):
    """Served top-z equals offline ``load_model(ckpt).recommend``.

    Probe users are spread over the traffic distribution, from the
    heaviest (sessions past max_history) to single-event users.
    """
    from repro.data import EvalSample
    from repro.io import load_model
    events = traffic.events
    by_volume = sorted(events, key=lambda u: (-len(events[u]), u))
    users = by_volume[::max(1, len(by_volume) // count)][:count]
    served = []
    for user in users:
        status, body = traffic.post(loadgen.RECOMMEND,
                                    {"user_id": user, "z": Z})
        served.append(json.loads(body)["items"] if status == 200 else None)
    offline = load_model(checkpoint).recommend(
        [EvalSample(user_id=u, history=tuple(events[u]), target=(1,))
         for u in users], z=Z)
    mismatches = sum(s != o for s, o in zip(served, offline))
    return served, {"ok": mismatches == 0,
                    "detail": f"{mismatches}/{len(users)} probe users differ"}


def _online_gates(traffic: Traffic) -> dict:
    """IVF labels, a published refresh, and exactly-once consumption."""
    consumed, expected = traffic.consumed(timeout=30.0)
    deadline = time.monotonic() + REFRESH_WAIT_S
    while True:   # short (smoke) runs can end before the first refresh
        refreshes = int(traffic.server.metrics().get("online_refresh_total",
                                                     0))
        if refreshes or time.monotonic() > deadline:
            break
        time.sleep(0.1)
    labels = traffic.labels
    return {
        "ivf_labels": {
            "ok": labels["model"] > 0 and labels["ivf"] == labels["model"],
            "detail": f"{labels['ivf']}/{labels['model']} model responses "
                      f"labelled ivf, {labels['fallback']} fallbacks"},
        "refresh_published": {
            "ok": refreshes >= 1,
            "detail": f"{refreshes} refresh generations published"},
        "exactly_once": {
            "ok": consumed == expected,
            "detail": f"consumed {consumed}, expected {expected} of "
                      f"{traffic.events_sent} events"},
    }


# ----------------------------------------------------------------------
def run(args) -> dict:
    from repro.io import save_model
    spec = WORKLOADS[args.workload]
    profile = PROFILES[args.profile]
    import repro
    if not Path(repro.__file__).resolve().is_relative_to(ROOT / "src"):
        raise SystemExit(f"repro imported from {repro.__file__}, "
                         f"not from {ROOT / 'src'}")
    work = Path(args.workdir)
    work.mkdir(parents=True, exist_ok=True)
    tracer = restore = None
    if args.trace:
        tracer = trace.Tracer()
        restore = trace.install(tracer, trace.OFFLINE_SITES)
    spans_out = work / "server-spans.json" if args.trace else None
    offline = Offline(spec, profile, args.seed, work, tracer)
    twins = []
    for _ in range(profile.train_repeats):
        offline.repeat()
        if tracer is not None:
            restore()
            twins.append(offline.untraced_twin())
            restore = trace.install(tracer, trace.OFFLINE_SITES)
    _log("training repeats done")
    checkpoint = work / "causer.npz"
    _, save_s = timed(tracer, "io.save_model", save_model, offline.model,
                      checkpoint)
    setup = {"data_s": offline.setup_s, "save_s": save_s,
             "server_start_s": []}
    # Set-up repeats bracket the measured serving phase.
    repeats = [(profile.setup_repeats - 1) // 2, profile.setup_repeats // 2]
    for _ in range(repeats[0]):
        setup_again(spec, profile, args.seed, checkpoint, work, setup)
    served, serve_gates, start_s = serve(spec, profile, args.seed,
                                         args.seconds, checkpoint, work,
                                         offline, spans_out)
    setup["server_start_s"].append(start_s)
    for _ in range(repeats[1]):
        setup_again(spec, profile, args.seed, checkpoint, work, setup)
    _log("done")
    result = {"workload": args.workload, "seed": args.seed,
              "traced": bool(args.trace), "train": offline.train,
              "paper": offline.paper,
              "setup": setup, "serve": served,
              "gates": dict(offline.gates(), **serve_gates)}
    if tracer is not None:
        restore()
        import layers
        train = offline.train
        differ = [i for i, (_, outcome) in enumerate(twins)
                  if outcome != {k: train[k][i] for k in OUTCOME_KEYS}]
        result["gates"]["trace_parity"] = {
            "ok": not differ,
            "detail": f"untraced twins of repeats {differ} differ" if differ
                      else f"{len(twins)} untraced twins identical"}
        local = trace.SpanSet(tracer.spans)
        server = trace.SpanSet.load(spans_out)
        result["layers"] = layers.extract(local, server, result)
        traced_s = [f + e for f, e in zip(train["fit_s"], train["eval_s"])]
        result["layers"]["trace.overhead_frac"] = (
            statistics.median(traced_s)
            / statistics.median(s for s, _ in twins) - 1.0)
        result["span_table"] = {"workload": local.table(),
                                "server": server.table()}
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--profile", choices=sorted(PROFILES), required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    # A launcher that ignores SIGINT (a background shell job does) passes
    # the ignored disposition on through exec, and a server started from
    # here would then never see the SIGINT that stops it and dumps its
    # spans.  A Python-level handler is reset to the default on exec.
    signal.signal(signal.SIGINT, signal.default_int_handler)
    result = run(args)
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(result, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())
