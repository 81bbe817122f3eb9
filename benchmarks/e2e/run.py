"""End-to-end benchmark: eventlog → Causer training → evaluation → serving.

    python benchmarks/e2e/run.py                       # every workload
    python benchmarks/e2e/run.py --workload short_exact --seed 3 --trace 1
    python benchmarks/e2e/run.py --profile smoke       # tiny, ~1 min
    python benchmarks/e2e/run.py --repeat-check 5      # bound calibration

Each workload runs in a fresh ``workload.py`` process (the server it
starts is a child of that process).  Every metric is printed as
``name value unit``; with ``--workload`` the last line is one JSON
object ``{"correct", "attempted", "failed", "metrics"}`` holding the
end-to-end metrics (``--trace 0``) or the per-layer metrics
(``--trace 1``, which records spans and, after each traced training
repeat, runs an untraced twin to measure the tracing overhead and to
check that tracing changes no result).  The exit code is non-zero when a
correctness gate fails.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
WORKDIR = ROOT / ".bench_e2e"
#: A run must end well inside 180 s.
RUN_DEADLINE_S = 170.0

#: Recommend p90 limit for max_rps_at_slo, and the generator lateness
#: beyond which a ladder step counts as failed (backlog, not latency).
#: The ladder steps last 1-2 s, too few samples beyond p99.
SLO_P90_MS = 20.0
LATE_P99_MS = 100.0

#: Environment of the workload and server processes.
#:
#: One BLAS thread: on two cores OpenBLAS's default threads made Causer
#: training 40% slower and its throughput vary by +-20% between identical
#: fits (they spin against the load generator and against each other);
#: pinned, fits agree within 4%.
#:
#: A fixed 4 MiB mmap threshold: glibc raises its threshold after every
#: large free, so whether a multi-MB array lands in the (fragmented) heap
#: or in its own mapping depended on what ran before.  Identical fits then
#: peaked anywhere from 151 to 172 MB; fixed, within 2 MB of each other,
#: at the same fit time.
PINNED_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1",
              "MALLOC_MMAP_THRESHOLD_": str(4 << 20)}

def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


def workload_names() -> List[str]:
    return [w["name"] for w in load_spec()["workloads"]]


# ----------------------------------------------------------------------
# Running one workload process
# ----------------------------------------------------------------------
def run_workload(name: str, seed: int, seconds: float, profile: str,
                 traced: bool, deadline: float) -> dict:
    work = WORKDIR / f"{name}-s{seed}-p{os.getpid()}-t{int(traced)}"
    if work.exists():
        shutil.rmtree(work)
    work.mkdir(parents=True)
    out = work / "result.json"
    cmd = [sys.executable, str(HERE / "workload.py"), "--workload", name,
           "--seed", str(seed), "--seconds", str(seconds),
           "--profile", profile, "--trace", str(int(traced)),
           "--workdir", str(work), "--out", str(out)]
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), **PINNED_ENV)
    try:
        # Own session: on timeout the whole group (workload + server) dies.
        proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=sys.stderr,
                                start_new_session=True)
        try:
            code = proc.wait(timeout=max(1.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            raise RuntimeError(f"{name}: workload exceeded the run "
                               f"deadline") from None
        finally:
            try:
                os.killpg(proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            proc.wait()
        if code != 0:
            raise RuntimeError(f"{name}: workload process exited with {code}")
        with open(out, encoding="utf-8") as handle:
            return json.load(handle)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORKDIR.rmdir()
        except OSError:
            pass


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------
def max_rps_at_slo(steps: List[dict]) -> float:
    """Rate where recommend p90 crosses the SLO, linear between steps.

    A step with a failed request or a generator lateness p99 above
    ``LATE_P99_MS`` counts as over the SLO.  Below the first step the
    curve starts at (0 req/s, 0 ms); past the last step it is extended
    along the last segment, by at most one more step.
    """
    points = [(0.0, 0.0)]
    for step in sorted(steps, key=lambda s: s["rate"]):
        p90 = step["recommend_p90_ms"]
        if step["failed"] or step["late_p99_ms"] > LATE_P99_MS:
            p90 = max(p90, 2.0 * SLO_P90_MS)
        points.append((float(step["rate"]), p90))
        if p90 > SLO_P90_MS:
            break
    (r0, p0), (r1, p1) = points[-2], points[-1]
    if p1 <= p0:
        return r1
    return min(r0 + (r1 - r0) * (SLO_P90_MS - p0) / (p1 - p0),
               r1 + (r1 - r0))


def end_to_end(result: dict) -> Dict[str, float]:
    """The bounded metrics: set-up time and the two memory peaks."""
    setup = result["setup"]
    median = statistics.median
    return {
        "setup_s": (median(setup["data_s"]) + setup["save_s"]
                    + median(setup["server_start_s"])),
        "train_peak_rss_mb": median(result["train"]["fit_peak_mb"]),
        "serve_rss_mb": result["serve"]["server_hwm_mb"],
    }


def diagnostics(result: dict) -> Dict[str, Tuple[float, str]]:
    """``{name: (value, unit)}`` printed with every run, with no bound.

    Throughput and latency follow the shared host's speed, which drifts
    by 20-50% over minutes; REPEATABILITY.md records their spreads.
    """
    train, serve = result["train"], result["serve"]
    base = serve["base"]
    median = statistics.median
    fit_s, eval_s = median(train["fit_s"]), median(train["eval_s"])
    ref_s = median(train["ref_s"])
    samples = train["prefixes"] * train["epochs"]
    return {
        "train_samples_per_s": (samples / fit_s, "samples/s"),
        "eval_users_per_s": (train["users"] / eval_s, "users/s"),
        "train_samples_per_ref": (samples * ref_s / fit_s, "samples/ref"),
        "eval_users_per_ref": (train["users"] * ref_s / eval_s, "users/ref"),
        "reference_s": (ref_s, "s"),
        "recommend_p50_ms": (base["recommend_p50_ms"], "ms"),
        "recommend_p90_ms": (base["recommend_p90_ms"], "ms"),
        "recommend_p99_ms": (base["recommend_p99_ms"], "ms"),
        "events_p50_ms": (base["events_p50_ms"], "ms"),
        "events_p90_ms": (base["events_p90_ms"], "ms"),
        "events_p99_ms": (base["events_p99_ms"], "ms"),
        "max_rps_at_slo": (max_rps_at_slo([base] + serve["steps"]), "req/s"),
        "quality.ndcg_at_10": (train["ndcg"][0], "ratio"),
        "paper.causer_over_sasrec_infer": (median(result["paper"]["ratio"]),
                                           "ratio"),
        "samples.recommend_at_base": (base["recommend_n"], "count"),
        "samples.events_at_base": (base["events_n"], "count"),
        "loadgen.late.p99_ms": (base["late_p99_ms"], "ms"),
    }


def per_layer(traced: dict) -> Dict[str, float]:
    layers = dict(traced["layers"])
    diag = diagnostics(traced)
    for name in ("quality.ndcg_at_10", "paper.causer_over_sasrec_infer"):
        layers[name] = diag[name][0]
    return layers


class Run:
    """One workload invocation: its results, gates and metrics."""

    def __init__(self, name: str, seed: int, seconds: float, profile: str,
                 trace: bool) -> None:
        self.name, self.traced = name, trace
        self.result = run_workload(name, seed, seconds, profile, trace,
                                   time.monotonic() + RUN_DEADLINE_S)
        self.gates = dict(self.result["gates"])
        if trace:
            orphans = self.result["layers"]["trace.orphan_spans"]
            self.gates["trace_spans_linked"] = {
                "ok": orphans == 0,
                "detail": f"{orphans} non-root spans without a parent"}
        bad = [k for k, v in self.metrics().items() if not math.isfinite(v)]
        self.gates["finite_metrics"] = {
            "ok": not bad, "detail": f"not finite: {bad}" if bad else "all"}
        serve = self.result["serve"]
        self.attempted = serve["requests"] + len(self.gates)
        self.failed = (serve["failed"]
                       + sum(not g["ok"] for g in self.gates.values()))

    @property
    def correct(self) -> bool:
        return self.failed == 0

    def metrics(self) -> Dict[str, float]:
        if self.traced:
            return per_layer(self.result)
        return end_to_end(self.result)


def print_run(run: Run, spec: dict) -> None:
    units = {m["name"]: m["unit"]
             for m in spec["end_to_end"] + spec["per_layer"]}
    print(f"== {run.name} ==")
    for name, value in end_to_end(run.result).items():
        print(f"{name} {value:.6g} {units[name]}")
    for name, (value, unit) in diagnostics(run.result).items():
        print(f"{name} {value:.6g} {unit}")
    serve = run.result["serve"]
    labelled = ([("base step", serve["base"])]
                + [("ladder step", s) for s in serve["steps"]])
    for label, step in labelled:
        print(f"# {label} at {step['rate']:g} req/s: "
              f"recommend p50/p90 {step['recommend_p50_ms']:.2f}/"
              f"{step['recommend_p90_ms']:.2f} ms (n={step['recommend_n']}), "
              f"events p50/p90 {step['events_p50_ms']:.2f}/"
              f"{step['events_p90_ms']:.2f} ms (n={step['events_n']}), "
              f"late p99 {step['late_p99_ms']:.2f} ms, failed {step['failed']}")
    if run.traced:
        for name, value in per_layer(run.result).items():
            print(f"{name} {value:.6g} {units[name]}")
        for process, table in run.result["span_table"].items():
            for name, row in table.items():
                print(f"# span {process} {name}: {row['calls']} calls, "
                      f"busy {row['busy_s']:.4f} s, self {row['self_s']:.4f} s, "
                      f"p50 {row['p50_ms']:.3f} ms, p99 {row['p99_ms']:.3f} ms")
    for name, gate in run.gates.items():
        print(f"gate {name} {'ok' if gate['ok'] else 'FAIL'} ({gate['detail']})")


def result_line(run: Run, spec: dict) -> str:
    wanted = spec["per_layer"] if run.traced else spec["end_to_end"]
    values = run.metrics()
    # A non-finite value already failed the finite_metrics gate; keep the
    # line valid JSON.
    metrics = {m["name"]: {"value": values[m["name"]]
                           if math.isfinite(values[m["name"]]) else 0.0,
                           "unit": m["unit"]}
               for m in wanted}
    return json.dumps({"correct": run.correct, "attempted": run.attempted,
                       "failed": run.failed, "metrics": metrics})


# ----------------------------------------------------------------------
# Repeatability check
# ----------------------------------------------------------------------
def _quartiles(values: List[float]) -> str:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return f"{median:.4g} [{q1:.4g}, {q3:.4g}]"


def _spread(values: List[float]) -> float:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median


def repeat_check(names: List[str], count: int, seconds: float,
                 profile: str, spec: dict) -> bool:
    """Two sets of ``count`` runs on distinct seeds, order alternated.

    Passes when every run's gates pass and, for every end-to-end metric,
    the set medians differ by less than its bound and (``setup_s``
    excepted) the quartile spread over all runs is below the bound.
    The unbounded diagnostics are tabulated too.
    """
    print(f"# Repeatability: two sets of {count} runs per workload\n")
    print(f"Command: `python benchmarks/e2e/run.py --repeat-check {count}` "
          f"(profile `{profile}`, {seconds:g} s of serving traffic), on "
          f"{os.cpu_count()} CPUs, Python {platform.python_version()}.  "
          f"Set A uses seeds 1..{count}, set B seeds 101..{100 + count}; "
          f"runs alternate A,B / B,A.  `spread` is (q3 - q1) / median "
          f"over all {2 * count} runs; `agree` means the set medians "
          f"differ by less than the bound.\n")
    all_ok = True
    for name in names:
        sets: Dict[str, List[dict]] = {"A": [], "B": []}
        started = time.monotonic()
        for i in range(count):
            order = ("A", "B") if i % 2 == 0 else ("B", "A")
            for label in order:
                seed = 1 + i if label == "A" else 101 + i
                run = Run(name, seed, seconds, profile, trace=False)
                if not run.correct:
                    all_ok = False
                    print(f"<!-- {name} seed {seed}: gate failure "
                          f"{run.gates} -->")
                sets[label].append(run.result)
        elapsed = time.monotonic() - started
        print(f"## {name}\n")
        print(f"{2 * count} runs in {elapsed:.0f} s "
              f"({elapsed / (2 * count):.1f} s per run).\n")
        print("| metric | bound | A median [q1, q3] | B median [q1, q3] "
              "| B vs A | spread | agree |")
        print("|---|---|---|---|---|---|---|")
        for metric in spec["end_to_end"]:
            key, bound = metric["name"], metric["bound"]
            a = [end_to_end(r)[key] for r in sets["A"]]
            b = [end_to_end(r)[key] for r in sets["B"]]
            delta = statistics.median(b) / statistics.median(a) - 1.0
            spread = _spread(a + b)
            agree = abs(delta) < bound
            all_ok &= agree and (spread < bound or key == "setup_s")
            print(f"| {key} ({metric['unit']}) | {bound:g} "
                  f"| {_quartiles(a)} | {_quartiles(b)} "
                  f"| {delta:+.3f} | {spread:.3f} "
                  f"| {'yes' if agree else 'NO'} |")
        print("\nDiagnostics (no bound):\n")
        print("| diagnostic | median [q1, q3] over all runs | B vs A | spread |")
        print("|---|---|---|---|")
        runs = sets["A"] + sets["B"]
        for key, (_, unit) in diagnostics(runs[0]).items():
            values = [diagnostics(r)[key][0] for r in runs]
            a, b = values[:count], values[count:]
            print(f"| {key} ({unit}) | {_quartiles(values)} "
                  f"| {statistics.median(b) / statistics.median(a) - 1:+.3f} "
                  f"| {_spread(values):.3f} |")
        print()
        sys.stdout.flush()
    return all_ok


# ----------------------------------------------------------------------
def main(argv=None) -> int:
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no repro package under {ROOT / 'src'}; run from a "
              f"checkout of the repository", file=sys.stderr)
        return 2
    spec = load_spec()
    parser = argparse.ArgumentParser(
        description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=workload_names(), default=None,
                        help="run one workload (default: all)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"],
                        help="seconds of serving traffic: base step plus "
                             "the rate ladder (default: BENCHMARK.json's "
                             "run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--profile", choices=("full", "smoke"),
                        default="full")
    parser.add_argument("--repeat-check", type=int, metavar="N", default=0)
    args = parser.parse_args(argv)
    names = [args.workload] if args.workload else workload_names()

    if args.repeat_check:
        ok = repeat_check(names, args.repeat_check, args.seconds,
                          args.profile, spec)
        return 0 if ok else 1

    correct = True
    for name in names:
        run = Run(name, args.seed, args.seconds, args.profile,
                  bool(args.trace))
        print_run(run, spec)
        if not run.correct:
            # stdout carries the result; the reason belongs on stderr too.
            failing = {k: g["detail"] for k, g in run.gates.items()
                       if not g["ok"]}
            print(f"{name}: {run.result['serve']['failed']} failed requests, "
                  f"failing gates {failing}", file=sys.stderr)
        correct &= run.correct
        if args.workload:
            print(result_line(run, spec))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
