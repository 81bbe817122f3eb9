"""Per-layer metrics of one traced workload run.

Offline layers are read from the workload process's spans under the
Causer ``train.fit`` and ``eval.evaluate_model`` roots, summed over the
repeats (the SASRec twin is excluded).  Serving layers are read from the
server's spans; latency percentiles use the spans that started inside
the base-rate step, which the shared ``time.monotonic`` clock makes
comparable with the load generator's timeline.  Counters the server
already exports come from the ``/metrics`` scrapes taken before and
after every traffic step.
"""

from __future__ import annotations

import statistics
from typing import Dict

from trace import SpanSet

TRAIN_ROOTS = ("train.fit",)
EVAL_ROOTS = ("eval.evaluate_model",)
REQUEST_TAGS = ("/v1/recommend", "/v1/events")

TRAIN_SELF = ("data.iterate_batches", "data.sample_negatives",
              "nn.gru_sequence", "nn.backward", "nn.optim.step",
              "nn.optim.clip", "core.training_loss", "causal.acyclicity")
EVAL_SELF = ("data.eval_samples", "eval.score_samples", "eval.rank_top_z",
             "eval.evaluate_rankings")


def _delta(window: dict, key: str) -> float:
    return (window["metrics_after"].get(key, 0.0)
            - window["metrics_before"].get(key, 0.0))


def extract(local: SpanSet, server: SpanSet, result: dict) -> Dict[str, float]:
    from repro.causal import expm_cache_info

    train, serve = result["train"], result["serve"]
    out: Dict[str, float] = {}
    for name in TRAIN_SELF:
        out[f"{name}.self_s"] = local.self_s(name, TRAIN_ROOTS)
    for name in EVAL_SELF:
        out[f"{name}.self_s"] = local.self_s(name, EVAL_ROOTS)
    out["eval.peak_rss_mb"] = max(train["eval_peak_mb"])
    out["train.steps"] = local.count("core.training_loss", TRAIN_ROOTS)
    out["train.samples"] = (train["prefixes"] * train["epochs"]
                            * len(train["fit_s"]))
    hits, misses, _ = expm_cache_info()
    out["causal.expm_cache.hits"] = hits
    out["causal.expm_cache.misses"] = misses
    out["causal.expm_cache.hit_ratio"] = (hits / (hits + misses)
                                          if hits + misses else 0.0)
    out["trace.coverage"] = local.coverage(TRAIN_ROOTS + EVAL_ROOTS)

    out["io.save_model.s"] = local.busy_s("io.save_model")
    out["io.load_model.s"] = server.busy_s("io.load_model")
    out["serve.registry.install.s"] = server.busy_s(
        "serve.registry.install", roots=("serve.registry.install",))

    base = serve["base"]
    ranges = [tuple(base["window"])]
    handle = [s["dur"] for s in server.select("serve.handle", windows=ranges,
                                              tags=REQUEST_TAGS)]
    handle_p50 = 1000.0 * statistics.median(handle) if handle else 0.0
    out["serve.handle.p50_ms"] = handle_p50
    out["serve.handle.p99_ms"] = server.percentile_ms(
        "serve.handle", 99, windows=ranges, tags=REQUEST_TAGS)
    out["serve.http_overhead.p50_ms"] = base["rtt_p50_ms"] - handle_p50
    out["serve.batcher.submit.p95_ms"] = server.percentile_ms(
        "serve.batcher.submit", 95, windows=ranges)
    for name in ("serve.sessions.append_event", "serve.sessions.view",
                 "serve.scoring.score_views", "online.log.append",
                 "online.trainer.pump"):
        out[f"{name}.busy_s"] = server.busy_s(name)
    out["retrieval.search.p50_ms"] = server.percentile_ms(
        "retrieval.search", 50, windows=ranges)
    out["retrieval.rerank.p50_ms"] = server.percentile_ms(
        "retrieval.rerank", 50, windows=ranges)

    out["serve.batch_wait.p95_ms"] = 1000.0 * base["metrics_after"].get(
        'serve_batch_wait_seconds{quantile="0.95"}', 0.0)
    batches = _delta(base, "serve_batch_size_count")
    out["serve.batch_size.mean"] = (_delta(base, "serve_batch_size_sum")
                                    / batches if batches else 0.0)

    final = serve["final_metrics"]
    hit = final.get("serve_shortlist_hit_total", 0.0)
    miss = final.get("serve_shortlist_miss_total", 0.0)
    out["retrieval.shortlist_hit_ratio"] = hit / (hit + miss) if hit + miss else 0.0
    out["online.update_lag.max"] = max(
        w["metrics_after"].get("online_update_lag", 0.0)
        for w in [base] + serve["steps"])
    out["online.refresh.s"] = final.get(
        'online_refresh_seconds{quantile="0.5"}', 0.0)
    out["online.refresh.count"] = final.get("online_refresh_total", 0.0)
    out["loadgen.late.p99_ms"] = base["late_p99_ms"]
    out["loadgen.sent"] = serve["requests"]
    out["loadgen.failed"] = serve["failed"]
    out["trace.orphan_spans"] = local.orphans() + server.orphans()
    return out
