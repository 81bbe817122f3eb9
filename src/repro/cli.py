"""Command-line interface: regenerate any paper table/figure.

Usage::

    python -m repro table2
    python -m repro table4 --scale 0.05 --epochs 12 --workers 4
    python -m repro fig5 --datasets baby --cells gru
    python -m repro identifiability
    python -m repro grid --datasets baby --grid-param epsilon=0.2,0.3
    python -m repro efficiency --quick
    python -m repro train --model "Causer (GRU)" --save-model causer.npz
    python -m repro train --model GRU4Rec --data-backend eventlog
    python -m repro eval --load-model causer.npz
    python -m repro serve --checkpoint causer.npz --port 8080

Every name in :data:`repro.exp.EXPERIMENTS` is a subcommand that runs
that entry at its registered arguments and prints the same rows/series
layout the paper reports; ``--epochs`` replaces the entry's epoch budget
only when given.  Every command refuses (exit 2) a flag it does not read,
such as a ``--datasets``, ``--cells`` or ``--workers`` an experiment does
not take, or a tool's flag given to another command.  ``--workers N`` fans
``table4`` and ``grid`` out across processes via :mod:`repro.parallel`;
results are bit-identical at any worker count.
"""

from __future__ import annotations

import argparse
import copy
import sys
from typing import TYPE_CHECKING, Dict, List, Optional

if TYPE_CHECKING:
    from .exp import BenchmarkSettings

#: The flags that build a run's settings; every command but ``serve``
#: reads them.
SETTINGS_FLAGS = ("scale", "epochs", "seed", "quick")

#: The subcommands that are not paper experiments, each with the flags it
#: reads.  An experiment reads :data:`SETTINGS_FLAGS` and the restricting
#: flags its registry entry ``accepts``.
TOOLS = {
    "grid": SETTINGS_FLAGS + ("datasets", "workers", "grid_param"),
    "train": SETTINGS_FLAGS + ("datasets", "data_backend", "model",
                               "save_model"),
    "eval": SETTINGS_FLAGS + ("datasets", "data_backend", "load_model"),
    "serve": ("checkpoint", "host", "port", "max_batch_size", "max_wait_ms",
              "session_capacity", "retrieval", "shortlist", "nprobe",
              "quantize", "online", "online_lr", "online_batch_events",
              "refresh_every", "window", "event_log", "thread_sanitizer",
              "workers"),
}

#: What a command that reads ``--data-backend`` reads only with
#: ``--data-backend eventlog``: where the log lives and how many processes
#: generate it.
EVENTLOG_FLAGS = ("eventlog_dir", "workers")

#: What every command reads: the command itself and the anomaly switch.
_EVERY_COMMAND = ("experiment", "detect_anomaly")


def _registry():
    from .exp import EXPERIMENTS
    return EXPERIMENTS


class _Commands:
    """The subcommand choices: the registry's experiments, then the tools.

    The registry is read only for a name that is not a tool, so parsing
    ``serve`` never imports :mod:`repro.exp`.
    """

    def __contains__(self, name) -> bool:
        return name in TOOLS or name in _registry()

    def __iter__(self):
        return iter((*_registry(), *TOOLS))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduce tables/figures from the Causer paper "
                    "(ICDE 2023) on scaled synthetic profiles.")
    parser.add_argument("experiment", choices=_Commands(),
                        metavar="experiment",
                        help="which table/figure to regenerate, or a tool: "
                             "%(choices)s")
    parser.add_argument("--scale", type=float, default=0.05,
                        help="dataset scale relative to Table II sizes")
    parser.add_argument("--epochs", type=int, default=None,
                        help="training epochs per model (default: the "
                             "experiment's registered budget; 12 for "
                             "train, eval and grid)")
    parser.add_argument("--seed", type=int, default=1,
                        help="data-generation seed")
    parser.add_argument("--quick", action="store_true",
                        help="2-epoch smoke mode")
    parser.add_argument("--data-backend", choices=["memory", "eventlog"],
                        default="memory",
                        help="(train, eval) where the corpus columns live: "
                             "'memory' simulates the profile into RAM "
                             "(default), 'eventlog' generates it once as "
                             "memmapped shards on disk (per-user seed "
                             "streams, see docs/DATA.md) and reads them with "
                             "bounded resident memory; either way the same "
                             "corpus code trains and evaluates")
    parser.add_argument("--eventlog-dir", metavar="DIR", default=None,
                        help="(--data-backend eventlog) cache directory for "
                             "generated event logs; default ./eventlogs.  An "
                             "existing log for the same "
                             "dataset/scale/seed is reused, not regenerated")
    parser.add_argument("--datasets", nargs="+", default=None,
                        help="restrict the datasets of an experiment that "
                             "takes it (others exit 2); train, eval and grid "
                             "use the first")
    parser.add_argument("--cells", nargs="+", default=None,
                        choices=["gru", "lstm"],
                        help="restrict the sequential backbones of an "
                             "experiment that takes it (others exit 2)")
    parser.add_argument("--workers", type=int, default=None,
                        help="process count for an experiment that takes "
                             "it (default serial; others exit 2), for grid "
                             "and for event-log generation (--data-backend "
                             "eventlog; default CPU-count aware capped at "
                             "8); 0/1 = serial")
    parser.add_argument("--grid-param", action="append", default=None,
                        metavar="KEY=V1,V2,...",
                        help="(grid) one hyper-parameter and its candidate "
                             "values, repeatable; e.g. "
                             "--grid-param epsilon=0.2,0.3")
    parser.add_argument("--model", default="Causer (GRU)",
                        help="(train) Table IV model name to train")
    parser.add_argument("--save-model", metavar="PATH", default=None,
                        help="(train) write the trained model to PATH as a "
                             ".npz checkpoint (repro.io.save_model)")
    parser.add_argument("--load-model", metavar="PATH", default=None,
                        help="(eval) evaluate a saved checkpoint instead of "
                             "training")
    parser.add_argument("--checkpoint", metavar="PATH", default=None,
                        help="(serve) checkpoint to serve; omit to start "
                             "degraded (popularity fallback) and hot-load "
                             "later")
    parser.add_argument("--host", default="127.0.0.1",
                        help="(serve) bind address")
    parser.add_argument("--port", type=int, default=8080,
                        help="(serve) bind port (0 = ephemeral)")
    parser.add_argument("--max-batch-size", type=int, default=32,
                        help="(serve) micro-batch size cap")
    parser.add_argument("--max-wait-ms", type=float, default=2.0,
                        help="(serve) max time a request waits to be "
                             "batched with others")
    parser.add_argument("--session-capacity", type=int, default=10_000,
                        help="(serve) LRU capacity of the session store")
    parser.add_argument("--retrieval", choices=["exact", "ivf"],
                        default=None,
                        help="(serve) candidate-generation mode: 'exact' "
                             "scores the full catalog through the model "
                             "head (and labels responses), 'ivf' cuts an "
                             "ANN shortlist with the two-tower IVF index "
                             "and re-ranks it through the exact causal "
                             "head (see docs/RETRIEVAL.md)")
    parser.add_argument("--shortlist", type=int, default=500,
                        help="(serve --retrieval ivf) candidate shortlist "
                             "size handed to the exact re-rank stage")
    parser.add_argument("--nprobe", type=int, default=8,
                        help="(serve --retrieval ivf) IVF cells probed per "
                             "query; higher = better recall, slower")
    parser.add_argument("--quantize", choices=["none", "fp16", "int8"],
                        default="none",
                        help="(serve) frozen embedding-table precision: "
                             "'none' keeps fp64 tables (byte-identical "
                             "scores), 'fp16' halves table memory "
                             "(top-z overlap >= 0.99), 'int8' quarters it "
                             "with per-row scale/offset (see "
                             "docs/SERVING.md for tolerances)")
    parser.add_argument("--online", action="store_true",
                        help="(serve) enable continual learning: tee "
                             "/v1/events into an append-only log, train a "
                             "shadow model in the background, and (with "
                             "--refresh-every) periodically re-derive the "
                             "causal artifacts and hot swap them in "
                             "(see docs/ONLINE.md); requires --checkpoint")
    parser.add_argument("--online-lr", type=float, default=0.01,
                        help="(serve --online) learning rate for the "
                             "shadow trainer's embedding updates; "
                             "0 disables updates entirely (serving stays "
                             "bit-identical to the frozen checkpoint)")
    parser.add_argument("--online-batch-events", type=int, default=32,
                        help="(serve --online) events per training "
                             "micro-batch; batches are applied exactly "
                             "once at fixed log offsets")
    parser.add_argument("--refresh-every", type=float, default=0.0,
                        metavar="SECONDS",
                        help="(serve --online) re-derive causal artifacts "
                             "on a sliding window and hot swap them in "
                             "every SECONDS; 0 disables refresh")
    parser.add_argument("--window", type=int, default=2048,
                        help="(serve --online) sliding-window size (events) "
                             "each refresh re-derives from")
    parser.add_argument("--event-log", metavar="DIR", default=None,
                        help="(serve --online) directory for the durable "
                             "replayable event log; omit for a memory-only "
                             "log (no offline replay)")
    parser.add_argument("--detect-anomaly", action="store_true",
                        help="run with the autograd anomaly sanitizer: "
                             "NaN/Inf forward values and gradients abort "
                             "with the creating op and its traceback "
                             "(see repro.analysis)")
    parser.add_argument("--thread-sanitizer", action="store_true",
                        help="(serve) run with the runtime thread sanitizer: "
                             "lock-order inversions, long holds, and torn "
                             "generation reads are reported with recorded "
                             "acquisition stacks on shutdown; exit 1 on any "
                             "finding (see repro.analysis.threadsan)")
    return parser


def _unread_flags(parser: argparse.ArgumentParser,
                  args: argparse.Namespace) -> List[str]:
    """The flags given a value other than their default that
    ``args.experiment`` does not read."""
    reads = TOOLS.get(args.experiment)
    if reads is None:
        reads = SETTINGS_FLAGS + _registry()[args.experiment].accepts
    elif "data_backend" in reads and args.data_backend == "eventlog":
        reads += EVENTLOG_FLAGS
    return [dest.replace("_", "-") for dest, value in vars(args).items()
            if dest not in reads + _EVERY_COMMAND
            and value != parser.get_default(dest)]


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    unread = _unread_flags(parser, args)
    for flag in unread:
        print(f"error: {args.experiment} does not take --{flag}",
              file=sys.stderr)
    if unread:
        return 2
    if args.detect_anomaly:
        from .analysis import detect_anomaly
        with detect_anomaly():
            return _dispatch(args)
    return _dispatch(args)


def _dispatch(args: argparse.Namespace) -> int:
    if args.experiment == "serve":
        return _run_serve(args)
    from . import exp
    overrides = dict(scale=args.scale, data_seed=args.seed, quick=args.quick)
    if args.epochs is not None:
        overrides["num_epochs"] = args.epochs
    handlers = {"train": _run_train, "eval": _run_eval, "grid": _run_grid}
    if args.experiment in handlers:
        return handlers[args.experiment](args,
                                         exp.BenchmarkSettings(**overrides))
    experiment = exp.EXPERIMENTS[args.experiment]
    given = {flag: getattr(args, flag) for flag in experiment.accepts
             if getattr(args, flag) is not None}
    print(experiment(experiment.settings(**overrides), **given).render())
    return 0


def _parse_grid_value(raw: str):
    """``"0.3"`` → float, ``"16"`` → int, anything else stays a string."""
    try:
        return int(raw)
    except ValueError:
        try:
            return float(raw)
        except ValueError:
            return raw


def parse_grid_params(entries: Optional[List[str]]) -> Dict[str, list]:
    """Turn repeated ``KEY=V1,V2,...`` flags into a parameter grid."""
    if not entries:
        raise SystemExit("error: grid needs at least one "
                         "--grid-param KEY=V1,V2,...")
    grid: Dict[str, list] = {}
    for entry in entries:
        key, sep, values = entry.partition("=")
        if not sep or not key or not values:
            raise SystemExit(f"error: malformed --grid-param {entry!r}; "
                             f"expected KEY=V1,V2,...")
        grid[key] = [_parse_grid_value(v) for v in values.split(",") if v]
        if not grid[key]:
            raise SystemExit(f"error: --grid-param {entry!r} lists no values")
    return grid


def _dataset_and_split(args: argparse.Namespace,
                       settings: "BenchmarkSettings"):
    from .data.interactions import leave_one_out_split
    name = (args.datasets or ["baby"])[0]
    if getattr(args, "data_backend", "memory") == "eventlog":
        dataset = _eventlog_dataset(name, settings, args)
    else:
        from .data import load_dataset
        dataset = load_dataset(name, scale=settings.scale,
                               seed=settings.data_seed)
    return dataset, leave_one_out_split(dataset.corpus)


def _eventlog_dataset(name: str, settings: "BenchmarkSettings",
                      args: argparse.Namespace):
    """Load (or generate once and cache) the out-of-core event log.

    The cache key is (profile, scale, seed), so repeated train/eval runs
    over the same configuration reuse the shards on disk instead of
    re-simulating.  Generation is shard-parallel when ``--workers`` asks
    for it and bit-identical to serial either way.
    """
    from pathlib import Path

    from .data import dataset_config, generate_eventlog, load_eventlog_dataset
    root = Path(args.eventlog_dir) if args.eventlog_dir else Path("eventlogs")
    path = root / (f"{name.lower()}-scale{settings.scale:g}"
                   f"-seed{settings.data_seed}")
    if (path / "header.json").exists():
        print(f"data backend: eventlog (reusing {path})")
        return load_eventlog_dataset(path)
    config = dataset_config(name, scale=settings.scale,
                            seed=settings.data_seed)
    generate_eventlog(config, path, name=name.lower(), workers=args.workers)
    print(f"data backend: eventlog (generated {path})")
    return load_eventlog_dataset(path)


def _print_eval(model_name: str, dataset_name: str, result, z: int) -> None:
    print(f"{model_name} on {dataset_name}: "
          f"F1@{z}={100.0 * result.mean('f1'):.3f}% "
          f"NDCG@{z}={100.0 * result.mean('ndcg'):.3f}%")


def _run_train(args: argparse.Namespace, settings: "BenchmarkSettings") -> int:
    """Train one model, report held-out metrics, optionally checkpoint it."""
    from .eval import evaluate_model
    from .exp.runner import build_model
    from .lineup import CLASSES, LINEUP, checkpoint_classes
    if args.model not in LINEUP:
        print(f"error: train --model {args.model!r} names no lineup entry; "
              f"choose from {', '.join(LINEUP)}", file=sys.stderr)
        return 2
    if args.save_model and CLASSES[LINEUP[args.model][0]].config is None:
        print(f"error: train --save-model: {args.model} has no checkpoint "
              f"format; classes that have one: "
              f"{', '.join(checkpoint_classes())}", file=sys.stderr)
        return 2
    dataset, split = _dataset_and_split(args, settings)
    model = build_model(args.model, dataset, settings)
    model.fit(split.train)
    result = evaluate_model(model, split.test, z=settings.z)
    _print_eval(args.model, dataset.name, result, settings.z)
    if args.save_model:
        from .io import save_model
        save_model(model, args.save_model)
        print(f"saved checkpoint: {args.save_model}")
    return 0


def _run_eval(args: argparse.Namespace, settings: "BenchmarkSettings") -> int:
    """Evaluation-only run: score a saved checkpoint on a held-out split."""
    if not args.load_model:
        raise SystemExit("error: eval needs --load-model PATH")
    from .eval import evaluate_model
    from .io import load_model
    model = load_model(args.load_model)
    dataset, split = _dataset_and_split(args, settings)
    result = evaluate_model(model, split.test, z=settings.z)
    _print_eval(f"{type(model).__name__} [{args.load_model}]",
                dataset.name, result, settings.z)
    return 0


def _build_online_stack(args: argparse.Namespace, shadow, publish,
                        metrics):
    """Assemble log → trainer → refresh for ``serve --online``.

    ``shadow`` is the checkpoint's model, which the trainer trains.
    Returns ``(log, trainer, refresh, close)``: the log's ``append`` is
    the serving tee, the trainer runs on a daemon thread, and ``close``
    tears all three down in dependency order.  ``refresh`` is ``None``
    when ``--refresh-every 0``.
    """
    from .online import EventLog, OnlineTrainer, RefreshController
    from .online.trainer import OPTIMIZER
    log = EventLog(args.event_log)
    # The drift probe's frozen baseline is the checkpoint as loaded: a copy
    # of the shadow taken before the trainer exists, let alone steps it.
    baseline = copy.deepcopy(shadow) if args.refresh_every > 0 else None
    trainer = OnlineTrainer(
        shadow, log, lr=args.online_lr,
        batch_events=args.online_batch_events, metrics=metrics)
    trainer.start()
    refresh = None
    if baseline is not None:
        refresh = RefreshController(
            trainer, log, publish, window=args.window, baseline=baseline,
            interval=args.refresh_every, metrics=metrics)
        refresh.start()
    print(f"online learning enabled: lr={args.online_lr} "
          f"optimizer={OPTIMIZER} "
          f"batch={args.online_batch_events} events  "
          f"log={'memory-only' if args.event_log is None else args.event_log}"
          f"  refresh="
          f"{'off' if refresh is None else f'every {args.refresh_every}s'}")

    def close() -> None:
        if refresh is not None:
            refresh.stop()
        trainer.stop()
        log.close()

    return log, trainer, refresh, close


def _run_serve(args: argparse.Namespace) -> int:
    """Run the HTTP serving layer (see :mod:`repro.serve`)."""
    from .serve import ServeApp
    if args.online and not args.checkpoint:
        print("--online requires --checkpoint: the shadow trainer needs "
              "a model to start from")
        return 2
    if args.workers is not None and args.workers > 1:
        print(f"--workers {args.workers}: serving runs in one process "
              f"(a threaded HTTP server); omit --workers for serve")
        return 2
    shadow = None
    if args.online:
        from .io import load_model
        from .models import NeuralSequentialRecommender
        shadow = load_model(args.checkpoint)
        if not isinstance(shadow, NeuralSequentialRecommender):
            print(f"error: serve --online cannot train a "
                  f"{type(shadow).__name__} checkpoint: online learning "
                  f"needs a neural sequential model", file=sys.stderr)
            return 2
    retrieval = None
    if args.retrieval is not None:
        from .retrieval import RetrievalConfig
        retrieval = RetrievalConfig(mode=args.retrieval,
                                    shortlist=args.shortlist,
                                    nprobe=args.nprobe)
    app = ServeApp(session_capacity=args.session_capacity,
                   max_batch_size=args.max_batch_size,
                   max_wait_ms=args.max_wait_ms,
                   retrieval=retrieval, quantize=args.quantize)
    if not args.thread_sanitizer:
        return _serve_loop(args, app, shadow)
    from .analysis import threadsan
    with threadsan() as san:
        san.instrument_app(app)
        print("thread sanitizer enabled: lock-order, long-hold, and "
              "torn-read findings are reported on shutdown")
        code = _serve_loop(args, app, shadow)
        findings = san.findings
    if findings:
        print(san.render_report())
        return 1
    print("threadsan: no findings")
    return code


def _serve_loop(args: argparse.Namespace, app, shadow) -> int:
    from .serve import ServeServer
    if args.checkpoint:
        artifacts = app.load_checkpoint(args.checkpoint)
        if args.quantize != "none":
            print(f"quantize={args.quantize}: frozen embedding tables "
                  f"stored at reduced precision (see docs/SERVING.md)")
        print(f"loaded {artifacts.model_class} from {args.checkpoint} "
              f"(scorer: {artifacts.mode}, generation {artifacts.generation})")
        if app.retrieval is not None:
            if artifacts.retrieval is not None:
                print(f"retrieval: ivf "
                      f"(clusters={artifacts.retrieval.index.n_clusters}, "
                      f"shortlist={app.retrieval.shortlist}, "
                      f"nprobe={app.retrieval.nprobe})")
            else:
                print(f"retrieval: {app.retrieval.mode} "
                      f"(exact full-catalog scoring)")
    else:
        print("no --checkpoint given: serving degraded "
              "(popularity fallback) until one is installed")
    online_close = None
    if args.online:
        log, _trainer, _refresh, online_close = _build_online_stack(
            args, shadow, publish=app.install_model, metrics=app.metrics)
        app.event_sink = log.append
    server = ServeServer(app, host=args.host, port=args.port)
    host, port = server.address
    print(f"serving on http://{host}:{port}  "
          f"(POST /v1/recommend /v1/events /v1/explain, "
          f"GET /healthz /metrics)")
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.shutdown()
        if online_close is not None:
            online_close()
    return 0


def _run_grid(args: argparse.Namespace, settings: "BenchmarkSettings") -> int:
    from .data import load_dataset
    from .exp import grid_search_causer, render_table
    grid = parse_grid_params(args.grid_param)
    dataset_name = (args.datasets or ["baby"])[0]
    dataset = load_dataset(dataset_name, scale=settings.scale,
                           seed=settings.data_seed)
    result = grid_search_causer(dataset, grid, settings, metric="ndcg",
                                workers=args.workers)
    rows = [(", ".join(f"{k}={v}" for k, v in overrides.items()), score)
            for overrides, score in result.top(10)]
    print(render_table(("configuration", f"ndcg@{settings.z} (%)"),
                       rows,
                       title=f"Table III grid search — {dataset_name}"))
    best_overrides, best_score = result.best
    print(f"best: {best_overrides} -> {best_score:.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
