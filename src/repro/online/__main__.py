"""Offline replay of an event log against a checkpoint.

``python -m repro.online replay --checkpoint C --event-log DIR`` rebuilds
the online trainer's shadow tables from the log alone — same micro-batch
boundaries, same per-batch negative-sampling streams — so the result is
bit-identical to what the live trainer computed while serving, at any
worker count.  The go-to tool for debugging an online run after the
fact: replay, save the shadow, diff against the live state.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys

from ..io import load_model, save_model
from .log import EventLog
from .trainer import OnlineTrainer


def fingerprint(model) -> str:
    """Order-stable SHA-256 over every parameter buffer."""
    digest = hashlib.sha256()
    for name, param in sorted(model.named_parameters()):
        digest.update(name.encode("utf-8"))
        digest.update(param.data.tobytes())
    return digest.hexdigest()


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.online",
        description="offline tools for the online-learning subsystem")
    sub = parser.add_subparsers(dest="command", required=True)
    replay = sub.add_parser(
        "replay", help="re-run the online trainer over a logged stream")
    replay.add_argument("--checkpoint", required=True,
                        help="offline checkpoint the live run started from")
    replay.add_argument("--event-log", required=True,
                        help="event-log directory written by serving")
    replay.add_argument("--out", default=None,
                        help="save the replayed shadow model here (.npz)")
    replay.add_argument("--online-lr", type=float, default=0.01)
    replay.add_argument("--online-batch-events", type=int, default=32)
    replay.add_argument("--online-negatives", type=int, default=4)
    replay.add_argument("--online-seed", type=int, default=0)
    replay.add_argument("--start-offset", type=int, default=0)
    return parser


def _run_replay(args: argparse.Namespace) -> int:
    model = load_model(args.checkpoint)
    log = EventLog(args.event_log)
    trainer = OnlineTrainer(
        model, log, lr=args.online_lr,
        batch_events=args.online_batch_events,
        num_negatives=args.online_negatives, seed=args.online_seed,
        start_offset=args.start_offset)
    batches = trainer.pump()
    log.close()
    if args.out:
        save_model(trainer.model, args.out)
    summary = {
        "events_logged": log.next_offset,
        "events_consumed": trainer.consumed_offset - args.start_offset,
        "batches_applied": batches,
        "steps": trainer.steps,
        "fingerprint": fingerprint(trainer.model),
        "saved": args.out,
    }
    print(json.dumps(summary, indent=2))
    return 0


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    if args.command == "replay":
        return _run_replay(args)
    raise AssertionError(f"unhandled command {args.command!r}")


if __name__ == "__main__":
    sys.exit(main())
