"""``python -m repro serve`` with the benchmark's span wrappers installed.

Usage::

    python benchmarks/e2e/serve_traced.py SPANS.json [serve flags ...]

Installs :data:`trace.SERVE_SITES`, runs ``repro.cli.main(["serve",
...])`` until SIGINT, then writes every recorded span to ``SPANS.json``.
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import trace  # noqa: E402  (the benchmark's span recorder, not the stdlib)


def main(argv) -> int:
    spans_out, serve_args = argv[0], argv[1:]
    tracer = trace.Tracer()
    restore = trace.install(tracer, trace.SERVE_SITES)
    from repro.cli import main as cli_main
    try:
        return cli_main(["serve", *serve_args])
    finally:
        restore()
        tracer.dump(spans_out)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
