"""Traced ``repro serve``: wrap the service layers, serve, dump spans.

Usage: ``serve.py SPANS_PATH serve [repro serve options...]``.  The
wrappers go in before ``repro.cli.main`` builds the app; the spans are
written once the SIGTERM drain has finished and ``main`` has returned.
"""

from __future__ import annotations

import sys

import layers
from tracer import Tracer


def main(argv: list[str]) -> int:
    spans_path, serve_argv = argv[0], argv[1:]
    tracer = Tracer()
    layers.install_service(tracer)
    from repro.cli import main as cli_main

    try:
        return cli_main(serve_argv)
    finally:
        tracer.unwrap_all()
        tracer.dump(spans_path)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
