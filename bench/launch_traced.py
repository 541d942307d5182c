"""Start ``python -m repro.serving`` with the benchmark's span hooks installed.

Usage::

    python -u bench/launch_traced.py --spans SPANS.jsonl -- serve --root DIR ...

Everything after ``--`` goes to :func:`repro.serving.__main__.main`
unchanged.  The spans stay in memory while the server runs and are
written to ``--spans`` when it exits (the CLI returns on SIGINT).
"""

from __future__ import annotations

import argparse
import sys

from layers import install_server
from tracer import Tracer


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--spans", required=True, help="JSONL file written at exit")
    parser.add_argument("cli", nargs=argparse.REMAINDER, help="-- serve|fleet ...")
    args = parser.parse_args(argv)
    cli = args.cli[1:] if args.cli[:1] == ["--"] else args.cli

    tracer = Tracer()
    install_server(tracer)
    from repro.serving.__main__ import main as serving_main

    try:
        return serving_main(cli)
    finally:
        tracer.dump(args.spans)


if __name__ == "__main__":
    sys.exit(main())
