"""Run one workload in this (fresh) process and write its result as JSON.

Started by ``run.py``; not meant to be called by hand::

    python -u bench/workload.py --workload NAME --seed N --seconds S \\
        --trace 0|1 --work DIR --result FILE
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import grids
import serving


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=(*grids.GRIDS, *serving.LOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--work", type=Path, required=True)
    parser.add_argument("--result", type=Path, required=True)
    args = parser.parse_args(argv)

    module = grids if args.workload in grids.GRIDS else serving
    result = module.run(args.workload, args.seed, args.seconds, bool(args.trace),
                        args.work)
    args.result.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
