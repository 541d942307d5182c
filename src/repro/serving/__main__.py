"""CLI entry point: ``python -m repro.serving``.

Subcommands:

* ``serve`` — fit (or reuse) a use-case-1 model into the registry and
  serve it over TCP until interrupted;
* ``fleet`` — same fit-or-reuse step, then a sharded multi-process
  fleet (router + N shard processes with Kingman admission) until
  interrupted;
* ``models`` — list the registry's stored models and tags.

Example::

    python -m repro.serving serve --system intel --port 7070
    python -m repro.serving fleet --n-shards 2 --port 7070
    python -m repro.serving models --root results/models
"""

from __future__ import annotations

import argparse
import threading

from .registry import DEFAULT_MODEL_ROOT, ModelRegistry
from .server import ServerHandle

__all__ = ["main"]


def _cmd_serve(args: argparse.Namespace) -> int:
    """Fit-or-load a model, start the server, block until Ctrl-C."""
    registry = _fit_or_reuse(args)
    with ServerHandle(registry, port=args.port) as server:
        print(f"serving {args.tag!r} on 127.0.0.1:{server.port} (Ctrl-C to stop)")
        try:
            threading.Event().wait()
        except KeyboardInterrupt:
            print("stopping")
    return 0


def _fit_or_reuse(args: argparse.Namespace) -> ModelRegistry:
    """Shared fit-or-load step for the ``serve`` and ``fleet`` commands.

    The fitting stack (and numpy) is imported only when the tag is
    missing: a fleet that reuses a stored model keeps it out of the
    router process.
    """
    registry = ModelRegistry(args.root)
    if args.tag not in registry.store.tags():
        from ..core.config import PredictConfig
        from ..core.predictors import FewRunsPredictor
        from ..simbench import measure_all

        campaigns = measure_all(args.system, n_runs=args.n_runs)
        predictor = FewRunsPredictor.from_config(
            PredictConfig(model=args.model, representation=args.representation)
        ).fit(campaigns)
        registry.save(predictor, name=args.tag)
        print(f"fitted and saved model tagged {args.tag!r}")
    return registry


def _cmd_fleet(args: argparse.Namespace) -> int:
    """Fit-or-load a model, start a sharded fleet, block until Ctrl-C."""
    from .fleet import FleetHandle

    registry = _fit_or_reuse(args)
    with FleetHandle(str(registry.root), args.n_shards, port=args.port) as fleet:
        print(
            f"fleet of {args.n_shards} shards serving {args.tag!r} on "
            f"127.0.0.1:{fleet.port} (Ctrl-C to stop)"
        )
        try:
            threading.Event().wait()
        except KeyboardInterrupt:
            print("stopping")
    return 0


def _cmd_models(args: argparse.Namespace) -> int:
    """Print the registry listing."""
    registry = ModelRegistry(args.root)
    listing = registry.available()
    if not listing:
        print(f"no models under {registry.root}")
        return 0
    for key, info in listing.items():
        tags = ",".join(info["tags"]) or "-"
        print(f"{key[:12]}  {info['class']}  tags={tags}  {info['size']}B")
    return 0


def main(argv=None) -> int:
    """Parse arguments and run the selected subcommand."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.serving",
        description="Online prediction serving for repro models.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    serve_p = sub.add_parser("serve", help="fit-or-load a model and serve it")
    serve_p.add_argument("--root", default=DEFAULT_MODEL_ROOT)
    serve_p.add_argument("--tag", default="default")
    serve_p.add_argument("--system", default="intel")
    serve_p.add_argument("--model", default="knn")
    serve_p.add_argument("--representation", default="pearsonrnd")
    serve_p.add_argument("--n-runs", type=int, default=300)
    serve_p.add_argument("--port", type=int, default=0)
    serve_p.set_defaults(func=_cmd_serve)

    fleet_p = sub.add_parser(
        "fleet", help="fit-or-load a model and serve it from a sharded fleet"
    )
    fleet_p.add_argument("--root", default=DEFAULT_MODEL_ROOT)
    fleet_p.add_argument("--tag", default="default")
    fleet_p.add_argument("--system", default="intel")
    fleet_p.add_argument("--model", default="knn")
    fleet_p.add_argument("--representation", default="pearsonrnd")
    fleet_p.add_argument("--n-runs", type=int, default=300)
    fleet_p.add_argument("--port", type=int, default=0)
    fleet_p.add_argument("--n-shards", type=int, default=2)
    fleet_p.set_defaults(func=_cmd_fleet)

    models_p = sub.add_parser("models", help="list stored models")
    models_p.add_argument("--root", default=DEFAULT_MODEL_ROOT)
    models_p.set_defaults(func=_cmd_models)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
