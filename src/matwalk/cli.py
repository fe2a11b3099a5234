"""Command-line front end: run scenario files or built-ins, list the bundle."""

import argparse
import sys

from .errors import ConfigError, MatwalkError
from .runner import resolve_seed, run_scenario
from .scenarios import bundled_scenarios, load_config


def _thread_count(text):
    try:
        threads = int(text)
    except ValueError:
        threads = 0
    if threads < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {text!r}")
    return threads


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="matwalk",
        description="Random matrix-product experiments from scenario files.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run a scenario config file")
    run.add_argument("config", help="path to a YAML scenario file")

    sub.add_parser("list", help="list bundled scenarios")

    builtin = sub.add_parser("run-builtin", help="run a bundled scenario by name")
    builtin.add_argument("name", help="bundled scenario name (see 'list')")

    for p in (run, builtin):
        p.add_argument("--seed", type=int, default=None, help="master seed override")
        p.add_argument("--out", default=None, help="output directory")
        p.add_argument("--threads", type=_thread_count, default=1,
                       help="worker threads (wall time only, never output bytes)")
    return parser


def main(argv=None):
    args = _build_parser().parse_args(argv)
    if args.command == "list":
        for name, cfg in sorted(bundled_scenarios().items()):
            print(f"{name:32s} kind={cfg.kind}")
        return 0

    try:
        if args.command == "run":
            config = load_config(args.config)
        else:
            bundle = bundled_scenarios()
            if args.name not in bundle:
                raise ConfigError(
                    [f"unknown builtin scenario {args.name!r}; try 'matwalk list'"]
                )
            config = bundle[args.name]
        out = run_scenario(config, out_dir=args.out, seed=args.seed,
                           threads=args.threads)
    except ConfigError as exc:
        for problem in exc.problems:
            print(f"config error: {problem}", file=sys.stderr)
        return 2
    except OSError as exc:  # the config file cannot be read
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (MatwalkError, ValueError, MemoryError) as exc:
        # a library ValueError is a bad value met at run time, and a MemoryError
        # a run larger than this machine, not a crash
        seed = resolve_seed(config, args.seed)
        print(f"runtime error in scenario {config.name!r} (seed {seed}): "
              f"{str(exc) or type(exc).__name__}", file=sys.stderr)
        return 3
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
