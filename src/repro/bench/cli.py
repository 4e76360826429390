"""Command line: regenerate the paper's figures as text tables.

Usage::

    python -m repro.bench --figure 8          # one figure
    python -m repro.bench --all               # everything (Figs 5-22)
    python -m repro.bench --list              # what exists
    python -m repro.bench --figure 12 --scale 0.01   # quick smoke run
    python -m repro.bench serve --clients 16  # multi-query serving bench
    python -m repro.bench serve --clients 64 --arrival-rate 8
    python -m repro.bench serve --clients 16 --devices 2  # sharded fleet
    python -m repro.bench serve --stream --arrivals 100000 --devices 2  # steady state

Wall-clock performance is measured by the repository benchmark,
``perfbench/run.py``, not by this command.
"""

from __future__ import annotations

import argparse
import sys

from repro.bench.figures import ALL_FIGURES


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    if argv and argv[0] == "serve":
        from repro.bench.serve_bench import serve_main

        return serve_main(argv[1:])

    parser = argparse.ArgumentParser(
        prog="repro-bench",
        description="Regenerate the evaluation figures of 'Hardware-conscious "
        "Hash-Joins on GPUs' (ICDE 2019) on the simulated testbed.",
    )
    parser.add_argument(
        "--figure",
        action="append",
        help="figure number (5-22) or name (fig08); repeatable",
    )
    parser.add_argument("--all", action="store_true", help="run every figure")
    parser.add_argument("--list", action="store_true", help="list figures")
    parser.add_argument(
        "--strategies",
        action="store_true",
        help="list the registered join strategies",
    )
    parser.add_argument(
        "--scale",
        type=float,
        default=1.0,
        help="shrink workload cardinalities by this factor (default 1.0)",
    )
    parser.add_argument(
        "--snapshot", metavar="FILE", help="store every figure's series as JSON"
    )
    parser.add_argument(
        "--compare", metavar="FILE", help="diff figures against a stored snapshot"
    )
    parser.add_argument(
        "--tolerance",
        type=float,
        default=0.05,
        help="relative tolerance for --compare (default 0.05)",
    )
    args = parser.parse_args(argv)

    if args.snapshot or args.compare:
        from repro.bench.compare import compare, snapshot
        from repro.errors import SnapshotError

        try:
            if args.snapshot:
                snapshot(args.snapshot, scale=args.scale)
                print(f"snapshot written to {args.snapshot}")
                return 0
            deviations = compare(args.compare, tolerance=args.tolerance)
        except SnapshotError as exc:
            parser.error(str(exc))
        for deviation in deviations:
            print(deviation)
        print(
            f"{len(deviations)} deviation(s) beyond relative tolerance "
            f"{args.tolerance:g}"
        )
        return 1 if deviations else 0

    if args.list:
        for name, fn in ALL_FIGURES.items():
            print(f"{name}: {fn.__doc__ or ''}".rstrip(": "))
        return 0

    if args.strategies:
        from repro.core import create_strategy, registered_strategies

        for key in registered_strategies():
            strategy = create_strategy(key)
            print(f"{key}: {strategy.name} ({type(strategy).__name__})")
        return 0

    names: list[str] = []
    if args.all or not args.figure:
        names = list(ALL_FIGURES)
    else:
        for item in args.figure:
            key = item if item.startswith("fig") else f"fig{int(item):02d}"
            if key not in ALL_FIGURES:
                parser.error(f"unknown figure: {item} (try --list)")
            names.append(key)

    for name in names:
        print(ALL_FIGURES[name](scale=args.scale).table())
        print()
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
