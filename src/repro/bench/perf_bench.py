"""Tracked performance micro-benchmarks (``python -m repro.bench perf``).

Measures the wall-clock cost of the paths the cost-model fast path
accelerates, so the repo records a performance trajectory instead of
anecdotes:

* ``estimate_cold[<strategy>]`` — analytic ``estimate()`` latency per
  registered strategy on its regression reference workload, with the
  estimate cache cleared before every repetition (the kernel-formula
  fast path is what is being measured, not memoization);
* ``estimate_warm`` — cache-hit latency (the serving layer's admission
  re-planning path);
* ``fig12_cell_estimate`` — one full-scale co-processing estimate
  (2048 M-tuple build), the figure sweep's most expensive cell and the
  CI smoke's wall-clock ceiling;
* ``serve_online_wall[<clients>]`` — end-to-end scheduler wall time
  for the mixed serving workload through ``run_online`` on one device,
  caches cleared per repetition;
* ``serve_sharded_wall[<clients>]`` — the same workload across a
  two-device fleet (per-device arenas + engines, least-loaded
  placement); comparable against ``serve_online_wall`` to track the
  sharding layer's scheduling overhead;
* ``engine_tasks_per_sec`` — event-driven :class:`PipelineEngine`
  throughput on a synthetic double-buffered multi-query task graph.

Results are merged into ``BENCH_perf.json`` (:func:`merge_perf_json`,
which keeps the ``serve_*`` series other subcommands wrote) as
``name -> {wall_seconds, ops_per_sec, n}`` where ``wall_seconds`` is
the mean seconds per operation over ``n`` operations.  ``--quick``
shrinks repetitions for CI; ``--ceiling`` makes the run fail when the
fig12-scale estimate exceeds a wall-clock bound (a generous regression
tripwire, not a benchmark target).
"""

from __future__ import annotations

import argparse
import json
import os
import time
from dataclasses import asdict, dataclass

from repro.core import estimate_cache

#: Default output path (repo root when run from it, as CI does).
DEFAULT_OUT = "BENCH_perf.json"

#: fig12's largest cell: the 2048 M-tuple co-processing estimate.
FIG12_CELL_TUPLES = 2048 * 1_000_000


@dataclass
class PerfEntry:
    """One benchmark's aggregate: mean seconds/op and ops/second."""

    wall_seconds: float
    ops_per_sec: float
    n: int


def _measure(fn, *, repeats: int, ops_per_repeat: int = 1) -> PerfEntry:
    total = 0.0
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        total += time.perf_counter() - start
    ops = repeats * ops_per_repeat
    per_op = total / ops if ops else 0.0
    return PerfEntry(
        wall_seconds=per_op,
        ops_per_sec=(1.0 / per_op) if per_op > 0 else 0.0,
        n=ops,
    )


# ---------------------------------------------------------------------------
# Benchmarks
# ---------------------------------------------------------------------------
def bench_estimates(*, quick: bool) -> dict[str, PerfEntry]:
    from repro.bench.regress import reference_spec
    from repro.core import create_strategy, registered_strategies
    from repro.data import unique_pair

    repeats = 1 if quick else 3
    entries: dict[str, PerfEntry] = {}
    for key in registered_strategies():
        spec = reference_spec(key)

        def cold(key=key, spec=spec) -> None:
            estimate_cache.clear()
            create_strategy(key).estimate(spec)

        entries[f"estimate_cold[{key}]"] = _measure(cold, repeats=repeats)

    warm_spec = reference_spec("coprocessing")
    warm_strategy = create_strategy("coprocessing")
    warm_strategy.estimate(warm_spec)  # populate
    entries["estimate_warm"] = _measure(
        lambda: warm_strategy.estimate(warm_spec),
        repeats=200 if quick else 1000,
    )

    fig12_spec = unique_pair(FIG12_CELL_TUPLES)

    def fig12_cell() -> None:
        estimate_cache.clear()
        create_strategy("coprocessing").estimate(fig12_spec)

    entries["fig12_cell_estimate"] = _measure(fig12_cell, repeats=repeats)
    return entries


def bench_serve(*, quick: bool) -> dict[str, PerfEntry]:
    from repro.bench.serve_bench import run_serve

    levels = (4, 16) if quick else (4, 16, 64)
    variants = (
        ("serve_online_wall", {}),
        ("serve_sharded_wall", {"devices": 2}),
    )
    entries: dict[str, PerfEntry] = {}
    for name, kwargs in variants:
        for clients in levels:

            def serve(clients=clients, kwargs=kwargs) -> None:
                estimate_cache.clear()
                run_serve(clients, check_determinism=False, **kwargs)

            entries[f"{name}[{clients}]"] = _measure(serve, repeats=1)
    return entries


def bench_engine(*, quick: bool) -> dict[str, PerfEntry]:
    from repro.pipeline.engine import PipelineEngine
    from repro.pipeline.tasks import Task

    queries = 16 if quick else 64
    chunks = 32

    def build() -> PipelineEngine:
        engine = PipelineEngine({"h2d": 2, "gpu": 1, "d2h": 1, "cpu": 1})
        for q in range(queries):
            engine.add(Task(f"q{q}:cpu", "cpu", 1.0))
            for c in range(chunks):
                deps = [f"q{q}:cpu"] if c == 0 else [f"q{q}:h2d[{c - 1}]"]
                if c >= 2:
                    deps.append(f"q{q}:join[{c - 2}]")
                engine.add(Task(f"q{q}:h2d[{c}]", "h2d", 0.5, tuple(deps)))
                engine.add(
                    Task(f"q{q}:join[{c}]", "gpu", 0.3, (f"q{q}:h2d[{c}]",))
                )
                engine.add(
                    Task(f"q{q}:d2h[{c}]", "d2h", 0.1, (f"q{q}:join[{c}]",))
                )
        return engine

    n_tasks = queries * (1 + 3 * chunks)
    repeats = 3 if quick else 10
    engines = [build() for _ in range(repeats)]
    iterator = iter(engines)
    entry = _measure(
        lambda: next(iterator).run(), repeats=repeats, ops_per_repeat=n_tasks
    )
    return {"engine_tasks_per_sec": entry}


def run_perf(*, quick: bool = False) -> dict[str, PerfEntry]:
    """Run every micro-benchmark; returns ``name -> PerfEntry``."""
    entries: dict[str, PerfEntry] = {}
    entries.update(bench_estimates(quick=quick))
    entries.update(bench_serve(quick=quick))
    entries.update(bench_engine(quick=quick))
    return entries


def render(entries: dict[str, PerfEntry]) -> str:
    lines = [f"{'benchmark':34s} {'s/op':>12s} {'ops/s':>12s} {'n':>6s}"]
    for name, entry in entries.items():
        lines.append(
            f"{name:34s} {entry.wall_seconds:12.6f} "
            f"{entry.ops_per_sec:12.2f} {entry.n:6d}"
        )
    return "\n".join(lines)


def merge_perf_json(entries: dict[str, PerfEntry], path: str) -> None:
    """Merge ``entries`` into ``BENCH_perf.json`` at ``path``.

    The only writer of the file: ``perf`` and every ``serve`` mode add
    their own series and keep everyone else's.  The merged payload goes
    to a temporary file beside ``path`` that then replaces it, so a
    write that fails part-way leaves the previous file untouched.
    """
    payload: dict = {}
    if os.path.exists(path):
        with open(path) as handle:
            payload = json.load(handle)
    payload.update({name: asdict(entry) for name, entry in entries.items()})
    tmp = f"{path}.tmp"
    try:
        with open(tmp, "w") as handle:
            json.dump(payload, handle, indent=1, sort_keys=True)
            handle.write("\n")
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)


def perf_main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-bench perf",
        description="Micro-benchmarks of the cost-model fast path: "
        "estimate latency, serve wall time, engine throughput.",
    )
    parser.add_argument(
        "--quick", action="store_true", help="fewer repetitions (CI smoke)"
    )
    parser.add_argument(
        "--out",
        default=DEFAULT_OUT,
        help=f"JSON output path (default {DEFAULT_OUT}); '-' skips writing",
    )
    parser.add_argument(
        "--ceiling",
        type=float,
        default=None,
        metavar="SECONDS",
        help="fail when the fig12-scale estimate exceeds this wall time",
    )
    args = parser.parse_args(argv)

    entries = run_perf(quick=args.quick)
    print(render(entries))
    stats = estimate_cache.stats()
    print(
        "cache counters (hits/misses/evictions): estimate "
        f"{stats.hits}/{stats.misses}/{stats.evictions}, plan "
        f"{stats.plan_hits}/{stats.plan_misses}/{stats.plan_evictions}, "
        f"ladder {stats.ladder_hits}/{stats.ladder_misses}/"
        f"{stats.ladder_evictions} "
        f"(LRU cap {stats.max_entries} entries per cache)"
    )
    if args.out != "-":
        merge_perf_json(entries, args.out)
        print(f"written to {args.out}")
    if args.ceiling is not None:
        cell = entries["fig12_cell_estimate"].wall_seconds
        if cell > args.ceiling:
            print(
                f"FAIL: fig12-scale estimate took {cell:.3f} s "
                f"(> ceiling {args.ceiling:.3f} s)"
            )
            return 1
        print(
            f"fig12-scale estimate {cell:.3f} s within ceiling "
            f"{args.ceiling:.3f} s"
        )
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(perf_main())
