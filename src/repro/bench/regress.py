"""Equivalence harness guarding the strategy-registry refactor and the
cost-model fast path.

For one reference workload per registered strategy, compares the
simulated time produced by every entry point that must agree:

* **direct** — instantiating the strategy class itself, the original
  (pre-registry) entry point, which remains public API — computed with
  the estimate cache *disabled*, so it exercises the uncached path;
* **registry** — ``create_strategy(key)`` dispatch, the post-registry
  entry point used by the planner, executor and benchmarks; evaluated
  twice (cold cache, then cache hit) so a divergence between memoized
  and recomputed estimates trips the harness;
* **pipeline** — the decomposed ``simulate(prepare(spec))`` path,
  proving ``estimate`` is nothing but plan + engine simulation;
* **scanner** — the same plan simulated by the all-queue-heads
  reference scanner (:func:`repro.pipeline.oracle.run_reference`),
  pinning the engine's linear dispatch pass to its executable
  specification;
* **hand-summed** (serial strategies only) — when a plan's tasks all
  occupy one resource, the engine's makespan must equal the summed task
  durations the pre-engine implementation computed by hand.

Run as a module (``python -m repro.bench.regress``) for a table, or
call :func:`run_regression` from tests.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core import estimate_cache
from repro.core.strategy import (
    COPROCESSING,
    COPROCESSING_ADAPTIVE,
    GPU_NONPARTITIONED,
    GPU_NONPARTITIONED_PERFECT,
    GPU_RESIDENT,
    STREAMING,
    create_strategy,
    registered_strategies,
    strategy_factory,
)
from repro.data import Distribution, JoinSpec, RelationSpec, unique_pair
from repro.pipeline.oracle import run_reference

M = 1_000_000

#: One workload per strategy, sized for that strategy's regime.
DEFAULT_TOLERANCE = 1e-9


def reference_spec(key: str) -> JoinSpec:
    """A workload in the regime the strategy is designed for."""
    if key in (GPU_RESIDENT, GPU_NONPARTITIONED, GPU_NONPARTITIONED_PERFECT):
        return unique_pair(32 * M)
    if key == STREAMING:
        return JoinSpec(
            build=RelationSpec(n=64 * M),
            probe=RelationSpec(
                n=1024 * M, distinct=64 * M, distribution=Distribution.UNIFORM
            ),
        )
    if key in (COPROCESSING, COPROCESSING_ADAPTIVE):
        return unique_pair(512 * M)
    # New strategies default to a mid-sized resident workload.
    return unique_pair(32 * M)


@dataclass
class RegressRow:
    """Agreement of one strategy's entry points on its reference spec."""

    key: str
    direct_seconds: float
    registry_seconds: float
    pipeline_seconds: float
    handsum_seconds: float | None
    max_abs_diff: float
    cached_seconds: float = 0.0
    scanner_seconds: float = 0.0

    def ok(self, tolerance: float = DEFAULT_TOLERANCE) -> bool:
        return self.max_abs_diff <= tolerance


def run_regression(keys: tuple[str, ...] | None = None) -> list[RegressRow]:
    """Measure entry-point agreement for every (or the given) strategy."""
    from repro.pipeline.engine import PipelineEngine

    rows: list[RegressRow] = []
    for key in keys if keys is not None else registered_strategies():
        spec = reference_spec(key)

        # Uncached baseline: the memoization layer must be equivalence-
        # checked, not trusted, so `direct` bypasses it entirely.
        estimate_cache.clear()
        estimate_cache.configure(enabled=False)
        try:
            direct = strategy_factory(key)().estimate(spec).seconds
        finally:
            estimate_cache.configure(enabled=True)
        registry = create_strategy(key).estimate(spec).seconds  # cold cache
        cached = create_strategy(key).estimate(spec).seconds  # cache hit

        strategy = create_strategy(key)
        plan = strategy.prepare(spec)
        pipeline = strategy.simulate(plan).seconds

        engine = PipelineEngine(plan.resources)
        for task in plan.tasks:
            engine.add(task)
        scanner = strategy.metrics_from_schedule(
            plan, run_reference(engine)
        ).seconds

        handsum: float | None = None
        resources = {task.resource for task in plan.tasks}
        if len(resources) == 1:
            handsum = sum(task.duration for task in plan.tasks)

        candidates = [registry, cached, pipeline, scanner] + (
            [handsum] if handsum is not None else []
        )
        max_abs_diff = max(abs(direct - value) for value in candidates)
        rows.append(
            RegressRow(
                key=key,
                direct_seconds=direct,
                registry_seconds=registry,
                pipeline_seconds=pipeline,
                handsum_seconds=handsum,
                max_abs_diff=max_abs_diff,
                cached_seconds=cached,
                scanner_seconds=scanner,
            )
        )
    return rows


def render(rows: list[RegressRow], tolerance: float = DEFAULT_TOLERANCE) -> str:
    lines = [
        f"{'strategy':28s} {'direct (s)':>14s} {'registry (s)':>14s} "
        f"{'pipeline (s)':>14s} {'scanner (s)':>14s} {'max |diff|':>12s}  verdict"
    ]
    for row in rows:
        verdict = "ok" if row.ok(tolerance) else "DIVERGED"
        lines.append(
            f"{row.key:28s} {row.direct_seconds:14.9f} "
            f"{row.registry_seconds:14.9f} {row.pipeline_seconds:14.9f} "
            f"{row.scanner_seconds:14.9f} "
            f"{row.max_abs_diff:12.3e}  {verdict}"
        )
    return "\n".join(lines)


def main() -> int:
    rows = run_regression()
    print(render(rows))
    if not all(row.ok() for row in rows):
        return 1
    print(f"all {len(rows)} strategies agree within {DEFAULT_TOLERANCE:g} s")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
