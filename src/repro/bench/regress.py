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

The module also guards the serving layer (:func:`run_serve_regression`):
a small concurrency sweep must be deterministic, keep every device's
arena within capacity and drained, beat serial back-to-back execution,
and pass the **batch oracle**
(:func:`~repro.pipeline.oracle.check_batch_oracle`: re-simulating each
device's final task graph from scratch reproduces every task of the
incremental schedule) — on one device *and* on a two-device
sharded fleet, whose makespan must additionally never exceed the
single-device makespan — the invariants the scheduler promises on
every change.  :func:`run_stream_regression`
extends the same guarantee to steady-state streaming: on a mid-size
open-arrival stream, ``run_stream`` with aggressive schedule
compaction must match ``run_stream`` without compaction *and*
``run_online`` on every per-query outcome and the final makespan.
:func:`run_golden_regression` pins the heterogeneous-fleet refactor:
homogeneous fleets — the implicit default *and* explicitly spelled
per-device capacities/calibrations — must stay bit-identical to the
golden schedules recorded before per-device calibration existed.
:func:`run_fault_regression` pins the fault-injection layer the same
way: an **empty** :class:`~repro.serve.faults.FaultPlan` must stay
bit-identical to the golden schedules (the fault machinery may not
leak into fault-free runs), and crashy seeded plans must conserve
every query, reconcile every arena, and pass the batch oracle.
:func:`run_admission_regression` pins the admission-policy registry:
the default ``fifo`` policy must stay bit-identical to the golden
schedules, every reordering policy must pass the batch oracle on
classed workloads, ``edf`` must strictly reduce the deadline-miss rate
against ``fifo`` on the deadline-classed canonical workload, and
``sjf`` must never worsen its mean latency.
:func:`run_store_regression` pins the persisted cache store: a warm
start from a reloaded store file must reproduce the golden schedules
on one device and the cold pass on two, with every estimate, plan and
ladder miss answered by the store.
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
from repro.pipeline.oracle import check_batch_oracle, run_reference

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


#: Concurrency levels for the serving-determinism regression — small on
#: purpose: this runs on every PR.
SERVE_REGRESSION_CLIENTS = (1, 4, 8)


#: Fleet size of the sharded serving regression.
SERVE_REGRESSION_DEVICES = 2


def run_serve_regression(
    levels: tuple[int, ...] = SERVE_REGRESSION_CLIENTS,
) -> list[str]:
    """Assert the serving layer's invariants; returns report lines.

    Each level serves the mixed workload twice (determinism is checked
    inside :func:`repro.bench.serve_bench.run_serve`) and holds the
    report to :func:`check_batch_oracle`, then repeats both on a
    :data:`SERVE_REGRESSION_DEVICES`-device sharded fleet, whose
    makespan must never exceed the single-device makespan.  Any
    violation raises :class:`~repro.errors.SchedulingError`.
    """
    import time

    from repro.bench.serve_bench import run_serve
    from repro.errors import SchedulingError

    lines: list[str] = []
    for clients in levels:
        start = time.perf_counter()
        report = run_serve(clients, check_determinism=True)
        wall = time.perf_counter() - start
        start = time.perf_counter()
        tasks = check_batch_oracle(report)
        oracle_wall = time.perf_counter() - start
        lines.append(
            f"serve[{clients:2d} clients]: makespan {report.makespan:10.6f} s, "
            f"serial {report.serial_makespan:10.6f} s, peak "
            f"{report.peak_reserved_bytes / 1e9:.2f}/"
            f"{report.capacity_bytes / 1e9:.2f} GB, "
            f"{report.degraded_count} degraded, batch oracle {tasks} tasks "
            f"(wall {oracle_wall:.2f} s, serve {wall:.2f} s)  ok"
        )

        devices = SERVE_REGRESSION_DEVICES
        sharded = run_serve(clients, devices=devices, check_determinism=True)
        tasks = check_batch_oracle(sharded)
        if sharded.makespan > report.makespan * (1 + 1e-9):
            raise SchedulingError(
                f"sharding regressed the makespan at {clients} clients: "
                f"{devices} devices {sharded.makespan:.6f} s vs one device "
                f"{report.makespan:.6f} s"
            )
        lines.append(
            f"serve[{clients:2d} clients, {devices} devices]: makespan "
            f"{sharded.makespan:10.6f} s "
            f"({report.makespan / sharded.makespan:.2f}x vs one device), "
            f"peaks {'/'.join(f'{p / 1e9:.2f}' for p in sharded.device_peak_bytes)} GB, "
            f"batch oracle {tasks} tasks  ok"
        )
    return lines


#: Stream length of the compaction-equivalence regression — mid-size on
#: purpose: big enough for many compaction sweeps, small enough for
#: every PR.
STREAM_REGRESSION_ARRIVALS = 400


def run_stream_regression(
    arrivals: int = STREAM_REGRESSION_ARRIVALS,
) -> list[str]:
    """Assert compacted streaming == uncompacted == online; returns
    report lines.

    For a mid-size open-arrival stream on one device and on a
    :data:`SERVE_REGRESSION_DEVICES`-device fleet, runs
    :meth:`~repro.serve.scheduler.QueryScheduler.run_stream` twice —
    aggressive compaction versus compaction disabled — and
    :meth:`~repro.serve.scheduler.QueryScheduler.run_online` once on
    the same requests.  All three must produce **identical** per-query
    admissions, placements, reservations and finish times, and the
    same makespan: compaction must be pure bookkeeping, invisible in
    every outcome.  Any divergence raises
    :class:`~repro.errors.SchedulingError`.
    """
    from repro.errors import SchedulingError
    from repro.serve.scheduler import QueryScheduler
    from repro.serve.workload import stream_workload

    def outcome_fingerprint(outcomes) -> list[tuple]:
        return sorted(
            (o.qid, o.device, o.strategy, o.reserved_bytes,
             o.admit_at, o.finish_at)
            for o in outcomes
        )

    lines: list[str] = []
    for devices in (1, SERVE_REGRESSION_DEVICES):
        requests = list(
            stream_workload(arrivals, arrival_rate=120.0, seed=7)
        )
        compacted = QueryScheduler(devices=devices).run_stream(
            iter(requests), compact_every=16
        )
        uncompacted = QueryScheduler(devices=devices).run_stream(
            iter(requests), compact_every=None
        )
        online = QueryScheduler(devices=devices).run_online(requests)
        if compacted.shed or uncompacted.shed:
            raise SchedulingError(
                "stream regression must not shed (no queue cap, no SLO)"
            )
        if outcome_fingerprint(compacted.outcomes) != outcome_fingerprint(
            uncompacted.outcomes
        ):
            raise SchedulingError(
                f"compacted stream diverged from uncompacted at "
                f"{arrivals} arrivals on {devices} device(s)"
            )
        if outcome_fingerprint(compacted.outcomes) != outcome_fingerprint(
            online.outcomes
        ):
            raise SchedulingError(
                f"streaming admission diverged from run_online at "
                f"{arrivals} arrivals on {devices} device(s)"
            )
        if not (
            compacted.makespan == uncompacted.makespan == online.makespan
        ):
            raise SchedulingError(
                f"stream makespans diverged on {devices} device(s): "
                f"compacted {compacted.makespan!r}, uncompacted "
                f"{uncompacted.makespan!r}, online {online.makespan!r}"
            )
        if compacted.retired_tasks == 0:
            raise SchedulingError(
                "stream regression compacted run retired nothing — the "
                "equivalence check is vacuous"
            )
        lines.append(
            f"stream[{arrivals} arrivals, {devices} device(s)]: makespan "
            f"{compacted.makespan:10.6f} s, retained peak "
            f"{compacted.peak_retained_tasks} vs "
            f"{uncompacted.peak_retained_tasks} tasks uncompacted "
            f"({compacted.retired_tasks} retired in "
            f"{compacted.compactions} sweeps), compacted == uncompacted "
            "== online  ok"
        )
    return lines


#: Seed subset of the golden-schedule regression — every 10th recorded
#: seed; the full 200-seed sweep belongs to the property suite, this
#: column runs on every ``python -m repro.bench.regress``.
GOLDEN_REGRESSION_SEEDS = tuple(range(0, 200, 10))


def run_golden_regression(
    seeds: tuple[int, ...] = GOLDEN_REGRESSION_SEEDS,
) -> list[str]:
    """Assert homogeneous fleets survived the heterogeneity refactor
    bit-identically; returns report lines.

    Two columns per seed against the recorded pre-refactor golden
    schedules (``tests/serve/golden_single_device.json``):

    * ``devices=1`` (all per-device machinery on its defaults) must
      reproduce the golden fingerprint, makespan and peak exactly;
    * a two-device fleet with *explicitly spelled* homogeneous
      per-device arguments (``device_capacities=[cap, cap]``,
      ``device_calibrations=[None, None]``) must match the implicit
      ``devices=2`` default on every outcome — threading per-device
      state through estimates, plans and placement must be a no-op
      when the devices are equal.

    The canonical ``mixed_workload`` entries of the golden file are
    re-checked too.  Any divergence raises
    :class:`~repro.errors.SchedulingError`.
    """
    import json
    from pathlib import Path

    from repro.bench.serve_bench import fingerprint, fingerprint_sharded
    from repro.errors import SchedulingError
    from repro.serve.scheduler import QueryScheduler
    from repro.serve.workload import mixed_workload, random_workload

    golden_path = (
        Path(__file__).resolve().parents[3]
        / "tests" / "serve" / "golden_single_device.json"
    )
    golden = json.loads(golden_path.read_text(encoding="utf-8"))
    checked = 0
    for seed in seeds:
        entry = golden["seeds"][str(seed)]
        report = QueryScheduler(devices=1).run_online(random_workload(seed))
        if (
            [list(item) for item in fingerprint(report)]
            != entry["fingerprint"]
            or report.makespan != entry["makespan"]
            or report.peak_reserved_bytes != entry["peak_reserved_bytes"]
        ):
            raise SchedulingError(
                f"homogeneous devices=1 diverged from the recorded golden "
                f"schedule at seed {seed}"
            )
        capacity = report.capacity_bytes
        default_two = QueryScheduler(devices=2).run_online(
            random_workload(seed)
        )
        explicit_two = QueryScheduler(
            devices=2,
            device_capacities=[capacity, capacity],
            device_calibrations=[None, None],
        ).run_online(random_workload(seed))
        if (
            fingerprint_sharded(explicit_two)
            != fingerprint_sharded(default_two)
            or explicit_two.makespan != default_two.makespan
        ):
            raise SchedulingError(
                f"explicit homogeneous per-device arguments changed the "
                f"2-device schedule at seed {seed}"
            )
        checked += 1
    for name in sorted(golden["canonical"]):
        clients, spacing = name.split("x")
        report = QueryScheduler(devices=1).run_online(
            mixed_workload(int(clients), spacing_seconds=float(spacing))
        )
        if (
            [list(item) for item in fingerprint(report)]
            != golden["canonical"][name]["fingerprint"]
            or report.makespan != golden["canonical"][name]["makespan"]
        ):
            raise SchedulingError(
                f"canonical workload {name} diverged from the recorded "
                "golden schedule"
            )
    return [
        f"golden[{checked} seeds + {len(golden['canonical'])} canonical]: "
        "homogeneous fleets bit-identical to pre-refactor golden "
        "schedules; explicit per-device args are a no-op  ok"
    ]


#: Seeds of the fault-recovery regression's empty-plan identity column.
FAULT_REGRESSION_SEEDS = (0, 50, 150)


def run_fault_regression(
    seeds: tuple[int, ...] = FAULT_REGRESSION_SEEDS,
) -> list[str]:
    """Assert the fault-injection layer's two anchor contracts; returns
    report lines.

    * **Inertness** — ``faults=FaultPlan()`` must stay bit-identical to
      the recorded pre-fault golden schedules on ``devices=1`` (the
      empty plan takes the exact fault-free code path, so a divergence
      means the fault machinery leaked into unfaulted runs);
    * **Recovery** — a crashy seeded plan on a two-device fleet must
      conserve every query (``completed + failed == arrivals``), drain
      every arena (crash reservations reconciled), pass the batch
      oracle on every surviving device, and replay deterministically.

    Any violation raises :class:`~repro.errors.SchedulingError` (the
    scheduler's own :func:`~repro.serve.faults.check_fault_invariants`
    audit, a :class:`~repro.errors.FaultInvariantError`, is a subclass).
    """
    import json
    from pathlib import Path

    from repro.bench.serve_bench import fingerprint, fingerprint_sharded
    from repro.errors import SchedulingError
    from repro.serve.faults import FaultPlan
    from repro.serve.scheduler import QueryScheduler
    from repro.serve.workload import random_workload

    golden_path = (
        Path(__file__).resolve().parents[3]
        / "tests" / "serve" / "golden_single_device.json"
    )
    golden = json.loads(golden_path.read_text(encoding="utf-8"))
    for seed in seeds:
        entry = golden["seeds"][str(seed)]
        report = QueryScheduler(devices=1).run_online(
            random_workload(seed), faults=FaultPlan()
        )
        if (
            [list(item) for item in fingerprint(report)]
            != entry["fingerprint"]
            or report.makespan != entry["makespan"]
            or report.peak_reserved_bytes != entry["peak_reserved_bytes"]
            or report.failed
        ):
            raise SchedulingError(
                f"empty FaultPlan diverged from the recorded golden "
                f"schedule at seed {seed} — the fault machinery leaked "
                "into fault-free runs"
            )

    devices = SERVE_REGRESSION_DEVICES
    failures = 0
    retries = 0
    for seed in seeds:
        requests = random_workload(seed)
        base = QueryScheduler(devices=devices).run_online(
            random_workload(seed)
        )
        plan = FaultPlan.random(
            seed,
            devices=devices,
            horizon=base.makespan,
            qids=[request.qid for request in requests],
            admission_fault_rate=0.25,
        )
        online = QueryScheduler(devices=devices).run_online(
            random_workload(seed), faults=plan
        )
        check_batch_oracle(online, plan)
        replay = QueryScheduler(devices=devices).run_online(
            random_workload(seed), faults=plan
        )
        if (
            fingerprint_sharded(replay) != fingerprint_sharded(online)
            or replay.failed != online.failed
        ):
            raise SchedulingError(
                f"faulted run did not replay deterministically at seed "
                f"{seed}"
            )
        if len(online.outcomes) + len(online.failed) != len(requests):
            raise SchedulingError(
                f"fault plan seed {seed} lost queries: "
                f"{len(online.outcomes)} completed + "
                f"{len(online.failed)} failed != {len(requests)}"
            )
        for arena in online.arenas or ():
            arena.check_invariants()
            if not arena.drained:
                raise SchedulingError(
                    f"device {arena.device} arena did not drain under "
                    f"fault plan seed {seed}"
                )
        failures += len(online.failed)
        retries += sum(o.retries for o in online.outcomes)
    return [
        f"faults[{len(seeds)} seeds]: empty plan bit-identical to golden "
        f"schedules; crashy plans on {devices} devices conserved every "
        f"query ({failures} failed, {retries} retries), arenas "
        "reconciled, batch oracle, replay identical  ok"
    ]


#: Seeds of the admission regression's fifo-identity column.
ADMISSION_REGRESSION_SEEDS = (0, 70, 190)


def run_admission_regression(
    seeds: tuple[int, ...] = ADMISSION_REGRESSION_SEEDS,
) -> list[str]:
    """Assert the admission-policy registry's anchor contracts; returns
    report lines.

    * **Inertness** — ``admission="fifo"`` (the default, spelled
      explicitly) must stay bit-identical to the recorded pre-registry
      golden schedules on ``devices=1``: the policy hook may not
      perturb the default path;
    * **Equivalence** — under every registered policy the
      deadline-classed canonical workload on a two-device fleet must
      pass the batch oracle;
    * **Wins** — on :func:`~repro.serve.workload.classed_workload`
      (64 clients, one device) ``edf`` must *strictly* reduce the
      deadline-miss rate against ``fifo``, and ``sjf`` must never
      worsen the mean latency of the same 64 clients unclassed.

    Any violation raises :class:`~repro.errors.SchedulingError`.
    """
    import json
    from pathlib import Path

    from repro.bench.serve_bench import fingerprint
    from repro.errors import SchedulingError
    from repro.serve.admission import registered_admission_policies
    from repro.serve.scheduler import QueryScheduler
    from repro.serve.workload import (
        classed_workload,
        mixed_workload,
        random_workload,
    )

    golden_path = (
        Path(__file__).resolve().parents[3]
        / "tests" / "serve" / "golden_single_device.json"
    )
    golden = json.loads(golden_path.read_text(encoding="utf-8"))
    for seed in seeds:
        entry = golden["seeds"][str(seed)]
        report = QueryScheduler(devices=1, admission="fifo").run_online(
            random_workload(seed)
        )
        if (
            [list(item) for item in fingerprint(report)]
            != entry["fingerprint"]
            or report.makespan != entry["makespan"]
            or report.peak_reserved_bytes != entry["peak_reserved_bytes"]
        ):
            raise SchedulingError(
                f"fifo admission diverged from the recorded golden "
                f"schedule at seed {seed} — the policy hook perturbed "
                "the default path"
            )

    devices = SERVE_REGRESSION_DEVICES
    requests = classed_workload(16)
    for policy in registered_admission_policies():
        check_batch_oracle(
            QueryScheduler(devices=devices, admission=policy).run_online(
                requests
            )
        )

    fifo_classed = QueryScheduler(admission="fifo").run_online(
        classed_workload(64)
    )
    edf_classed = QueryScheduler(admission="edf").run_online(
        classed_workload(64)
    )
    if fifo_classed.deadline_miss_rate == 0.0:
        raise SchedulingError(
            "admission regression is vacuous: fifo missed no deadlines "
            "on the deadline-classed canonical workload"
        )
    if not edf_classed.deadline_miss_rate < fifo_classed.deadline_miss_rate:
        raise SchedulingError(
            f"edf did not strictly reduce the deadline-miss rate: "
            f"{edf_classed.deadline_miss_rate:.4f} vs fifo "
            f"{fifo_classed.deadline_miss_rate:.4f}"
        )
    fifo_mixed = QueryScheduler(admission="fifo").run_online(
        mixed_workload(64)
    )
    sjf_mixed = QueryScheduler(admission="sjf").run_online(
        mixed_workload(64)
    )
    if sjf_mixed.mean_latency > fifo_mixed.mean_latency * (1 + 1e-9):
        raise SchedulingError(
            f"sjf worsened mean latency on the canonical 64-client "
            f"workload: {sjf_mixed.mean_latency:.6f} s vs fifo "
            f"{fifo_mixed.mean_latency:.6f} s"
        )
    return [
        f"admission[{len(seeds)} seeds + {len(registered_admission_policies())} "
        f"policies]: fifo bit-identical to golden schedules; batch "
        f"oracle under every policy on classed workloads; edf miss rate "
        f"{edf_classed.deadline_miss_rate:.3f} < fifo "
        f"{fifo_classed.deadline_miss_rate:.3f}; sjf mean latency "
        f"{sjf_mixed.mean_latency:.3f} s <= fifo "
        f"{fifo_mixed.mean_latency:.3f} s  ok"
    ]


#: Seeds of the persisted-cache regression (cold and warm passes).
STORE_REGRESSION_SEEDS = (0, 60, 120, 180)


def run_store_regression(
    seeds: tuple[int, ...] = STORE_REGRESSION_SEEDS,
) -> list[str]:
    """Assert a warm start from the persisted cache store is exact;
    returns report lines.

    A cold pass serves the seed workloads on one and on
    :data:`SERVE_REGRESSION_DEVICES` devices with an empty LRU and a
    fresh file-backed :class:`~repro.core.sample_store.SampleStore`
    attached (``estimate_cache.attach_store``), then flushes it.  For
    each fleet size a warm pass then clears the LRU, reloads the file
    and serves the seeds again:

    * **Decision identity** — the one-device warm pass must reproduce
      the recorded golden schedules, and the multi-device warm pass the
      cold pass (sharded fingerprint and makespan);
    * **Store coverage** — every warm-pass miss of the estimate, plan
      and ladder caches must be answered by the store
      (``store_hits == misses`` for each), so a warm process computes
      nothing the cold one already persisted.

    Any violation raises :class:`~repro.errors.SchedulingError`.
    """
    import json
    import os
    import tempfile
    from pathlib import Path

    from repro.bench.serve_bench import fingerprint, fingerprint_sharded
    from repro.core.sample_store import SampleStore
    from repro.errors import SchedulingError
    from repro.serve.scheduler import QueryScheduler
    from repro.serve.workload import random_workload

    golden_path = (
        Path(__file__).resolve().parents[3]
        / "tests" / "serve" / "golden_single_device.json"
    )
    golden = json.loads(golden_path.read_text(encoding="utf-8"))
    fleets = (1, SERVE_REGRESSION_DEVICES)
    coverage = []
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "store.jsonl")
        store = SampleStore(path=path)
        estimate_cache.clear()
        estimate_cache.attach_store(store)
        try:
            cold = {
                (devices, seed): QueryScheduler(devices=devices).run_online(
                    random_workload(seed)
                )
                for devices in fleets
                for seed in seeds
            }
            store.flush()
            for devices in fleets:
                estimate_cache.clear()
                estimate_cache.attach_store(SampleStore.load(path))
                for seed in seeds:
                    warm = QueryScheduler(devices=devices).run_online(
                        random_workload(seed)
                    )
                    if devices == 1:
                        entry = golden["seeds"][str(seed)]
                        same = (
                            [list(item) for item in fingerprint(warm)]
                            == entry["fingerprint"]
                            and warm.makespan == entry["makespan"]
                            and warm.peak_reserved_bytes
                            == entry["peak_reserved_bytes"]
                        )
                        expected = "the recorded golden schedule"
                    else:
                        reference = cold[(devices, seed)]
                        same = (
                            fingerprint_sharded(warm)
                            == fingerprint_sharded(reference)
                            and warm.makespan == reference.makespan
                        )
                        expected = "the cold pass"
                    if not same:
                        raise SchedulingError(
                            f"warm start from the cache store diverged "
                            f"from {expected} at seed {seed} on "
                            f"{devices} device(s)"
                        )
                stats = estimate_cache.stats()
                counts = (
                    ("estimate", stats.store_hits, stats.misses),
                    ("plan", stats.plan_store_hits, stats.plan_misses),
                    ("ladder", stats.ladder_store_hits, stats.ladder_misses),
                )
                for cache, hits, misses in counts:
                    if hits != misses or misses == 0:
                        raise SchedulingError(
                            f"warm {cache} cache on {devices} device(s): "
                            f"the store answered {hits} of {misses} misses"
                        )
                coverage.append(
                    "/".join(str(hits) for _, hits, _ in counts)
                    + f" on {devices}"
                )
        finally:
            estimate_cache.detach_store()
    return [
        f"store[{len(seeds)} seeds]: warm start from the reloaded file "
        f"bit-identical to golden schedules on 1 device and to the cold "
        f"pass on {SERVE_REGRESSION_DEVICES}; every warm miss answered "
        f"by the store (estimate/plan/ladder {', '.join(coverage)} "
        f"device(s))  ok"
    ]


def main() -> int:
    rows = run_regression()
    print(render(rows))
    if not all(row.ok() for row in rows):
        return 1
    print(f"all {len(rows)} strategies agree within {DEFAULT_TOLERANCE:g} s")
    for line in run_serve_regression():
        print(line)
    print(
        "serving scheduler deterministic, every arena within capacity and "
        "drained, batch oracle holds, sharding never regresses the makespan"
    )
    for line in run_stream_regression():
        print(line)
    print(
        "streaming admission: compacted == uncompacted == online on every "
        "outcome; compaction is pure bookkeeping"
    )
    for line in run_golden_regression():
        print(line)
    print(
        "heterogeneous-fleet refactor: homogeneous fleets unchanged "
        "against the recorded golden schedules"
    )
    for line in run_fault_regression():
        print(line)
    print(
        "fault injection: empty plans inert, crashes recovered with "
        "exact conservation"
    )
    for line in run_admission_regression():
        print(line)
    print(
        "admission policies: fifo inert against the golden schedules, "
        "reordering policies pass the batch oracle and win their metrics"
    )
    for line in run_store_regression():
        print(line)
    print(
        "cache store: a warm start recomputes nothing and changes no "
        "decision"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
