"""Throughput benchmark for the multi-query serving layer.

Sweeps offered concurrency (1–64 clients) over the deterministic mixed
workload of :mod:`repro.serve.workload` and reports queries/second,
per-query latency, and the speedup of the concurrent schedule over
serial back-to-back execution.  Every run audits its own report
(:func:`~repro.serve.audit.check_fault_invariants`: conservation, arena
bounds and drain, crash safety, retry budgets, deadline bits and, when
compaction is on, the retention bound), and the bench checks that the
schedule is bit-identical across repeated runs.  For the canonical
workload (default scale, one batch, bounded degradation) the
concurrent makespan must additionally never exceed the serial sum of
solo times, strictly beating it whenever queries actually overlapped.
Off-scale workloads only *report* the speedup: greedy FIFO
interleaving is subject to Graham scheduling anomalies, so tiny
workloads can lose a few percent to serial execution and that is a
measurement, not a bug.

Every run goes through
:meth:`~repro.serve.scheduler.QueryScheduler.run_online` (incremental
schedule extension; the tier-1 suites under ``tests/serve`` hold its
schedules to the batch re-simulation oracle).  ``--arrival-rate R``
spaces submissions ``1/R`` simulated seconds apart to model an open
arrival process.
``--devices K`` shards the fleet — per-device arenas and engines with
a placement policy (``--placement``, default least-loaded) choosing
the device per admission; ``--devices 1`` is bit-identical to the
historical single-device scheduler.

``--stream`` runs the steady-state streaming harness instead of the
concurrency sweep: ``--arrivals N`` open arrivals (default 100000) from
:func:`~repro.serve.workload.stream_workload` through
:meth:`~repro.serve.scheduler.QueryScheduler.run_stream`, with a
bounded wait queue (``--max-queue``), an optional admission-wait SLO
(``--slo``) and periodic schedule compaction (``--compact-every``).
The run's own audit covers it, the compaction guarantee included: the
peak retained schedule stays within a constant multiple of the
in-flight work.
``--max-wall`` and ``--max-shed-rate`` turn the run into a gate (exit
1 when exceeded); both are accepted only with ``--stream``.

Heterogeneous fleets: ``--device-caps GB,GB,...`` and
``--device-calib NAME,NAME,...`` give each device its own memory
capacity and calibration preset
(:data:`~repro.gpusim.calibration.CALIBRATION_PRESETS`); entry counts
must match ``--devices``.  ``--steal`` enables the cross-device
work-stealing pass.  Heterogeneous and stealing runs skip the
serial-baseline assertion (the baseline prices each query alone on a
full-size device under the default calibration; see
:func:`serial_baseline_applies`).

Admission policies: ``--admission`` picks the wait-queue ordering
policy (:mod:`repro.serve.admission`; default ``fifo``, bit-identical
to the historical scheduler), ``--classes`` stamps the workload with
the canonical deadline-bearing service classes
(:data:`~repro.serve.workload.DEADLINE_CLASSES` cycled across three
tenants) and ``--deadline-scale`` stretches or squeezes their
deadlines.  Classed runs report per-class/per-tenant latency and
deadline-miss rates; the serial-baseline assertion only applies to
unclassed FIFO runs
(reordering trades makespan for latency/deadline goals by design).

Fault injection: ``--faults`` derives a deterministic
:class:`~repro.serve.faults.FaultPlan` from ``--fault-seed`` (device
crashes over the run's horizon, never the whole fleet, plus transient
admission failures in ``--clients`` mode) and replays the run through
the scheduler's recovery path under a ``--max-retries`` budget.
Faulted runs skip the serial-baseline assertion (losing devices is
allowed to cost makespan); their audit counts failed queries in the
conservation check.  The process fails when ``--max-failed-rate`` is
exceeded — the CI chaos smoke bound, accepted only with ``--faults``.

Every mode prints its results; the only file the command writes is an
explicit ``--sample-store PATH``.  Wall-clock performance is measured
by the repository benchmark, ``perfbench/run.py``.

Run via the CLI (``python -m repro.bench serve --clients 16``,
``... serve --clients 16 --devices 2``,
``... serve --clients 64 --devices 2 --device-calib fast,slow``,
``... serve --stream --arrivals 100000 --devices 2``, or
``... serve --stream --arrivals 20000 --devices 2 --faults``) or call
:func:`run_serve` / :func:`sweep` / :func:`run_stream_bench` from
tests.
"""

from __future__ import annotations

import argparse
import time
from dataclasses import dataclass

from repro.core import estimate_cache
from repro.core.sample_store import SampleStore
from repro.errors import SampleStoreError, SchedulingError
from repro.gpusim.calibration import (
    CALIBRATION_PRESETS,
    Calibration,
    calibration_preset,
)
from repro.serve.admission import FIFO, registered_admission_policies
from repro.serve.audit import check_retention
from repro.serve.faults import FaultPlan
from repro.serve.placement import LEAST_LOADED, registered_placement_policies
from repro.serve.scheduler import QueryScheduler, ServeReport
from repro.serve.workload import (
    DEADLINE_CLASSES,
    classed_workload,
    mixed_workload,
    stream_workload,
)

#: Default offered-concurrency ladder for the sweep.
DEFAULT_CLIENTS = (1, 2, 4, 8, 16, 32, 64)

#: Defaults of the ``--stream`` harness.
DEFAULT_STREAM_ARRIVALS = 100_000
DEFAULT_STREAM_RATE = 200.0
DEFAULT_STREAM_QUEUE = 128
DEFAULT_STREAM_COMPACT = 256


@dataclass
class ServePoint:
    """One concurrency level's aggregated results."""

    clients: int
    makespan: float
    serial_makespan: float
    queries_per_second: float
    mean_latency: float
    p95_latency: float
    degraded: int
    peak_gb: float
    devices: int = 1
    p50_latency: float = 0.0
    p99_latency: float = 0.0
    stolen: int = 0

    @property
    def speedup(self) -> float:
        return self.serial_makespan / self.makespan if self.makespan > 0 else 0.0


def _has_cross_query_overlap(report: ServeReport) -> bool:
    """Did any two queries' tasks execute simultaneously?

    Batches whose admitted plans are all serial chains on the GPU queue
    (tiny workloads at small ``--scale``) cannot overlap at all; for
    them concurrent == serial is the correct result, not a failure.
    Queries on different fleet devices count as overlapping whenever
    their task windows intersect in time — that *is* the sharding win.
    """
    items = sorted(
        (item.start, item.finish, name.split(":", 1)[0])
        for name, item in report.schedule.tasks.items()
        if item.finish > item.start
    )
    for i, (start, finish, qid) in enumerate(items):
        for other_start, _, other_qid in items[i + 1 :]:
            if other_start >= finish:
                break
            if other_qid != qid:
                return True
    return False


def verify_report(
    report: ServeReport, *, clients: int, check_serial: bool = True
) -> None:
    """The serial-baseline check; raises on violation.  Every other
    guarantee was audited by the run that built ``report``.

    ``check_serial=False`` skips the comparison.  It is only asserted
    for the canonical benchmark workload (default scale, batched
    arrivals, bounded degradation): eager degradation
    (``max_degradation=None``) trades the guarantee away for admission
    throughput, and off-scale workloads can lose a few percent to
    Graham scheduling anomalies of the greedy FIFO interleaving —
    reported as a sub-1.0x speedup rather than raised.
    """
    if clients <= 1 or not check_serial:
        return
    # Concurrency may never lose to serial back-to-back execution
    # (submission-time-aware for staggered arrivals), and must strictly
    # win whenever queries actually ran side by side.
    serial = report.serial_makespan
    if report.makespan > serial * (1 + 1e-9):
        raise SchedulingError(
            f"concurrent makespan {report.makespan:.6f} s is worse than "
            f"serial back-to-back execution {serial:.6f} s at {clients} clients"
        )
    if _has_cross_query_overlap(report) and not report.makespan < serial:
        raise SchedulingError(
            f"queries overlapped yet concurrent makespan {report.makespan:.6f} s "
            f"did not beat serial execution {serial:.6f} s at {clients} clients"
        )


def fingerprint(report: ServeReport) -> list[tuple]:
    """Canonical per-query outcome fingerprint, used by every
    determinism and golden-schedule check (here and in ``tests/serve``).
    Deliberately device-blind so recorded single-device golden schedules
    stay comparable; sharded checks add :func:`fingerprint_sharded`."""
    return [
        (o.qid, o.strategy, o.reserved_bytes, o.admit_at, o.finish_at)
        for o in report.outcomes
    ]


def fingerprint_sharded(report: ServeReport) -> list[tuple]:
    """:func:`fingerprint` plus the placement device per query — the
    fingerprint sharded determinism checks compare."""
    return [
        (o.qid, o.device, o.strategy, o.reserved_bytes, o.admit_at, o.finish_at)
        for o in report.outcomes
    ]


def serial_baseline_applies(
    *,
    scale: float = 1.0,
    spacing_seconds: float = 0.0,
    bounded_degradation: bool = True,
    device_capacities: list[int] | None = None,
    device_calibrations: "list[Calibration | None] | None" = None,
    steal: bool = False,
    faulted: bool = False,
    admission: str = FIFO,
    classes: bool = False,
) -> bool:
    """Is a serve run held to the serial back-to-back baseline?

    The baseline prices each query alone on one full-size device under
    the default calibration, so only the canonical run (the defaults)
    is held to it.  A capped or slower fleet may lose to it, and so may
    a faulted run or a reordering policy, which trade makespan for
    other goals on purpose.  :func:`run_serve` asserts the baseline
    exactly when this holds; the CLI's ``verified:`` line claims it on
    the same condition.
    """
    return (
        scale == 1.0
        and spacing_seconds == 0.0
        and bounded_degradation
        and device_capacities is None
        and device_calibrations is None
        and not steal
        and not faulted
        and admission == FIFO
        and not classes
    )


def run_serve(
    clients: int,
    *,
    scale: float = 1.0,
    spacing_seconds: float = 0.0,
    devices: int = 1,
    placement: str = LEAST_LOADED,
    device_capacities: list[int] | None = None,
    device_calibrations: "list[Calibration | None] | None" = None,
    steal: bool = False,
    faults: FaultPlan | None = None,
    max_retries: int = 3,
    admission: str = FIFO,
    classes: bool = False,
    deadline_scale: float = 1.0,
    scheduler: QueryScheduler | None = None,
    check_determinism: bool = True,
) -> ServeReport:
    """Serve ``clients`` mixed queries through
    :meth:`~repro.serve.scheduler.QueryScheduler.run_online` and verify
    the guarantees, re-running once on a fresh scheduler when
    ``check_determinism``.  ``devices``/``placement`` and the
    heterogeneity knobs (``device_capacities`` / ``device_calibrations``
    / ``steal``) shard and diversify the fleet (ignored when an
    explicit ``scheduler`` is passed).  ``faults`` replays the run
    through the fault-injection path; faulted runs are still
    deterministic, so the re-run check holds for them too.
    ``admission`` picks the wait-queue ordering policy and ``classes``
    swaps in the deadline-classed canonical workload
    (:func:`~repro.serve.workload.classed_workload`, deadlines scaled
    by ``deadline_scale``).  The serial-baseline assertion applies only
    when :func:`serial_baseline_applies` holds for the run.
    """

    def workload():
        if classes:
            return classed_workload(
                clients,
                scale=scale,
                spacing_seconds=spacing_seconds,
                deadline_scale=deadline_scale,
            )
        return mixed_workload(
            clients, scale=scale, spacing_seconds=spacing_seconds
        )

    requests = workload()
    scheduler = scheduler or QueryScheduler(
        devices=devices,
        placement=placement,
        device_capacities=device_capacities,
        device_calibrations=device_calibrations,
        steal=steal,
        max_retries=max_retries,
        admission=admission,
    )
    report = scheduler.run_online(requests, faults=faults)
    canonical = serial_baseline_applies(
        scale=scale,
        spacing_seconds=spacing_seconds,
        bounded_degradation=scheduler.max_degradation is not None,
        device_capacities=scheduler.device_capacities,
        device_calibrations=scheduler.device_calibrations,
        steal=scheduler.steal,
        faulted=faults is not None and not faults.is_empty,
        admission=scheduler.admission,
        classes=classes,
    )
    verify_report(report, clients=clients, check_serial=canonical)
    if check_determinism:
        fresh = QueryScheduler(
            scheduler.system, scheduler.calibration, scheduler.config,
            lanes=scheduler.lanes, max_degradation=scheduler.max_degradation,
            devices=scheduler.devices, placement=scheduler.placement,
            device_capacities=scheduler.device_capacities,
            device_calibrations=scheduler.device_calibrations,
            steal=scheduler.steal,
            max_retries=scheduler.max_retries,
            retry_backoff_seconds=scheduler.retry_backoff_seconds,
            admission=scheduler.admission,
        )
        rerun = fresh.run_online(workload(), faults=faults)
        if fingerprint_sharded(rerun) != fingerprint_sharded(report):
            raise SchedulingError(
                f"serve schedule is non-deterministic at {clients} clients "
                f"on {scheduler.devices} device(s)"
            )
        if rerun.failed != report.failed:
            raise SchedulingError(
                f"faulted serve failures are non-deterministic at "
                f"{clients} clients on {scheduler.devices} device(s)"
            )
    return report


def sweep(
    levels: tuple[int, ...] = DEFAULT_CLIENTS,
    *,
    scale: float = 1.0,
    spacing_seconds: float = 0.0,
    devices: int = 1,
    placement: str = LEAST_LOADED,
    device_capacities: list[int] | None = None,
    device_calibrations: "list[Calibration | None] | None" = None,
    steal: bool = False,
    admission: str = FIFO,
    classes: bool = False,
    deadline_scale: float = 1.0,
    check_determinism: bool = True,
) -> list[ServePoint]:
    """Throughput/latency versus offered concurrency."""
    points: list[ServePoint] = []
    for clients in levels:
        report = run_serve(
            clients,
            scale=scale,
            spacing_seconds=spacing_seconds,
            devices=devices,
            placement=placement,
            device_capacities=device_capacities,
            device_calibrations=device_calibrations,
            steal=steal,
            admission=admission,
            classes=classes,
            deadline_scale=deadline_scale,
            check_determinism=check_determinism,
        )
        points.append(
            ServePoint(
                clients=clients,
                makespan=report.makespan,
                serial_makespan=report.serial_makespan,
                queries_per_second=report.queries_per_second,
                mean_latency=report.mean_latency,
                p95_latency=report.p95_latency,
                degraded=report.degraded_count,
                peak_gb=report.peak_reserved_bytes / 1e9,
                devices=report.devices,
                p50_latency=report.p50_latency,
                p99_latency=report.p99_latency,
                stolen=report.stolen_count,
            )
        )
    return points


def render_sweep(points: list[ServePoint]) -> str:
    sharded = any(p.devices > 1 for p in points)
    stealing = any(p.stolen > 0 for p in points)
    device_header = f" {'devs':>4s}" if sharded else ""
    stolen_header = f" {'stolen':>6s}" if stealing else ""
    lines = [
        f"{'clients':>7s}{device_header} {'q/s':>7s} {'makespan':>9s} "
        f"{'serial':>8s} {'speedup':>8s} {'mean lat':>9s} {'p50 lat':>8s} "
        f"{'p95 lat':>8s} {'p99 lat':>8s} {'degraded':>8s}{stolen_header} "
        f"{'peak GB':>8s}"
    ]
    for p in points:
        device_cell = f" {p.devices:4d}" if sharded else ""
        stolen_cell = f" {p.stolen:6d}" if stealing else ""
        lines.append(
            f"{p.clients:7d}{device_cell} {p.queries_per_second:7.2f} "
            f"{p.makespan:8.3f}s "
            f"{p.serial_makespan:7.3f}s {p.speedup:7.2f}x {p.mean_latency:8.3f}s "
            f"{p.p50_latency:7.3f}s {p.p95_latency:7.3f}s {p.p99_latency:7.3f}s "
            f"{p.degraded:8d}{stolen_cell} {p.peak_gb:8.2f}"
        )
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# Streaming harness
# ---------------------------------------------------------------------------
def verify_stream_report(
    report: ServeReport, *, compact_every: int | None
) -> None:
    """The compaction retention bound
    (:func:`~repro.serve.audit.check_retention`), which the run that
    built ``report`` has already audited along with everything else."""
    check_retention(report, compact_every)


def run_stream_bench(
    arrivals: int = DEFAULT_STREAM_ARRIVALS,
    *,
    arrival_rate: float = DEFAULT_STREAM_RATE,
    devices: int = 1,
    placement: str = LEAST_LOADED,
    max_queue_depth: int | None = DEFAULT_STREAM_QUEUE,
    slo_wait_seconds: float | None = None,
    compact_every: int | None = DEFAULT_STREAM_COMPACT,
    device_capacities: list[int] | None = None,
    device_calibrations: "list[Calibration | None] | None" = None,
    steal: bool = False,
    faults: FaultPlan | None = None,
    max_retries: int = 3,
    admission: str = FIFO,
    classes: bool = False,
    deadline_scale: float = 1.0,
    seed: int = 0,
) -> tuple[ServeReport, float]:
    """Run the steady-state streaming benchmark; returns (audited
    report, wall seconds).  The workload generator is lazy and the
    retained schedule is compacted, so memory stays O(in-flight) even
    at 10^5+ arrivals.  ``faults`` injects the plan's device crashes
    mid-stream.  ``admission`` picks the wait-queue ordering policy;
    ``classes`` stamps arrivals with the canonical deadline classes
    (same specs and arrival times — only the service contracts change),
    enabling deadline-expiry shedding and per-class reporting."""
    scheduler = QueryScheduler(
        devices=devices,
        placement=placement,
        device_capacities=device_capacities,
        device_calibrations=device_calibrations,
        steal=steal,
        max_retries=max_retries,
        admission=admission,
    )
    start = time.perf_counter()
    report = scheduler.run_stream(
        stream_workload(
            arrivals,
            arrival_rate=arrival_rate,
            seed=seed,
            classes=DEADLINE_CLASSES if classes else None,
            deadline_scale=deadline_scale,
        ),
        max_queue_depth=max_queue_depth,
        slo_wait_seconds=slo_wait_seconds,
        compact_every=compact_every,
        faults=faults,
    )
    wall = time.perf_counter() - start
    return report, wall


def parse_device_caps(text: str | None, devices: int) -> list[int] | None:
    """Parse ``--device-caps`` (comma-separated GB) into bytes.

    Raises :class:`ValueError` naming the flag on malformed numbers,
    non-positive entries, or an entry count that does not match
    ``--devices``.
    """
    if text is None:
        return None
    parts = [part.strip() for part in text.split(",")]
    try:
        caps_gb = [float(part) for part in parts]
    except ValueError:
        raise ValueError(
            f"--device-caps must be comma-separated numbers (GB), got "
            f"{text!r}"
        ) from None
    if len(caps_gb) != devices:
        raise ValueError(
            f"--device-caps has {len(caps_gb)} entries but --devices is "
            f"{devices}; give one capacity per device"
        )
    if any(cap <= 0 for cap in caps_gb):
        raise ValueError(
            f"--device-caps entries must be positive GB, got {text!r}"
        )
    return [int(cap * 1e9) for cap in caps_gb]


def parse_device_calib(
    text: str | None, devices: int
) -> "list[Calibration | None] | None":
    """Parse ``--device-calib`` (comma-separated preset names).

    Raises :class:`ValueError` naming the flag on an unknown preset or
    an entry count that does not match ``--devices``.
    """
    if text is None:
        return None
    names = [part.strip() for part in text.split(",")]
    if len(names) != devices:
        raise ValueError(
            f"--device-calib has {len(names)} entries but --devices is "
            f"{devices}; give one preset per device"
        )
    try:
        return [calibration_preset(name) for name in names]
    except ValueError as exc:
        raise ValueError(f"--device-calib: {exc}") from None


def serve_main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-bench serve",
        description="Multi-query GPU serving benchmark: queries/sec and "
        "latency versus offered concurrency on a simulated device fleet.",
    )
    parser.add_argument(
        "--clients",
        type=int,
        help="one concurrency level (prints the per-query schedule); "
        "omit to sweep the default ladder",
    )
    parser.add_argument(
        "--sweep",
        help="comma-separated concurrency levels (e.g. 1,4,16,64)",
    )
    parser.add_argument(
        "--scale",
        type=float,
        default=1.0,
        help="shrink workload cardinalities by this factor (default 1.0)",
    )
    parser.add_argument(
        "--spacing",
        type=float,
        default=0.0,
        help="seconds between query submissions (default 0: one batch)",
    )
    parser.add_argument(
        "--arrival-rate",
        type=float,
        default=None,
        metavar="R",
        help="offered arrival rate in queries per simulated second "
        "(submissions spaced 1/R apart; mutually exclusive with --spacing)",
    )
    parser.add_argument(
        "--devices",
        type=int,
        default=1,
        metavar="K",
        help="shard the fleet across K simulated GPUs, each with its own "
        "memory arena and pipeline engine (default 1: the classic "
        "single-device scheduler, bit-identical to pre-sharding output)",
    )
    parser.add_argument(
        "--placement",
        default=LEAST_LOADED,
        choices=registered_placement_policies(),
        help="device-placement policy for --devices > 1 "
        f"(default {LEAST_LOADED})",
    )
    parser.add_argument(
        "--device-caps",
        default=None,
        metavar="GB,GB,...",
        help="per-device memory capacities in GB, comma-separated; "
        "entry count must match --devices (default: every device gets "
        "the system's device memory)",
    )
    parser.add_argument(
        "--device-calib",
        default=None,
        metavar="NAME,NAME,...",
        help="per-device calibration presets, comma-separated "
        f"({', '.join(CALIBRATION_PRESETS)}); entry count must match "
        "--devices (default: the paper calibration on every device)",
    )
    parser.add_argument(
        "--steal",
        action="store_true",
        help="enable cross-device work stealing: an idle device may "
        "pull the best waiting query past a blocked FIFO head",
    )
    parser.add_argument(
        "--admission",
        default=FIFO,
        choices=registered_admission_policies(),
        help="wait-queue admission policy "
        f"(default {FIFO}, bit-identical to the historical scheduler)",
    )
    parser.add_argument(
        "--classes",
        action="store_true",
        help="stamp the workload with the canonical deadline-bearing "
        "service classes (interactive/standard/batch across three "
        "tenants): per-class latency and deadline-miss reporting, and "
        "streaming deadline-expiry shedding",
    )
    parser.add_argument(
        "--deadline-scale",
        type=float,
        default=1.0,
        metavar="FACTOR",
        help="multiply every class deadline by this factor "
        "(default 1.0; smaller = tighter SLOs)",
    )
    parser.add_argument(
        "--stream",
        action="store_true",
        help="steady-state streaming harness: bounded-queue admission "
        "with load shedding and schedule compaction over --arrivals "
        "open arrivals",
    )
    parser.add_argument(
        "--arrivals",
        type=int,
        default=DEFAULT_STREAM_ARRIVALS,
        help=f"stream length for --stream (default {DEFAULT_STREAM_ARRIVALS})",
    )
    parser.add_argument(
        "--max-queue",
        type=int,
        default=DEFAULT_STREAM_QUEUE,
        metavar="N",
        help="wait-queue depth cap for --stream; arrivals beyond it are "
        f"shed (default {DEFAULT_STREAM_QUEUE}; 0 = unbounded)",
    )
    parser.add_argument(
        "--slo",
        type=float,
        default=None,
        metavar="SECONDS",
        help="fleet-wide admission-wait SLO for --stream (simulated "
        "seconds); arrivals whose estimated wait exceeds it are shed "
        "(default: no SLO)",
    )
    parser.add_argument(
        "--compact-every",
        type=int,
        default=DEFAULT_STREAM_COMPACT,
        metavar="N",
        help="compact every device schedule after N releases "
        f"(default {DEFAULT_STREAM_COMPACT}; 0 disables compaction)",
    )
    parser.add_argument(
        "--seed",
        type=int,
        default=0,
        help="stream workload seed (default 0)",
    )
    parser.add_argument(
        "--faults",
        action="store_true",
        help="inject a deterministic crash-failure plan (derived from "
        "--fault-seed) and run recovery: lost queries retry on "
        "surviving devices, exhausted/stranded ones are recorded as "
        "failed; at least one device always survives",
    )
    parser.add_argument(
        "--fault-seed",
        type=int,
        default=0,
        metavar="SEED",
        help="seed the fault plan is derived from (default 0; same "
        "seed, same crashes)",
    )
    parser.add_argument(
        "--max-retries",
        type=int,
        default=3,
        metavar="N",
        help="per-query retry budget for fault recovery (default 3)",
    )
    parser.add_argument(
        "--max-failed-rate",
        type=float,
        default=None,
        metavar="FRACTION",
        help="fail when the fraction of arrivals that ended failed "
        "exceeds this bound (needs --faults)",
    )
    parser.add_argument(
        "--max-wall",
        type=float,
        default=None,
        metavar="SECONDS",
        help="fail when the --stream run exceeds this wall-clock time",
    )
    parser.add_argument(
        "--max-shed-rate",
        type=float,
        default=None,
        metavar="FRACTION",
        help="fail when the --stream shed rate exceeds this fraction",
    )
    parser.add_argument(
        "--sample-store",
        default=None,
        metavar="PATH",
        help="persistent cache store: warm-start the estimate/plan/"
        "ladder caches from PATH and append every entry this run "
        "computes (append-only JSONL, created on first use) — warm "
        "runs make bit-identical decisions to cold ones",
    )
    args = parser.parse_args(argv)

    if args.clients is not None and args.sweep:
        parser.error("--clients and --sweep are mutually exclusive")
    if args.clients is not None and args.clients <= 0:
        parser.error("--clients must be positive")
    if args.devices <= 0:
        parser.error("--devices must be positive")
    if args.stream and (args.clients is not None or args.sweep):
        parser.error("--stream and --clients/--sweep are mutually exclusive")
    if args.arrivals <= 0:
        parser.error("--arrivals must be positive")
    if args.max_retries < 0:
        parser.error("--max-retries must be >= 0")
    if args.faults and not args.stream and args.clients is None:
        parser.error("--faults needs --clients or --stream")
    # A bound outside its mode would be read by nothing and pass.
    if args.max_wall is not None and not args.stream:
        parser.error("--max-wall needs --stream")
    if args.max_shed_rate is not None and not args.stream:
        parser.error("--max-shed-rate needs --stream")
    if args.max_failed_rate is not None and not args.faults:
        parser.error("--max-failed-rate needs --faults")
    if args.max_queue < 0:
        parser.error("--max-queue must be >= 0 (0 = unbounded)")
    if args.compact_every < 0:
        parser.error("--compact-every must be >= 0 (0 disables compaction)")
    if args.faults and args.devices < 2:
        parser.error(
            "--faults needs --devices >= 2: at least one device must "
            "survive the crash plan"
        )
    if args.deadline_scale <= 0:
        parser.error("--deadline-scale must be positive")
    if args.arrival_rate is not None:
        if args.arrival_rate <= 0:
            parser.error("--arrival-rate must be positive")
        if args.spacing != 0.0:
            parser.error("--arrival-rate and --spacing are mutually exclusive")
        spacing = 1.0 / args.arrival_rate
    else:
        spacing = args.spacing
    try:
        device_capacities = parse_device_caps(args.device_caps, args.devices)
        device_calibrations = parse_device_calib(
            args.device_calib, args.devices
        )
    except ValueError as exc:
        parser.error(str(exc))

    store = None
    if args.sample_store:
        try:
            store = SampleStore.open(args.sample_store)
        except SampleStoreError as exc:
            parser.error(str(exc))
    try:
        if store is not None:
            # Serve cache misses from entries earlier processes
            # persisted, and persist every entry this run computes.
            estimate_cache.attach_store(store)
            print(f"sample store: {store.summary()}")
        return _serve_dispatch(
            parser, args, spacing, device_capacities, device_calibrations
        )
    finally:
        if store is not None:
            estimate_cache.detach_store()
            written = store.flush()
            print(
                f"sample store {args.sample_store}: {written} new "
                f"record(s) appended"
            )


def _serve_dispatch(
    parser: argparse.ArgumentParser,
    args: argparse.Namespace,
    spacing: float,
    device_capacities: list[int] | None,
    device_calibrations: "list[Calibration | None] | None",
) -> int:
    if args.stream:
        rate = args.arrival_rate if args.arrival_rate else DEFAULT_STREAM_RATE
        max_queue = args.max_queue if args.max_queue > 0 else None
        compact_every = args.compact_every if args.compact_every > 0 else None
        fault_plan = None
        if args.faults:
            # Crashes land anywhere inside the arrival window; the plan
            # always spares at least one device so the stream keeps
            # completing after the losses.
            fault_plan = FaultPlan.random(
                args.fault_seed,
                devices=args.devices,
                horizon=args.arrivals / rate,
                allow_total_loss=False,
            )
        report, wall = run_stream_bench(
            args.arrivals,
            arrival_rate=rate,
            devices=args.devices,
            placement=args.placement,
            max_queue_depth=max_queue,
            slo_wait_seconds=args.slo,
            compact_every=compact_every,
            device_capacities=device_capacities,
            device_calibrations=device_calibrations,
            steal=args.steal,
            faults=fault_plan,
            max_retries=args.max_retries,
            admission=args.admission,
            classes=args.classes,
            deadline_scale=args.deadline_scale,
            seed=args.seed,
        )
        classed_note = (
            f", {args.admission} admission over classed arrivals"
            if args.classes or args.admission != FIFO
            else ""
        )
        print(
            f"streaming admission: {args.arrivals} arrivals at {rate:g}/s "
            f"on {args.devices} device(s) ({args.placement} placement"
            f"{classed_note})"
        )
        if fault_plan is not None:
            crashes = ", ".join(
                f"device {c.device} at t={c.at:.3f}s"
                for c in fault_plan.crashes
            ) or "no crashes drawn"
            print(
                f"fault injection: seed {args.fault_seed}, {crashes}; "
                f"retry budget {args.max_retries}"
            )
        print(report.render())
        print(
            f"wall {wall:.2f} s ({args.arrivals / wall:.0f} arrivals/s "
            "processed)"
        )
        ends = "completed + shed" + (
            " + failed" if fault_plan is not None else ""
        )
        retention = (
            ", retained schedule bounded by in-flight work"
            if compact_every is not None
            else ""
        )
        print(
            "verified: every arena within capacity and drained, "
            f"{ends} == arrivals with distinct qids{retention}"
        )
        failed = False
        if args.max_wall is not None and wall > args.max_wall:
            print(
                f"FAIL: stream wall {wall:.2f} s exceeds ceiling "
                f"{args.max_wall:.2f} s"
            )
            failed = True
        if (
            args.max_shed_rate is not None
            and report.shed_rate > args.max_shed_rate
        ):
            print(
                f"FAIL: shed rate {report.shed_rate:.3f} exceeds bound "
                f"{args.max_shed_rate:.3f}"
            )
            failed = True
        if (
            args.max_failed_rate is not None
            and report.failed_rate > args.max_failed_rate
        ):
            print(
                f"FAIL: failed rate {report.failed_rate:.3f} exceeds "
                f"bound {args.max_failed_rate:.3f}"
            )
            failed = True
        return 1 if failed else 0

    canonical = serial_baseline_applies(
        scale=args.scale,
        spacing_seconds=spacing,
        device_capacities=device_capacities,
        device_calibrations=device_calibrations,
        steal=args.steal,
        faulted=args.faults,
        admission=args.admission,
        classes=args.classes,
    )
    mode = "online (incremental extension)"
    if args.devices > 1:
        mode += f", {args.devices} devices ({args.placement} placement)"
    if args.admission != FIFO:
        mode += f", {args.admission} admission"
    if args.classes:
        mode += (
            f", deadline-classed workload (scale {args.deadline_scale:g})"
        )
    if args.device_calib:
        mode += f", calibrations {args.device_calib}"
    if args.device_caps:
        mode += f", capacities {args.device_caps} GB"
    if args.steal:
        mode += ", work stealing"
    if args.faults:
        mode += f", fault injection (seed {args.fault_seed})"

    if args.clients is not None:
        fault_plan = None
        if args.faults:
            # Size the crash window from a fault-free baseline so the
            # drawn crash times actually land mid-run.
            baseline = run_serve(
                args.clients,
                scale=args.scale,
                spacing_seconds=spacing,
                devices=args.devices,
                placement=args.placement,
                device_capacities=device_capacities,
                device_calibrations=device_calibrations,
                steal=args.steal,
                admission=args.admission,
                classes=args.classes,
                deadline_scale=args.deadline_scale,
                check_determinism=False,
            )
            fault_plan = FaultPlan.random(
                args.fault_seed,
                devices=args.devices,
                horizon=baseline.makespan,
                qids=[f"q{i:03d}" for i in range(args.clients)],
                admission_fault_rate=0.1,
                allow_total_loss=False,
            )
        report = run_serve(
            args.clients,
            scale=args.scale,
            spacing_seconds=spacing,
            devices=args.devices,
            placement=args.placement,
            device_capacities=device_capacities,
            device_calibrations=device_calibrations,
            steal=args.steal,
            faults=fault_plan,
            max_retries=args.max_retries,
            admission=args.admission,
            classes=args.classes,
            deadline_scale=args.deadline_scale,
        )
        print(f"admission mode: {mode}")
        if fault_plan is not None:
            crashes = ", ".join(
                f"device {c.device} at t={c.at:.3f}s"
                for c in fault_plan.crashes
            ) or "no crashes drawn"
            print(
                f"fault injection: {crashes}; "
                f"{len(fault_plan.admission_failures)} queries with "
                f"transient admission failures; retry budget "
                f"{args.max_retries}"
            )
        print(report.render(per_query=True))
        if (
            args.max_failed_rate is not None
            and report.failed_count / args.clients > args.max_failed_rate
        ):
            print(
                f"FAIL: failed rate "
                f"{report.failed_count / args.clients:.3f} exceeds bound "
                f"{args.max_failed_rate:.3f}"
            )
            return 1
        if args.clients > 1 and canonical:
            print(
                "verified: deterministic, every arena within capacity and "
                "drained, concurrent no worse than serial (strictly "
                "better wherever queries overlapped)"
            )
        else:
            print("verified: deterministic, every arena within capacity and drained")
        return 0

    if args.sweep:
        try:
            levels = tuple(int(item) for item in args.sweep.split(","))
        except ValueError:
            parser.error(f"--sweep must be comma-separated integers: {args.sweep!r}")
        if any(level <= 0 for level in levels):
            parser.error("--sweep levels must be positive")
    else:
        levels = DEFAULT_CLIENTS
    points = sweep(
        levels,
        scale=args.scale,
        spacing_seconds=spacing,
        devices=args.devices,
        placement=args.placement,
        device_capacities=device_capacities,
        device_calibrations=device_calibrations,
        steal=args.steal,
        admission=args.admission,
        classes=args.classes,
        deadline_scale=args.deadline_scale,
    )
    print(f"admission mode: {mode}")
    print(render_sweep(points))
    if canonical:
        print(
            "verified: deterministic, every arena within capacity and "
            "drained, concurrent no worse than serial at every level "
            "(strictly better wherever queries overlapped)"
        )
    else:
        print("verified: deterministic, every arena within capacity and drained")
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(serve_main())
