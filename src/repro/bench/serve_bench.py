"""Throughput benchmark for the multi-query serving layer.

``python -m repro.bench serve`` builds one
:class:`~repro.serve.scheduler.QueryScheduler` from its fleet flags and
serves every run of the invocation on it, in one of three modes:

* ``--clients N`` serves ``N`` queries of the deterministic mixed
  workload of :mod:`repro.serve.workload` through :func:`run_serve` and
  prints the per-query schedule;
* ``--sweep L,L,...`` (or neither mode flag: 1–64 clients) serves one
  :func:`run_serve` report per concurrency level, one table row each
  (:func:`render_sweep`): queries/second, per-query latency and the
  speedup over serial back-to-back execution;
* ``--stream`` times one
  :meth:`~repro.serve.scheduler.QueryScheduler.run_stream` over
  ``--arrivals N`` open arrivals (default 100000) of
  :func:`~repro.serve.workload.stream_workload`: a bounded wait queue
  (``--max-queue``), an optional admission-wait SLO (``--slo``),
  periodic schedule compaction (``--compact-every``) and the workload
  ``--seed``.  ``--max-wall`` and ``--max-shed-rate`` turn the run into
  a gate (exit 1 when exceeded).

:func:`run_serve` serves a request list through
:meth:`~repro.serve.scheduler.QueryScheduler.run_online` (incremental
schedule extension; the tier-1 suites under ``tests/serve`` hold its
schedules to the batch re-simulation oracle), asserts the serial
baseline when asked (:func:`verify_report`), and serves the same list
again on the same scheduler to check that the schedule is
bit-identical; runs on one scheduler share only its immutable strategy
table, and each run resets the policies, so the re-run differs from
the run in nothing but its turn.  Every run audits its own report
(:func:`~repro.serve.audit.check_fault_invariants`: conservation, arena
bounds and drain, crash safety, retry budgets, deadline bits and, when
compaction is on, the retention bound).

Flags every mode reads shape the fleet and the workload:

* ``--devices K`` shards the fleet (per-device arenas and engines, a
  ``--placement`` policy choosing the device per admission, default
  least-loaded); ``--devices 1`` is bit-identical to the historical
  single-device scheduler;
* ``--device-caps GB,GB,...`` and ``--device-calib NAME,NAME,...`` give
  each device its own memory capacity and calibration preset
  (:data:`~repro.gpusim.calibration.CALIBRATION_PRESETS`), one entry per
  device; ``--steal`` enables cross-device work stealing;
* ``--admission`` picks the wait-queue ordering policy
  (:mod:`repro.serve.admission`; default ``fifo``, bit-identical to the
  historical scheduler); ``--classes`` stamps the workload with the
  canonical deadline-bearing service classes
  (:data:`~repro.serve.workload.DEADLINE_CLASSES` cycled across three
  tenants), and ``--deadline-scale`` stretches or squeezes their
  deadlines;
* ``--faults`` (with ``--clients`` or ``--stream``, on two or more
  devices) derives a deterministic :class:`~repro.serve.faults.FaultPlan`
  from ``--fault-seed``: device crashes over the run's horizon, never
  the whole fleet, plus transient admission failures with
  ``--clients``; lost queries retry under a ``--max-retries`` budget,
  and ``--max-failed-rate`` fails the process above its bound;
* ``--arrival-rate R`` offers ``R`` queries per simulated second
  (spacing ``1/R`` for ``--clients`` and ``--sweep``, which also take
  ``--scale`` and ``--spacing``);
* ``--sample-store PATH`` warm-starts the caches from ``PATH`` and
  appends what the run computes.

A flag outside its mode would be read by nothing, so it fails argument
parsing, naming the flag (:func:`parse_serve_args`); so does a NaN, which
passes every range check, or a value out of a flag's range.

The serial baseline prices each query alone, back to back, on one
full-size device under the default calibration, so only the canonical
workload is held to it (:func:`serial_baseline_applies`): default
scale, one batch, bounded degradation, ``fifo`` without classes, and a
homogeneous full-size fleet without stealing or a fault.  There the
concurrent makespan may never exceed it, and must beat it strictly
whenever queries overlapped.  Every other run only *reports* the
speedup: greedy FIFO interleaving is subject to Graham scheduling
anomalies, so tiny workloads can lose a few percent to serial
execution, and a capped, slower, reordering or faulted fleet trades
makespan for other goals on purpose.

Every mode prints its results; the only file the command writes is an
explicit ``--sample-store PATH``.  Wall-clock performance is measured
by the repository benchmark, ``perfbench/run.py``.

Run via the CLI (``python -m repro.bench serve --clients 16``,
``... serve --clients 16 --devices 2``,
``... serve --clients 64 --devices 2 --device-calib fast,slow``,
``... serve --stream --arrivals 100000 --devices 2``, or
``... serve --stream --arrivals 20000 --devices 2 --faults``) or call
:func:`run_serve` from tests.
"""

from __future__ import annotations

import argparse
import math
import time
from typing import Sequence

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
from repro.serve.scheduler import QueryRequest, QueryScheduler, ServeReport
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

#: Flags only one mode reads, by ``argparse`` dest, with that mode's
#: flag; outside the mode each would be read by nothing.
_MODE_FLAGS = (
    ("arrivals", "stream"),
    ("max_queue", "stream"),
    ("slo", "stream"),
    ("compact_every", "stream"),
    ("seed", "stream"),
    ("max_wall", "stream"),
    ("max_shed_rate", "stream"),
    ("deadline_scale", "classes"),
    ("fault_seed", "faults"),
    ("max_failed_rate", "faults"),
)

#: Each mode flag's default, resolved once the mode checks passed.
_FLAG_DEFAULTS = {
    "arrivals": DEFAULT_STREAM_ARRIVALS,
    "max_queue": DEFAULT_STREAM_QUEUE,
    "compact_every": DEFAULT_STREAM_COMPACT,
    "seed": 0,
    "scale": 1.0,
    "spacing": 0.0,
    "deadline_scale": 1.0,
    "fault_seed": 0,
}


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
    scheduler: QueryScheduler,
    *,
    scale: float,
    spacing_seconds: float,
    faults: FaultPlan | None,
    classes: bool,
) -> bool:
    """Is a serve run on ``scheduler`` held to the serial back-to-back
    baseline?

    The baseline prices each query alone on one full-size device under
    the default calibration, so only the canonical run is held to it:
    the default workload (``scale`` 1, no ``spacing_seconds``, no
    ``classes``) on a fleet of full-size default devices with bounded
    degradation, ``fifo`` admission, no stealing and no fault.  A capped
    or slower fleet may lose to it, and so may a faulted run or a
    reordering policy, which trade makespan for other goals on purpose.
    An empty fault plan faults nothing, so it does not count as one.
    """
    return (
        scale == 1.0
        and spacing_seconds == 0.0
        and scheduler.max_degradation is not None
        and scheduler.device_capacities is None
        and scheduler.device_calibrations is None
        and not scheduler.steal
        and (faults is None or faults.is_empty)
        and scheduler.admission == FIFO
        and not classes
    )


def run_serve(
    scheduler: QueryScheduler,
    requests: Sequence[QueryRequest],
    *,
    faults: FaultPlan | None = None,
    check_serial: bool = False,
) -> ServeReport:
    """Serve ``requests`` on ``scheduler`` through
    :meth:`~repro.serve.scheduler.QueryScheduler.run_online`, replaying
    the ``faults`` plan, and check the run.

    ``check_serial`` asserts the serial baseline (:func:`verify_report`);
    pass :func:`serial_baseline_applies` for the run.  The same requests
    are then served again on the same scheduler, which raises unless the
    device-aware fingerprint and the failed queries match; faulted runs
    are deterministic too.
    """
    report = scheduler.run_online(requests, faults=faults)
    clients = len(requests)
    verify_report(report, clients=clients, check_serial=check_serial)
    rerun = scheduler.run_online(requests, faults=faults)
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


def render_sweep(reports: list[ServeReport]) -> str:
    """One table row per :func:`run_serve` report of a sweep."""
    sharded = any(r.devices > 1 for r in reports)
    stealing = any(r.stolen_count > 0 for r in reports)
    device_header = f" {'devs':>4s}" if sharded else ""
    stolen_header = f" {'stolen':>6s}" if stealing else ""
    lines = [
        f"{'clients':>7s}{device_header} {'q/s':>7s} {'makespan':>9s} "
        f"{'serial':>8s} {'speedup':>8s} {'mean lat':>9s} {'p50 lat':>8s} "
        f"{'p95 lat':>8s} {'p99 lat':>8s} {'degraded':>8s}{stolen_header} "
        f"{'peak GB':>8s}"
    ]
    for r in reports:
        device_cell = f" {r.devices:4d}" if sharded else ""
        stolen_cell = f" {r.stolen_count:6d}" if stealing else ""
        lines.append(
            f"{r.arrivals:7d}{device_cell} {r.queries_per_second:7.2f} "
            f"{r.makespan:8.3f}s "
            f"{r.serial_makespan:7.3f}s {r.speedup:7.2f}x {r.mean_latency:8.3f}s "
            f"{r.p50_latency:7.3f}s {r.p95_latency:7.3f}s {r.p99_latency:7.3f}s "
            f"{r.degraded_count:8d}{stolen_cell} "
            f"{r.peak_reserved_bytes / 1e9:8.2f}"
        )
    return "\n".join(lines)


def verify_stream_report(
    report: ServeReport, *, compact_every: int | None
) -> None:
    """The compaction retention bound
    (:func:`~repro.serve.audit.check_retention`), which the run that
    built ``report`` has already audited along with everything else."""
    check_retention(report, compact_every)


def _number(text: str) -> float:
    """A float flag's value.  NaN fails every comparison, so it would
    pass each range check of :func:`parse_serve_args` and then crash the
    run or switch a bound off; it is refused here, naming the flag."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"invalid float value: {text!r}"
        ) from None
    if math.isnan(value):
        raise argparse.ArgumentTypeError(f"not a number: {text!r}")
    return value


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


def parse_serve_args(
    argv: list[str] | None = None,
) -> tuple[argparse.ArgumentParser, argparse.Namespace]:
    """Parse and check ``serve``'s arguments without running anything.

    Exits 2 through :meth:`argparse.ArgumentParser.error`, naming the
    flag, on a malformed value, conflicting modes, or a flag outside
    its mode.  Returns the parser (for later errors) and the arguments
    with every default resolved: ``spacing`` is the submission gap the
    ``--clients``/``--sweep`` workloads use (from ``--arrival-rate`` when
    given), ``arrival_rate`` the rate a ``--stream`` runs at,
    ``device_capacities``/``device_calibrations`` the parsed fleet, and
    ``levels`` the sweep's concurrency levels (``None`` outside a sweep).
    """
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
        type=_number,
        default=None,
        help="shrink workload cardinalities by this factor (default 1.0; "
        "not read by --stream)",
    )
    parser.add_argument(
        "--spacing",
        type=_number,
        default=None,
        help="seconds between query submissions (default 0: one batch; "
        "not read by --stream)",
    )
    parser.add_argument(
        "--arrival-rate",
        type=_number,
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
        type=_number,
        default=None,
        metavar="FACTOR",
        help="multiply every class deadline by this factor "
        "(needs --classes; default 1.0; smaller = tighter SLOs)",
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
        default=None,
        help=f"stream length for --stream (default {DEFAULT_STREAM_ARRIVALS})",
    )
    parser.add_argument(
        "--max-queue",
        type=int,
        default=None,
        metavar="N",
        help="wait-queue depth cap for --stream; arrivals beyond it are "
        f"shed (default {DEFAULT_STREAM_QUEUE}; 0 = unbounded)",
    )
    parser.add_argument(
        "--slo",
        type=_number,
        default=None,
        metavar="SECONDS",
        help="fleet-wide admission-wait SLO for --stream (simulated "
        "seconds); arrivals whose estimated wait exceeds it are shed "
        "(default: no SLO)",
    )
    parser.add_argument(
        "--compact-every",
        type=int,
        default=None,
        metavar="N",
        help="compact every device schedule after N releases, for "
        f"--stream (default {DEFAULT_STREAM_COMPACT}; 0 disables "
        "compaction)",
    )
    parser.add_argument(
        "--seed",
        type=int,
        default=None,
        help="stream workload seed for --stream (default 0)",
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
        default=None,
        metavar="SEED",
        help="seed the --faults plan is derived from (default 0; same "
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
        type=_number,
        default=None,
        metavar="FRACTION",
        help="fail when the fraction of arrivals that ended failed "
        "exceeds this bound (needs --faults)",
    )
    parser.add_argument(
        "--max-wall",
        type=_number,
        default=None,
        metavar="SECONDS",
        help="fail when the --stream run exceeds this wall-clock time",
    )
    parser.add_argument(
        "--max-shed-rate",
        type=_number,
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
    if args.max_retries < 0:
        parser.error("--max-retries must be >= 0")
    if args.faults and not args.stream and args.clients is None:
        parser.error("--faults needs --clients or --stream")
    # A flag outside its mode would be read by nothing and pass.
    for dest, mode in _MODE_FLAGS:
        if getattr(args, dest) is not None and not getattr(args, mode):
            parser.error(f"--{dest.replace('_', '-')} needs --{mode}")
    for dest in ("scale", "spacing"):
        if args.stream and getattr(args, dest) is not None:
            parser.error(f"--{dest} is not read by --stream")
    if args.arrival_rate is not None and args.spacing is not None:
        parser.error("--arrival-rate and --spacing are mutually exclusive")
    for dest, default in _FLAG_DEFAULTS.items():
        if getattr(args, dest) is None:
            setattr(args, dest, default)
    if args.arrivals <= 0:
        parser.error("--arrivals must be positive")
    if args.max_queue < 0:
        parser.error("--max-queue must be >= 0 (0 = unbounded)")
    if args.compact_every < 0:
        parser.error("--compact-every must be >= 0 (0 disables compaction)")
    if args.faults and args.devices < 2:
        parser.error(
            "--faults needs --devices >= 2: at least one device must "
            "survive the crash plan"
        )
    if not 0 < args.scale < math.inf:
        parser.error("--scale must be positive and finite")
    if not 0 <= args.spacing < math.inf:
        parser.error("--spacing must be >= 0 and finite")
    if args.slo is not None and args.slo < 0:
        parser.error("--slo must be >= 0")
    if args.deadline_scale <= 0:
        parser.error("--deadline-scale must be positive")
    if args.arrival_rate is not None:
        if args.arrival_rate <= 0:
            parser.error("--arrival-rate must be positive")
        args.spacing = 1.0 / args.arrival_rate
    else:
        args.arrival_rate = DEFAULT_STREAM_RATE
    try:
        args.device_capacities = parse_device_caps(
            args.device_caps, args.devices
        )
        args.device_calibrations = parse_device_calib(
            args.device_calib, args.devices
        )
    except ValueError as exc:
        parser.error(str(exc))
    args.levels = None
    if args.sweep:
        try:
            args.levels = tuple(int(item) for item in args.sweep.split(","))
        except ValueError:
            parser.error(f"--sweep must be comma-separated integers: {args.sweep!r}")
        if any(level <= 0 for level in args.levels):
            parser.error("--sweep levels must be positive")
    elif not args.stream and args.clients is None:
        args.levels = DEFAULT_CLIENTS
    return parser, args


def serve_main(argv: list[str] | None = None) -> int:
    parser, args = parse_serve_args(argv)
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
        scheduler = QueryScheduler(
            devices=args.devices,
            placement=args.placement,
            device_capacities=args.device_capacities,
            device_calibrations=args.device_calibrations,
            steal=args.steal,
            max_retries=args.max_retries,
            admission=args.admission,
        )
        if args.stream:
            return _serve_stream(scheduler, args)
        return _serve_online(scheduler, args)
    finally:
        if store is not None:
            estimate_cache.detach_store()
            written = store.flush()
            print(
                f"sample store {args.sample_store}: {written} new "
                f"record(s) appended"
            )


def _serve_stream(scheduler: QueryScheduler, args: argparse.Namespace) -> int:
    rate = args.arrival_rate
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
    compact_every = args.compact_every or None
    start = time.perf_counter()
    report = scheduler.run_stream(
        stream_workload(
            args.arrivals,
            arrival_rate=rate,
            seed=args.seed,
            classes=DEADLINE_CLASSES if args.classes else None,
            deadline_scale=args.deadline_scale,
        ),
        max_queue_depth=args.max_queue or None,
        slo_wait_seconds=args.slo,
        compact_every=compact_every,
        faults=fault_plan,
    )
    wall = time.perf_counter() - start
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
    ends = "completed + shed" + (" + failed" if fault_plan is not None else "")
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
    if args.max_shed_rate is not None and report.shed_rate > args.max_shed_rate:
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


def _workload(args: argparse.Namespace, clients: int) -> list[QueryRequest]:
    if args.classes:
        return classed_workload(
            clients,
            scale=args.scale,
            spacing_seconds=args.spacing,
            deadline_scale=args.deadline_scale,
        )
    return mixed_workload(
        clients, scale=args.scale, spacing_seconds=args.spacing
    )


def _serve_online(scheduler: QueryScheduler, args: argparse.Namespace) -> int:
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

    workloads = [
        _workload(args, clients) for clients in args.levels or (args.clients,)
    ]
    fault_plan = None
    if args.faults:
        # --faults comes with --clients, so there is one workload.  Size
        # the crash window from a fault-free run so the drawn crash
        # times actually land mid-run; that run is held to the serial
        # baseline wherever a fault-free run would be.
        fault_free = scheduler.run_online(workloads[0])
        verify_report(
            fault_free,
            clients=args.clients,
            check_serial=serial_baseline_applies(
                scheduler,
                scale=args.scale,
                spacing_seconds=args.spacing,
                faults=None,
                classes=args.classes,
            ),
        )
        fault_plan = FaultPlan.random(
            args.fault_seed,
            devices=args.devices,
            horizon=fault_free.makespan,
            qids=[request.qid for request in workloads[0]],
            admission_fault_rate=0.1,
            allow_total_loss=False,
        )
    serial = serial_baseline_applies(
        scheduler,
        scale=args.scale,
        spacing_seconds=args.spacing,
        faults=fault_plan,
        classes=args.classes,
    )
    reports = [
        run_serve(scheduler, requests, faults=fault_plan, check_serial=serial)
        for requests in workloads
    ]
    print(f"admission mode: {mode}")
    if args.levels is not None:
        print(render_sweep(reports))
    else:
        report = reports[0]
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
        failed_rate = report.failed_count / args.clients
        if args.max_failed_rate is not None and failed_rate > args.max_failed_rate:
            print(
                f"FAIL: failed rate {failed_rate:.3f} exceeds bound "
                f"{args.max_failed_rate:.3f}"
            )
            return 1
    verified = "verified: deterministic, every arena within capacity and drained"
    if serial and (args.levels is not None or args.clients > 1):
        verified += (
            ", concurrent no worse than serial"
            + (" at every level" if args.levels is not None else "")
            + " (strictly better wherever queries overlapped)"
        )
    print(verified)
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(serve_main())
