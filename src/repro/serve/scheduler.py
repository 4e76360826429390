"""Admission-controlled multi-query scheduling on a simulated GPU fleet.

The single-query planner answers "which join strategy fits this
workload on an idle device?".  Serving inverts the question: many
queries contend for device memory and copy/exec lanes, and the right
strategy for a query depends on how much memory is free *when it is
admitted* — and, on a sharded fleet, *where*.  The scheduler:

* keeps a FIFO of submitted queries and a
  :class:`~repro.serve.placement.DeviceFleet` of K devices, each with
  its own :class:`~repro.gpusim.arena.DeviceMemoryArena` and its own
  :class:`~repro.pipeline.engine.PipelineEngine` (``devices=1``, the
  default, is the classic single-GPU scheduler, bit-identical to the
  pre-sharding implementation);
* on admission, asks the :class:`~repro.serve.placement.PlacementPolicy`
  to pick among the devices that can host the query's *unconstrained*
  solo placement right now (its footprint, from the run's profile of
  the request, fits the device's headroom).  Only when no device can
  is the planner ladder walked against each device's headroom
  (:func:`~repro.core.planner.ladder_rung`), and the best degraded
  placement across the fleet (by alone-estimate) competes with
  the fleet-wide estimated wait: a query degrades only when the
  cheaper placement is within ``max_degradation`` of its solo makespan
  *and* starting now beats queueing for the memory the solo placement
  wants on whichever device frees it first;
* lowers every admitted query's :class:`JoinPlan` into **its device's**
  engine — the plan's template, lowered once per plan, admitted under
  the query id as task-name prefix, tagged with the device and released
  at the admission time — so H2D/D2H/GPU resource lanes interleave
  across co-resident queries per device;
* releases the reservation at the query's simulated finish time, which
  is the event that admits the next waiting query.

One event loop applies that admission policy, with two entry points:
:meth:`QueryScheduler.run_online` serves a request list to completion
(no shedding, every device's full schedule kept in the report), and
:meth:`QueryScheduler.run_stream` consumes an iterator with
bounded-queue admission, load shedding and periodic schedule
compaction, built for steady-state runs of 10^5+ arrivals.  Each
admission wave extends the placed device's schedule incrementally via
:meth:`~repro.pipeline.engine.PipelineEngine.extend`, each device
carrying its own ``lane_state``.  With shedding and compaction off the
two entry points produce identical outcomes, failures and makespans.
The report's ``makespan`` is the fleet's schedule makespan: the
latest finish of any task on any device.  Re-simulating each device's
final task graph from scratch — the batch oracle in
:mod:`repro.pipeline.oracle` — must reproduce every task's start,
finish and lane.

The fleet may be **heterogeneous and elastic**.  Each device carries
its own :class:`~repro.gpusim.calibration.Calibration`
(``QueryScheduler(device_capacities=..., device_calibrations=...)``),
and every estimate, plan and placement comparison for a candidate
device is made under *that device's* calibration — the process-wide
estimate/plan caches key on the calibration through the strategy
fingerprint, so cached entries never cross devices.  Timed
:class:`~repro.serve.placement.FleetEvent` lists (``fleet_events=`` on
every run method) add or retire devices *between* admissions: a
retiring device finishes its in-flight queries and then its engine is
sealed.  An opt-in work-stealing pass (``steal=True``) lets an idle
device bypass head-of-line blocking by re-placing the best waiting
query behind the blocked head, using the same cached estimates.  All
of it stays deterministic, and a homogeneous fleet with no events and
no stealing is bit-identical to the pre-heterogeneity scheduler.

Failures are injectable.  A :class:`~repro.serve.faults.FaultPlan`
(``faults=`` on every run method) schedules ungraceful device crashes
and transient admission failures; lost queries are retried through the
shared admission path under a per-query budget, exhausted budgets and
fleet loss are recorded as :class:`~repro.serve.faults.FailedOutcome`
(the third outcome class next to completed and shed).  An empty plan
(or ``faults=None``) takes the exact fault-free code path —
bit-identical to the recorded golden schedules.  Every run, faulted or
not, is audited by :func:`~repro.serve.faults.check_fault_invariants`.

The simulation is deterministic: identical request lists produce
identical schedules, admissions, placements and latencies, for any
device count, calibration mix, event list, fault plan and placement
policy.
"""

from __future__ import annotations

import heapq
import math
from collections import deque
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Iterator

from repro.core.config import GpuJoinConfig
from repro.core.planner import (
    PLANNER_LADDER,
    choose_strategy_name,
    ladder_footprints,
    ladder_rung,
)
from repro.core.strategy import (
    COPROCESSING,
    COPROCESSING_ADAPTIVE,
    JoinPlan,
    JoinStrategy,
    create_strategy,
)
from repro.data.spec import JoinSpec
from repro.errors import InvalidConfigError, SchedulingError
from repro.gpusim.arena import DeviceMemoryArena
from repro.gpusim.calibration import Calibration
from repro.gpusim.spec import SystemSpec
from repro.pipeline.engine import Admission, PipelineEngine, Wave
from repro.pipeline.tasks import Schedule
from repro.serve.admission import (
    AdmissionContext,
    AdmissionPolicy,
    FIFO,
    QueryClass,
    class_name_of,
    create_admission_policy,
    hard_deadline,
    tenant_of,
)
from repro.serve.faults import (
    FailedOutcome,
    FaultPlan,
    _FaultRun,
    check_fault_invariants,
)
from repro.serve.placement import (
    LEAST_LOADED,
    DeviceFleet,
    DeviceState,
    FleetEvent,
    PlacementCandidate,
    PlacementPolicy,
    create_placement_policy,
    validate_fleet_events,
)


def percentile(
    values: "Iterable[float]", q: float, *, empty: float | None = 0.0
) -> float | None:
    """Nearest-rank percentile: the smallest value with at least ``q``
    of the population at or below it (``rank = ceil(q*n) - 1`` into the
    sorted list, clamped).  This is the convention
    :attr:`ServeReport.p95_latency` has always used — every latency /
    queue-depth percentile in the serving layer goes through this one
    helper so reports and benches can't drift apart.  Returns ``empty``
    for an empty population — 0.0 by default (the report-level
    convention, pinned by the stream property suite), but group-level
    stats pass ``empty=None`` so a class with zero completed queries
    reports *no* latency rather than a fake 0.0 one."""
    ordered = sorted(values)
    if not ordered:
        return empty
    rank = math.ceil(q * len(ordered)) - 1
    return ordered[max(0, min(len(ordered) - 1, rank))]


def _check_simulable(capacity: int, system: SystemSpec, what: str) -> None:
    """Reject a device the cost model cannot simulate: admission plans
    against the device's arena capacity, but every strategy checks its
    working set against ``system.gpu.device_memory``, so a larger arena
    would admit plans that then overflow mid-run."""
    limit = system.gpu.device_memory
    if capacity > limit:
        raise InvalidConfigError(
            f"{what} is {capacity} bytes, more than the simulated GPU's "
            f"{limit} bytes of device memory; the cost model cannot "
            "simulate a larger device"
        )


def _fmt_secs(value: float | None) -> str:
    """Render a possibly-absent latency: ``n/a`` when the group it
    aggregates is empty (None), else seconds to ms precision."""
    return "n/a" if value is None else f"{value:.3f}"


@dataclass(frozen=True)
class ClassStats:
    """Latency and deadline aggregates for one service class or tenant.

    Latencies are **simulated seconds** over the completed queries in
    the group (percentiles via :func:`percentile`, the serving layer's
    one nearest-rank helper) — or ``None`` when the group completed
    nothing (e.g. a class whose every query was shed at deadline
    expiry), rendered as ``n/a``: an explicit absence, never a fake 0.0
    latency.  ``deadline_count`` is the completed queries carrying a
    finite hard deadline, ``deadline_missed`` how many of those
    finished past it, and ``deadline_expired`` the queued queries
    streaming shed at deadline expiry (always 0 for ``run_online``,
    which never sheds).
    """

    count: int
    mean_latency: float | None
    p50_latency: float | None
    p99_latency: float | None
    deadline_count: int
    deadline_missed: int
    deadline_expired: int = 0

    @property
    def deadline_miss_rate(self) -> float:
        """Missed-plus-expired over every deadline-bearing query that
        reached a terminal state (0.0 when the group has no deadlines).
        An expired shed counts as a miss: the query never ran, which is
        the worst way to miss a deadline."""
        total = self.deadline_count + self.deadline_expired
        if total == 0:
            return 0.0
        return (self.deadline_missed + self.deadline_expired) / total


def _group_class_stats(
    outcomes: "Iterable[QueryOutcome]",
    key: str,
    shed: "Iterable[ShedOutcome] | None" = None,
) -> dict[str, ClassStats]:
    """Group by ``key`` (``"class_name"`` or ``"tenant"``) into
    :class:`ClassStats`, labels sorted.  ``shed`` (stream reports) adds
    ``deadline_expired`` sheds to the label they were admitted under —
    conservation audits can then attribute every shed per class."""
    groups: dict[str, list[QueryOutcome]] = {}
    for outcome in outcomes:
        groups.setdefault(getattr(outcome, key), []).append(outcome)
    expired: dict[str, int] = {}
    for item in shed or ():
        if item.reason == "deadline_expired":
            label = getattr(item, key)
            expired[label] = expired.get(label, 0) + 1
            groups.setdefault(label, [])
    stats: dict[str, ClassStats] = {}
    for label in sorted(groups):
        members = groups[label]
        latencies = [o.latency_seconds for o in members]
        stats[label] = ClassStats(
            count=len(members),
            mean_latency=(
                sum(latencies) / len(latencies) if latencies else None
            ),
            p50_latency=percentile(latencies, 0.50, empty=None),
            p99_latency=percentile(latencies, 0.99, empty=None),
            deadline_count=sum(
                1 for o in members if o.deadline_at != math.inf
            ),
            deadline_missed=sum(1 for o in members if o.deadline_missed),
            deadline_expired=expired.get(label, 0),
        )
    return stats


@dataclass(frozen=True)
class QueryRequest:
    """One client query: a join workload submitted at a point in time.

    ``submit_at`` is the arrival time in **simulated seconds** (the
    clock the scheduler and engine share), not wall clock.
    ``slo_wait_seconds`` is this query's own admission-wait ceiling for
    :meth:`QueryScheduler.run_stream` (simulated seconds; overrides the
    stream-wide default; ignored by :meth:`QueryScheduler.run` /
    :meth:`~QueryScheduler.run_online`, which never shed).
    """

    qid: str
    spec: JoinSpec
    submit_at: float = 0.0
    materialize: bool = False
    #: Pin a registry strategy key, bypassing admission-time planning.
    strategy: str | None = None
    #: Per-query SLO on estimated admission wait (simulated seconds);
    #: ``None`` defers to ``run_stream``'s fleet-wide default.
    slo_wait_seconds: float | None = None
    #: Service class (:class:`~repro.serve.admission.QueryClass`):
    #: priority/tenant for the admission policies, hard deadline for
    #: miss accounting and streaming deadline expiry, and an optional
    #: per-class degrade-vs-wait override.  ``None`` = the default
    #: class (no deadline, tenant ``"default"``).  A fault-retried
    #: query re-enters the queue carrying this same class.
    query_class: QueryClass | None = None

    def __post_init__(self) -> None:
        if not self.qid:
            raise InvalidConfigError("query id must be non-empty")
        # Negated comparisons, so NaN fails them too.
        if not 0 <= self.submit_at < math.inf:
            raise InvalidConfigError(
                f"{self.qid}: submit_at must be finite and >= 0, got "
                f"{self.submit_at!r}"
            )
        slo = self.slo_wait_seconds
        if slo is not None and not slo >= 0:
            raise InvalidConfigError(
                f"{self.qid}: negative slo_wait_seconds or NaN ({slo!r}); "
                "it must be >= 0, or inf to never shed"
            )
        if self.query_class is not None and not isinstance(
            self.query_class, QueryClass
        ):
            raise InvalidConfigError(
                f"{self.qid}: query_class must be a QueryClass, got "
                f"{type(self.query_class).__name__}"
            )


@dataclass
class QueryOutcome:
    """How one query fared: placement, timing, and memory.

    ``reserved_bytes`` is the arena grant in **bytes**; every ``*_at``
    / ``*_seconds`` field is in **simulated seconds**.  ``device`` is
    the fleet device the query ran on (always 0 with ``devices=1``).
    """

    qid: str
    strategy: str
    solo_strategy: str
    reserved_bytes: int
    submit_at: float
    admit_at: float
    finish_at: float = 0.0
    #: Makespan of this query run alone on an idle device with the
    #: planner's unconstrained choice — the serial-execution baseline
    #: (always under the scheduler's *default* calibration, so serial
    #: baselines stay comparable across heterogeneous fleets).
    solo_seconds: float = 0.0
    device: int = 0
    #: The query was admitted by the work-stealing pass: an idle device
    #: pulled it past a blocked FIFO head (``steal=True`` runs only).
    stolen: bool = False
    #: How many times this query was re-admitted after a device crash
    #: or transient admission failure before completing (0 on the
    #: fault-free path; never exceeds the scheduler's ``max_retries``).
    retries: int = 0
    #: Service-class label and tenant the query was admitted under
    #: (``"default"`` for unclassed queries).
    class_name: str = "default"
    tenant: str = "default"
    #: Absolute hard deadline in simulated seconds (``inf`` = none).
    deadline_at: float = math.inf
    #: Recorded at release: did the query finish past ``deadline_at``?
    #: Stored rather than derived so :func:`check_fault_invariants` can
    #: audit the recording itself.
    deadline_missed: bool = False

    @property
    def wait_seconds(self) -> float:
        return self.admit_at - self.submit_at

    @property
    def latency_seconds(self) -> float:
        return self.finish_at - self.submit_at

    @property
    def degraded(self) -> bool:
        """Did memory pressure force a cheaper placement than solo?"""
        return self.strategy != self.solo_strategy


@dataclass(frozen=True)
class ShedOutcome:
    """One load-shed query: rejected or expired, never completed.

    ``reason`` is ``"queue_full"`` (wait-queue depth was at the cap
    when the query arrived), ``"slo_wait"`` (the fleet-wide estimated
    wait exceeded the query's SLO at ingestion), or
    ``"deadline_expired"`` (the query's hard deadline — from its
    :class:`~repro.serve.admission.QueryClass` — passed while it sat in
    the wait queue; distinct from ``"slo_wait"`` so conservation audits
    can attribute deadline sheds per class).  The first two verdicts
    fire at ingestion; deadline expiry is checked against every queued
    query as the clock advances.  ``estimated_wait_seconds`` is the
    optimistic work-based wait estimate the verdict saw (for
    ``"deadline_expired"``: the wait actually endured, ``shed time -
    submit_at``; simulated seconds, referenced to the query's own
    ``submit_at``) and ``queue_depth`` the number of queries waiting at
    the verdict.  ``class_name`` / ``tenant`` carry the query's service
    class for per-class attribution (``"default"`` when unclassed).
    Verdicts are deterministic: identical streams and limits shed
    identical queries.
    """

    qid: str
    submit_at: float
    reason: str
    queue_depth: int
    estimated_wait_seconds: float
    class_name: str = "default"
    tenant: str = "default"


@dataclass
class ServeReport:
    """The outcome of one scheduler run (:meth:`QueryScheduler.run_online`
    or :meth:`QueryScheduler.run_stream`).

    Times are **simulated seconds**, memory **bytes**.  Every arrival
    ends in exactly one of :attr:`outcomes` (completed), :attr:`shed`
    (streaming backpressure only) or :attr:`failed` (fault-injected
    runs only): ``completed + shed_count + failed_count == arrivals``
    always holds.  ``run_online`` lists outcomes in submission order,
    ``run_stream`` in completion order.

    Fleet-wide views derive from the per-device data: ``devices``,
    ``capacity_bytes`` (the largest device) and ``peak_reserved_bytes``
    (the highest single-device peak) from the per-device tuples, which
    grow past the configured device count when a fleet event added
    devices mid-run; :attr:`schedule` merges :attr:`device_schedules`.
    ``makespan`` is the fleet's schedule makespan, the latest finish of
    any task on any device — compacted history included, work a crash
    invalidated excluded, finished pre-crash work of retried or failed
    queries included.
    """

    outcomes: list[QueryOutcome]
    arrivals: int
    makespan: float
    #: Each device's own schedule, in device order.  Complete for
    #: ``run_online`` (nothing is compacted), so tests can re-simulate
    #: a device from scratch; the merged :attr:`schedule` cannot serve
    #: that purpose because it sums lane counts across devices.
    device_schedules: list[Schedule] = field(default_factory=list, repr=False)
    #: Exact per-device reservation high-water marks, in **bytes**.
    device_peak_bytes: tuple[int, ...] = ()
    #: Per-device arena capacities, in **bytes**.
    device_capacity_bytes: tuple[int, ...] = ()
    #: The drained per-device arenas — their ledgers and timelines are
    #: what the property-based suites audit after every run.
    arenas: list[DeviceMemoryArena] | None = field(default=None, repr=False)
    shed: list[ShedOutcome] = field(default_factory=list)
    #: Queries the run gave up on: retry budget exhausted, or the whole
    #: fleet was lost.
    failed: list[FailedOutcome] = field(default_factory=list)
    #: High-water mark of retained (non-retired) scheduled tasks across
    #: the fleet — the quantity compaction bounds to O(in-flight).
    peak_retained_tasks: int = 0
    #: High-water mark of tasks belonging to queries running right now.
    peak_inflight_tasks: int = 0
    #: Largest task graph any single admitted query lowered.
    max_tasks_per_query: int = 0
    #: Tasks retired by compaction, and how many compaction sweeps ran.
    retired_tasks: int = 0
    compactions: int = 0
    #: Wait-queue depth sampled at every ingestion (one per arrival).
    queue_depths: list[int] = field(default_factory=list, repr=False)

    @property
    def devices(self) -> int:
        return len(self.device_capacity_bytes)

    @property
    def capacity_bytes(self) -> int:
        return max(self.device_capacity_bytes, default=0)

    @property
    def peak_reserved_bytes(self) -> int:
        return max(self.device_peak_bytes, default=0)

    @cached_property
    def schedule(self) -> Schedule:
        """One reporting view over every device's schedule (see
        :meth:`~repro.pipeline.tasks.Schedule.merged`); with one device
        it is that device's schedule object itself."""
        if len(self.device_schedules) == 1:
            return self.device_schedules[0]
        return Schedule.merged(self.device_schedules)

    @property
    def completed(self) -> int:
        return len(self.outcomes)

    @property
    def shed_count(self) -> int:
        return len(self.shed)

    @property
    def shed_rate(self) -> float:
        return self.shed_count / self.arrivals if self.arrivals else 0.0

    @property
    def failed_count(self) -> int:
        return len(self.failed)

    @property
    def failed_rate(self) -> float:
        return self.failed_count / self.arrivals if self.arrivals else 0.0

    @property
    def retried_count(self) -> int:
        """Completed queries that needed at least one re-admission."""
        return sum(1 for o in self.outcomes if o.retries > 0)

    @property
    def serial_seconds(self) -> float:
        """Total solo work: the sum of solo makespans."""
        return sum(item.solo_seconds for item in self.outcomes)

    @property
    def serial_makespan(self) -> float:
        """Serial back-to-back baseline honouring submission times: each
        query starts at ``max(previous finish, submit_at)`` on **one**
        device.  For one batch (all submitted together) this equals
        :attr:`serial_seconds`; for staggered arrivals it includes the
        idle gaps a serial executor would also sit through."""
        clock = 0.0
        for item in sorted(self.outcomes, key=lambda o: o.submit_at):
            clock = max(clock, item.submit_at) + item.solo_seconds
        return clock

    @property
    def speedup(self) -> float:
        return self.serial_makespan / self.makespan if self.makespan > 0 else 0.0

    @property
    def queries_per_second(self) -> float:
        """Completed queries per simulated second over the makespan."""
        if self.makespan <= 0:
            return 0.0
        return self.completed / self.makespan

    @property
    def sustained_qps(self) -> float:
        """:attr:`queries_per_second`, the name the streaming benches
        report it under."""
        return self.queries_per_second

    @property
    def mean_latency(self) -> float:
        if not self.outcomes:
            return 0.0
        return sum(o.latency_seconds for o in self.outcomes) / len(self.outcomes)

    @property
    def p50_latency(self) -> float:
        return percentile((o.latency_seconds for o in self.outcomes), 0.50)

    @property
    def p95_latency(self) -> float:
        return percentile((o.latency_seconds for o in self.outcomes), 0.95)

    @property
    def p99_latency(self) -> float:
        return percentile((o.latency_seconds for o in self.outcomes), 0.99)

    @property
    def degraded_count(self) -> int:
        return sum(1 for o in self.outcomes if o.degraded)

    @property
    def stolen_count(self) -> int:
        return sum(1 for o in self.outcomes if o.stolen)

    @property
    def deadline_count(self) -> int:
        """Completed queries carrying a finite hard deadline."""
        return sum(1 for o in self.outcomes if o.deadline_at != math.inf)

    @property
    def deadline_missed_count(self) -> int:
        return sum(1 for o in self.outcomes if o.deadline_missed)

    @property
    def deadline_expired_count(self) -> int:
        """Queued queries shed because their hard deadline passed."""
        return sum(1 for s in self.shed if s.reason == "deadline_expired")

    @property
    def deadline_miss_rate(self) -> float:
        """Missed completions plus expired sheds, over every
        deadline-bearing query that reached a terminal state (0.0 when
        none carried a deadline).  An expired shed counts as a miss —
        the query never ran at all."""
        total = self.deadline_count + self.deadline_expired_count
        if total == 0:
            return 0.0
        return (
            self.deadline_missed_count + self.deadline_expired_count
        ) / total

    def per_class_stats(self) -> dict[str, ClassStats]:
        """Per-service-class p50/p99 latency and deadline-miss rate
        (expired sheds attributed to their class)."""
        return _group_class_stats(self.outcomes, "class_name", self.shed)

    def per_tenant_stats(self) -> dict[str, ClassStats]:
        """Per-tenant p50/p99 latency and deadline-miss rate."""
        return _group_class_stats(self.outcomes, "tenant", self.shed)

    @property
    def _classed(self) -> bool:
        """Any non-default class or deadline present?  Gates the class
        lines of :meth:`render`."""
        return any(
            o.class_name != "default"
            or o.tenant != "default"
            or o.deadline_at != math.inf
            for o in self.outcomes
        ) or any(
            s.class_name != "default" or s.tenant != "default"
            for s in self.shed
        )

    @property
    def peak_queue_depth(self) -> int:
        return max(self.queue_depths, default=0)

    def queue_depth_percentile(self, q: float) -> float:
        return percentile(self.queue_depths, q)

    def render(self, *, per_query: bool = False) -> str:
        """Summary block; ``per_query=True`` puts the per-query table
        (and one line per failed query) in front of it — per-query
        tables do not scale to 10^5-arrival streams."""
        lines = []
        if per_query:
            sharded = self.devices > 1
            device_header = f" {'dev':>3s}" if sharded else ""
            lines.append(
                f"{'query':10s} {'strategy':22s}{device_header} "
                f"{'reserved':>10s} {'admit (s)':>10s} {'finish (s)':>11s} "
                f"{'latency (s)':>12s}  note"
            )
            for o in self.outcomes:
                notes = []
                if o.degraded:
                    notes.append(f"degraded from {o.solo_strategy}")
                if o.stolen:
                    notes.append(f"stolen by device {o.device}")
                device_cell = f" {o.device:3d}" if sharded else ""
                lines.append(
                    f"{o.qid:10s} {o.strategy:22s}{device_cell} "
                    f"{o.reserved_bytes / 1e9:8.2f}GB "
                    f"{o.admit_at:10.3f} {o.finish_at:11.3f} "
                    f"{o.latency_seconds:12.3f}  {', '.join(notes)}"
                )
            for f in self.failed:
                retries = "retry" if f.attempts == 1 else "retries"
                lines.append(
                    f"{f.qid:10s} failed: {f.reason} after {f.attempts} "
                    f"{retries}"
                )
        lines += [
            f"arrivals {self.arrivals}: {self.completed} completed, "
            f"{self.shed_count} shed ({self.shed_rate * 100:.2f}%), "
            f"{self.degraded_count} degraded, {self.stolen_count} stolen",
            f"makespan {self.makespan:.3f} s vs serial "
            f"{self.serial_makespan:.3f} s ({self.speedup:.2f}x), "
            f"{self.queries_per_second:.2f} q/s across {self.devices} "
            "device(s)",
            f"latency mean/p50/p95/p99 {self.mean_latency:.3f}/"
            f"{self.p50_latency:.3f}/{self.p95_latency:.3f}/"
            f"{self.p99_latency:.3f} s, peak memory "
            f"{self.peak_reserved_bytes / 1e9:.2f} of "
            f"{self.capacity_bytes / 1e9:.2f} GB",
            f"queue depth p50/p99/max "
            f"{self.queue_depth_percentile(0.50):.0f}/"
            f"{self.queue_depth_percentile(0.99):.0f}/"
            f"{self.peak_queue_depth}; retained tasks peak "
            f"{self.peak_retained_tasks} (in-flight peak "
            f"{self.peak_inflight_tasks}), {self.retired_tasks} retired "
            f"in {self.compactions} sweeps",
        ]
        if self._classed:
            for label, stats in self.per_class_stats().items():
                lines.append(
                    f"class {label}: {stats.count} completed, p50/p99 "
                    f"{_fmt_secs(stats.p50_latency)}/"
                    f"{_fmt_secs(stats.p99_latency)} s, "
                    f"deadline miss {stats.deadline_miss_rate * 100:.1f}% "
                    f"({stats.deadline_missed} late + "
                    f"{stats.deadline_expired} expired / "
                    f"{stats.deadline_count + stats.deadline_expired})"
                )
        if self.failed:
            lines.append(
                f"{self.failed_count} failed "
                f"({self.failed_rate * 100:.2f}%), "
                f"{self.retried_count} completed after retries"
            )
        return "\n".join(lines)


class _Profile:
    """What admission reads about one request under one calibration.

    One entry per (spec, materialize, pin, calibration) and run (see
    :meth:`QueryScheduler._profile`); ``spec`` and ``materialize`` are
    the workload every price below estimates.  ``ladder`` / ``needs``
    are the offer keys and their device footprints in rung order — the
    planner ladder, or just the pin for a pinned request — so choosing
    a device's offer is :func:`~repro.core.planner.ladder_rung` over
    integers.  ``solo_key`` / ``solo_need`` are the unconstrained
    placement, and ``calibration`` the one every price below is
    estimated under.  The prices are filled on first use: ``solo_seconds``
    (the solo makespan), ``alone`` (the alone-estimate per offer key,
    under that key's memory grant) and ``plans`` (the prepared plan per
    admitted key).
    """

    __slots__ = (
        "spec", "materialize", "ladder", "needs", "solo_key", "solo_need",
        "calibration", "solo_seconds", "alone", "plans",
    )

    def __init__(
        self,
        spec: JoinSpec,
        materialize: bool,
        ladder: tuple[str, ...],
        needs: tuple[int, ...],
        solo_key: str,
        calibration: Calibration | None,
    ):
        self.spec = spec
        self.materialize = materialize
        self.ladder = ladder
        self.needs = needs
        self.solo_key = solo_key
        self.solo_need = needs[ladder.index(solo_key)]
        self.calibration = calibration
        self.solo_seconds: float | None = None
        self.alone: dict[str, float] = {}
        self.plans: dict[str, JoinPlan] = {}


class QueryScheduler:
    """Runs queries concurrently on a simulated GPU fleet.

    One event loop, two entry points: :meth:`run_online` serves a
    request list (no shedding, full schedules kept) and
    :meth:`run_stream` an iterator (bounded queue, load shedding,
    schedule compaction).  Both are deterministic — identical inputs
    produce identical reports.  A run prices each request once: its
    footprints, solo choice, solo/alone estimates and admitted plans
    live in the run's profile table (:meth:`_profile`), filled through
    the process-wide :mod:`repro.core.estimate_cache` — pure
    memoizations, so cached and recomputed values are interchangeable.
    Memory quantities are **bytes**, times **simulated seconds**.

    ``devices`` shards the fleet: each device gets its own arena,
    engine and resource lanes, and ``placement`` (a registry key from
    :mod:`repro.serve.placement`, or a policy instance) picks the
    device per admission.  ``devices=1`` — the default — reduces every
    policy to "device 0" and is pinned bit-identical to the historical
    single-device scheduler.

    ``admission`` (a registry key from :mod:`repro.serve.admission`,
    or a policy instance) picks which *arrived* queued query each
    admission attempt tries to place: ``fifo`` (the default) is pinned
    bit-identical to the historical head-of-line scheduler; ``sjf``,
    ``edf`` and ``weighted_fair`` reorder the queue by cached solo
    estimate, hard deadline, or tenant fairness.  Head-of-line blocking
    applies to the policy's *chosen* head — when it cannot be placed,
    the scheduler waits rather than skipping past it — and composes
    unchanged with placement, stealing, fleet events and fault recovery
    (a retried query re-enters under its original
    :class:`~repro.serve.admission.QueryClass`).

    ``device_capacities`` / ``device_calibrations`` make the fleet
    heterogeneous: one entry per device (capacities in **bytes**, at
    most the simulated GPU's ``system.gpu.device_memory``, which is
    what the cost model checks working sets against; calibration
    ``None`` means the scheduler-wide ``calibration``).
    Every solo/degraded/alone estimate and every prepared plan for a
    candidate placement is computed under that device's calibration —
    the calibration rides in the strategy fingerprint, so the shared
    caches never serve one device's numbers to another.  ``steal=True``
    enables the work-stealing pass: whenever FIFO admission blocks on
    the head, each idle device may pull the best waiting query from
    behind it (recorded via :attr:`QueryOutcome.stolen`).  Stealing is
    off by default because it deliberately breaks FIFO admission order
    — the golden-schedule bit-identity contract only covers
    ``steal=False``.

    ``lanes`` optionally widens resource pools on every device
    (e.g. ``{"h2d": 2}`` to model both DMA engines copying inputs);
    per-plan resource declarations are merged in at their maximum, but
    only before the first engine run on that device — widening a pool
    mid-run would silently re-place already-recorded finishes, so it
    raises instead.

    ``max_degradation`` bounds how much slower an admission-time
    placement may be (estimated solo-vs-solo) than the unconstrained
    one before the query prefers waiting for memory; a degraded
    placement is also rejected when queueing for the unconstrained
    placement's memory — on whichever device is estimated to free it
    first — is estimated to finish sooner than starting the cheaper
    plan now.  ``None`` degrades eagerly whenever anything fits,
    trading the no-worse-than-serial guarantee for admission
    throughput.
    """

    def __init__(
        self,
        system: SystemSpec | None = None,
        calibration: Calibration | None = None,
        config: GpuJoinConfig | None = None,
        *,
        lanes: dict[str, int] | None = None,
        max_degradation: float | None = 2.0,
        devices: int = 1,
        placement: str | PlacementPolicy = LEAST_LOADED,
        admission: str | AdmissionPolicy = FIFO,
        device_capacities: list[int] | None = None,
        device_calibrations: "list[Calibration | None] | None" = None,
        steal: bool = False,
        max_retries: int = 3,
        retry_backoff_seconds: float = 0.05,
    ):
        # Negated comparisons, so NaN fails them too.
        if max_degradation is not None and not max_degradation >= 1.0:
            raise InvalidConfigError(
                f"max_degradation must be >= 1.0, got {max_degradation!r}"
            )
        if devices < 1:
            raise InvalidConfigError("devices must be >= 1")
        if max_retries < 0:
            raise InvalidConfigError("max_retries must be >= 0")
        if not retry_backoff_seconds >= 0:
            raise InvalidConfigError(
                "retry_backoff_seconds must be >= 0, got "
                f"{retry_backoff_seconds!r}"
            )
        for name, width in (lanes or {}).items():
            if not isinstance(width, int) or isinstance(width, bool) or width < 1:
                raise InvalidConfigError(
                    f"lanes[{name!r}] must be a positive int, got {width!r}"
                )
        self.system = system or SystemSpec()
        if device_capacities is not None:
            if len(device_capacities) != devices:
                raise InvalidConfigError(
                    f"device_capacities has {len(device_capacities)} "
                    f"entries for devices={devices}; give one capacity "
                    "per device"
                )
            for index, cap in enumerate(device_capacities):
                if cap <= 0:
                    raise InvalidConfigError(
                        f"device_capacities[{index}] must be positive "
                        f"bytes, got {cap!r}"
                    )
                _check_simulable(
                    cap, self.system, f"device_capacities[{index}]"
                )
        if device_calibrations is not None:
            if len(device_calibrations) != devices:
                raise InvalidConfigError(
                    f"device_calibrations has {len(device_calibrations)} "
                    f"entries for devices={devices}; give one calibration "
                    "(or None for the default) per device"
                )
            for index, calib in enumerate(device_calibrations):
                if calib is not None and not isinstance(calib, Calibration):
                    raise InvalidConfigError(
                        f"device_calibrations[{index}] must be a "
                        f"Calibration or None, got {calib!r}"
                    )
        self.calibration = calibration
        self.config = config
        self.lanes = dict(lanes or {})
        self.max_degradation = max_degradation
        self.devices = devices
        self.placement = placement
        self.device_capacities = (
            list(device_capacities) if device_capacities is not None else None
        )
        self.device_calibrations = (
            list(device_calibrations)
            if device_calibrations is not None
            else None
        )
        self.admission = admission
        self.steal = steal
        #: Fault recovery (used only when a run gets a non-empty
        #: ``faults=`` plan): how many times one query may be
        #: re-admitted after a crash or transient admission failure,
        #: and the linear re-admission backoff — attempt N becomes
        #: eligible ``N * retry_backoff_seconds`` simulated seconds
        #: after the failure.
        self.max_retries = max_retries
        self.retry_backoff_seconds = retry_backoff_seconds
        if isinstance(placement, str):
            create_placement_policy(placement)  # validate the key eagerly
        if isinstance(admission, str):
            create_admission_policy(admission)  # validate the key eagerly
        #: The run's admission profiles (:meth:`_profile`), emptied at
        #: the start of every run: workloads repeat spec templates, and
        #: everything admission reads about a request is a pure function
        #: of (spec, materialize, pin, calibration).
        self._profiles: dict[
            tuple[JoinSpec, bool, str | None, Calibration | None],
            _Profile,
        ] = {}
        #: One shared strategy object per (registry key, calibration,
        #: device-memory grant) — see :meth:`_strategy`.
        self._strategies: dict[
            tuple[str, Calibration | None, int | None], JoinStrategy
        ] = {}

    def _build_fleet(self) -> DeviceFleet:
        """A fresh fleet per run, honouring per-device overrides."""
        capacities = self.device_capacities or (
            [self.system.gpu.device_memory] * self.devices
        )
        return DeviceFleet(
            list(capacities),
            lanes=self.lanes,
            calibrations=(
                list(self.device_calibrations)
                if self.device_calibrations is not None
                else None
            ),
        )

    # ------------------------------------------------------------------
    @staticmethod
    def _grant(key: str, reserved_bytes: int) -> int | None:
        """The device-memory grant strategy ``key`` is built with:
        co-processing shrinks its working sets to honour
        ``reserved_bytes`` (its ``device_budget``); every other strategy
        takes none."""
        if key in (COPROCESSING, COPROCESSING_ADAPTIVE):
            return reserved_bytes
        return None

    def _strategy(
        self,
        key: str,
        calibration: Calibration | None,
        grant: int | None = None,
    ) -> JoinStrategy:
        """This scheduler's strategy object for (``key``,
        ``calibration``, ``grant``), created on first use.

        Strategies are immutable after ``__init__`` (the contract on
        :class:`~repro.core.strategy.PipelinedJoinStrategy`), so one
        object per combination serves every solo, alone and plan lookup
        of every run; system and config are fixed per scheduler."""
        table_key = (key, calibration, grant)
        strategy = self._strategies.get(table_key)
        if strategy is None:
            extras = {} if grant is None else {"device_budget": grant}
            strategy = create_strategy(
                key, self.system, calibration, self.config, **extras
            )
            self._strategies[table_key] = strategy
        return strategy

    def _max_degradation_for(self, request: QueryRequest) -> float | None:
        """The degrade-vs-wait bound this query is admitted under: its
        service class's ``max_degradation`` override when set, the
        scheduler-wide setting otherwise — an interactive class can
        accept a worse placement to start sooner without loosening the
        bound for everyone."""
        qc = request.query_class
        if qc is not None and qc.max_degradation is not None:
            return qc.max_degradation
        return self.max_degradation

    def _admission_pos(
        self,
        policy: AdmissionPolicy,
        queue: "deque[QueryRequest]",
        ctx: AdmissionContext,
        clock: float,
    ) -> int:
        """Queue index of the admission policy's chosen candidate.

        The wait queue only ever holds arrived queries (fault retries
        re-enter at the front with their original, past ``submit_at``),
        so the whole queue is the policy's candidate view.  The answer
        is validated so a buggy policy raises *before* any queue or
        arena mutation: an exception mid-pop leaves the run's books
        exactly as they were.  FIFO never reaches here
        (``reorders=False`` short-circuits to index 0 at the call site),
        keeping the default path bit-identical to the pre-registry
        scheduler.
        """
        ctx.clock = clock
        arrived = list(queue)
        pos = policy.select(arrived, ctx)
        if (
            not isinstance(pos, int)
            or isinstance(pos, bool)
            or not 0 <= pos < len(arrived)
        ):
            raise SchedulingError(
                f"admission policy {policy.key!r} selected {pos!r}; "
                f"expected an index in [0, {len(arrived)})"
            )
        return pos

    def _profile(
        self,
        request: QueryRequest,
        calibration: Calibration | None = None,
    ) -> _Profile:
        """This run's profile of ``request`` under ``calibration`` (a
        device's; the scheduler default when ``None``), built on first
        use.

        Building it sizes the offers and picks the solo placement — one
        ``choose_strategy_name`` call per (spec, materialize, pin); a
        device calibration's entry copies the default entry's, since the
        ladder ranks by memory fit alone — and estimates nothing, so a
        pin that never fits is rejected before anything is estimated.

        A planner-chosen solo key must be the ladder walk over the
        profile's own footprints at ``system.gpu.device_memory``, or
        :class:`~repro.errors.SchedulingError` is raised: :meth:`_place`
        tests the solo fit alone on that invariant (see there).
        """
        calib = calibration if calibration is not None else self.calibration
        key = (request.spec, request.materialize, request.strategy, calib)
        profile = self._profiles.get(key)
        if profile is None:
            spec, materialize = request.spec, request.materialize
            if calib != self.calibration:
                base = self._profile(request)
                profile = _Profile(
                    spec, materialize, base.ladder, base.needs,
                    base.solo_key, calib,
                )
            elif request.strategy is not None:
                pin = (request.strategy,)
                profile = _Profile(
                    spec,
                    materialize,
                    pin,
                    ladder_footprints(spec, self.system, pin),
                    request.strategy,
                    calib,
                )
            else:
                needs = ladder_footprints(spec, self.system)
                solo_key = choose_strategy_name(spec, self.system)
                walked = PLANNER_LADDER[
                    ladder_rung(needs, self.system.gpu.device_memory)
                ]
                if solo_key != walked:
                    raise SchedulingError(
                        f"query {request.qid!r}: the planner chose "
                        f"{solo_key!r}, but the ladder walk over its "
                        f"footprints at {self.system.gpu.device_memory} "
                        f"bytes picks {walked!r}"
                    )
                profile = _Profile(
                    spec, materialize, PLANNER_LADDER, needs, solo_key, calib
                )
            self._profiles[key] = profile
        return profile

    def _on_device(
        self, profile: _Profile, request: QueryRequest, device: DeviceState
    ) -> _Profile:
        """``request``'s profile priced under ``device``'s calibration,
        given ``profile``, its profile under the scheduler default — the
        same object on a device without a calibration of its own."""
        if device.calibration is None:
            return profile
        return self._profile(request, device.calibration)

    def _queued_profile(
        self, queued_profiles: dict[str, _Profile], request: QueryRequest
    ) -> _Profile:
        """Queued ``request``'s profile under the scheduler default,
        carried in the run's ``queued_profiles`` (qid to profile) from
        its first use until the request leaves the wait queue."""
        profile = queued_profiles.get(request.qid)
        if profile is None:
            profile = queued_profiles[request.qid] = self._profile(request)
        return profile

    def _solo_seconds(self, profile: _Profile) -> float:
        """Makespan of ``profile``'s unconstrained placement on an idle
        device, under the profile's calibration — so heterogeneous
        placement comparisons see each device's own speed.  Estimated
        once per profile."""
        if profile.solo_seconds is None:
            strategy = self._strategy(profile.solo_key, profile.calibration)
            profile.solo_seconds = strategy.estimate(
                profile.spec, materialize=profile.materialize
            ).seconds
        return profile.solo_seconds

    def _offer_estimate(self, profile: _Profile, key: str, need: int) -> float:
        """Alone-makespan of offer ``key`` (footprint ``need``) under
        ``profile``'s calibration — the
        :attr:`PlacementCandidate.est_seconds` placement policies rank —
        under the memory grant the admitted strategy would get.
        Estimated once per profile and key.  The non-degraded, no-grant
        offer is the solo makespan itself (the exact same float, which
        is what keeps homogeneous ranking bit-identical to the
        historical load-only order)."""
        seconds = profile.alone.get(key)
        if seconds is None:
            grant = self._grant(key, need)
            if key == profile.solo_key and grant is None:
                seconds = self._solo_seconds(profile)
            else:
                strategy = self._strategy(key, profile.calibration, grant)
                seconds = strategy.estimate(
                    profile.spec, materialize=profile.materialize
                ).seconds
            profile.alone[key] = seconds
        return seconds

    def _prepare_plan(
        self,
        key: str,
        request: QueryRequest,
        need: int,
        profile: _Profile,
    ) -> JoinPlan:
        """The admitted strategy's plan for ``request``, kept in
        ``profile`` (the request's profile under the placed device's
        calibration) and memoized process-wide.

        Plans are pure in (strategy fingerprint, spec, materialize) —
        the per-device memory grant and the device's calibration both
        ride in the fingerprint — and the scheduler only *reads* them
        (admission places the plan's template under the query's alias),
        so cached plans are shared safely across runs, determinism
        re-runs and devices, and a fast device's task durations can
        never be served to a slow one.  ``cached_prepare`` keys the plan
        exactly as the strategy's ``estimate()`` does: when the
        alone-estimate that priced this placement missed the cache, it
        prepared this plan, and admission reuses that object instead of
        preparing it again.
        """
        plan = profile.plans.get(key)
        if plan is None:
            strategy = self._strategy(
                key, profile.calibration, self._grant(key, need)
            )
            plan = profile.plans[key] = strategy.cached_prepare(
                request.spec, materialize=request.materialize
            )
        return plan

    @staticmethod
    def _estimated_wait(
        need_bytes: int,
        *,
        clock: float,
        free_bytes: int,
        reserved: dict[str, int],
        predicted_finish: dict[str, float],
    ) -> float:
        """Time until ``need_bytes`` could be free on one device,
        assuming running queries release at their predicted finishes and
        nothing else is admitted meanwhile.  Optimistic (contention can
        stretch the predictions), which biases the degrade-vs-wait
        choice toward waiting — the direction that never loses to serial
        execution."""
        if need_bytes <= free_bytes:
            return 0.0
        freed = free_bytes
        for qid in sorted(predicted_finish, key=lambda q: predicted_finish[q]):
            freed += reserved.get(qid, 0)
            if freed >= need_bytes:
                return max(0.0, predicted_finish[qid] - clock)
        return float("inf")

    # ------------------------------------------------------------------
    def run_online(
        self,
        requests: list[QueryRequest],
        *,
        fleet_events: "Iterable[FleetEvent] | None" = None,
        faults: "FaultPlan | None" = None,
    ) -> ServeReport:
        """Serve a request list to completion: :meth:`run_stream`'s loop
        with no queue cap, no SLO or deadline shedding, and compaction
        off.

        Requests may come in any order; they are admitted by
        ``submit_at`` (stable for ties) and the report lists outcomes in
        the given order.  Every device keeps its whole schedule
        (:attr:`ServeReport.device_schedules`), so tests can re-simulate
        each device from scratch against it
        (:func:`repro.pipeline.oracle.check_batch_oracle`).
        ``fleet_events`` adds/retires devices at their timestamps,
        between admissions; ``faults`` injects device crashes and
        transient admission failures (see
        :class:`~repro.serve.faults.FaultPlan`), with lost queries
        retried through the same admission path.  Deterministic:
        identical request, event and fault lists produce identical
        reports.
        """
        position = {request.qid: i for i, request in enumerate(requests)}
        report = self._event_loop(
            iter(sorted(requests, key=lambda r: r.submit_at)),
            shedding=False,
            max_queue_depth=None,
            slo_wait_seconds=None,
            compact_every=None,
            fleet_events=fleet_events,
            faults=faults,
        )
        report.outcomes.sort(key=lambda o: position[o.qid])
        return report

    def run_stream(
        self,
        requests: "Iterable[QueryRequest]",
        *,
        max_queue_depth: int | None = None,
        slo_wait_seconds: float | None = None,
        compact_every: int | None = 256,
        fleet_events: "Iterable[FleetEvent] | None" = None,
        faults: "FaultPlan | None" = None,
    ) -> ServeReport:
        """Steady-state streaming admission: bounded queue, load
        shedding, and schedule compaction.

        Consumes ``requests`` lazily (they must arrive sorted by
        ``submit_at`` with unique qids — a generator works and keeps
        ingestion O(1) memory): head-of-line admission against live
        per-device headroom, incremental schedule extension via
        :meth:`~repro.pipeline.engine.PipelineEngine.extend`, release at
        simulated finish.  Memory stays O(in-flight):

        * every ``compact_every`` releases, each device's engine
          retires tasks that finished at or before the clock
          (:meth:`~repro.pipeline.engine.PipelineEngine.compact`);
          lane state is untouched, so extension after compaction places
          new tasks exactly where the uncompacted run would;
        * per-query stats are recorded in their :class:`QueryOutcome`
          at admission/extension time, before compaction can drop the
          tasks.

        ``compact_every=None`` disables compaction; with it off and no
        shedding limits, outcomes, failures and makespan equal
        :meth:`run_online`'s on the same requests.

        Backpressure, applied at **ingestion** (when the stream first
        presents the arrival), recorded as :class:`ShedOutcome`, never
        silently dropped:

        * ``max_queue_depth`` — an arrival finding that many queries
          already waiting is shed with reason ``"queue_full"``;
        * ``slo_wait_seconds`` — fleet default admission-wait SLO; a
          request's own ``slo_wait_seconds`` overrides it.  An arrival
          whose :meth:`_stream_wait_estimate` (referenced to its own
          ``submit_at``) exceeds its SLO is shed with reason
          ``"slo_wait"``.  Estimates reuse the cached solo makespans
          and predicted finishes, so the verdict is O(running+queued)
          with no new planning work;
        * **deadline expiry** — a queued query whose hard deadline
          (:class:`~repro.serve.admission.QueryClass`) passes before it
          is admitted is shed with reason ``"deadline_expired"``
          (checked at every clock stop, before admission, so an
          expired query is never started).

        ``fleet_events`` and ``faults`` work exactly as in
        :meth:`run_online`; with ``steal=True`` on the scheduler, the
        work-stealing pass runs here too.  Conservation reads
        ``completed + shed + failed == arrivals``.
        """
        if max_queue_depth is not None and max_queue_depth < 1:
            raise InvalidConfigError("max_queue_depth must be >= 1")
        if slo_wait_seconds is not None and not slo_wait_seconds >= 0:
            raise InvalidConfigError(
                f"slo_wait_seconds must be >= 0, got {slo_wait_seconds!r}"
            )
        if compact_every is not None and compact_every < 1:
            raise InvalidConfigError("compact_every must be >= 1")
        return self._event_loop(
            iter(requests),
            shedding=True,
            max_queue_depth=max_queue_depth,
            slo_wait_seconds=slo_wait_seconds,
            compact_every=compact_every,
            fleet_events=fleet_events,
            faults=faults,
        )

    # ------------------------------------------------------------------
    def _place(
        self,
        request: QueryRequest,
        profile: _Profile,
        fleet: DeviceFleet,
        policy: PlacementPolicy,
        outcomes: dict[str, QueryOutcome],
        clock: float,
        *,
        can_grow: bool = False,
    ) -> tuple[DeviceState, str, int] | None:
        """Pick (device, strategy, footprint) for the admission policy's
        chosen head, ``request``, whose profile under the scheduler
        default is ``profile``.

        Only *accepting* devices (not retiring/retired) are candidates,
        and each device's free bytes are read once.  Solo-fit
        invariant: a device offers the unconstrained placement exactly
        when ``profile.solo_need`` fits its free bytes.  The solo key is
        the ladder walk at ``system.gpu.device_memory`` (checked when
        the profile is built), every rung above it needs more than that,
        and no device is larger (``_check_simulable``), so at any
        headroom the walk lands at or below the solo rung.  The
        placement policy therefore chooses among the devices where the
        solo footprint fits, and only when there is none is each
        device's ladder walked for a degraded offer, estimated under
        that device's own calibration.

        Returns ``None`` when the query should wait: nothing fits
        anywhere, or the best degraded placement exceeds the
        ``max_degradation`` bound or loses to queueing for the solo
        placement's memory (built only within the bound).  Raises when
        the query could never be admitted on any device — unless
        ``can_grow`` (pending ``add`` fleet events), in which case it
        waits for a bigger device to join.
        """
        active = fleet.active()
        free = [device.free_bytes for device in active]
        solo_key, solo_need = profile.solo_key, profile.solo_need
        candidates = [
            PlacementCandidate(
                device=device.index,
                strategy=solo_key,
                need_bytes=solo_need,
                fits=True,
                degraded=False,
                est_seconds=self._offer_estimate(
                    self._on_device(profile, request, device),
                    solo_key,
                    solo_need,
                ),
            )
            for device, room in zip(active, free)
            if solo_need <= room
        ]
        if candidates:
            chosen = policy.select(candidates, fleet)
            return fleet[chosen.device], chosen.strategy, chosen.need_bytes

        # Each device's degraded offer: the request's ladder walked
        # against that device's headroom (a pinned request's ladder is
        # its pin).
        ladder, needs = profile.ladder, profile.needs
        rungs = [ladder_rung(needs, room) for room in free]
        if all(
            needs[rung] > device.capacity_bytes
            for device, rung in zip(active, rungs)
        ):
            # Checked before any estimate on purpose: estimating a
            # pinned, never-fitting strategy can itself overflow device
            # memory, and "can never be admitted" is the clearer error.
            if can_grow:
                return None  # a pending 'add' event may bring a bigger device
            rung = rungs[0]
            raise SchedulingError(
                f"query {request.qid!r} needs {needs[rung] / 1e9:.2f} GB "
                f"({ladder[rung]}) but no fleet device has that much "
                "memory; it can never be admitted"
            )
        # Best degraded offer across the fleet, by cached alone-estimate
        # under each offer's own memory grant and its device's
        # calibration; ties break toward the lowest device index.
        best: tuple[float, DeviceState, str, int] | None = None
        for device, room, rung in zip(active, free, rungs):
            need = needs[rung]
            if need > room:
                continue
            key = ladder[rung]
            seconds = self._offer_estimate(
                self._on_device(profile, request, device), key, need
            )
            if best is None or seconds < best[0]:
                best = (seconds, device, key, need)
        if best is None:
            return None  # wait for a release event
        degraded_alone, device, key, need = best
        max_degradation = self._max_degradation_for(request)
        if max_degradation is not None and fleet.any_running():
            solo_on_best = self._solo_seconds(
                self._on_device(profile, request, device)
            )
            if degraded_alone > max_degradation * solo_on_best:
                return None  # too much slower than the solo placement
            # Queueing alternative: for each accepting device, the time
            # until the unconstrained placement's memory frees there
            # plus the solo makespan *under that device's calibration*
            # — a heterogeneous fleet may prefer waiting for the fast
            # device over a degraded start on the slow one.  On a
            # homogeneous fleet the solo term is one constant, so the
            # min is exactly the historical min-wait plus solo.
            wait_then_solo = min(
                self._estimated_wait(
                    solo_need,
                    clock=clock,
                    free_bytes=room,
                    reserved={
                        qid: outcomes[qid].reserved_bytes
                        for qid in other.running
                    },
                    predicted_finish=other.predicted_finish,
                )
                + self._solo_seconds(self._on_device(profile, request, other))
                for other, room in zip(active, free)
            )
            if degraded_alone >= wait_then_solo:
                # Starting now with the cheaper placement is estimated
                # to lose to queueing for the memory the unconstrained
                # placement wants on the first device to free it.
                return None
        return device, key, need

    def _admit(
        self,
        request: QueryRequest,
        profile: _Profile,
        placed: tuple[DeviceState, str, int],
        outcomes: dict[str, QueryOutcome],
        admitted_plans: dict[str, Admission],
        owner: dict[str, DeviceState],
        clock: float,
        *,
        stolen: bool = False,
        fault_run: "_FaultRun | None" = None,
    ) -> DeviceState:
        """Commit a placement decision: reserve the arena grant, add the
        plan's template to the device's wave under the query's alias,
        and record the outcome skeleton.  ``profile`` is the request's
        profile under the scheduler default, the one placement read.
        The plan and the predicted finish are built under the *placed
        device's* calibration; the recorded ``solo_seconds`` baseline
        stays on the scheduler default so serial comparisons are
        device-independent.  Shared verbatim by head-of-line and
        stealing admission so their committed state cannot drift.

        Re-admissions after a fault (``fault_run`` generation > 0)
        namespace their tasks under the alias ``qid~rN`` instead of the
        bare qid: the crashed device's schedule may retain the query's
        *finished* pre-crash task fragments under the original names,
        and the merged reporting view refuses duplicates.  The arena
        reservation and every outcome/bookkeeping key stay on the bare
        qid — only task names carry the generation."""
        device, key, need = placed
        attempt = 0 if fault_run is None else fault_run.generation(request.qid)
        alias = request.qid if attempt == 0 else f"{request.qid}~r{attempt}"
        if not device.arena.try_reserve(request.qid, need, at=clock):
            raise SchedulingError(  # pragma: no cover - _place bug
                f"placement chose device {device.index} for "
                f"{request.qid!r} but the reservation failed"
            )
        solo_seconds = self._solo_seconds(profile)
        on_device = self._on_device(profile, request, device)
        plan = self._prepare_plan(key, request, need, on_device)
        for name, width in plan.resources.items():
            if width > device.resources.get(name, 1) and device.schedule.tasks:
                # The engine fixed this device's lane counts at its
                # first extension; widening a pool now would leave
                # recorded finishes on fewer lanes than later ones.
                raise SchedulingError(
                    f"query {request.qid!r} widens resource "
                    f"{name!r} to {width} lanes after scheduling "
                    f"started on device {device.index}; declare "
                    "lane counts up front via "
                    "QueryScheduler(lanes=...)"
                )
            device.resources[name] = max(
                device.resources.get(name, 1), width
            )
        admission = Admission(plan.template, alias, clock, device.index)
        device.wave.add(admission)
        admitted_plans[request.qid] = admission
        outcomes[request.qid] = QueryOutcome(
            qid=request.qid,
            strategy=key,
            solo_strategy=profile.solo_key,
            reserved_bytes=need,
            submit_at=request.submit_at,
            admit_at=clock,
            solo_seconds=solo_seconds,
            device=device.index,
            stolen=stolen,
            retries=attempt,
            class_name=class_name_of(request),
            tenant=tenant_of(request),
            deadline_at=hard_deadline(request),
        )
        device.running.add(request.qid)
        owner[request.qid] = device
        if fault_run is not None:
            fault_run.live[request.qid] = request
        # The wait estimator's predicted finish must reflect *this*
        # device's speed: the offer's alone-estimate under the device's
        # calibration, which priced this placement in `_place`.
        alone = self._offer_estimate(on_device, key, need)
        device.predicted_finish[request.qid] = clock + alone
        return device

    def _steal(
        self,
        queue: "deque[QueryRequest]",
        queued_profiles: dict[str, _Profile],
        fleet: DeviceFleet,
        outcomes: dict[str, QueryOutcome],
        admitted_plans: dict[str, Admission],
        owner: dict[str, DeviceState],
        clock: float,
        *,
        fault_run: "_FaultRun | None" = None,
    ) -> list[tuple[DeviceState, str]]:
        """Work-stealing pass, run only after FIFO admission blocked on
        the queue head.  Each *idle* accepting device (in index order)
        scans the arrived queries behind the head and pulls the one
        with the smallest alone-estimate under its own calibration —
        skipping any whose placement there would exceed
        ``max_degradation`` — so head-of-line blocking can't strand an
        idle device while admissible work waits.  One steal per idle
        device per pass; everything comes from the same caches and
        commits through :meth:`_admit`, so stolen admissions obey every
        arena/engine invariant.  Returns the (device, qid) pairs
        admitted, for the caller's bookkeeping; a stolen query's entry
        leaves ``queued_profiles`` with it."""
        admitted: list[tuple[DeviceState, str]] = []
        if len(queue) <= 1:
            return admitted
        for device in fleet.active():
            if device.running:
                continue
            room = device.free_bytes
            best: tuple[float, int, str, int] | None = None
            for pos in range(1, len(queue)):
                request = queue[pos]
                base = self._queued_profile(queued_profiles, request)
                rung = ladder_rung(base.needs, room)
                need = base.needs[rung]
                if need > room:
                    continue
                key = base.ladder[rung]
                profile = self._on_device(base, request, device)
                est = self._offer_estimate(profile, key, need)
                max_degradation = self._max_degradation_for(request)
                if key != base.solo_key and max_degradation is not None:
                    if est > max_degradation * self._solo_seconds(profile):
                        continue
                if best is None or (est, pos) < best[:2]:
                    best = (est, pos, key, need)
            if best is None:
                continue
            _, pos, key, need = best
            request = queue[pos]
            del queue[pos]
            placed_device = self._admit(
                request,
                queued_profiles.pop(request.qid),
                (device, key, need),
                outcomes,
                admitted_plans,
                owner,
                clock,
                stolen=True,
                fault_run=fault_run,
            )
            admitted.append((placed_device, request.qid))
        return admitted

    @staticmethod
    def _apply_fleet_events(
        fleet: DeviceFleet, events: "deque[FleetEvent]", clock: float
    ) -> None:
        """Apply every event due at or before ``clock``, in order.
        Called between admissions only, so a placement decision never
        sees a half-applied fleet."""
        while events and events[0].at <= clock:
            event = events.popleft()
            if event.action == "add":
                fleet.add_device(
                    event.capacity_bytes, calibration=event.calibration
                )
            else:
                fleet.retire_device(event.device)

    def _sorted_events(
        self,
        fleet_events: "Iterable[FleetEvent] | None",
        initial_devices: int,
    ) -> "deque[FleetEvent]":
        """Validate and time-order a run's fleet events (stable, so
        same-time events apply in list order).  Cross-event consistency
        — retires of devices the fleet never reaches, double retires —
        is rejected up front by
        :func:`~repro.serve.placement.validate_fleet_events`, and so is
        an ``add`` of a device larger than the cost model can simulate,
        so a bad elasticity schedule cannot fail halfway through a
        run."""
        events = list(fleet_events or [])
        for index, event in enumerate(events):
            if not isinstance(event, FleetEvent):
                raise InvalidConfigError(
                    f"fleet_events entries must be FleetEvent, got "
                    f"{type(event).__name__}"
                )
            if event.action == "add":
                _check_simulable(
                    event.capacity_bytes,
                    self.system,
                    f"fleet_events[{index}] (add at t={event.at})",
                )
        validate_fleet_events(events, initial_devices)
        return deque(sorted(events, key=lambda e: e.at))

    def _start_faults(
        self,
        faults: "FaultPlan | None",
        initial_devices: int,
        fleet_events: "Iterable[FleetEvent] | None",
    ) -> "_FaultRun | None":
        """Validate a run's fault plan and build its mutable state —
        ``None`` for no plan *or* an empty one, which is what keeps the
        fault-free path (and its golden bit-identity) untouched."""
        if faults is None or faults.is_empty:
            return None
        faults.validate(initial_devices, fleet_events=fleet_events)
        return _FaultRun(
            faults,
            max_retries=self.max_retries,
            backoff=self.retry_backoff_seconds,
        )

    @staticmethod
    def _apply_faults(
        fault_run: "_FaultRun",
        fleet: DeviceFleet,
        queue: "deque[QueryRequest]",
        outcomes: dict[str, QueryOutcome],
        admitted_plans: dict[str, Admission],
        owner: dict[str, DeviceState],
        clock: float,
    ) -> int:
        """Apply every crash due at or before ``clock`` and move every
        backoff-expired retry to the front of the admission queue.
        Called between admissions only (right after fleet events, and
        crash/retry times are clock stops), so a placement decision
        never sees a half-crashed fleet.

        Per crash: the device's unfinished tasks are invalidated
        (:meth:`~repro.serve.placement.DeviceState.crash`), its arena
        is reconciled against the lost-query list
        (:meth:`~repro.gpusim.arena.DeviceMemoryArena.reconcile` — the
        ledger drains through the audited force-release path), every
        lost query's in-flight bookkeeping is dropped, and the query is
        charged one attempt — requeued with backoff, or recorded as
        failed when the budget is spent.  Returns the total number of
        scheduled tasks invalidated, which the loop subtracts from its
        in-flight task accounting."""
        lost_tasks = 0
        while fault_run.crashes and fault_run.crashes[0].at <= clock:
            event = fault_run.crashes.popleft()
            lost = fleet.crash_device(event.device, event.at)
            fleet[event.device].arena.reconcile(lost, at=event.at)
            for qid in lost:
                outcomes.pop(qid, None)
                lowered = admitted_plans.pop(qid, None)
                if lowered is not None:
                    lost_tasks += len(lowered)
                owner.pop(qid, None)
                request = fault_run.live.pop(qid)
                fault_run.record_failure(
                    request, event.at, device=event.device
                )
            fault_run.crashed_devices[event.device] = event.at
        fault_run.requeue_ready(queue, clock)
        return lost_tasks

    # ------------------------------------------------------------------
    def _stream_wait_estimate(
        self,
        fleet: DeviceFleet,
        wait_queue: "deque[QueryRequest]",
        queued_profiles: dict[str, _Profile],
        at: float,
    ) -> float:
        """Fleet-wide estimated admission wait for a query arriving at
        ``at``: outstanding running work past ``at`` (by cached
        predicted finishes) plus the queued queries' cached solo
        makespans, divided by the device count.  Optimistic — ignores
        memory fragmentation and lane contention — which biases
        shedding toward admitting; the SLO is a backpressure valve, not
        a latency guarantee.  Only *accepting* devices count — a
        retiring device's remaining work serves nobody in the queue —
        and queued solos use the scheduler-default calibration (which
        device they will land on is unknowable here), read from each
        queued request's carried profile (``queued_profiles``, see
        :meth:`_queued_profile`).  The running part is summed first,
        then the queue in order.  O(running + queued), every term
        served from caches."""
        backlog = 0.0
        active = fleet.active()
        if not active:
            # Reachable only mid-fault: every device crashed and a
            # pending `add` event will bring replacements.  Until one
            # joins, the estimated wait is unbounded.
            return float("inf")
        for device in active:
            for finish in device.predicted_finish.values():
                if finish > at:
                    backlog += finish - at
        # The carried profile read inline: a full queue is re-summed at
        # every shed arrival, so a helper call per entry shows up in
        # the arrival gaps.
        for queued in wait_queue:
            profile = queued_profiles.get(queued.qid)
            if profile is None:
                profile = queued_profiles[queued.qid] = self._profile(queued)
            seconds = profile.solo_seconds
            if seconds is None:
                seconds = self._solo_seconds(profile)
            backlog += seconds
        return backlog / len(active)

    def _event_loop(
        self,
        arrivals: "Iterator[QueryRequest]",
        *,
        shedding: bool,
        max_queue_depth: int | None,
        slo_wait_seconds: float | None,
        compact_every: int | None,
        fleet_events: "Iterable[FleetEvent] | None",
        faults: "FaultPlan | None",
    ) -> ServeReport:
        """The serve loop behind both entry points.

        Each pass applies due fleet events and faults, jumps an idle
        fleet to the next event, ingests every arrival due by the clock
        (shedding at ingestion when ``shedding`` and a limit applies),
        sheds expired deadlines, admits while the admission policy's
        chosen head can be placed (head-of-line blocking on that head),
        runs the stealing pass, extends each device's schedule with its
        wave of plan admissions, reads each new query's finish once, and
        advances the clock to the next finish, arrival, fleet event or
        fault wakeup, releasing everything due.  Every run ends with
        :func:`~repro.serve.faults.check_fault_invariants`.
        """
        fleet = self._build_fleet()
        events = self._sorted_events(fleet_events, len(fleet))
        fault_run = self._start_faults(faults, len(fleet), fleet_events)
        policy = create_placement_policy(self.placement)
        policy.reset()
        admission = create_admission_policy(self.admission)
        admission.reset()
        self._profiles = {}
        admission_ctx = AdmissionContext(
            clock=0.0,
            solo_seconds=lambda request: self._solo_seconds(
                self._profile(request)
            ),
        )
        #: Set the first time a deadline-bearing query is ingested by a
        #: shedding run; gates the per-wave expiry sweep so
        #: deadline-free streams run the exact historical path.
        any_deadlines = False

        next_req: QueryRequest | None = next(arrivals, None)
        seen: set[str] = set()
        last_submit = 0.0
        wait_queue: deque[QueryRequest] = deque()
        #: Each queued request's profile under the scheduler default,
        #: from its first use (see :meth:`_queued_profile`) until it
        #: leaves the wait queue: admitted, stolen, expired, refused by
        #: an admission fault or failed.
        queued_profiles: dict[str, _Profile] = {}
        outcomes: dict[str, QueryOutcome] = {}
        admitted_plans: dict[str, Admission] = {}
        owner: dict[str, DeviceState] = {}
        completed: list[QueryOutcome] = []
        shed: list[ShedOutcome] = []
        queue_depths: list[int] = []
        #: ``(finish, qid, generation)`` — the generation (the query's
        #: fault-retry count at push time, always 0 fault-free) lets a
        #: release distinguish a live finish from a stale entry whose
        #: query was lost to a crash (and possibly re-admitted) after
        #: the push.  The extra field never changes heap order for
        #: distinct qids, so fault-free runs pop identically.
        finish_heap: list[tuple[float, str, int]] = []
        admitted_wave: list[tuple[DeviceState, str]] = []
        clock = 0.0
        arrived = 0
        inflight_tasks = 0
        peak_inflight_tasks = 0
        peak_retained_tasks = 0
        max_tasks_per_query = 0
        retired_tasks = 0
        compactions = 0
        released_since_compact = 0

        def take() -> QueryRequest:
            """Consume ``next_req`` — validating submit order and qid
            uniqueness, counting the arrival — and pull the next one."""
            nonlocal next_req, last_submit, arrived
            request = next_req
            assert request is not None
            if request.submit_at < last_submit:
                raise InvalidConfigError(
                    f"stream arrivals must be sorted by submit_at: "
                    f"{request.qid!r} at {request.submit_at} after "
                    f"{last_submit}"
                )
            last_submit = request.submit_at
            if request.qid in seen:
                raise InvalidConfigError("query ids must be unique")
            seen.add(request.qid)
            arrived += 1
            next_req = next(arrivals, None)
            return request

        def ingest(request: QueryRequest) -> None:
            """Shed or enqueue one arrival, verdict referenced to the
            arrival's own submit time."""
            depth = len(wait_queue)
            queue_depths.append(depth)
            if max_queue_depth is not None and depth >= max_queue_depth:
                shed.append(ShedOutcome(
                    qid=request.qid,
                    submit_at=request.submit_at,
                    reason="queue_full",
                    queue_depth=depth,
                    estimated_wait_seconds=self._stream_wait_estimate(
                        fleet, wait_queue, queued_profiles, request.submit_at
                    ),
                    class_name=class_name_of(request),
                    tenant=tenant_of(request),
                ))
                return
            slo = (
                request.slo_wait_seconds
                if request.slo_wait_seconds is not None
                else slo_wait_seconds
            )
            if shedding and slo is not None:
                wait = self._stream_wait_estimate(
                    fleet, wait_queue, queued_profiles, request.submit_at
                )
                if wait > slo:
                    shed.append(ShedOutcome(
                        qid=request.qid,
                        submit_at=request.submit_at,
                        reason="slo_wait",
                        queue_depth=depth,
                        estimated_wait_seconds=wait,
                        class_name=class_name_of(request),
                        tenant=tenant_of(request),
                    ))
                    return
            wait_queue.append(request)

        def admitted(device: DeviceState, qid: str) -> None:
            """In-flight task accounting for one fresh admission."""
            nonlocal inflight_tasks, max_tasks_per_query, peak_inflight_tasks
            ntasks = len(admitted_plans[qid])
            inflight_tasks += ntasks
            if ntasks > max_tasks_per_query:
                max_tasks_per_query = ntasks
            if inflight_tasks > peak_inflight_tasks:
                peak_inflight_tasks = inflight_tasks
            admitted_wave.append((device, qid))

        while (
            wait_queue
            or next_req is not None
            or fleet.any_running()
            or (fault_run is not None and fault_run.has_work())
        ):
            self._apply_fleet_events(fleet, events, clock)
            if fault_run is not None:
                inflight_tasks -= self._apply_faults(
                    fault_run, fleet, wait_queue, outcomes, admitted_plans,
                    owner, clock,
                )
            if (
                not wait_queue
                and next_req is not None
                and next_req.submit_at > clock
                and not fleet.any_running()
            ):
                # Idle jump — but never past a fleet event or a fault
                # wakeup (crash / retry-ready), which may change what
                # the next admission can see.
                horizon = next_req.submit_at
                if events and events[0].at < horizon:
                    horizon = events[0].at
                if fault_run is not None:
                    wake = fault_run.next_wake()
                    if wake is not None and wake < horizon:
                        horizon = wake
                clock = horizon
                self._apply_fleet_events(fleet, events, clock)
                if fault_run is not None:
                    inflight_tasks -= self._apply_faults(
                        fault_run, fleet, wait_queue, outcomes,
                        admitted_plans, owner, clock,
                    )
            elif (
                fault_run is not None
                and not fleet.any_running()
                and not wait_queue
                and next_req is None
                and fault_run.has_work()
            ):
                # Stream exhausted, fleet idle: only a waiting retry can
                # produce more work — jump to the next fault wakeup,
                # clamped to fleet events.
                horizon = fault_run.next_wake()
                assert horizon is not None  # has_work() implies a retry
                if events and events[0].at < horizon:
                    horizon = events[0].at
                clock = max(clock, horizon)
                self._apply_fleet_events(fleet, events, clock)
                inflight_tasks -= self._apply_faults(
                    fault_run, fleet, wait_queue, outcomes, admitted_plans,
                    owner, clock,
                )

            # Fleet events are applied only above, so whether an 'add'
            # is pending holds for the rest of the pass.
            can_grow = any(e.action == "add" for e in events)
            if (
                fault_run is not None
                and not can_grow
                and not fleet.active()
            ):
                # Fleet lost: every accepting device crashed (or was
                # retiring) and none will join.  Nothing waiting or
                # still arriving can ever be admitted: fail the queue
                # and retry backlog, then the rest of the stream
                # (validated exactly as ingestion would) — conservation
                # must still account for every arrival.  Queries still
                # draining on a retiring device finish normally.
                fault_run.fail_stranded(wait_queue)
                queued_profiles.clear()
                while next_req is not None:
                    fault_run.fail_now(take(), reason="fleet_lost")

            # Ingest every arrival due by now; ingestion itself never
            # advances the clock.
            while next_req is not None and next_req.submit_at <= clock:
                request = take()
                if (
                    shedding
                    and not any_deadlines
                    and hard_deadline(request) != math.inf
                ):
                    any_deadlines = True
                ingest(request)

            if any_deadlines and wait_queue:
                # Shed queued queries whose hard deadline has already
                # passed — they can no longer finish in time, and
                # admitting them would burn fleet time a live query
                # needs.  Verdict "deadline_expired" (distinct from the
                # ingestion-time "slo_wait") so audits can attribute
                # deadline sheds per class.  Runs before admission so an
                # expired query is never admitted at or past its
                # deadline; a fault-retried query carries its original
                # class and is swept by the same rule.
                expired = [
                    r for r in wait_queue if hard_deadline(r) <= clock
                ]
                if expired:
                    depth = len(wait_queue)
                    gone = {r.qid for r in expired}
                    for request in expired:
                        shed.append(ShedOutcome(
                            qid=request.qid,
                            submit_at=request.submit_at,
                            reason="deadline_expired",
                            queue_depth=depth,
                            estimated_wait_seconds=(
                                clock - request.submit_at
                            ),
                            class_name=class_name_of(request),
                            tenant=tenant_of(request),
                        ))
                    for pos in range(len(wait_queue) - 1, -1, -1):
                        if wait_queue[pos].qid in gone:
                            del wait_queue[pos]
                    for qid in gone:
                        queued_profiles.pop(qid, None)

            # Admit while the admission policy's chosen head can be
            # placed somewhere; head-of-line blocking — on the *chosen*
            # head — keeps admission starvation-free.  FIFO (the
            # default) always chooses index 0.
            while wait_queue:
                pos = (
                    self._admission_pos(
                        admission, wait_queue, admission_ctx, clock
                    )
                    if admission.reorders
                    else 0
                )
                request = wait_queue[pos]
                if (
                    fault_run is not None
                    and fault_run.take_admission_fault(request.qid)
                ):
                    # Planned transient admission failure: the refusal
                    # charges the same retry budget a crash does, and
                    # the query re-queues after its backoff.
                    del wait_queue[pos]
                    queued_profiles.pop(request.qid, None)
                    fault_run.record_failure(request, clock)
                    continue
                profile = self._queued_profile(queued_profiles, request)
                placed = self._place(
                    request, profile, fleet, policy, outcomes, clock,
                    can_grow=can_grow,
                )
                if placed is None:
                    break
                del wait_queue[pos]
                del queued_profiles[request.qid]
                device = self._admit(
                    request, profile, placed, outcomes, admitted_plans,
                    owner, clock, fault_run=fault_run,
                )
                admission.record_admit(request, admission_ctx)
                admitted(device, request.qid)

            if self.steal and wait_queue:
                for device, qid in self._steal(
                    wait_queue, queued_profiles, fleet, outcomes,
                    admitted_plans, owner, clock, fault_run=fault_run,
                ):
                    admitted(device, qid)

            if wait_queue and not fleet.any_running():
                if events:
                    # Nothing running and the head is blocked: only a
                    # fleet event can change the picture.
                    clock = max(clock, events[0].at)
                    continue
                if fault_run is not None:
                    wake = fault_run.next_wake()
                    if wake is not None:
                        # A pending crash or retry is the only
                        # remaining event source.
                        clock = max(clock, wake)
                        continue
                # Livelock guard: unreachable under the current policy
                # — with an empty arena every accepting device offers
                # the unconstrained placement — but a future gate that
                # drops the `running` condition must fail loudly, not
                # hang.
                head = wait_queue[0]  # pragma: no cover - _place bug
                raise SchedulingError(  # pragma: no cover
                    f"query {head.qid!r} cannot be admitted on an idle "
                    "fleet"
                )

            # One engine extension per device that admitted queries:
            # later admissions join the tail of every FIFO lane on their
            # device, so already-placed tasks never move and a wave
            # costs O(new tasks).
            extended = False
            for device in fleet:
                if not device.wave.admissions:
                    continue
                extended = True
                if device.engine is None:
                    device.engine = PipelineEngine(
                        device.resources, device=device.index
                    )
                device.schedule = device.engine.extend(
                    device.schedule, device.wave, in_place=True
                )
                device.wave = Wave()

            # Each admitted query's finish is fixed by its wave's
            # extension (the FIFO-tail guarantee above), so release
            # events come from a heap instead of re-reading the
            # schedule — which compaction may have trimmed — every wave.
            for device, qid in admitted_wave:
                finish = admitted_plans[qid].finish
                outcomes[qid].finish_at = finish
                outcomes[qid].deadline_missed = (
                    finish > outcomes[qid].deadline_at
                )
                device.predicted_finish[qid] = finish
                generation = (
                    0 if fault_run is None else fault_run.generation(qid)
                )
                heapq.heappush(finish_heap, (finish, qid, generation))
            admitted_wave = []
            if extended:
                # Only an extension adds retained tasks, so only a pass
                # that extended can set a new peak.
                retained = sum(len(device.schedule.tasks) for device in fleet)
                if retained > peak_retained_tasks:
                    peak_retained_tasks = retained

            times = []
            if finish_heap:
                times.append(finish_heap[0][0])
            if (
                not wait_queue
                and next_req is not None
                and next_req.submit_at > clock
            ):
                times.append(next_req.submit_at)
            if events:
                # Remaining fleet events are strictly in the future
                # (due ones were applied at the top of the loop) and
                # are admission opportunities.
                times.append(events[0].at)
            if fault_run is not None:
                # Crash and retry-ready times are clock stops: a query
                # must not simulate *through* a crash to a later finish,
                # and a retry must not wait past its backoff.  (Due
                # wakeups were applied at the top, so the next one is
                # strictly in the future.)
                wake = fault_run.next_wake()
                if wake is not None and wake > clock:
                    times.append(wake)
            if not times:  # pragma: no cover - loop condition re-check
                break
            clock = min(times)
            due: list[tuple[float, str, int]] = []
            while finish_heap and finish_heap[0][0] <= clock:
                due.append(heapq.heappop(finish_heap))
            for finish, qid, generation in sorted(
                due, key=lambda item: item[1]
            ):
                if (
                    fault_run is not None
                    and fault_run.generation(qid) != generation
                ):
                    # Stale entry: the query was lost to a crash (and
                    # possibly re-admitted under a newer generation)
                    # after this finish was predicted.
                    continue
                completed.append(outcomes.pop(qid))
                device = owner.pop(qid)
                device.arena.release(qid, at=clock)
                device.running.remove(qid)
                del device.predicted_finish[qid]
                inflight_tasks -= len(admitted_plans.pop(qid))
                released_since_compact += 1
                if fault_run is not None:
                    fault_run.live.pop(qid, None)
            fleet.finalize_retirements()
            if (
                compact_every is not None
                and released_since_compact >= compact_every
            ):
                for device in fleet:
                    if device.engine is not None:
                        retired_tasks += device.engine.compact(
                            device.schedule, clock
                        )
                compactions += 1
                released_since_compact = 0

        fleet.check_drained()
        if queued_profiles:  # pragma: no cover - a wait-queue exit missed
            raise SchedulingError(
                f"profiles of {sorted(queued_profiles)} outlived the wait "
                "queue"
            )
        report = ServeReport(
            outcomes=completed,
            arrivals=arrived,
            makespan=max(device.schedule.makespan for device in fleet),
            device_schedules=[device.schedule for device in fleet],
            device_peak_bytes=fleet.device_peaks(),
            device_capacity_bytes=fleet.device_capacities(),
            arenas=[device.arena for device in fleet],
            shed=shed,
            failed=list(fault_run.failed) if fault_run is not None else [],
            peak_retained_tasks=peak_retained_tasks,
            peak_inflight_tasks=peak_inflight_tasks,
            max_tasks_per_query=max_tasks_per_query,
            retired_tasks=retired_tasks,
            compactions=compactions,
            queue_depths=queue_depths,
        )
        check_fault_invariants(
            report,
            faults or FaultPlan(),
            arrivals=arrived,
            max_retries=self.max_retries,
        )
        return report
