"""The serving layer's report vocabulary.

A :class:`~repro.serve.scheduler.QueryScheduler` run takes
:class:`QueryRequest` arrivals and ends each in one outcome: a
:class:`QueryOutcome` (completed), a :class:`ShedOutcome` (shed by a
streaming run) or a :class:`~repro.serve.faults.FailedOutcome`.
:class:`ServeReport` holds them with the fleet's schedules, arenas and
counters, and derives every summary the benches and tests read.
Nothing here runs a schedule, so nothing here imports the scheduler.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable

from repro.data.spec import JoinSpec
from repro.errors import InvalidConfigError
from repro.gpusim.arena import DeviceMemoryArena
from repro.pipeline.tasks import Schedule
from repro.serve.admission import QueryClass
from repro.serve.faults import FailedOutcome


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
    :meth:`~repro.serve.scheduler.QueryScheduler.run_stream` (simulated
    seconds; overrides the stream-wide default; ignored by
    :meth:`~repro.serve.scheduler.QueryScheduler.run_online`, which
    never sheds).

    Two values are derived once, at construction: ``deadline_at``, the
    absolute hard deadline in simulated seconds (``submit_at`` plus the
    class's ``deadline_seconds``; ``inf`` = none), and ``edf_key``,
    ``(deadline_at, qid)``, the rank
    :class:`~repro.serve.admission.EdfAdmission` orders the queue by.
    They are instance attributes, not dataclass fields, as in
    :mod:`repro.frozen`: ``fields()``, ``repr``, ``==``, ``hash``,
    ``asdict`` and store digests never see them,
    :func:`dataclasses.replace` derives them afresh, and pickling keeps
    them.
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
        qc = self.query_class
        if qc is not None and not isinstance(qc, QueryClass):
            raise InvalidConfigError(
                f"{self.qid}: query_class must be a QueryClass, got "
                f"{type(qc).__name__}"
            )
        deadline = math.inf
        if qc is not None and qc.deadline_seconds is not None:
            deadline = self.submit_at + qc.deadline_seconds
        object.__setattr__(self, "deadline_at", deadline)
        object.__setattr__(self, "edf_key", (deadline, self.qid))


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
    #: Stored rather than derived so the run audit
    #: (:func:`~repro.serve.audit.check_fault_invariants`) can check the
    #: recording itself.
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
    """The outcome of one scheduler run
    (:meth:`~repro.serve.scheduler.QueryScheduler.run_online` or
    :meth:`~repro.serve.scheduler.QueryScheduler.run_stream`).

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
    #: The drained per-device arenas, in device order — their ledgers
    #: and timelines are what the run audit checks.
    arenas: list[DeviceMemoryArena] = field(repr=False)
    #: Each device's own schedule, in device order.  Complete for
    #: ``run_online`` (nothing is compacted), so tests can re-simulate
    #: a device from scratch; the merged :attr:`schedule` cannot serve
    #: that purpose because it unions devices whose same-named
    #: resources are distinct queues.
    device_schedules: list[Schedule] = field(default_factory=list, repr=False)
    #: Exact per-device reservation high-water marks, in **bytes**.
    device_peak_bytes: tuple[int, ...] = ()
    #: Per-device arena capacities, in **bytes**.
    device_capacity_bytes: tuple[int, ...] = ()
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
