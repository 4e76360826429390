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
not, is audited once by :func:`~repro.serve.audit.check_fault_invariants`.

The simulation is deterministic: identical request lists produce
identical schedules, admissions, placements and latencies, for any
device count, calibration mix, event list, fault plan and placement
policy.
"""

from __future__ import annotations

import heapq
import math
from collections import deque
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
from repro.gpusim.calibration import Calibration
from repro.gpusim.spec import SystemSpec
from repro.pipeline.engine import Admission, PipelineEngine, Wave
from repro.serve.admission import (
    AdmissionContext,
    AdmissionPolicy,
    FIFO,
    class_name_of,
    create_admission_policy,
    hard_deadline,
    tenant_of,
)
from repro.serve.audit import check_fault_invariants
from repro.serve.faults import FaultPlan, _FaultRun
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
# The report vocabulary's public names stay importable from here.
from repro.serve.report import (
    ClassStats,
    QueryOutcome,
    QueryRequest,
    ServeReport,
    ShedOutcome,
    percentile,
)


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


def _is_int(value: object) -> bool:
    """An int that is not a bool (``True`` is an int to Python)."""
    return isinstance(value, int) and not isinstance(value, bool)


class _Profile:
    """What admission reads about one request under one calibration.

    One entry per (spec, materialize, pin, calibration) and run (see
    :meth:`_Run._profile`); ``spec`` and ``materialize`` are
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
    produce identical reports.  Each run is one :class:`_Run`, which
    holds that run's state; the scheduler keeps its configuration and
    the strategy objects it shares across runs.  A run prices each
    request once: its footprints, solo choice, solo/alone estimates
    and admitted plans live in the run's profile table
    (:meth:`_Run._profile`), filled through the process-wide
    :mod:`repro.core.estimate_cache` — pure memoizations, so cached and
    recomputed values are interchangeable.
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
        if not _is_int(devices) or devices < 1:
            raise InvalidConfigError(
                f"devices must be an int >= 1, got {devices!r}"
            )
        if not _is_int(max_retries) or max_retries < 0:
            raise InvalidConfigError(
                f"max_retries must be an int >= 0, got {max_retries!r}"
            )
        if not retry_backoff_seconds >= 0:
            raise InvalidConfigError(
                "retry_backoff_seconds must be >= 0, got "
                f"{retry_backoff_seconds!r}"
            )
        for name, width in (lanes or {}).items():
            if not _is_int(width) or width < 1:
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

    # ------------------------------------------------------------------
    def run_online(
        self,
        requests: Iterable[QueryRequest],
        *,
        fleet_events: "Iterable[FleetEvent] | None" = None,
        faults: "FaultPlan | None" = None,
    ) -> ServeReport:
        """Serve a request list to completion: :meth:`run_stream`'s loop
        with no queue cap, no SLO or deadline shedding, and compaction
        off.

        Requests may come in any order, and in any iterable; they are
        admitted by ``submit_at`` (stable for ties) and the report lists
        outcomes in the given order.  Every device keeps its whole
        schedule (:attr:`ServeReport.device_schedules`), so tests can
        re-simulate each device from scratch against it
        (:func:`repro.pipeline.oracle.check_batch_oracle`).
        ``fleet_events`` adds/retires devices at their timestamps,
        between admissions; ``faults`` injects device crashes and
        transient admission failures (see
        :class:`~repro.serve.faults.FaultPlan`), with lost queries
        retried through the same admission path.  Deterministic:
        identical request, event and fault lists produce identical
        reports.
        """
        requests = list(requests)
        position = {request.qid: i for i, request in enumerate(requests)}
        report = _Run(
            self,
            iter(sorted(requests, key=lambda r: r.submit_at)),
            fleet_events=fleet_events,
            faults=faults,
        ).serve()
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
          whose :meth:`_Run._stream_wait_estimate` (referenced to its
          own ``submit_at``) exceeds its SLO is shed with reason
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
        return _Run(
            self,
            iter(requests),
            shedding=True,
            max_queue_depth=max_queue_depth,
            slo_wait_seconds=slo_wait_seconds,
            compact_every=compact_every,
            fleet_events=fleet_events,
            faults=faults,
        ).serve()

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


class _Run:
    """One run of the serve loop, behind both entry points.

    :meth:`QueryScheduler.run_online` and
    :meth:`QueryScheduler.run_stream` each build one and call
    :meth:`serve`.  It holds everything that lives for one run: the
    fleet with its sorted fleet events and fault state, the placement
    and admission policies, the arrivals still to come, the wait queue
    with each queued request's carried profile, the profile table, the
    in-flight books (outcomes, admitted plans, owners and the finish
    heap), the shed list, the sampled queue depths, the clock, and the
    task and compaction counters.  Each phase of a loop pass is one
    method over that state, so each admission decision has one home.

    The fault-free path keeps ``fault_run`` at ``None``, and each phase
    with a fault hook tests it once, so an empty fault plan runs
    exactly the fault-free code.
    """

    __slots__ = (
        "scheduler", "system", "calibration", "fleet", "events",
        "can_grow", "fault_run", "policy", "admission", "admission_ctx",
        "shedding", "max_queue_depth", "slo_wait_seconds", "compact_every",
        "arrivals", "next_req", "seen", "last_submit", "any_deadlines",
        "queue", "queued_profiles", "profiles",
        "outcomes", "admitted_plans", "owner", "finish_heap",
        "admitted_wave", "completed", "shed", "queue_depths", "clock",
        "inflight_tasks", "peak_inflight_tasks", "peak_retained_tasks",
        "max_tasks_per_query", "retired_tasks", "compactions",
        "released_since_compact",
    )

    def __init__(
        self,
        scheduler: QueryScheduler,
        arrivals: "Iterator[QueryRequest]",
        *,
        fleet_events: "Iterable[FleetEvent] | None",
        faults: "FaultPlan | None",
        shedding: bool = False,
        max_queue_depth: int | None = None,
        slo_wait_seconds: float | None = None,
        compact_every: int | None = None,
    ) -> None:
        self.scheduler = scheduler
        self.system = scheduler.system
        self.calibration = scheduler.calibration
        self.fleet = fleet = scheduler._build_fleet()
        self.events = scheduler._sorted_events(fleet_events, len(fleet))
        #: Is an ``add`` fleet event pending?  Events are applied only
        #: by :meth:`_apply_due`, which refreshes this, so it holds for
        #: the rest of a pass.
        self.can_grow = any(e.action == "add" for e in self.events)
        #: The run's fault state: ``None`` for no plan *or* an empty
        #: one, which is what keeps the fault-free path (and its golden
        #: bit-identity) untouched.
        self.fault_run: _FaultRun | None = None
        if faults is not None and not faults.is_empty:
            faults.validate(len(fleet), fleet_events=fleet_events)
            self.fault_run = _FaultRun(
                faults,
                max_retries=scheduler.max_retries,
                backoff=scheduler.retry_backoff_seconds,
            )
        self.policy = create_placement_policy(scheduler.placement)
        self.policy.reset()
        self.admission = create_admission_policy(scheduler.admission)
        self.admission.reset()
        self.admission_ctx = AdmissionContext(
            clock=0.0,
            solo_seconds=lambda request: self._solo_seconds(
                self._profile(request)
            ),
        )
        self.shedding = shedding
        self.max_queue_depth = max_queue_depth
        self.slo_wait_seconds = slo_wait_seconds
        self.compact_every = compact_every
        self.arrivals = arrivals
        self.next_req: QueryRequest | None = next(arrivals, None)
        #: The qids taken so far, one per arrival.
        self.seen: set[str] = set()
        self.last_submit = 0.0
        #: Set the first time a deadline-bearing query is ingested by a
        #: shedding run; gates the per-wave expiry sweep so
        #: deadline-free streams run the exact historical path.
        self.any_deadlines = False
        self.queue: deque[QueryRequest] = deque()
        #: Each queued request's profile under the scheduler default,
        #: from its first use (see :meth:`_queued_profile`) until it
        #: leaves the wait queue (:meth:`_leave_queue`).
        self.queued_profiles: dict[str, _Profile] = {}
        #: The run's admission profiles (:meth:`_profile`): workloads
        #: repeat spec templates, and everything admission reads about
        #: a request is a pure function of (spec, materialize, pin,
        #: calibration).
        self.profiles: dict[
            tuple[JoinSpec, bool, str | None, Calibration | None],
            _Profile,
        ] = {}
        self.outcomes: dict[str, QueryOutcome] = {}
        self.admitted_plans: dict[str, Admission] = {}
        self.owner: dict[str, DeviceState] = {}
        #: ``(finish, qid, generation)`` — the generation (the query's
        #: fault-retry count at push time, always 0 fault-free) lets a
        #: release distinguish a live finish from a stale entry whose
        #: query was lost to a crash (and possibly re-admitted) after
        #: the push.  The extra field never changes heap order for
        #: distinct qids, so fault-free runs pop identically.
        self.finish_heap: list[tuple[float, str, int]] = []
        self.admitted_wave: list[tuple[DeviceState, str]] = []
        self.completed: list[QueryOutcome] = []
        self.shed: list[ShedOutcome] = []
        self.queue_depths: list[int] = []
        self.clock = 0.0
        self.inflight_tasks = 0
        self.peak_inflight_tasks = 0
        self.peak_retained_tasks = 0
        self.max_tasks_per_query = 0
        self.retired_tasks = 0
        self.compactions = 0
        self.released_since_compact = 0

    # -- the run's profiles ---------------------------------------------
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
        profile = self.profiles.get(key)
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
            self.profiles[key] = profile
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

    def _queued_profile(self, request: QueryRequest) -> _Profile:
        """Queued ``request``'s profile under the scheduler default,
        carried in ``queued_profiles`` (qid to profile) from its first
        use until the request leaves the wait queue."""
        profile = self.queued_profiles.get(request.qid)
        if profile is None:
            profile = self.queued_profiles[request.qid] = self._profile(
                request
            )
        return profile

    def _solo_seconds(self, profile: _Profile) -> float:
        """Makespan of ``profile``'s unconstrained placement on an idle
        device, under the profile's calibration — so heterogeneous
        placement comparisons see each device's own speed.  Estimated
        once per profile."""
        if profile.solo_seconds is None:
            strategy = self.scheduler._strategy(
                profile.solo_key, profile.calibration
            )
            profile.solo_seconds = strategy.estimate(
                profile.spec, materialize=profile.materialize
            ).seconds
        return profile.solo_seconds

    @staticmethod
    def _grant(key: str, reserved_bytes: int) -> int | None:
        """The device-memory grant strategy ``key`` is built with:
        co-processing shrinks its working sets to honour
        ``reserved_bytes`` (its ``device_budget``); every other strategy
        takes none."""
        if key in (COPROCESSING, COPROCESSING_ADAPTIVE):
            return reserved_bytes
        return None

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
                strategy = self.scheduler._strategy(
                    key, profile.calibration, grant
                )
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
            strategy = self.scheduler._strategy(
                key, profile.calibration, self._grant(key, need)
            )
            plan = profile.plans[key] = strategy.cached_prepare(
                request.spec, materialize=request.materialize
            )
        return plan

    # -- the loop ---------------------------------------------------------
    def serve(self) -> ServeReport:
        """Run the loop to the end and return the audited report.  Each
        pass calls the phase methods in the order the loop lists them,
        each only when a cheap test says it may have work (a hot-stream
        pass costs a few microseconds); a pass whose chosen head is
        blocked on an idle fleet ends at :meth:`_stop_blocked`."""
        fleet, queue, fault_run = self.fleet, self.queue, self.fault_run
        events = self.events
        steal = self.scheduler.steal
        compact_every = self.compact_every
        while (
            queue
            or self.next_req is not None
            or fleet.any_running()
            or (fault_run is not None and fault_run.has_work())
        ):
            if events or fault_run is not None:
                self._apply_due()
            if not queue:
                self._idle_jump()
            self._ingest()
            if self.any_deadlines and queue:
                self._expire_deadlines()
            if queue:
                self._admit_heads()
            if steal and queue:
                self._steal()
            if queue and not fleet.any_running():
                self._stop_blocked()
                continue
            if self.admitted_wave:
                self._extend()
            if not self._advance():  # pragma: no cover - loop re-check
                break
            if (
                compact_every is not None
                and self.released_since_compact >= compact_every
            ):
                self._compact()
        # The admission context's estimator refers back to this run; drop
        # it, so reference counting frees the run's state on return.
        del self.admission_ctx
        return self._report()

    def _apply_due(self) -> None:
        """Apply every fleet event due at or before the clock, in
        order, then every due crash, and move every backoff-expired
        retry to the front of the admission queue.  Called between
        admissions only (at the top of a pass and after an idle jump;
        event, crash and retry times are clock stops), so a placement
        decision never sees a half-applied or half-crashed fleet.

        Per crash: the device's unfinished tasks are invalidated
        (:meth:`~repro.serve.placement.DeviceState.crash`), its arena
        is reconciled against the lost-query list
        (:meth:`~repro.gpusim.arena.DeviceMemoryArena.reconcile` — the
        ledger drains through the audited force-release path), every
        lost query's in-flight bookkeeping and tasks are dropped, and
        the query is charged one attempt — requeued with backoff, or
        recorded as failed when the budget is spent."""
        clock = self.clock
        events = self.events
        while events and events[0].at <= clock:
            event = events.popleft()
            if event.action == "add":
                self.fleet.add_device(
                    event.capacity_bytes, calibration=event.calibration
                )
            else:
                self.fleet.retire_device(event.device)
            self.can_grow = any(e.action == "add" for e in events)
        fault_run = self.fault_run
        if fault_run is None:
            return
        while fault_run.crashes and fault_run.crashes[0].at <= clock:
            event = fault_run.crashes.popleft()
            lost = self.fleet.crash_device(event.device, event.at)
            self.fleet[event.device].arena.reconcile(lost, at=event.at)
            for qid in lost:
                self.outcomes.pop(qid, None)
                lowered = self.admitted_plans.pop(qid, None)
                if lowered is not None:
                    self.inflight_tasks -= len(lowered)
                self.owner.pop(qid, None)
                request = fault_run.live.pop(qid)
                fault_run.record_failure(
                    request, event.at, device=event.device
                )
            fault_run.crashed_devices[event.device] = event.at
        fault_run.requeue_ready(self.queue, clock)

    def _idle_jump(self) -> None:
        """With nothing queued (the caller checks) or running, jump the
        clock to the next arrival — or, once the stream is exhausted, to
        the next fault wakeup, since only a waiting retry can bring more
        work — but never past a fleet event or a fault wakeup (crash or
        retry-ready), which may change what the next admission can see;
        then apply what is due there."""
        next_req = self.next_req
        if next_req is not None:
            horizon = next_req.submit_at
            if horizon <= self.clock:
                return
        else:
            horizon = math.inf
        fault_run = self.fault_run
        if fault_run is not None:
            if next_req is None and not fault_run.has_work():
                return
            wake = fault_run.next_wake()
            if wake is not None and wake < horizon:
                horizon = wake
        elif next_req is None:
            return
        if self.fleet.any_running():
            return
        events = self.events
        if events and events[0].at < horizon:
            horizon = events[0].at
        self.clock = horizon
        self._apply_due()

    def _take(self) -> QueryRequest:
        """Consume ``next_req`` — validating submit order and qid
        uniqueness, counting the arrival — and pull the next one."""
        request = self.next_req
        assert request is not None
        if request.submit_at < self.last_submit:
            raise InvalidConfigError(
                f"stream arrivals must be sorted by submit_at: "
                f"{request.qid!r} at {request.submit_at} after "
                f"{self.last_submit}"
            )
        self.last_submit = request.submit_at
        if request.qid in self.seen:
            raise InvalidConfigError("query ids must be unique")
        self.seen.add(request.qid)
        self.next_req = next(self.arrivals, None)
        return request

    def _ingest(self) -> None:
        """Shed or enqueue every arrival due by the clock, each verdict
        referenced to the arrival's own submit time; ingestion never
        advances the clock.

        A lost fleet is settled first: when every accepting device
        crashed (or was retiring) and none will join, nothing waiting
        or still arriving can ever be admitted, so the queue, the retry
        backlog and then the rest of the stream (validated exactly as
        ingestion would) fail with reason ``"fleet_lost"`` —
        conservation must still account for every arrival.  Queries
        still draining on a retiring device finish normally."""
        queue = self.queue
        fault_run = self.fault_run
        if (
            fault_run is not None
            and not self.can_grow
            and not self.fleet.active()
        ):
            fault_run.fail_stranded(
                [self._leave_queue(0) for _ in range(len(queue))]
            )
            while self.next_req is not None:
                fault_run.fail_now(self._take(), reason="fleet_lost")
        clock = self.clock
        max_queue_depth = self.max_queue_depth
        while self.next_req is not None and self.next_req.submit_at <= clock:
            request = self._take()
            if (
                self.shedding
                and not self.any_deadlines
                and hard_deadline(request) != math.inf
            ):
                self.any_deadlines = True
            depth = len(queue)
            self.queue_depths.append(depth)
            if max_queue_depth is not None and depth >= max_queue_depth:
                self._shed(
                    request,
                    "queue_full",
                    depth,
                    self._stream_wait_estimate(request.submit_at),
                )
                continue
            slo = (
                request.slo_wait_seconds
                if request.slo_wait_seconds is not None
                else self.slo_wait_seconds
            )
            if self.shedding and slo is not None:
                wait = self._stream_wait_estimate(request.submit_at)
                if wait > slo:
                    self._shed(request, "slo_wait", depth, wait)
                    continue
            queue.append(request)

    def _stream_wait_estimate(self, at: float) -> float:
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
        active = self.fleet.active()
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
        queued_profiles = self.queued_profiles
        for queued in self.queue:
            profile = queued_profiles.get(queued.qid)
            if profile is None:
                profile = queued_profiles[queued.qid] = self._profile(queued)
            seconds = profile.solo_seconds
            if seconds is None:
                seconds = self._solo_seconds(profile)
            backlog += seconds
        return backlog / len(active)

    def _shed(
        self, request: QueryRequest, reason: str, depth: int, wait: float
    ) -> None:
        """Record ``request`` as shed for ``reason``, at wait-queue
        depth ``depth`` with estimated (or, for an expired deadline,
        endured) wait ``wait``."""
        self.shed.append(ShedOutcome(
            qid=request.qid,
            submit_at=request.submit_at,
            reason=reason,
            queue_depth=depth,
            estimated_wait_seconds=wait,
            class_name=class_name_of(request),
            tenant=tenant_of(request),
        ))

    def _leave_queue(self, pos: int) -> QueryRequest:
        """Take the request at wait-queue index ``pos`` out of the
        queue, dropping its carried profile — the one way out, whether
        the request is admitted, stolen, expired, refused by an
        admission fault or failed with the fleet."""
        request = self.queue[pos]
        del self.queue[pos]
        self.queued_profiles.pop(request.qid, None)
        return request

    def _expire_deadlines(self) -> None:
        """Shed queued queries whose hard deadline has already passed —
        they can no longer finish in time, and admitting them would
        burn fleet time a live query needs.  Verdict
        ``"deadline_expired"`` (distinct from the ingestion-time
        ``"slo_wait"``) so audits can attribute deadline sheds per
        class.  Runs before admission so an expired query is never
        admitted at or past its deadline; a fault-retried query carries
        its original class and is swept by the same rule."""
        clock = self.clock
        queue = self.queue
        expired = [r for r in queue if hard_deadline(r) <= clock]
        if not expired:
            return
        depth = len(queue)
        for request in expired:
            self._shed(
                request, "deadline_expired", depth, clock - request.submit_at
            )
        gone = {r.qid for r in expired}
        for pos in range(len(queue) - 1, -1, -1):
            if queue[pos].qid in gone:
                self._leave_queue(pos)

    def _admission_pos(self) -> int:
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
        policy = self.admission
        ctx = self.admission_ctx
        ctx.clock = self.clock
        arrived = list(self.queue)
        pos = policy.select(arrived, ctx)
        if not _is_int(pos) or not 0 <= pos < len(arrived):
            raise SchedulingError(
                f"admission policy {policy.key!r} selected {pos!r}; "
                f"expected an index in [0, {len(arrived)})"
            )
        return pos

    def _admit_heads(self) -> None:
        """Admit while the admission policy's chosen head can be placed
        somewhere; head-of-line blocking — on the *chosen* head — keeps
        admission starvation-free.  FIFO (the default) always chooses
        index 0."""
        queue = self.queue
        admission = self.admission
        fault_run = self.fault_run
        while queue:
            pos = self._admission_pos() if admission.reorders else 0
            request = queue[pos]
            if (
                fault_run is not None
                and fault_run.take_admission_fault(request.qid)
            ):
                # Planned transient admission failure: the refusal
                # charges the same retry budget a crash does, and the
                # query re-queues after its backoff.
                fault_run.record_failure(self._leave_queue(pos), self.clock)
                continue
            profile = self._queued_profile(request)
            placed = self._place(request, profile)
            if placed is None:
                break
            self._leave_queue(pos)
            self._admit(request, profile, placed)
            admission.record_admit(request, self.admission_ctx)

    def _estimated_wait(
        self, need_bytes: int, device: DeviceState, free_bytes: int
    ) -> float:
        """Time until ``need_bytes`` could be free on ``device``, which
        has ``free_bytes`` free now, assuming its running queries (the
        keys of its predicted finishes) release at their predicted
        finishes and nothing else is admitted meanwhile.  Optimistic
        (contention can stretch the predictions), which biases the
        degrade-vs-wait choice toward waiting — the direction that never
        loses to serial execution."""
        if need_bytes <= free_bytes:
            return 0.0
        freed = free_bytes
        predicted_finish = device.predicted_finish
        for qid in sorted(predicted_finish, key=lambda q: predicted_finish[q]):
            freed += self.outcomes[qid].reserved_bytes
            if freed >= need_bytes:
                return max(0.0, predicted_finish[qid] - self.clock)
        return float("inf")

    def _place(
        self, request: QueryRequest, profile: _Profile
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
        the query could never be admitted on any device — unless an
        ``add`` fleet event is pending (``can_grow``), in which case it
        waits for a bigger device to join.
        """
        fleet = self.fleet
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
            chosen = self.policy.select(candidates, fleet)
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
            if self.can_grow:
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
        max_degradation = self.scheduler._max_degradation_for(request)
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
                self._estimated_wait(solo_need, other, room)
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
        *,
        stolen: bool = False,
    ) -> None:
        """Commit a placement decision: reserve the arena grant, add the
        plan's template to the device's wave under the query's alias,
        record the outcome skeleton and count the query's tasks in
        flight.  ``profile`` is the request's profile under the
        scheduler default, the one placement read.
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
        qid = request.qid
        clock = self.clock
        attempt = 0
        fault_run = self.fault_run
        if fault_run is not None:
            attempt = fault_run.generation(qid)
            fault_run.live[qid] = request
        alias = qid if attempt == 0 else f"{qid}~r{attempt}"
        if not device.arena.try_reserve(qid, need, at=clock):
            raise SchedulingError(  # pragma: no cover - _place bug
                f"placement chose device {device.index} for "
                f"{qid!r} but the reservation failed"
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
                    f"query {qid!r} widens resource "
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
        self.admitted_plans[qid] = admission
        self.outcomes[qid] = QueryOutcome(
            qid=qid,
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
        device.running.add(qid)
        self.owner[qid] = device
        # The wait estimator's predicted finish must reflect *this*
        # device's speed: the offer's alone-estimate under the device's
        # calibration, which priced this placement in `_place`.
        alone = self._offer_estimate(on_device, key, need)
        device.predicted_finish[qid] = clock + alone
        ntasks = len(admission)
        inflight = self.inflight_tasks = self.inflight_tasks + ntasks
        if ntasks > self.max_tasks_per_query:
            self.max_tasks_per_query = ntasks
        if inflight > self.peak_inflight_tasks:
            self.peak_inflight_tasks = inflight
        self.admitted_wave.append((device, qid))

    def _steal(self) -> None:
        """Work-stealing pass, run only after FIFO admission blocked on
        the queue head.  Each *idle* accepting device (in index order)
        scans the arrived queries behind the head and pulls the one
        with the smallest alone-estimate under its own calibration —
        skipping any whose placement there would exceed
        ``max_degradation`` — so head-of-line blocking can't strand an
        idle device while admissible work waits.  One steal per idle
        device per pass; everything comes from the same caches and
        commits through :meth:`_admit`, so stolen admissions obey every
        arena/engine invariant."""
        queue = self.queue
        if len(queue) <= 1:
            return
        max_degradation_for = self.scheduler._max_degradation_for
        for device in self.fleet.active():
            if device.running:
                continue
            room = device.free_bytes
            best: tuple[float, int, str, int, _Profile] | None = None
            for pos in range(1, len(queue)):
                request = queue[pos]
                base = self._queued_profile(request)
                rung = ladder_rung(base.needs, room)
                need = base.needs[rung]
                if need > room:
                    continue
                key = base.ladder[rung]
                profile = self._on_device(base, request, device)
                est = self._offer_estimate(profile, key, need)
                max_degradation = max_degradation_for(request)
                if key != base.solo_key and max_degradation is not None:
                    if est > max_degradation * self._solo_seconds(profile):
                        continue
                if best is None or (est, pos) < best[:2]:
                    best = (est, pos, key, need, base)
            if best is None:
                continue
            _, pos, key, need, base = best
            self._admit(
                self._leave_queue(pos), base, (device, key, need), stolen=True
            )

    def _stop_blocked(self) -> None:
        """The chosen head is blocked and nothing runs: only a fleet
        event, or else a pending crash or retry, can change the picture,
        so the clock jumps to the next one."""
        if self.events:
            self.clock = max(self.clock, self.events[0].at)
            return
        fault_run = self.fault_run
        if fault_run is not None:
            wake = fault_run.next_wake()
            if wake is not None:
                self.clock = max(self.clock, wake)
                return
        # Livelock guard: unreachable under the current policy — with
        # an empty arena every accepting device offers the
        # unconstrained placement — but a future gate that drops the
        # `running` condition must fail loudly, not hang.
        head = self.queue[0]  # pragma: no cover - _place bug
        raise SchedulingError(  # pragma: no cover
            f"query {head.qid!r} cannot be admitted on an idle fleet"
        )

    def _extend(self) -> None:
        """One engine extension per device that admitted queries, then
        each new query's finish, read once.

        Later admissions join the tail of every FIFO lane on their
        device, so already-placed tasks never move and a wave costs
        O(new tasks).  Each admitted query's finish is fixed by its
        wave's extension (that FIFO-tail guarantee), so release events
        come from a heap instead of re-reading the schedule — which
        compaction may have trimmed — every wave."""
        wave = self.admitted_wave
        fleet = self.fleet
        for device in fleet:
            if not device.wave.admissions:
                continue
            if device.engine is None:
                device.engine = PipelineEngine(
                    device.resources, device=device.index
                )
            device.schedule = device.engine.extend(
                device.schedule, device.wave, in_place=True
            )
            device.wave = Wave()
        outcomes, admitted_plans = self.outcomes, self.admitted_plans
        finish_heap, fault_run = self.finish_heap, self.fault_run
        for device, qid in wave:
            finish = admitted_plans[qid].finish
            outcome = outcomes[qid]
            outcome.finish_at = finish
            outcome.deadline_missed = finish > outcome.deadline_at
            device.predicted_finish[qid] = finish
            generation = 0 if fault_run is None else fault_run.generation(qid)
            heapq.heappush(finish_heap, (finish, qid, generation))
        wave.clear()
        # Only an extension adds retained tasks, so only a pass that
        # extended can set a new peak.
        retained = sum(len(device.schedule.tasks) for device in fleet)
        if retained > self.peak_retained_tasks:
            self.peak_retained_tasks = retained

    def _advance(self) -> bool:
        """Advance the clock to the next finish, arrival (when nothing
        waits), fleet event or fault wakeup, then release every query
        finishing by then and seal drained retiring devices.  Returns
        ``False`` when there is nowhere left to go."""
        clock = self.clock
        finish_heap = self.finish_heap
        next_req = self.next_req
        fault_run = self.fault_run
        times = []
        if finish_heap:
            times.append(finish_heap[0][0])
        if (
            not self.queue
            and next_req is not None
            and next_req.submit_at > clock
        ):
            times.append(next_req.submit_at)
        if self.events:
            # Remaining fleet events are strictly in the future (due
            # ones were applied at the top of the pass) and are
            # admission opportunities.
            times.append(self.events[0].at)
        if fault_run is not None:
            # Crash and retry-ready times are clock stops: a query must
            # not simulate *through* a crash to a later finish, and a
            # retry must not wait past its backoff.  (Due wakeups were
            # applied at the top, so the next one is strictly in the
            # future.)
            wake = fault_run.next_wake()
            if wake is not None and wake > clock:
                times.append(wake)
        if not times:
            return False
        clock = self.clock = min(times)
        due: list[tuple[float, str, int]] = []
        while finish_heap and finish_heap[0][0] <= clock:
            due.append(heapq.heappop(finish_heap))
        outcomes, owner = self.outcomes, self.owner
        admitted_plans, completed = self.admitted_plans, self.completed
        released = 0
        for finish, qid, generation in sorted(due, key=lambda item: item[1]):
            if fault_run is not None:
                if fault_run.generation(qid) != generation:
                    # Stale entry: the query was lost to a crash (and
                    # possibly re-admitted under a newer generation)
                    # after this finish was predicted.
                    continue
                fault_run.live.pop(qid, None)
            completed.append(outcomes.pop(qid))
            device = owner.pop(qid)
            device.arena.release(qid, at=clock)
            device.running.remove(qid)
            del device.predicted_finish[qid]
            self.inflight_tasks -= len(admitted_plans.pop(qid))
            released += 1
        self.released_since_compact += released
        self.fleet.finalize_retirements()
        return True

    def _compact(self) -> None:
        """Retire, on every device, the tasks that finished at or before
        the clock."""
        for device in self.fleet:
            if device.engine is not None:
                self.retired_tasks += device.engine.compact(
                    device.schedule, self.clock
                )
        self.compactions += 1
        self.released_since_compact = 0

    def _report(self) -> ServeReport:
        """The run's report, after checking that no carried profile
        outlived the wait queue, audited once by
        :func:`~repro.serve.audit.check_fault_invariants` — on every
        run, faulted or not."""
        fleet = self.fleet
        if self.queued_profiles:  # pragma: no cover - a wait-queue exit missed
            raise SchedulingError(
                f"profiles of {sorted(self.queued_profiles)} outlived the "
                "wait queue"
            )
        plan, failed = FaultPlan(), []
        if self.fault_run is not None:
            plan, failed = self.fault_run.plan, list(self.fault_run.failed)
        report = ServeReport(
            outcomes=self.completed,
            arrivals=len(self.seen),
            makespan=max(device.schedule.makespan for device in fleet),
            device_schedules=[device.schedule for device in fleet],
            device_peak_bytes=fleet.device_peaks(),
            device_capacity_bytes=fleet.device_capacities(),
            arenas=[device.arena for device in fleet],
            shed=self.shed,
            failed=failed,
            peak_retained_tasks=self.peak_retained_tasks,
            peak_inflight_tasks=self.peak_inflight_tasks,
            max_tasks_per_query=self.max_tasks_per_query,
            retired_tasks=self.retired_tasks,
            compactions=self.compactions,
            queue_depths=self.queue_depths,
        )
        check_fault_invariants(
            report,
            plan,
            arrivals=report.arrivals,
            max_retries=self.scheduler.max_retries,
            compact_every=self.compact_every,
        )
        return report
