"""Deterministic crash-failure injection and recovery for the fleet.

Real serving fleets lose devices: a GPU falls off the bus, a host
reboots, a driver wedges.  The scheduler's elasticity events model the
*graceful* exit (``retire`` drains in-flight work); this module models
the ungraceful one — and the recovery machinery that turns "device
died mid-query" into "query retried elsewhere, or failed with a
recorded reason", never into silent loss.

Everything is an **input**, not an accident: a :class:`FaultPlan` is a
seed-derivable schedule of :class:`DeviceCrash` events (simulated
seconds) plus per-query transient admission failures, validated up
front (:meth:`FaultPlan.validate`, raising
:class:`~repro.errors.FaultPlanError`) and applied by the scheduler
between admissions — so a faulted run is exactly as deterministic and
replayable as a fault-free one.  Recovery spans the stack:

* :meth:`~repro.pipeline.engine.PipelineEngine.crash` invalidates the
  unfinished schedule tail and seals the engine;
* :meth:`~repro.gpusim.arena.DeviceMemoryArena.reconcile`
  force-releases the reservations of the queries lost with the device,
  keeping the ledger exact (the :attr:`forced` audit log records why);
* the scheduler re-enqueues each lost query at the *front* of the
  admission queue once its backoff expires, up to ``max_retries``
  attempts; an exhausted budget records a :class:`FailedOutcome` with
  reason ``"retries_exhausted"``, and a fleet with no accepting device
  left (and none joining) fails everything still waiting with reason
  ``"fleet_lost"``.

After every run — faulted or not — the run audit
(:func:`~repro.serve.audit.check_fault_invariants`, re-exported here)
checks the report, crash-time safety and retry budgets included, and
raises :class:`~repro.errors.FaultInvariantError` instead of producing
a plausible-looking report.

An **empty** plan is the contract's anchor: the scheduler treats
``FaultPlan()`` (or ``faults=None``) as "no fault machinery at all",
so fault-free runs stay bit-identical to the recorded golden
schedules.
"""

from __future__ import annotations

import heapq
import math
import random
from collections import deque
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Iterable, Mapping

from repro.errors import FaultPlanError
from repro.serve.audit import check_fault_invariants  # noqa: F401

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from repro.serve.placement import FleetEvent
    from repro.serve.report import QueryRequest


@dataclass(frozen=True)
class DeviceCrash:
    """One ungraceful device failure: device ``device`` stops dead at
    simulated time ``at`` — no drain, in-flight queries are lost."""

    at: float
    device: int

    def __post_init__(self) -> None:
        # Negated comparison, so NaN fails it too.
        if not 0 <= self.at < math.inf:
            raise FaultPlanError(
                f"crash time must be finite and >= 0, got {self.at!r}"
            )
        if self.device < 0:
            raise FaultPlanError(
                f"crash device index must be >= 0, got {self.device!r}"
            )


@dataclass(frozen=True)
class FaultPlan:
    """A deterministic schedule of failures to inject into one run.

    ``crashes`` (sorted by ``(at, device)``, at most one per device —
    a device only dies once) name when each device fails;
    ``admission_failures`` maps query ids to how many times their
    admission transiently fails (each refusal consumes one unit of the
    same per-query retry budget crashes use).  Plans are plain data:
    build them by hand for targeted tests, or derive one from a seed
    with :meth:`random` for chaos suites and benches.  The **empty**
    plan is inert — schedulers given ``FaultPlan()`` run the exact
    fault-free code path, bit-identical to ``faults=None``.
    """

    crashes: tuple[DeviceCrash, ...] = ()
    admission_failures: Mapping[str, int] = field(default_factory=dict)

    def __post_init__(self) -> None:
        object.__setattr__(self, "crashes", tuple(self.crashes))
        object.__setattr__(
            self, "admission_failures", dict(self.admission_failures)
        )

    @property
    def is_empty(self) -> bool:
        return not self.crashes and not self.admission_failures

    def validate(
        self,
        initial_devices: int,
        fleet_events: "Iterable[FleetEvent] | None" = None,
    ) -> None:
        """Reject an inconsistent plan before the run starts.

        Checks that crashes are sorted by ``(at, device)``, that no
        device crashes twice, that every crashed device exists by its
        crash time (counting devices joined by ``add`` fleet events at
        or before it), and that transient-failure counts are positive.
        Raises :class:`~repro.errors.FaultPlanError` — the same
        fail-before-mutating contract
        :func:`~repro.serve.placement.validate_fleet_events` gives
        elasticity schedules.
        """
        if initial_devices < 1:
            raise FaultPlanError(
                f"initial_devices must be >= 1, got {initial_devices!r}"
            )
        order = [(crash.at, crash.device) for crash in self.crashes]
        if order != sorted(order):
            raise FaultPlanError(
                "fault plan crashes must be sorted by (at, device), got "
                f"{order}"
            )
        add_times = sorted(
            event.at
            for event in (fleet_events or [])
            if event.action == "add"
        )
        seen: set[int] = set()
        for crash in self.crashes:
            if crash.device in seen:
                raise FaultPlanError(
                    f"device {crash.device} crashes twice; a device only "
                    "dies once"
                )
            seen.add(crash.device)
            known = initial_devices + sum(
                1 for at in add_times if at <= crash.at
            )
            if crash.device >= known:
                raise FaultPlanError(
                    f"crash at t={crash.at} names device {crash.device}, "
                    f"but only {known} device(s) exist by then"
                )
        for qid, count in self.admission_failures.items():
            if not qid:
                raise FaultPlanError(
                    "admission_failures keys must be non-empty query ids"
                )
            if not isinstance(count, int) or count < 1:
                raise FaultPlanError(
                    f"admission_failures[{qid!r}] must be a positive "
                    f"int, got {count!r}"
                )

    @classmethod
    def random(
        cls,
        seed: int,
        *,
        devices: int,
        horizon: float,
        qids: "Iterable[str]" = (),
        max_crashes: int | None = None,
        admission_fault_rate: float = 0.0,
        max_admission_faults: int = 2,
        allow_total_loss: bool = True,
    ) -> "FaultPlan":
        """Derive a plan from ``seed`` — same seed, same plan.

        Picks 0..``max_crashes`` (default: every device) distinct
        devices of the initial ``devices`` and crashes each at a
        uniform time in ``[0, horizon]`` simulated seconds;
        ``allow_total_loss=False`` keeps at least one device alive
        (benches that want completions set it).  Each qid in ``qids``
        independently suffers 1..``max_admission_faults`` transient
        admission failures with probability ``admission_fault_rate``.
        """
        if devices < 1:
            raise FaultPlanError(f"devices must be >= 1, got {devices!r}")
        if not 0 <= horizon < math.inf:
            raise FaultPlanError(
                f"horizon must be finite and >= 0, got {horizon!r}"
            )
        rng = random.Random(seed)
        limit = devices if max_crashes is None else min(max_crashes, devices)
        if not allow_total_loss:
            limit = min(limit, devices - 1)
        count = rng.randint(0, max(0, limit))
        chosen = sorted(rng.sample(range(devices), count))
        crashes = tuple(
            sorted(
                (
                    DeviceCrash(at=round(rng.uniform(0.0, horizon), 6), device=d)
                    for d in chosen
                ),
                key=lambda crash: (crash.at, crash.device),
            )
        )
        failures: dict[str, int] = {}
        if admission_fault_rate > 0.0:
            for qid in qids:
                if rng.random() < admission_fault_rate:
                    failures[qid] = rng.randint(1, max_admission_faults)
        return cls(crashes=crashes, admission_failures=failures)


@dataclass(frozen=True)
class FailedOutcome:
    """One query the run gave up on — the third outcome class next to
    completed (:class:`~repro.serve.report.QueryOutcome`) and shed
    (:class:`~repro.serve.report.ShedOutcome`).

    ``reason`` is ``"retries_exhausted"`` (lost or refused more than
    ``max_retries`` times) or ``"fleet_lost"`` (no accepting device
    left and none joining — the query could never be admitted again).
    ``attempts`` counts the retries actually performed, and
    ``last_device`` the device whose crash finally killed it (``None``
    for admission-refusal or fleet-loss failures).
    """

    qid: str
    submit_at: float
    reason: str
    attempts: int
    last_device: int | None = None


class _FaultRun:
    """Mutable per-run fault state the scheduler threads through a
    faulted run (``None`` on the fault-free path — every hook is gated
    on it, which is what keeps empty plans bit-identical).

    Owns the due-crash queue, the per-query transient-failure budget,
    the retry backlog (a heap of ``(ready_at, seq, request)`` — ``seq``
    preserves submission order among same-time retries), the attempt
    counters that drive retry aliases and budgets, and the growing
    :attr:`failed` list.
    """

    def __init__(
        self,
        plan: FaultPlan,
        *,
        max_retries: int,
        backoff: float,
    ) -> None:
        self.plan = plan
        self.crashes: "deque[DeviceCrash]" = deque(
            sorted(plan.crashes, key=lambda crash: (crash.at, crash.device))
        )
        self.admission_faults = dict(plan.admission_failures)
        #: Failures suffered so far per qid — also the retry
        #: *generation*: attempt N re-admits under alias ``qid~rN``.
        self.attempts: dict[str, int] = {}
        self.failed: list[FailedOutcome] = []
        #: Requests currently admitted somewhere, so a crash can map the
        #: lost qids back to re-enqueueable requests.
        self.live: dict[str, Any] = {}
        self.retry_heap: list[tuple[float, int, Any]] = []
        self._seq = 0
        self.max_retries = max_retries
        self.backoff = backoff
        #: Crash times actually applied, by device index.
        self.crashed_devices: dict[int, float] = {}

    # -- queries ---------------------------------------------------------
    def has_work(self) -> bool:
        """Retries waiting on their backoff — work the admission queue
        does not know about yet, so run loops must not exit on it.
        (Pending crashes alone are *not* work: with nothing running and
        nothing queued they are no-ops.)"""
        return bool(self.retry_heap)

    def next_wake(self) -> float | None:
        """Earliest future fault event the clock must stop at: the next
        crash (so in-flight queries cannot simulate through it) or the
        next retry's ready time (so re-admission is not delayed past
        its backoff).  ``None`` when neither remains."""
        candidates = []
        if self.crashes:
            candidates.append(self.crashes[0].at)
        if self.retry_heap:
            candidates.append(self.retry_heap[0][0])
        return min(candidates) if candidates else None

    def generation(self, qid: str) -> int:
        """How many times ``qid`` has failed so far — 0 for a first
        admission; re-admission N runs under task alias ``qid~rN``."""
        return self.attempts.get(qid, 0)

    # -- transitions -----------------------------------------------------
    def take_admission_fault(self, qid: str) -> bool:
        """Consume one planned transient admission failure for ``qid``
        (``False`` when none remain)."""
        remaining = self.admission_faults.get(qid, 0)
        if remaining <= 0:
            return False
        self.admission_faults[qid] = remaining - 1
        return True

    def record_failure(
        self,
        request: "QueryRequest",
        at: float,
        *,
        device: int | None = None,
    ) -> bool:
        """``request`` was lost (crash) or refused (transient fault) at
        simulated time ``at``.  Charges one attempt; within budget the
        request is queued for re-admission at ``at + backoff * attempt``
        (linear backoff) and ``True`` is returned, otherwise a
        :class:`FailedOutcome` with reason ``"retries_exhausted"`` is
        recorded and ``False`` returned."""
        attempt = self.attempts.get(request.qid, 0) + 1
        self.attempts[request.qid] = attempt
        if attempt > self.max_retries:
            self.failed.append(
                FailedOutcome(
                    qid=request.qid,
                    submit_at=request.submit_at,
                    reason="retries_exhausted",
                    attempts=attempt - 1,
                    last_device=device,
                )
            )
            return False
        heapq.heappush(self.retry_heap, (at + self.backoff * attempt, self._seq, request))
        self._seq += 1
        return True

    def fail_now(
        self,
        request: "QueryRequest",
        *,
        reason: str,
        device: int | None = None,
    ) -> None:
        """Record a terminal failure without charging or retrying."""
        self.failed.append(
            FailedOutcome(
                qid=request.qid,
                submit_at=request.submit_at,
                reason=reason,
                attempts=self.attempts.get(request.qid, 0),
                last_device=device,
            )
        )

    def requeue_ready(self, queue: "deque[Any]", clock: float) -> int:
        """Move every retry whose ready time has arrived to the *front*
        of the admission queue (in ready order — the earliest-ready
        retry ends up at the head), returning how many moved.  Front
        placement means a recovered query does not also lose its FIFO
        position to arrivals that came after it."""
        ready: list[tuple[float, int, Any]] = []
        while self.retry_heap and self.retry_heap[0][0] <= clock:
            ready.append(heapq.heappop(self.retry_heap))
        for _, _, request in reversed(ready):
            queue.appendleft(request)
        return len(ready)

    def fail_stranded(self, stranded: "Iterable[Any]") -> None:
        """No accepting device remains and none will join: everything
        still waiting — ``stranded``, the requests taken out of the
        admission queue, *and* the retry backlog — fails with reason
        ``"fleet_lost"``."""
        for request in stranded:
            self.fail_now(request, reason="fleet_lost")
        while self.retry_heap:
            _, _, request = heapq.heappop(self.retry_heap)
            self.fail_now(request, reason="fleet_lost")
