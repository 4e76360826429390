"""Multi-GPU placement: a device fleet and the policies that shard it.

The single-device scheduler answers "admit, degrade, or wait?" against
one arena and one engine.  Sharded serving adds a third axis — *where*
— and this module owns it:

* :class:`DeviceState` — one GPU's serving state: its private
  :class:`~repro.gpusim.arena.DeviceMemoryArena`, its own
  :class:`~repro.pipeline.engine.PipelineEngine` (with independent
  ``lane_state``, so schedule extension stays per-device), and the
  running/predicted-finish books the wait-vs-degrade estimator reads;
* :class:`DeviceFleet` — the ordered collection of K device states plus
  the aggregate views reports need (per-device peaks and capacities,
  drain check);
* :class:`PlacementPolicy` and its registry — given the per-device
  admission candidates for one query, pick the device.  Policies only
  ever choose among *feasible, non-degraded* candidates; whether to
  accept a degraded placement or wait is the scheduler's
  admission-policy call (it compares the best degraded placement across
  devices against the fleet-wide estimated wait, using cached
  estimates), not a placement concern.

Everything here is deterministic: candidate lists arrive in device
order, ties break toward the lowest device index, and the round-robin
cursor is per-run state — identical request lists shard identically.
With one device every policy degenerates to "device 0", which is what
keeps ``devices=1`` bit-identical to the historical single-device
scheduler (pinned against recorded golden schedules by
``tests/serve/test_placement_properties.py``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import ClassVar, Iterator

from repro.errors import FleetEventError, InvalidConfigError
from repro.gpusim.arena import DeviceMemoryArena
from repro.gpusim.calibration import Calibration
from repro.pipeline.engine import PipelineEngine, Wave
from repro.pipeline.tasks import Schedule

#: Registry keys of the built-in policies.
LEAST_LOADED = "least_loaded"
FIRST_FIT = "first_fit"
ROUND_ROBIN = "round_robin"


@dataclass
class DeviceState:
    """One GPU's serving state inside a scheduler run.

    Memory quantities are **bytes**, every time is **simulated
    seconds**.  The engine is created lazily with the lane widths
    declared up to the first wave; ``schedule`` always covers exactly
    the tasks lowered onto this device so far (minus compacted ones).
    """

    index: int
    arena: DeviceMemoryArena
    #: This device's own cost-model calibration (``None`` means the
    #: scheduler's fleet-wide default).  Every estimate, plan and
    #: placement decision for a query lands on *this* calibration — a
    #: heterogeneous fleet mixes fast and slow devices, so a global
    #: calibration would mis-cost every placement comparison.
    calibration: Calibration | None = None
    #: Lane widths declared for this device's resource pools so far.
    resources: dict[str, int] = field(default_factory=dict)
    #: Plan admissions since the last engine pass.
    wave: Wave = field(default_factory=Wave)
    engine: PipelineEngine | None = None
    schedule: Schedule = field(default_factory=Schedule)
    #: Query ids currently holding a reservation on this device.
    running: set[str] = field(default_factory=set)
    #: Expected finish per running query — engine-accurate once the
    #: query has been through a pass, alone-estimate before that.
    predicted_finish: dict[str, float] = field(default_factory=dict)
    #: The device was asked to leave the fleet: it finishes in-flight
    #: work but receives no further placements (including steals).
    retiring: bool = False
    #: Retirement completed — the device drained and its engine was
    #: sealed; kept in the fleet for reporting and arena audits.
    retired: bool = False
    #: The device failed ungracefully (:meth:`crash`): in-flight
    #: queries were lost, their unfinished tasks invalidated, and no
    #: further placements may land here.
    crashed: bool = False
    #: Simulated time of the crash (``None`` while healthy).
    crashed_at: float | None = None

    @property
    def free_bytes(self) -> int:
        return self.arena.free_bytes

    @property
    def capacity_bytes(self) -> int:
        return self.arena.capacity_bytes

    @property
    def accepting(self) -> bool:
        """May new queries be placed here?  False from the moment
        retirement is requested (not merely once the drain completes)
        and forever after a crash."""
        return not (self.retiring or self.retired or self.crashed)

    def busy_until(self) -> float:
        """Estimated time this device finishes everything now running
        (0.0 when idle) — the load signal :data:`LEAST_LOADED` ranks."""
        return max(self.predicted_finish.values(), default=0.0)

    def finalize_retirement(self) -> bool:
        """Complete a requested retirement once the device drained.

        Returns ``True`` the moment the transition happens: the engine
        (if one exists — a device that never got work has none) is sealed
        via :meth:`~repro.pipeline.engine.PipelineEngine.retire`, so a
        later placement bug raises instead of resurrecting the device.
        """
        if self.crashed or not self.retiring or self.retired or self.running:
            # A crash supersedes a pending retirement: the engine was
            # already sealed (harder) and there is nothing left to drain.
            return False
        if self.engine is not None:
            self.engine.retire()
        self.retired = True
        return True

    def crash(self, at: float) -> list[str]:
        """Ungraceful failure at simulated time ``at``: every running
        query is lost and returned (sorted), their unfinished tasks are
        invalidated from the schedule and the engine's books in
        lockstep (:meth:`~repro.pipeline.engine.PipelineEngine.crash`;
        a device without an engine never got work, so its schedule is
        empty), and the device stops accepting forever.  The arena
        is **not** touched here — the scheduler reconciles it with the
        lost-query list so the release bookkeeping stays in one place.
        """
        lost = sorted(self.running)
        if self.engine is not None:
            self.engine.crash(self.schedule, at)
        self.wave = Wave()
        self.running.clear()
        self.predicted_finish.clear()
        self.crashed = True
        self.crashed_at = at
        return lost


@dataclass(frozen=True)
class PlacementCandidate:
    """One device's admission offer for the query under consideration.

    ``strategy`` is the registry key the planner ladder picks under the
    device's *current* headroom, ``need_bytes`` that strategy's whole
    device footprint, ``fits`` whether the footprint fits the headroom
    right now, and ``degraded`` whether the offer is cheaper than the
    query's unconstrained solo placement.  ``est_seconds`` is the
    estimated makespan of running the offer alone **on this device** —
    computed with the device's own calibration and memory grant, so on
    a heterogeneous fleet the same query carries different estimates
    per device and policies can compare actual speed instead of
    assuming uniform devices.
    """

    device: int
    strategy: str
    need_bytes: int
    fits: bool
    degraded: bool
    #: Alone-makespan of this offer under the device's calibration, in
    #: **simulated seconds** (0.0 when the scheduler did not estimate).
    est_seconds: float = 0.0


class PlacementPolicy:
    """Picks the device for one admission from feasible candidates.

    :meth:`select` receives only candidates with ``fits=True`` and
    ``degraded=False``, in device order, and must return one of them.
    Implementations must be deterministic; any per-run state (the
    round-robin cursor) lives on the instance, and the scheduler
    creates a fresh instance per run.
    """

    #: Registry key; subclasses must override.
    key: ClassVar[str] = ""

    def reset(self) -> None:
        """Forget per-run state.  The scheduler calls this at the start
        of every run so a policy *instance* reused across runs (rather
        than recreated from its registry key) still places
        deterministically."""

    def select(
        self, candidates: list[PlacementCandidate], fleet: "DeviceFleet"
    ) -> PlacementCandidate:
        raise NotImplementedError


class LeastLoadedPolicy(PlacementPolicy):
    """Default: the device estimated to *complete this query* first.

    Ranks candidates by ``busy_until + est_seconds`` — the device's
    drain estimate (:meth:`DeviceState.busy_until`, max predicted
    finish of the queries currently holding memory) plus the offer's
    own alone-makespan under that device's calibration.  On a
    heterogeneous fleet a fast-but-busy device can therefore beat an
    idle slow one.  Ties fall back to the bare load signal and then the
    lowest device index; on a homogeneous fleet ``est_seconds`` is the
    same constant on every device, so the ranking reduces *exactly* to
    the historical ``(busy_until, device)`` order — the property suite
    pins that bit-identity against the recorded golden schedules.
    """

    key = LEAST_LOADED

    def select(
        self, candidates: list[PlacementCandidate], fleet: "DeviceFleet"
    ) -> PlacementCandidate:
        return min(
            candidates,
            key=lambda c: (
                fleet[c.device].busy_until() + c.est_seconds,
                fleet[c.device].busy_until(),
                c.device,
            ),
        )


class FirstFitPolicy(PlacementPolicy):
    """Memory-fit first: the lowest-indexed device where the query fits.

    Packs queries onto early devices and only spills rightward under
    memory pressure — maximizing co-residency per device, at the cost
    of lane contention the least-loaded policy avoids.
    """

    key = FIRST_FIT

    def select(
        self, candidates: list[PlacementCandidate], fleet: "DeviceFleet"
    ) -> PlacementCandidate:
        return min(candidates, key=lambda c: c.device)


class RoundRobinPolicy(PlacementPolicy):
    """Baseline: cycle the admission cursor across devices.

    Ignores load entirely; each admission goes to the first feasible
    device at or after the cursor (wrapping), and the cursor advances
    past it.  Kept as the control the smarter policies are measured
    against.
    """

    key = ROUND_ROBIN

    def __init__(self) -> None:
        self._cursor = 0

    def reset(self) -> None:
        self._cursor = 0

    def select(
        self, candidates: list[PlacementCandidate], fleet: "DeviceFleet"
    ) -> PlacementCandidate:
        by_device = {c.device: c for c in candidates}
        for offset in range(len(fleet)):
            device = (self._cursor + offset) % len(fleet)
            candidate = by_device.get(device)
            if candidate is not None:
                self._cursor = (device + 1) % len(fleet)
                return candidate
        raise InvalidConfigError("select() called with no candidates")


_POLICIES: dict[str, type[PlacementPolicy]] = {
    policy.key: policy
    for policy in (LeastLoadedPolicy, FirstFitPolicy, RoundRobinPolicy)
}


def registered_placement_policies() -> tuple[str, ...]:
    """Registry keys of the available policies, in preference order."""
    return tuple(_POLICIES)


def create_placement_policy(key: str | PlacementPolicy) -> PlacementPolicy:
    """Instantiate a policy by registry key (or pass an instance through).

    A fresh instance per scheduler run keeps stateful policies (the
    round-robin cursor) deterministic across runs.
    """
    if isinstance(key, PlacementPolicy):
        return key
    try:
        factory = _POLICIES[key]
    except KeyError:
        raise InvalidConfigError(
            f"unknown placement policy {key!r}; registered: "
            f"{', '.join(_POLICIES)}"
        ) from None
    return factory()


class DeviceFleet:
    """Per-device arenas and engines, indexed by device id.

    ``capacities`` gives each device's memory in **bytes** (one entry
    per device; a homogeneous fleet repeats the same value), and
    ``calibrations`` optionally pairs each device with its own
    cost-model :class:`~repro.gpusim.calibration.Calibration` (``None``
    entries — or ``calibrations=None`` — mean the scheduler's fleet-wide
    default; a heterogeneous fleet mixes values).  ``lanes`` seeds every
    device's resource pools with the same lane widths — each device
    still gets its *own* pools; the shared dict only sets their widths.

    The fleet is **elastic**: :meth:`add_device` joins a new device
    mid-run (it starts receiving placements at the next admission) and
    :meth:`retire_device` begins a drain — the device finishes its
    in-flight queries, then its engine is sealed
    (:meth:`DeviceState.finalize_retirement`).  Retired devices stay in
    :attr:`devices` so indices remain stable and reports keep their
    history; :meth:`active` yields only the devices placements may
    target.
    """

    def __init__(
        self,
        capacities: list[int],
        *,
        lanes: dict[str, int] | None = None,
        calibrations: "list[Calibration | None] | None" = None,
    ) -> None:
        if not capacities:
            raise InvalidConfigError("a fleet needs at least one device")
        if calibrations is not None and len(calibrations) != len(capacities):
            raise InvalidConfigError(
                f"fleet got {len(capacities)} capacities but "
                f"{len(calibrations)} calibrations; one per device"
            )
        self._lanes = dict(lanes or {})
        self.devices: list[DeviceState] = []
        for index, capacity in enumerate(capacities):
            self.add_device(
                capacity,
                calibration=calibrations[index] if calibrations else None,
            )

    def __len__(self) -> int:
        return len(self.devices)

    def __iter__(self) -> Iterator[DeviceState]:
        return iter(self.devices)

    def __getitem__(self, index: int) -> DeviceState:
        return self.devices[index]

    # -- elasticity -----------------------------------------------------
    def add_device(
        self,
        capacity_bytes: int,
        *,
        calibration: Calibration | None = None,
    ) -> DeviceState:
        """Join a new device (its id is the next free index) and return
        its state.  Legal between admissions of a live run: the device
        simply shows up in the next placement round's candidate list.
        """
        device = DeviceState(
            index=len(self.devices),
            arena=DeviceMemoryArena(capacity_bytes, device=len(self.devices)),
            calibration=calibration,
            resources=dict(self._lanes),
        )
        self.devices.append(device)
        return device

    def retire_device(self, index: int) -> DeviceState:
        """Begin retiring device ``index``: it stops receiving
        placements immediately and finishes in-flight work.  The last
        accepting device cannot retire (an empty fleet could never
        admit again), and double retirement is an error — both raise
        :class:`~repro.errors.InvalidConfigError`.
        """
        try:
            device = self.devices[index]
        except IndexError:
            raise InvalidConfigError(
                f"cannot retire unknown device {index} of a "
                f"{len(self.devices)}-device fleet"
            ) from None
        if not device.accepting:
            raise InvalidConfigError(
                f"device {index} is already retiring or retired"
            )
        if sum(1 for d in self.devices if d.accepting) <= 1:
            raise InvalidConfigError(
                f"cannot retire device {index}: it is the last accepting "
                "device of the fleet"
            )
        device.retiring = True
        device.finalize_retirement()  # already idle -> seal immediately
        return device

    def crash_device(self, index: int, at: float) -> list[str]:
        """Fail device ``index`` ungracefully at simulated time ``at``,
        returning the sorted query ids lost with it.

        Unlike :meth:`retire_device` there is no drain: in-flight
        queries die, and the scheduler is responsible for reconciling
        the device's arena against the returned loss list and retrying
        the lost queries elsewhere.  A crash may hit a retiring or
        retired device (killing whatever was still draining), but not a
        device that already crashed, and — unlike retirement — it *may*
        take down the last accepting device: real failures do not wait
        for spare capacity.
        """
        try:
            device = self.devices[index]
        except IndexError:
            raise InvalidConfigError(
                f"cannot crash unknown device {index} of a "
                f"{len(self.devices)}-device fleet"
            ) from None
        if device.crashed:
            raise InvalidConfigError(f"device {index} already crashed")
        return device.crash(at)

    def active(self) -> list[DeviceState]:
        """The devices placements may target, in index order."""
        return [device for device in self.devices if device.accepting]

    def finalize_retirements(self) -> None:
        """Seal every requested retirement whose device has drained —
        called after each batch of release events."""
        for device in self.devices:
            device.finalize_retirement()

    # -- aggregate views ------------------------------------------------
    def any_running(self) -> bool:
        return any(device.running for device in self.devices)

    def device_peaks(self) -> tuple[int, ...]:
        return tuple(device.arena.peak_bytes for device in self.devices)

    def device_capacities(self) -> tuple[int, ...]:
        return tuple(device.capacity_bytes for device in self.devices)


@dataclass(frozen=True)
class FleetEvent:
    """One timed elasticity event of a serving run.

    Schedulers take a list of these (``fleet_events=``) and apply each
    one the first time the simulated clock reaches ``at`` — always
    *between* admissions, never mid-admission, so a placement decision
    only ever sees a consistent fleet.  ``action`` is ``"add"`` (a
    device with ``capacity_bytes`` of memory and an optional per-device
    ``calibration`` joins at the next free index) or ``"retire"``
    (device ``device`` stops receiving placements at ``at`` and drains).
    Events are deterministic inputs, which keeps elastic runs exactly
    reproducible — re-running the same request list with the same event
    list yields the same schedule.
    """

    #: Simulated time at which the event takes effect.
    at: float
    action: str
    #: ``add`` only: the joining device's arena capacity in bytes.
    capacity_bytes: int | None = None
    #: ``add`` only: the joining device's calibration (``None`` =
    #: scheduler default).
    calibration: Calibration | None = None
    #: ``retire`` only: index of the device asked to leave.
    device: int | None = None

    def __post_init__(self) -> None:
        # Negated comparison, so NaN fails it too.
        if not 0 <= self.at < math.inf:
            raise InvalidConfigError(
                f"fleet event time must be finite and >= 0, got {self.at!r}"
            )
        if self.action == "add":
            if self.capacity_bytes is None or self.capacity_bytes <= 0:
                raise InvalidConfigError(
                    "fleet 'add' event needs a positive capacity_bytes, "
                    f"got {self.capacity_bytes!r}"
                )
            if self.device is not None:
                raise InvalidConfigError(
                    "fleet 'add' event must not name a device: the new "
                    "device takes the next free index"
                )
        elif self.action == "retire":
            if self.device is None or self.device < 0:
                raise InvalidConfigError(
                    "fleet 'retire' event needs a device index, got "
                    f"{self.device!r}"
                )
            if self.capacity_bytes is not None or self.calibration is not None:
                raise InvalidConfigError(
                    "fleet 'retire' event takes no capacity or calibration"
                )
        else:
            raise InvalidConfigError(
                f"unknown fleet event action {self.action!r}; expected "
                "'add' or 'retire'"
            )


def validate_fleet_events(
    events: "list[FleetEvent] | tuple[FleetEvent, ...]",
    initial_devices: int,
) -> None:
    """Reject an inconsistent elasticity schedule *before* the run.

    Simulates the fleet's device count through the events in
    chronological order (stable-sorted by ``at``, preserving list order
    for ties — exactly how the schedulers apply them) and raises
    :class:`~repro.errors.FleetEventError` when a ``retire`` names a
    device index the fleet has not reached by that time, or retires the
    same device twice.  Per-event field validation already happened in
    :meth:`FleetEvent.__post_init__`; this catches the cross-event
    inconsistencies a single event cannot see.  Without this check a
    bad schedule would fail mid-run, after the simulation has already
    mutated arenas and engines.
    """
    count = initial_devices
    gone: set[int] = set()
    for event in sorted(events, key=lambda e: e.at):
        if event.action == "add":
            count += 1
        else:  # "retire" — __post_init__ rejected everything else
            assert event.device is not None
            if event.device >= count:
                raise FleetEventError(
                    f"fleet event at t={event.at} retires device "
                    f"{event.device}, but only {count} device(s) exist "
                    "by then (devices are indexed from 0 in join order)"
                )
            if event.device in gone:
                raise FleetEventError(
                    f"fleet event at t={event.at} retires device "
                    f"{event.device} twice"
                )
            gone.add(event.device)
