"""Multi-query GPU serving: shared-arena admission and scheduling.

The ROADMAP's north star — serving heavy concurrent traffic — needs
more than a single-query planner.  This package runs concurrent
queries against a simulated GPU fleet: every device gets its own
:class:`~repro.gpusim.arena.DeviceMemoryArena` so co-resident queries
share device memory honestly, the
:class:`~repro.serve.placement.DeviceFleet` and its
:class:`~repro.serve.placement.PlacementPolicy` decide *which* device
hosts each admission, an
:class:`~repro.serve.admission.AdmissionPolicy` decides *which queued
query* each admission attempt tries (``fifo`` — the default, pinned
bit-identical to the historical head-of-line scheduler — ``sjf``,
``edf``, or ``weighted_fair`` over per-query
:class:`~repro.serve.admission.QueryClass` service classes), and the
:class:`~repro.serve.scheduler.QueryScheduler` admits queries in that
order,
re-planning each one against the memory actually free at admission and
extending the placed device's pipeline-engine schedule incrementally.
One event loop serves two entry points: ``run_online`` (a request
list, no shedding, full schedules kept) and ``run_stream`` (an
iterator, with bounded-queue load shedding plus schedule compaction,
memory O(in-flight) over 10^5+ arrivals); both return a
:class:`~repro.serve.report.ServeReport`.  ``devices=1`` (the
default) is the classic single-GPU scheduler, bit-identical to the
pre-sharding implementation.

Fleets may be heterogeneous and elastic: per-device capacities and
:class:`~repro.gpusim.calibration.Calibration` instances
(``QueryScheduler(device_capacities=..., device_calibrations=...)``),
timed :class:`~repro.serve.placement.FleetEvent` join/leave lists on
every run method, and an opt-in cross-device work-stealing pass
(``steal=True``).  Failures are injectable and recoverable: a
:class:`~repro.serve.faults.FaultPlan` (``faults=`` on every run
method) schedules deterministic device crashes and transient admission
failures, lost queries retry through the shared admission path under a
bounded budget, and exhausted/stranded queries are recorded as
:class:`~repro.serve.faults.FailedOutcome`.  Every run audits its own
report once, before returning it, with
:func:`~repro.serve.audit.check_fault_invariants`: conservation, the
arenas, crash safety, retry budgets, deadline bits and the compaction
retention bound.
See ``docs/serving.md`` for the full policy.
"""

from repro.gpusim.calibration import (
    CALIBRATION_PRESETS,
    Calibration,
    calibration_preset,
)
from repro.serve.admission import (
    AdmissionPolicy,
    QueryClass,
    create_admission_policy,
    registered_admission_policies,
)
from repro.serve.audit import check_fault_invariants
from repro.serve.faults import DeviceCrash, FailedOutcome, FaultPlan
from repro.serve.placement import (
    DeviceFleet,
    FleetEvent,
    PlacementCandidate,
    PlacementPolicy,
    create_placement_policy,
    registered_placement_policies,
    validate_fleet_events,
)
from repro.serve.scheduler import (
    ClassStats,
    QueryOutcome,
    QueryRequest,
    QueryScheduler,
    ServeReport,
    ShedOutcome,
    percentile,
)
from repro.serve.workload import (
    DEADLINE_CLASSES,
    classed_workload,
    mixed_workload,
    random_workload,
    stream_workload,
    with_classes,
)

__all__ = [
    "AdmissionPolicy",
    "CALIBRATION_PRESETS",
    "Calibration",
    "ClassStats",
    "DEADLINE_CLASSES",
    "DeviceCrash",
    "DeviceFleet",
    "FailedOutcome",
    "FaultPlan",
    "FleetEvent",
    "PlacementCandidate",
    "PlacementPolicy",
    "QueryClass",
    "QueryOutcome",
    "QueryRequest",
    "QueryScheduler",
    "ServeReport",
    "ShedOutcome",
    "calibration_preset",
    "check_fault_invariants",
    "classed_workload",
    "create_admission_policy",
    "create_placement_policy",
    "percentile",
    "registered_admission_policies",
    "registered_placement_policies",
    "validate_fleet_events",
    "mixed_workload",
    "random_workload",
    "stream_workload",
    "with_classes",
]
