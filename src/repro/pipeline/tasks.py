"""Task-graph vocabulary for the pipeline engine.

The out-of-GPU strategies (§IV) are pipelines of operations on a small
set of serially-executing resources — exactly how CUDA streams behave:
one H2D DMA engine, one D2H DMA engine, the GPU compute queue, and the
host CPU.  A :class:`Task` occupies one resource for a duration and may
depend on other tasks (CUDA event semantics); buffer reuse is expressed
as a dependency on the task that last released the buffer.
"""

from __future__ import annotations

from dataclasses import dataclass, field

#: Conventional resource names used by the join strategies.
H2D = "h2d"
D2H = "d2h"
GPU = "gpu"
CPU = "cpu"


def is_int(value: object) -> bool:
    """An int that is not a bool (``True`` is an int to Python)."""
    return isinstance(value, int) and not isinstance(value, bool)


@dataclass(frozen=True)
class ResourcePool:
    """A named execution resource with a fixed number of parallel lanes.

    ``lanes=1`` models a serially-executing queue (one DMA engine, the
    GPU compute queue); ``lanes=n`` models *n* interchangeable CUDA
    streams or copy engines fed from one FIFO submission queue: each
    task is dispatched, in submission order, onto whichever lane frees
    first.  ``device`` tags which GPU of a sharded fleet owns the pool:
    device 0's ``h2d`` engine and device 1's ``h2d`` engine are distinct
    physical resources even though they share a name, and every device's
    pools live in that device's own :class:`~repro.pipeline.engine.
    PipelineEngine`.
    """

    name: str
    lanes: int = 1
    device: int = 0

    def __post_init__(self) -> None:
        if not is_int(self.lanes) or self.lanes < 1:
            raise ValueError(
                f"resource {self.name!r} needs an int lane count >= 1, got "
                f"{self.lanes!r}"
            )
        if not is_int(self.device) or self.device < 0:
            raise ValueError(
                f"resource {self.name!r} needs an int device >= 0, got "
                f"{self.device!r}"
            )


@dataclass
class Task:
    """One unit of work bound to a resource.

    Parameters
    ----------
    name:
        Unique identifier, referenced by dependents.
    resource:
        The (pool of) serially-executing lane(s) this task occupies.
    duration:
        Modelled seconds of occupancy.
    deps:
        Names of tasks that must finish before this task may start
        (in addition to the implicit FIFO order of its resource).
    phase:
        Reporting label grouping this task into a named phase of the
        join (``partition``, ``join``, ...).  Defaults to the resource
        name, which reproduces per-resource busy-time reporting.
    available_at:
        Earliest simulated time the task may start (in addition to its
        dependencies and resource FIFO order).  Models work submitted
        mid-simulation — e.g. a query admitted by the serving layer once
        device memory frees up.
    device:
        Which GPU of a sharded fleet executes the task.  Single-device
        code never sets it (``0``); the sharded serving layer tags every
        task with its placement so an engine can refuse tasks routed to
        the wrong device.
    """

    name: str
    resource: str
    duration: float
    deps: tuple[str, ...] = ()
    phase: str | None = None
    available_at: float = 0.0
    device: int = 0

    def __post_init__(self) -> None:
        self.deps = tuple(self.deps)

    @property
    def effective_phase(self) -> str:
        return self.phase if self.phase is not None else self.resource


class ScheduledTask:
    """A task with its computed start/finish times and assigned lane.

    The engine places admitted plan templates without building their
    :class:`Task` objects: it passes ``task=None`` plus the
    :class:`~repro.pipeline.engine.Admission` and the task's index in
    the template's dispatch order, and :attr:`task` builds the
    namespaced task the first time something reads it (reports, the
    oracles, the fault audit).  Until then a placed task is this one
    object.
    """

    __slots__ = ("start", "finish", "lane", "_task", "_admission", "_index")

    def __init__(
        self,
        task: Task | None,
        start: float,
        finish: float,
        lane: int = 0,
        admission=None,
        index: int = 0,
    ) -> None:
        self._task = task
        self.start = start
        self.finish = finish
        self.lane = lane
        self._admission = admission
        self._index = index

    @property
    def task(self) -> Task:
        task = self._task
        if task is None:
            task = self._task = self._admission.task(self._index)
        return task

    def __repr__(self) -> str:
        return (
            f"ScheduledTask(task={self.task!r}, start={self.start!r}, "
            f"finish={self.finish!r}, lane={self.lane!r})"
        )


@dataclass
class Schedule:
    """The result of simulating a task graph.

    All times are simulated seconds on the modelled device, not wall
    clock.  A schedule is deterministic: the same task graph (same
    submission order, durations, dependencies and lane counts) always
    produces the same start/finish times and lane assignments.
    """

    #: Placed tasks by name, in dispatch order: each after its
    #: dependencies, and per resource pool in submission order.
    tasks: dict[str, ScheduledTask] = field(default_factory=dict)
    #: Lane counts of the pools the schedule ran on (default 1 each).
    lanes: dict[str, int] = field(default_factory=dict)
    #: How many tasks :meth:`compact` has retired so far.
    retired_tasks: int = 0
    #: Latest finish among retired tasks, so :attr:`makespan` stays the
    #: whole run's makespan — compaction drops bookkeeping, not history.
    retired_makespan: float = 0.0
    #: End-of-run per-pool lane state: ``resource -> sorted list of
    #: (free_at_seconds, lane_index)``.  This is the carry-over that
    #: lets :meth:`repro.pipeline.engine.PipelineEngine.extend` place
    #: newly admitted tasks without re-simulating the whole graph; a
    #: sorted list is a valid binary heap, so the extension pops lanes
    #: in exactly the order a full re-run would.
    lane_state: dict[str, list[tuple[float, int]]] = field(
        default_factory=dict, repr=False
    )
    #: True for the read-only union built by :meth:`merged`.  A merged
    #: view spans devices whose same-named pools are physically
    #: distinct, so it cannot seed an engine extension;
    #: :meth:`repro.pipeline.engine.PipelineEngine.extend` refuses it.
    is_merged_view: bool = False

    @property
    def makespan(self) -> float:
        live = max(
            (item.finish for item in self.tasks.values()), default=0.0
        )
        return max(live, self.retired_makespan)

    def compact(self, horizon: float) -> int:
        """Retire every task whose finish time is at or before
        ``horizon`` (simulated seconds); returns how many were dropped.

        Compaction is the steady-state memory story of the serving
        layer: a streaming run otherwise accumulates one
        :class:`ScheduledTask` per task *ever* scheduled, O(total
        arrivals).  Dropping tasks that finished at or before the live
        frontier keeps the retained dict O(in-flight).  What survives:

        * :attr:`makespan` — the retired maximum is folded into
          :attr:`retired_makespan`, so the whole-run makespan is
          unchanged by compaction;
        * :attr:`lane_state` and :attr:`lanes` — untouched, which is
          what keeps subsequent
          :meth:`repro.pipeline.engine.PipelineEngine.extend` calls
          bit-identical to an uncompacted run (extension places
          self-contained templates, so it reads only the lane heaps).

        Occupancy reports (:meth:`busy_time`, :meth:`utilization`,
        :meth:`phase_times`) cover only retained tasks afterwards —
        streaming callers fold per-query stats into their running
        accumulator *before* compacting.  A schedule compacted behind
        its engine's back can no longer seed ``extend``; use
        :meth:`repro.pipeline.engine.PipelineEngine.compact`, which
        retires the same tasks from the engine's books in lockstep.
        """
        retired = [
            name for name, item in self.tasks.items() if item.finish <= horizon
        ]
        for name in retired:
            item = self.tasks.pop(name)
            if item.finish > self.retired_makespan:
                self.retired_makespan = item.finish
        self.retired_tasks += len(retired)
        return len(retired)

    def busy_time(self, resource: str) -> float:
        """Total occupancy of one resource."""
        return sum(
            item.task.duration
            for item in self.tasks.values()
            if item.task.resource == resource
        )

    def utilization(self, resource: str) -> float:
        """Occupancy fraction of one resource (all lanes) over the makespan."""
        span = self.makespan
        if span <= 0:
            return 0.0
        return self.busy_time(resource) / (span * self.lanes.get(resource, 1))

    def phase_time(self, phase: str) -> float:
        """Total occupancy attributed to one reporting phase."""
        return sum(
            item.task.duration
            for item in self.tasks.values()
            if item.task.effective_phase == phase
        )

    def phase_times(self) -> dict[str, float]:
        """Occupancy per reporting phase, keyed in scheduling order."""
        times: dict[str, float] = {}
        for item in self.tasks.values():
            phase = item.task.effective_phase
            times[phase] = times.get(phase, 0.0) + item.task.duration
        return times

    def critical_resource(self) -> str | None:
        """The resource with the highest busy time (the bottleneck)."""
        resources = {item.task.resource for item in self.tasks.values()}
        if not resources:
            return None
        return max(resources, key=self.busy_time)

    @classmethod
    def merged(cls, schedules: "list[Schedule]") -> "Schedule":
        """One read-only view over per-device schedules of a sharded run.

        Task dicts are unioned (names must be globally unique — the
        serving layer's qid prefixes guarantee it, since a query runs
        entirely on one device).  The merged view is for *reporting*
        (makespan, per-query latency, cross-query overlap); same-named
        resources on different devices are distinct physical pools, so
        :meth:`busy_time` aggregates over all devices sharing the name
        and lane counts are **summed** per resource name — the fleet's
        real capacity — keeping :meth:`utilization` a genuine occupancy
        fraction.  ``lane_state`` is deliberately empty and
        :attr:`is_merged_view` is set: a merged view cannot be
        extended, and the engine enforces that.
        """
        merged = cls(is_merged_view=True)
        for schedule in schedules:
            for name, item in schedule.tasks.items():
                if name in merged.tasks:
                    raise ValueError(
                        f"cannot merge schedules: task {name!r} appears on "
                        "more than one device"
                    )
                merged.tasks[name] = item
            for resource, lanes in schedule.lanes.items():
                merged.lanes[resource] = merged.lanes.get(resource, 0) + lanes
        return merged
