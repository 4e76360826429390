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

from repro.errors import SchedulingError

#: Conventional resource names used by the join strategies.
H2D = "h2d"
D2H = "d2h"
GPU = "gpu"
CPU = "cpu"


def is_int(value: object) -> bool:
    """An int that is not a bool (``True`` is an int to Python)."""
    return isinstance(value, int) and not isinstance(value, bool)


@dataclass
class Task:
    """One unit of work bound to a resource.

    Parameters
    ----------
    name:
        Unique identifier, referenced by dependents.
    resource:
        The serially-executing FIFO queue this task occupies.
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
    """A task with its computed start/finish times.

    The engine places admitted plan templates without building their
    :class:`Task` objects: it passes ``task=None`` plus the
    :class:`~repro.pipeline.engine.Admission` and the task's index in
    the template's dispatch order, and :attr:`task` builds the
    namespaced task the first time something reads it (reports, the
    oracles, the fault audit).  Until then a placed task is this one
    object.
    """

    __slots__ = ("start", "finish", "_task", "_admission", "_index")

    def __init__(
        self,
        task: Task | None,
        start: float,
        finish: float,
        admission=None,
        index: int = 0,
    ) -> None:
        self._task = task
        self.start = start
        self.finish = finish
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
            f"finish={self.finish!r})"
        )


@dataclass
class Schedule:
    """The result of simulating a task graph.

    All times are simulated seconds on the modelled device, not wall
    clock.  A schedule is deterministic: the same task graph (same
    submission order, durations and dependencies) always produces the
    same start/finish times.
    """

    #: Placed tasks by name, in dispatch order: each after its
    #: dependencies, and per resource in submission order.
    tasks: dict[str, ScheduledTask] = field(default_factory=dict)
    #: How many tasks :meth:`compact` has retired so far.
    retired_tasks: int = 0
    #: Latest finish among retired tasks, so :attr:`makespan` stays the
    #: whole run's makespan — compaction drops bookkeeping, not history.
    retired_makespan: float = 0.0
    #: End-of-run free time of each resource: ``resource -> seconds``
    #: at which its FIFO queue's last task finishes.  This is the
    #: carry-over that lets
    #: :meth:`repro.pipeline.engine.PipelineEngine.extend` place newly
    #: admitted tasks without re-simulating the whole graph.
    free_at: dict[str, float] = field(default_factory=dict, repr=False)
    #: True for the read-only union built by :meth:`merged`.  A merged
    #: view spans devices whose same-named resources are physically
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
        * :attr:`free_at` — untouched, which is what keeps subsequent
          :meth:`repro.pipeline.engine.PipelineEngine.extend` calls
          bit-identical to an uncompacted run (extension places
          self-contained templates, so it reads only the free times).

        :attr:`tasks` holds only retained tasks afterwards — streaming
        callers fold per-query stats into their running accumulator
        *before* compacting.  A schedule compacted behind its engine's
        back can no longer seed ``extend``; use
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

    @classmethod
    def merged(cls, schedules: "list[Schedule]") -> "Schedule":
        """One read-only view over per-device schedules of a sharded run.

        Task dicts are unioned (names must be globally unique — the
        serving layer's qid prefixes guarantee it, since a query runs
        entirely on one device; a collision raises
        :class:`~repro.errors.SchedulingError`), and the devices'
        retired history is kept: :attr:`retired_tasks` is their sum and
        :attr:`retired_makespan` their maximum, so :attr:`makespan` is
        the fleet's.  The merged view is for *reporting* (makespan,
        per-query latency, cross-query overlap); same-named resources
        on different devices are distinct physical queues.
        :attr:`free_at` is deliberately empty and :attr:`is_merged_view`
        is set: a merged view cannot be extended, and the engine
        enforces that.
        """
        merged = cls(is_merged_view=True)
        for schedule in schedules:
            for name, item in schedule.tasks.items():
                if name in merged.tasks:
                    raise SchedulingError(
                        f"cannot merge schedules: task {name!r} appears on "
                        "more than one device"
                    )
                merged.tasks[name] = item
            merged.retired_tasks += schedule.retired_tasks
            merged.retired_makespan = max(
                merged.retired_makespan, schedule.retired_makespan
            )
        return merged
