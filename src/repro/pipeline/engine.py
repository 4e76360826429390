"""Discrete-event simulation of stream pipelines.

Semantics (mirroring CUDA streams + events):

* every resource executes its tasks **in submission order** (FIFO);
* a task starts when its resource is free *and* all its dependencies
  have finished (and not before its ``available_at`` release time);
* durations are fixed when the task is created.

The engine computes start/finish times for every task and the resulting
makespan.  This is what turns per-phase kernel/transfer costs into the
overlapped end-to-end times of the paper's Figures 11–13: "the total
execution time is the transfer time for the data plus the GPU execution
time for the last chunk" (§IV-A) falls out of the simulation rather than
being hard-coded.

A task graph is lowered once into a :class:`PlanTemplate`: its tasks in
a *dispatch order* in which every task follows its dependencies and its
FIFO predecessor on the same resource.  Only a queue's head can ever
start, so a task's start is final once everything before it in that
order is placed, and one linear pass places the whole graph.  The
all-queue-heads scanner this pass is checked against lives in
:mod:`repro.pipeline.oracle`.

A schedule grows by waves: :meth:`PipelineEngine.extend`, the engine's
one entry point, places a :class:`Wave` of :class:`Admission` objects —
self-contained templates, each under an alias, at a release time, on a
device — on top of the schedule's carried-over per-resource free times,
in place.  The serving layer places every admission wave this way; a
whole graph is one admission on an empty schedule.  An estimate needs
no schedule: :meth:`PlanTemplate.dispatch` is the pass itself, and
:meth:`repro.core.strategy.PipelinedJoinStrategy.simulate` folds its
finishes into metrics directly.
"""

from __future__ import annotations

import heapq
import math
from itertools import repeat
from typing import Sequence

from repro.errors import SchedulingError
from repro.pipeline.tasks import Schedule, ScheduledTask, Task, is_int


def _check_seconds(value: float, what: str, owner: str) -> None:
    # Negated comparison, so NaN fails it too.
    if not 0.0 <= value < math.inf:
        kind = "negative" if value < 0 else "non-finite"
        raise SchedulingError(f"{kind} {what} for {owner}: {value!r}")


class PlanTemplate:
    """A task graph lowered once into the engine's dispatch order.

    The tasks are listed so that each comes after its dependencies and
    after its FIFO predecessor on the same resource, ties broken by
    submission index; dependencies are stored as indices into that
    order.  Building a template validates the graph once: unique names,
    finite non-negative durations and release times, known
    dependencies, and no cycle through dependencies and FIFO order (a
    pipeline deadlock).  Per resource the dispatch order is the
    submission order, so placing a template reproduces the schedule of
    its tasks submitted one by one.

    Templates are immutable; :attr:`repro.core.strategy.JoinPlan.
    template` lowers each plan once and every admission of the plan
    reuses it.
    """

    __slots__ = (
        "tasks", "names", "resources", "durations", "deps", "releases",
    )

    def __init__(self, tasks: Sequence[Task]) -> None:
        position: dict[str, int] = {}
        for index, task in enumerate(tasks):
            if task.name in position:
                raise SchedulingError(f"duplicate task name: {task.name!r}")
            position[task.name] = index
            _check_seconds(task.duration, "duration", f"task {task.name!r}")
            _check_seconds(
                task.available_at, "available_at", f"task {task.name!r}"
            )
        count = len(tasks)
        inner: list[list[int]] = []
        # Kahn's algorithm over dependency and FIFO-predecessor edges,
        # the lowest submission index first among ready tasks.
        waiting = [0] * count
        unblocks: list[list[int]] = [[] for _ in range(count)]
        tail: dict[str, int] = {}
        for index, task in enumerate(tasks):
            deps: list[int] = []
            for dep in dict.fromkeys(task.deps):
                at = position.get(dep)
                if at is None:
                    raise SchedulingError(
                        f"task {task.name!r} depends on unknown task {dep!r}"
                    )
                deps.append(at)
                unblocks[at].append(index)
            before = tail.get(task.resource)
            if before is not None:
                unblocks[before].append(index)
            tail[task.resource] = index
            waiting[index] = len(deps) + (before is not None)
            inner.append(deps)
        ready = [index for index in range(count) if not waiting[index]]
        order: list[int] = []
        while ready:
            index = heapq.heappop(ready)
            order.append(index)
            for after in unblocks[index]:
                waiting[after] -= 1
                if not waiting[after]:
                    heapq.heappush(ready, after)
        if len(order) < count:
            placed = set(order)
            heads: dict[str, str] = {}
            for index, task in enumerate(tasks):
                if index not in placed:
                    heads.setdefault(task.resource, task.name)
            raise SchedulingError(
                f"pipeline deadlock: queue heads {list(heads.values())} all "
                "blocked (cyclic dependencies across FIFO queues?)"
            )
        rank = [0] * count
        for at, index in enumerate(order):
            rank[index] = at
        ordered = tuple(tasks[index] for index in order)
        #: The submitted tasks, in dispatch order.
        self.tasks = ordered
        self.names = tuple(task.name for task in ordered)
        self.resources = tuple(task.resource for task in ordered)
        self.durations = tuple(task.duration for task in ordered)
        self.releases = tuple(task.available_at for task in ordered)
        #: Per task, the dispatch-order indices of its dependencies.
        self.deps = tuple(
            tuple(rank[dep] for dep in inner[index]) for index in order
        )

    def __len__(self) -> int:
        return len(self.tasks)

    def dispatch(
        self, free_at: dict[str, float], release: float | None = None
    ) -> tuple[list[float], list[float]]:
        """The dispatch pass: each task's start and finish, in dispatch
        order, on top of the per-resource free times ``free_at``.

        Each task starts at ``max(resource free, dependency finishes,
        release)`` and its finish becomes the resource's free time;
        ``free_at`` is advanced in place (a resource it lacks is free
        from time 0).  ``release`` overrides every task's own
        ``available_at``.  Dispatch order puts a task after its
        dependencies and its FIFO predecessor, and only a queue's head
        can start, so every start is final when computed.
        """
        free = free_at.get
        starts: list[float] = []
        finishes: list[float] = []
        begin = starts.append
        end = finishes.append
        releases = self.releases if release is None else repeat(release)
        for resource, duration, deps, ready in zip(
            self.resources, self.durations, self.deps, releases
        ):
            start = free(resource, 0.0)
            for dep in deps:
                if finishes[dep] > start:
                    start = finishes[dep]
            if ready > start:
                start = ready
            finish = start + duration
            free_at[resource] = finish
            begin(start)
            end(finish)
        return starts, finishes


class Admission:
    """One placement of a template on an engine.

    With an ``alias`` the template's tasks are namespaced as
    ``"{alias}:{name}"`` (dependencies too), released at
    ``available_at`` and tagged with ``device`` — how the serving layer
    lowers an admitted query onto its device.  With ``alias=None`` and
    ``available_at=None`` the template's own tasks are placed as
    submitted.  :meth:`task` builds a placed task on demand; the engine
    sets :attr:`finish`, the latest finish among the placed tasks.
    """

    __slots__ = (
        "template", "alias", "available_at", "device", "prefix", "finish",
    )

    def __init__(
        self,
        template: PlanTemplate,
        alias: str | None = None,
        available_at: float | None = None,
        device: int = 0,
    ) -> None:
        self.template = template
        self.alias = alias
        self.available_at = available_at
        self.device = device
        self.prefix = "" if alias is None else alias + ":"
        self.finish: float | None = None

    def __len__(self) -> int:
        return len(self.template)

    def task(self, index: int) -> Task:
        """The placed form of the template's ``index``-th task (in
        dispatch order)."""
        task = self.template.tasks[index]
        release = self.available_at
        if not self.prefix and release is None and task.device == self.device:
            return task
        prefix = self.prefix
        return Task(
            name=prefix + task.name,
            resource=task.resource,
            duration=task.duration,
            deps=tuple(prefix + dep for dep in task.deps),
            phase=task.phase,
            available_at=task.available_at if release is None else release,
            device=self.device,
        )


class Wave:
    """The admissions one :meth:`PipelineEngine.extend` call places.

    ``len()`` is the number of tasks the wave places.
    """

    __slots__ = ("admissions", "_size")

    def __init__(self, admissions: Sequence[Admission] = ()) -> None:
        self.admissions: list[Admission] = []
        self._size = 0
        for admission in admissions:
            self.add(admission)

    def add(self, admission: Admission) -> None:
        self.admissions.append(admission)
        self._size += len(admission)

    def __len__(self) -> int:
        return self._size


class PipelineEngine:
    """Places task graphs on one device's resources.

    Every resource is one serially-executing FIFO queue (a CUDA stream
    or copy engine).  All task durations, release times and schedule
    timestamps are **simulated seconds** on the modelled device, never
    wall clock.  Simulation is deterministic: the same submission
    order, durations and dependencies always yield the same schedule —
    ties are broken by submission order, and no unordered-container
    iteration or randomness is involved.  :meth:`extend` is the one
    entry point; it places each admission with
    :meth:`PlanTemplate.dispatch`, and the pipeline test suite pins it
    to the reference scanner of :mod:`repro.pipeline.oracle`.
    """

    def __init__(self, *, device: int = 0) -> None:
        if not is_int(device) or device < 0:
            raise SchedulingError(
                f"engine device must be an int >= 0, got {device!r}"
            )
        #: Which GPU of a sharded fleet this engine simulates.  Every
        #: admission must carry the same tag — work routed to the wrong
        #: device's engine is a placement bug, not a schedulable input.
        #: Single-device code never sets it (both default to 0).
        self.device = device
        #: Tasks currently in the engine's books.
        self._count = 0
        #: Set by :meth:`retire`: the device left the fleet, so no new
        #: tasks may be submitted (the schedule and free times survive
        #: for reporting and compaction of in-flight work).
        self._device_retired = False
        #: Set by :meth:`crash`: the device failed ungracefully.  Like
        #: retirement this seals the engine against new tasks, but the
        #: unfinished tail of the schedule was invalidated too.
        self._crashed = False

    def extend(self, schedule: Schedule, new_tasks: Wave) -> Schedule:
        """Place the wave ``new_tasks`` on top of ``schedule``, in place,
        and return ``schedule``.

        ``schedule`` must be the one this engine's earlier extensions
        built (or an empty :class:`~repro.pipeline.tasks.Schedule` for
        an engine that holds nothing yet); the wave's admissions are
        appended to their resources' FIFO queues **without
        re-simulating the already-placed graph**.  This is what makes
        per-arrival re-scheduling in the serving layer cheap: one
        admission wave costs O(new tasks), not O(all tasks admitted so
        far).  Each :class:`Admission` places its template's tasks —
        under its alias, at its release time, or as submitted — without
        building a task object per placed task.

        Equivalence (pinned by ``tests/pipeline/test_engine_extend.py``
        against one extension of every wave at once and the reference
        scanner): tasks already placed occupy earlier positions of
        every FIFO queue and never depend on later submissions, so
        their starts and finishes cannot move; templates are
        self-contained, so the new tasks need nothing of the placed
        graph but its per-resource free times
        (:attr:`~repro.pipeline.tasks.Schedule.free_at`).  Carrying
        those over reproduces, bit-for-bit, the schedule of placing
        old and new tasks in one wave.  New admissions may introduce
        new resources (free from time 0).

        Raises :class:`SchedulingError` when ``schedule`` is a merged
        multi-device reporting view
        (:attr:`~repro.pipeline.tasks.Schedule.is_merged_view`), when
        ``schedule`` does not cover the engine's current tasks or holds
        tasks but no free times (stale), when the device is retired or
        crashed, when an admission targets another device or has a
        negative or non-finite release time, or when two placed tasks
        would share a name.  A rejected wave rolls back: the engine and
        the schedule are left exactly as they were, still extendable.
        """
        if schedule.is_merged_view:
            raise SchedulingError(
                "cannot extend a merged reporting view: it unions "
                "per-device schedules whose same-named resources are "
                "distinct physical queues; extend the owning device's "
                "schedule instead"
            )
        self._check_current(schedule, "extend()")
        if schedule.tasks and not schedule.free_at:
            raise SchedulingError(
                f"stale schedule: holds {len(schedule.tasks)} tasks but "
                "records no free times; extend() needs the schedule that "
                "extend() returned"
            )
        if len(new_tasks) and self._device_retired:
            raise SchedulingError(
                f"device {self.device} is retired: "
                f"{len(new_tasks)} new task(s) cannot be placed on an "
                "engine that left the fleet"
            )
        admissions = new_tasks.admissions
        for admission in admissions:
            self._check_admission(admission)
        self._place(schedule, admissions)
        self._count += len(new_tasks)
        return schedule

    def _place(self, schedule: Schedule, admissions: list[Admission]) -> None:
        """Place every admission's template, in order, on top of
        ``schedule``'s carried-over free times.

        Admissions are self-contained graphs, so their dispatch orders
        concatenate into one for the whole wave, and
        :meth:`PlanTemplate.dispatch` times each in turn.  A name
        collision with an already placed task rolls the wave back and
        raises.
        """
        free_at = dict(schedule.free_at)
        placed = schedule.tasks
        claim = placed.setdefault
        for done, admission in enumerate(admissions):
            template = admission.template
            prefix = admission.prefix
            starts, finishes = template.dispatch(
                free_at, admission.available_at
            )
            for index, name in enumerate(template.names):
                item = ScheduledTask(
                    None, starts[index], finishes[index], admission, index
                )
                if claim(prefix + name, item) is not item:
                    # Roll back every task this pass placed; the free
                    # times are a copy, committed only below.
                    for earlier in admissions[:done]:
                        for other in earlier.template.names:
                            del placed[earlier.prefix + other]
                    for other in template.names[:index]:
                        del placed[prefix + other]
                    raise SchedulingError(
                        f"duplicate task name: {prefix + name!r}"
                    )
            admission.finish = max(finishes, default=admission.available_at)
        schedule.free_at = free_at

    def _check_admission(self, admission: Admission) -> None:
        if admission.device != self.device:
            raise SchedulingError(
                f"admission {admission.alias!r} is placed on device "
                f"{admission.device} but this engine simulates device "
                f"{self.device}"
            )
        if admission.available_at is not None:
            _check_seconds(
                admission.available_at,
                "available_at",
                f"admission {admission.alias!r}",
            )

    def _check_current(self, schedule: Schedule, entry_point: str) -> None:
        if len(schedule.tasks) != self._count:
            raise SchedulingError(
                f"stale schedule: covers {len(schedule.tasks)} tasks but "
                f"the engine holds {self._count}; {entry_point} needs the "
                "schedule of exactly the tasks currently placed"
            )

    def compact(self, schedule: Schedule, horizon: float) -> int:
        """Retire tasks finished at or before ``horizon`` from both
        ``schedule`` and this engine's books, in lockstep.

        This is the engine half of steady-state streaming: without it a
        long-lived serving engine accumulates every task ever admitted;
        with it, retained state is O(in-flight + one compaction
        interval).  ``schedule`` must be this engine's current schedule
        (the one :meth:`extend` built, over exactly the engine's tasks)
        and is compacted **in place**
        (:meth:`~repro.pipeline.tasks.Schedule.compact`), so a
        subsequent :meth:`extend` still sees schedule and engine in
        agreement.  Returns the number of tasks retired.

        Free times (``free_at``) and recorded finishes of retained
        tasks are untouched, so extensions after a compaction are
        **bit-identical** to the uncompacted run — pinned by
        ``tests/pipeline/test_compaction.py`` on randomized arrival
        waves.  Any horizon is safe for extension: a wave's templates
        are self-contained, so no new task can depend on a retired
        one.
        """
        if schedule.is_merged_view:
            raise SchedulingError(
                "cannot compact a merged reporting view: compact each "
                "owning device's schedule through its own engine"
            )
        self._check_current(schedule, "compact()")
        retired = schedule.compact(horizon)
        self._count -= retired
        return retired

    def crash(self, schedule: Schedule, at: float) -> list[str]:
        """Ungraceful device failure at simulated time ``at``.

        Unlike :meth:`retire` — a drain that lets in-flight work finish
        — a crash **invalidates** every task that had not finished by
        ``at``: those tasks are deleted from ``schedule`` and from the
        engine's books in lockstep (so the stale-schedule checks of
        :meth:`compact` / :meth:`extend` stay consistent), and their
        names are returned, sorted, for the caller's recovery
        bookkeeping.  Tasks that *did* finish by ``at`` stay in the
        schedule — wasted-but-real history of queries whose later tasks
        were lost.  Invalidated work is **not** folded into
        ``retired_makespan``: the schedule's makespan only ever reflects
        work that completed.

        The engine is sealed exactly like retirement (a non-empty
        :meth:`extend` raises): a crashed device has no future to
        simulate.  :meth:`compact` keeps working on the surviving
        history, so a streaming run's periodic sweeps need not
        special-case crashed devices.  ``schedule`` must be this
        engine's own current schedule, not a merged reporting view, and
        ``at`` must be finite and non-negative; either refusal raises
        :class:`~repro.errors.SchedulingError` before anything is
        sealed.  Idempotent in effect: a second crash on an
        already-sealed engine just invalidates whatever (nothing)
        remains unfinished.
        """
        if schedule.is_merged_view:
            raise SchedulingError(
                "cannot crash a merged reporting view: crash the owning "
                "device's schedule through its own engine"
            )
        self._check_current(schedule, "crash()")
        _check_seconds(at, "crash time", f"device {self.device}")
        lost = sorted(
            name
            for name, item in schedule.tasks.items()
            if item.finish > at
        )
        for name in lost:
            del schedule.tasks[name]
        self._count -= len(lost)
        self._crashed = True
        self._device_retired = True
        return lost

    @property
    def is_crashed(self) -> bool:
        """Has :meth:`crash` sealed this engine and voided its tail?"""
        return self._crashed

    @property
    def is_retired(self) -> bool:
        """Has :meth:`retire` sealed this engine against new tasks?"""
        return self._device_retired

    def retire(self) -> None:
        """Seal the engine: its device left the fleet.

        Device-tagged work *survives* retirement — the schedule, free
        times and recorded finishes stay intact so in-flight queries
        drain normally, reports still merge this device's history, and
        :meth:`compact` keeps working on the drained tail.  What
        retirement forbids is **new work**: any subsequent non-empty
        :meth:`extend` raises :class:`~repro.errors.SchedulingError`
        naming the device, so a placement bug that routes a query onto
        a retired device fails loudly instead of silently resurrecting
        it.  Idempotent.
        """
        self._device_retired = True
