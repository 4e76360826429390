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
"""

from __future__ import annotations

import heapq
from collections import defaultdict

from repro.errors import SchedulingError
from repro.pipeline.tasks import ResourcePool, Schedule, ScheduledTask, Task


class PipelineEngine:
    """Builds and simulates a task graph.

    ``resources`` optionally maps resource names to lane counts (or is a
    collection of :class:`ResourcePool`); unnamed resources default to a
    single lane, i.e. one serially-executing queue.

    All task durations, release times and schedule timestamps are
    **simulated seconds** on the modelled device, never wall clock.
    Simulation is deterministic: the same submission order, durations,
    dependencies and lane counts always yield the same schedule —
    ties are broken by submission order and lowest lane index, and no
    unordered-container iteration or randomness is involved.  The three
    entry points (:meth:`run`, :meth:`run_reference`, :meth:`extend`)
    are pinned to identical schedules by the pipeline test suite.
    """

    def __init__(
        self,
        resources: dict[str, int] | list[ResourcePool] | None = None,
        *,
        device: int = 0,
    ) -> None:
        if device < 0:
            raise SchedulingError(f"engine device must be >= 0, got {device}")
        #: Which GPU of a sharded fleet this engine simulates.  Every
        #: submitted task must carry the same tag — a task routed to the
        #: wrong device's engine is a placement bug, not a schedulable
        #: input.  Single-device code never sets it (both default to 0).
        self.device = device
        self._tasks: list[Task] = []
        self._by_name: dict[str, Task] = {}
        self._lanes: dict[str, int] = {}
        #: Tasks dropped by :meth:`compact` — once nonzero the engine
        #: only supports :meth:`extend`, never a full re-simulation.
        self._retired = 0
        #: Set by :meth:`retire`: the device left the fleet, so no new
        #: tasks may be submitted (the schedule and lane state survive
        #: for reporting and compaction of in-flight work).
        self._device_retired = False
        #: Set by :meth:`crash`: the device failed ungracefully.  Like
        #: retirement this seals the engine against new tasks, but the
        #: unfinished tail of the schedule was invalidated too.
        self._crashed = False
        if resources:
            pools = (
                # A bare name->lanes dict describes THIS engine's pools,
                # so they inherit its device tag; explicit ResourcePool
                # lists must already carry the right device.
                [
                    ResourcePool(name, lanes, device=device)
                    for name, lanes in resources.items()
                ]
                if isinstance(resources, dict)
                else list(resources)
            )
            for pool in pools:
                if pool.device != device:
                    raise SchedulingError(
                        f"resource pool {pool.name!r} belongs to device "
                        f"{pool.device} but the engine simulates device "
                        f"{device}"
                    )
                self._lanes[pool.name] = pool.lanes

    def lanes_of(self, resource: str) -> int:
        return self._lanes.get(resource, 1)

    # ------------------------------------------------------------------
    def add(self, task: Task) -> Task:
        """Append a task to its resource's queue."""
        if self._device_retired:
            raise SchedulingError(
                f"device {self.device} is retired: task {task.name!r} "
                "cannot be placed on an engine that left the fleet"
            )
        if task.name in self._by_name:
            raise SchedulingError(f"duplicate task name: {task.name!r}")
        if task.duration < 0:
            raise SchedulingError(f"negative duration for task {task.name!r}")
        if task.available_at < 0:
            raise SchedulingError(f"negative available_at for task {task.name!r}")
        if task.device != self.device:
            raise SchedulingError(
                f"task {task.name!r} is placed on device {task.device} but "
                f"this engine simulates device {self.device}"
            )
        self._tasks.append(task)
        self._by_name[task.name] = task
        return task

    def add_task(
        self,
        name: str,
        resource: str,
        duration: float,
        deps: tuple[str, ...] | list[str] = (),
        phase: str | None = None,
    ) -> Task:
        """Convenience wrapper around :meth:`add`."""
        return self.add(
            Task(
                name=name,
                resource=resource,
                duration=duration,
                deps=tuple(deps),
                phase=phase,
            )
        )

    @property
    def tasks(self) -> list[Task]:
        return list(self._tasks)

    # ------------------------------------------------------------------
    def run(self) -> Schedule:
        """Simulate the graph and return the schedule (event-driven).

        A task is *dispatchable* once it reaches the head of its
        resource's FIFO queue and all its dependencies have finished —
        at that point its start time is final: every earlier task of the
        same queue has already been placed (fixing the lane-free times)
        and dependency finishes never change once recorded.  The
        simulator therefore tracks dependency indegrees, keeps one heap
        of free times per resource pool's lanes, and drains an event
        calendar of dispatchable tasks ordered by start time — placing
        each task exactly once, O((T + E) log T) overall, instead of
        rescanning every queue head per decision as the original
        scanner (retained as :meth:`run_reference`) did.

        The schedule is identical to :meth:`run_reference`'s, including
        lane assignment (ties go to the lowest lane index) and deadlock
        detection: if no queue head is dispatchable while tasks remain,
        the dependency structure is cyclic across the FIFO queues (or
        references an unknown task) and a :class:`SchedulingError` is
        raised.
        """
        self._check_not_compacted("run()")
        for task in self._tasks:
            for dep in task.deps:
                if dep not in self._by_name:
                    raise SchedulingError(
                        f"task {task.name!r} depends on unknown task {dep!r}"
                    )

        queues: dict[str, list[Task]] = defaultdict(list)
        position: dict[str, int] = {}
        for task in self._tasks:
            position[task.name] = len(queues[task.resource])
            queues[task.resource].append(task)
        cursor = {resource: 0 for resource in queues}
        # One free-time per lane, as a heap of (free_at, lane_index): a
        # pool's next task is dispatched onto whichever lane frees first
        # (round-robin copy engines/streams), lowest index on ties.
        lane_free = {
            resource: [(0.0, lane) for lane in range(self.lanes_of(resource))]
            for resource in queues
        }
        finish_at: dict[str, float] = {}
        indegree: dict[str, int] = {}
        dependents: dict[str, list[str]] = defaultdict(list)
        for task in self._tasks:
            unique_deps = set(task.deps)
            indegree[task.name] = len(unique_deps)
            for dep in unique_deps:
                dependents[dep].append(task.name)

        schedule = Schedule(
            lanes={resource: self.lanes_of(resource) for resource in queues}
        )

        # Event calendar: dispatchable tasks keyed by their (final)
        # start time; the sequence number makes heap entries total-ordered
        # and preserves submission order among equal start times.
        calendar: list[tuple[float, int, str]] = []
        queued: set[str] = set()
        sequence = 0

        def maybe_push(task: Task) -> None:
            nonlocal sequence
            if (
                task.name in queued
                or indegree[task.name] > 0
                or cursor[task.resource] != position[task.name]
            ):
                return
            dep_ready = max(
                (finish_at[dep] for dep in task.deps), default=0.0
            )
            start = max(lane_free[task.resource][0][0], dep_ready, task.available_at)
            heapq.heappush(calendar, (start, sequence, task.name))
            queued.add(task.name)
            sequence += 1

        for queue in queues.values():
            maybe_push(queue[0])

        remaining = len(self._tasks)
        while remaining:
            if not calendar:
                pending = [
                    queue[cursor[resource]].name
                    for resource, queue in queues.items()
                    if cursor[resource] < len(queue)
                ]
                raise SchedulingError(
                    f"pipeline deadlock: queue heads {pending} all blocked "
                    "(cyclic dependencies across FIFO queues?)"
                )
            start, _, name = heapq.heappop(calendar)
            task = self._by_name[name]
            _, lane = heapq.heappop(lane_free[task.resource])
            finish = start + task.duration
            schedule.tasks[name] = ScheduledTask(task, start, finish, lane=lane)
            finish_at[name] = finish
            heapq.heappush(lane_free[task.resource], (finish, lane))
            cursor[task.resource] += 1
            remaining -= 1
            # Two kinds of tasks may have become dispatchable: the next
            # task of this queue, and dependents that were only waiting
            # on this finish.  (A dependent still behind its queue head
            # is woken later, by its own queue's cursor reaching it.)
            queue = queues[task.resource]
            if cursor[task.resource] < len(queue):
                maybe_push(queue[cursor[task.resource]])
            for child in dependents[name]:
                indegree[child] -= 1
                maybe_push(self._by_name[child])
        schedule.lane_state = {
            resource: sorted(heap) for resource, heap in lane_free.items()
        }
        return schedule

    # ------------------------------------------------------------------
    def extend(
        self,
        schedule: Schedule,
        new_tasks: list[Task],
        *,
        in_place: bool = False,
    ) -> Schedule:
        """Incrementally place ``new_tasks`` on top of ``schedule``.

        ``schedule`` must be the result of :meth:`run` (or a previous
        :meth:`extend`) over *every* task currently in the engine; the
        new tasks are appended to their resources' FIFO queues and the
        combined schedule is returned, **without re-simulating the
        already-placed graph**.  This is what makes per-arrival
        re-scheduling in the serving layer cheap: one admission wave
        costs O(new tasks), not O(all tasks admitted so far).

        Equivalence (pinned by ``tests/pipeline/test_engine_extend.py``
        and kept honest by retaining :meth:`run` as the oracle): since
        tasks already in the engine occupy earlier positions of every
        FIFO queue and never depend on later submissions, their start
        times, finishes and lane assignments are unaffected by the new
        tasks — so carrying over the end-of-run per-pool lane heaps
        (:attr:`~repro.pipeline.tasks.Schedule.lane_state`) and the
        recorded finish times reproduces, bit-for-bit, the schedule a
        full :meth:`run` over old + new tasks would compute.

        New tasks may depend on already-scheduled tasks or on each
        other, carry ``available_at`` release times (simulated seconds,
        e.g. the admission clock of a newly admitted query), and may
        introduce new resources (defaulting to one lane).  The engine's
        task list is extended, so a subsequent full :meth:`run` — or
        another :meth:`extend` — covers old and new tasks alike.

        By default the input ``schedule`` is left untouched and a
        combined copy is returned — copying the accumulated task dict
        costs O(all tasks so far) per wave.  Callers that retire the
        input schedule anyway (the serve scheduler's event loop) pass
        ``in_place=True`` to mutate and return ``schedule`` itself,
        making a wave genuinely O(new tasks).

        Raises :class:`SchedulingError` when ``schedule`` is a merged
        multi-device reporting view
        (:attr:`~repro.pipeline.tasks.Schedule.is_merged_view`), when
        ``schedule`` does not
        cover the engine's current tasks, when a new task duplicates a
        name / has negative duration or ``available_at`` / depends on
        an unknown task, when lane counts changed since ``schedule``
        was computed, or when the new tasks deadlock.  A rejected
        batch — including a deadlocked one — rolls back: the engine
        and, with ``in_place=True``, the schedule are left exactly as
        they were, still extendable.
        """
        if schedule.is_merged_view:
            raise SchedulingError(
                "cannot extend a merged reporting view: it unions "
                "per-device schedules whose same-named pools are distinct "
                "physical resources; extend the owning device's schedule "
                "instead"
            )
        if len(schedule.tasks) != len(self._tasks):
            raise SchedulingError(
                f"stale schedule: covers {len(schedule.tasks)} tasks but "
                f"the engine holds {len(self._tasks)}; extend() needs the "
                "schedule of exactly the tasks already submitted"
            )
        if new_tasks and self._device_retired:
            raise SchedulingError(
                f"device {self.device} is retired: "
                f"{len(new_tasks)} new task(s) cannot be placed on an "
                "engine that left the fleet"
            )
        new_names = {task.name for task in new_tasks}
        if len(new_names) != len(new_tasks):
            raise SchedulingError("duplicate task names in new_tasks")
        # Validate everything up front so a bad batch leaves the engine
        # (and the caller's schedule) untouched.
        for task in new_tasks:
            if task.name in self._by_name:
                raise SchedulingError(f"duplicate task name: {task.name!r}")
            if task.duration < 0:
                raise SchedulingError(
                    f"negative duration for task {task.name!r}"
                )
            if task.available_at < 0:
                raise SchedulingError(
                    f"negative available_at for task {task.name!r}"
                )
            if task.device != self.device:
                raise SchedulingError(
                    f"task {task.name!r} is placed on device {task.device} "
                    f"but this engine simulates device {self.device}"
                )
            for dep in task.deps:
                if dep not in self._by_name and dep not in new_names:
                    hint = (
                        " (or one retired by compact()?)"
                        if self._retired
                        else ""
                    )
                    raise SchedulingError(
                        f"task {task.name!r} depends on unknown task "
                        f"{dep!r}{hint}"
                    )
        for resource, lanes in schedule.lanes.items():
            if lanes != self.lanes_of(resource):
                raise SchedulingError(
                    f"resource {resource!r} changed from {lanes} to "
                    f"{self.lanes_of(resource)} lanes since the schedule "
                    "was computed; lane counts must be declared up front"
                )
        for task in new_tasks:
            self.add(task)  # validates name collisions and durations

        queues: dict[str, list[Task]] = defaultdict(list)
        position: dict[str, int] = {}
        for task in new_tasks:
            position[task.name] = len(queues[task.resource])
            queues[task.resource].append(task)
        cursor = {resource: 0 for resource in queues}
        # Carried-over lane heaps: each pool resumes from the free
        # times the previous run left behind (sorted lists are valid
        # heaps, so pop order matches an uninterrupted simulation).
        lane_free: dict[str, list[tuple[float, int]]] = {}
        for resource in queues:
            state = schedule.lane_state.get(resource)
            if state is None:
                state = self._reconstruct_lane_state(schedule, resource)
            lane_free[resource] = list(state)

        old = schedule.tasks
        finish_at: dict[str, float] = {}

        def dep_finish(dep: str) -> float:
            got = finish_at.get(dep)
            return got if got is not None else old[dep].finish

        indegree: dict[str, int] = {}
        dependents: dict[str, list[str]] = defaultdict(list)
        for task in new_tasks:
            unresolved = {dep for dep in task.deps if dep in new_names}
            indegree[task.name] = len(unresolved)
            for dep in unresolved:
                dependents[dep].append(task.name)

        if in_place:
            combined = schedule
        else:
            combined = Schedule(
                tasks=dict(schedule.tasks),
                lanes=dict(schedule.lanes),
                lane_state=dict(schedule.lane_state),
            )
        added_lanes: list[str] = []
        for resource in queues:
            if resource not in combined.lanes:
                combined.lanes[resource] = self.lanes_of(resource)
                added_lanes.append(resource)

        calendar: list[tuple[float, int, str]] = []
        queued: set[str] = set()
        sequence = 0

        def maybe_push(task: Task) -> None:
            nonlocal sequence
            if (
                task.name in queued
                or indegree[task.name] > 0
                or cursor[task.resource] != position[task.name]
            ):
                return
            dep_ready = max(
                (dep_finish(dep) for dep in task.deps), default=0.0
            )
            start = max(lane_free[task.resource][0][0], dep_ready, task.available_at)
            heapq.heappush(calendar, (start, sequence, task.name))
            queued.add(task.name)
            sequence += 1

        for queue in queues.values():
            maybe_push(queue[0])

        remaining = len(new_tasks)
        while remaining:
            if not calendar:
                pending = [
                    queue[cursor[resource]].name
                    for resource, queue in queues.items()
                    if cursor[resource] < len(queue)
                ]
                # Roll back: a deadlocked batch must leave the engine
                # (and, in place, the schedule) extendable, like every
                # other rejected batch.
                del self._tasks[len(self._tasks) - len(new_tasks):]
                for task in new_tasks:
                    del self._by_name[task.name]
                    combined.tasks.pop(task.name, None)
                for resource in added_lanes:
                    del combined.lanes[resource]
                raise SchedulingError(
                    f"pipeline deadlock: queue heads {pending} all blocked "
                    "(cyclic dependencies across FIFO queues?)"
                )
            start, _, name = heapq.heappop(calendar)
            task = self._by_name[name]
            _, lane = heapq.heappop(lane_free[task.resource])
            finish = start + task.duration
            combined.tasks[name] = ScheduledTask(task, start, finish, lane=lane)
            finish_at[name] = finish
            heapq.heappush(lane_free[task.resource], (finish, lane))
            cursor[task.resource] += 1
            remaining -= 1
            queue = queues[task.resource]
            if cursor[task.resource] < len(queue):
                maybe_push(queue[cursor[task.resource]])
            for child in dependents[name]:
                indegree[child] -= 1
                maybe_push(self._by_name[child])
        for resource, heap in lane_free.items():
            combined.lane_state[resource] = sorted(heap)
        return combined

    def compact(self, schedule: Schedule, horizon: float) -> int:
        """Retire tasks finished at or before ``horizon`` from both
        ``schedule`` and this engine's books, in lockstep.

        This is the engine half of steady-state streaming: without it a
        long-lived serving engine accumulates every task ever admitted
        (the ``_tasks`` list and name index grow O(total arrivals));
        with it, retained state is O(in-flight + one compaction
        interval).  ``schedule`` must be this engine's current schedule
        (the result of :meth:`run` or :meth:`extend` over exactly the
        engine's tasks) and is compacted **in place**
        (:meth:`~repro.pipeline.tasks.Schedule.compact`), so a
        subsequent :meth:`extend` still sees schedule and engine in
        agreement.  Returns the number of tasks retired.

        Lane heaps (``lane_state``) and recorded finishes of retained
        tasks are untouched, so extensions after a compaction are
        **bit-identical** to the uncompacted run — pinned by
        ``tests/pipeline/test_compaction.py`` on randomized arrival
        waves.  The contract is the caller's horizon choice: new tasks
        must never depend on a retired task (the serving layer only
        retires queries whose dependents all finished; a violation
        raises ``unknown task`` at the next ``extend``).  A compacted
        engine refuses :meth:`run` / :meth:`run_reference` — the full
        graph no longer exists to re-simulate.
        """
        if schedule.is_merged_view:
            raise SchedulingError(
                "cannot compact a merged reporting view: compact each "
                "owning device's schedule through its own engine"
            )
        if len(schedule.tasks) != len(self._tasks):
            raise SchedulingError(
                f"stale schedule: covers {len(schedule.tasks)} tasks but "
                f"the engine holds {len(self._tasks)}; compact() needs the "
                "schedule of exactly the tasks currently submitted"
            )
        retired = {
            name
            for name, item in schedule.tasks.items()
            if item.finish <= horizon
        }
        if not retired:
            return 0
        schedule.compact(horizon)
        self._tasks = [task for task in self._tasks if task.name not in retired]
        for name in retired:
            del self._by_name[name]
        self._retired += len(retired)
        return len(retired)

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

        The engine is sealed exactly like retirement (new
        :meth:`add` / non-empty :meth:`extend` raise) and additionally
        refuses :meth:`run` / :meth:`run_reference` — a crashed device
        has no future to simulate.  :meth:`compact` keeps working on
        the surviving history, so a streaming run's periodic sweeps
        need not special-case crashed devices.  ``schedule`` must
        be this engine's own current schedule, not a merged reporting
        view.  Idempotent in effect: a second crash on an already-sealed
        engine just invalidates whatever (nothing) remains unfinished.
        """
        if schedule.is_merged_view:
            raise SchedulingError(
                "cannot crash a merged reporting view: crash the owning "
                "device's schedule through its own engine"
            )
        if len(schedule.tasks) != len(self._tasks):
            raise SchedulingError(
                f"stale schedule: covers {len(schedule.tasks)} tasks but "
                f"the engine holds {len(self._tasks)}; crash() needs the "
                "schedule of exactly the tasks currently submitted"
            )
        lost = sorted(
            name
            for name, item in schedule.tasks.items()
            if item.finish > at
        )
        for name in lost:
            del schedule.tasks[name]
            del self._by_name[name]
        if lost:
            gone = set(lost)
            self._tasks = [t for t in self._tasks if t.name not in gone]
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

        Device-tagged lanes *survive* retirement — the schedule, lane
        heaps and recorded finishes stay intact so in-flight queries
        drain normally, reports still merge this device's history, and
        :meth:`compact` keeps working on the drained tail.  What
        retirement forbids is **new work**: any subsequent :meth:`add`
        or non-empty :meth:`extend` raises
        :class:`~repro.errors.SchedulingError` naming the device, so a
        placement bug that routes a query onto a retired device fails
        loudly instead of silently resurrecting it.  Idempotent.
        """
        self._device_retired = True

    def _check_not_compacted(self, entry_point: str) -> None:
        if self._crashed:
            raise SchedulingError(
                f"cannot {entry_point} after crash(): device "
                f"{self.device} failed and its unfinished tasks were "
                "invalidated; the graph no longer exists to re-simulate"
            )
        if self._retired:
            raise SchedulingError(
                f"cannot {entry_point} after compact(): {self._retired} "
                "task(s) were retired, so the full graph no longer exists "
                "to re-simulate; keep using extend()"
            )

    def _reconstruct_lane_state(
        self, schedule: Schedule, resource: str
    ) -> list[tuple[float, int]]:
        """Per-lane free times of one pool, rebuilt from a schedule that
        did not record :attr:`~repro.pipeline.tasks.Schedule.lane_state`
        (e.g. one deserialized or hand-built by a test)."""
        free = [0.0] * self.lanes_of(resource)
        for item in schedule.tasks.values():
            if item.task.resource == resource and item.finish > free[item.lane]:
                free[item.lane] = item.finish
        return sorted((free_at, lane) for lane, free_at in enumerate(free))

    # ------------------------------------------------------------------
    def run_reference(self) -> Schedule:
        """The original all-queue-heads scanner, kept as the executable
        specification of :meth:`run`: repeatedly starts the earliest-
        ready head-of-queue task, rescanning every queue per decision.
        ``tests/pipeline/test_engine_reference.py`` asserts both produce
        identical schedules on randomized DAGs.
        """
        self._check_not_compacted("run_reference()")
        for task in self._tasks:
            for dep in task.deps:
                if dep not in self._by_name:
                    raise SchedulingError(
                        f"task {task.name!r} depends on unknown task {dep!r}"
                    )

        queues: dict[str, list[Task]] = defaultdict(list)
        for task in self._tasks:
            queues[task.resource].append(task)
        cursor = {resource: 0 for resource in queues}
        # One free-time per lane; a pool's next task is dispatched onto
        # whichever lane frees first (round-robin copy engines/streams).
        lane_free = {
            resource: [0.0] * self.lanes_of(resource) for resource in queues
        }

        schedule = Schedule(
            lanes={resource: self.lanes_of(resource) for resource in queues}
        )
        remaining = len(self._tasks)
        while remaining:
            best_name = None
            best_start = None
            best_lane = 0
            for resource, queue in queues.items():
                position = cursor[resource]
                if position >= len(queue):
                    continue
                task = queue[position]
                if any(dep not in schedule.tasks for dep in task.deps):
                    continue
                dep_ready = max(
                    (schedule.tasks[dep].finish for dep in task.deps), default=0.0
                )
                lane = min(
                    range(len(lane_free[resource])),
                    key=lane_free[resource].__getitem__,
                )
                start = max(lane_free[resource][lane], dep_ready, task.available_at)
                if best_start is None or start < best_start:
                    best_start, best_name, best_lane = start, task.name, lane
            if best_name is None:
                pending = [
                    queue[cursor[resource]].name
                    for resource, queue in queues.items()
                    if cursor[resource] < len(queue)
                ]
                raise SchedulingError(
                    f"pipeline deadlock: queue heads {pending} all blocked "
                    "(cyclic dependencies across FIFO queues?)"
                )
            task = self._by_name[best_name]
            finish = best_start + task.duration
            schedule.tasks[task.name] = ScheduledTask(
                task, best_start, finish, lane=best_lane
            )
            lane_free[task.resource][best_lane] = finish
            cursor[task.resource] += 1
            remaining -= 1
        schedule.lane_state = {
            resource: sorted(
                (free_at, lane) for lane, free_at in enumerate(frees)
            )
            for resource, frees in lane_free.items()
        }
        return schedule


def double_buffered_stream(
    engine: PipelineEngine,
    *,
    prefix: str,
    chunks: int,
    transfer_seconds,
    compute_seconds,
    buffers: int = 2,
    transfer_resource: str = "h2d",
    compute_resource: str = "gpu",
    output_seconds=None,
    output_resource: str = "d2h",
    first_transfer_dep: str | None = None,
) -> tuple[str, str]:
    """Emit the paper's §IV-A double-buffered pipeline into ``engine``.

    For each chunk ``i``: a transfer task, a compute task depending on it,
    and (optionally) an output copy-back task.  Buffer recycling adds a
    dependency of transfer ``i`` on compute ``i - buffers`` and, when
    output is enabled, of compute ``i`` on output ``i - buffers``
    (the §IV-C result double-buffering).

    ``transfer_seconds``/``compute_seconds``/``output_seconds`` are either
    scalars or callables of the chunk index.  Returns the names of the
    last transfer and last compute task.
    """

    def _dur(value, index: int) -> float:
        return float(value(index)) if callable(value) else float(value)

    last_transfer = ""
    last_compute = ""
    for index in range(chunks):
        transfer = f"{prefix}.h2d[{index}]"
        compute = f"{prefix}.join[{index}]"
        deps: list[str] = []
        if first_transfer_dep and index == 0:
            deps.append(first_transfer_dep)
        if index >= buffers:
            deps.append(f"{prefix}.join[{index - buffers}]")
        engine.add_task(transfer, transfer_resource, _dur(transfer_seconds, index), deps)
        compute_deps = [transfer]
        if output_seconds is not None and index >= buffers:
            compute_deps.append(f"{prefix}.d2h[{index - buffers}]")
        engine.add_task(compute, compute_resource, _dur(compute_seconds, index), compute_deps)
        if output_seconds is not None:
            engine.add_task(
                f"{prefix}.d2h[{index}]",
                output_resource,
                _dur(output_seconds, index),
                [compute],
            )
        last_transfer, last_compute = transfer, compute
    return last_transfer, last_compute
