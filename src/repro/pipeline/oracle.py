"""Oracles the pipeline engine is checked against.

Nothing on a production path calls into this module.  It holds:

* :func:`run_reference` — the original all-queue-heads scanner, the
  executable specification of :meth:`~repro.pipeline.engine.
  PipelineEngine.run`: it repeatedly starts the earliest-ready
  head-of-queue task, rescanning every queue per decision.  It shares
  no dispatch code with the engine's linear pass.
* :func:`check_batch_oracle` — re-simulates each device's final task
  graph of a serving report with the scanner and requires every task
  of the incremental schedule to match.
"""

from __future__ import annotations

from collections import defaultdict

from repro.errors import SchedulingError
from repro.pipeline.engine import PipelineEngine
from repro.pipeline.tasks import Schedule, ScheduledTask, Task


def run_reference(engine: PipelineEngine) -> Schedule:
    """Simulate ``engine``'s submitted graph with the all-queue-heads
    scanner.

    ``tests/pipeline/test_engine_reference.py`` asserts that it and
    :meth:`~repro.pipeline.engine.PipelineEngine.run` produce identical
    schedules on randomized DAGs, deadlock detection included.  Like
    ``run()`` it refuses a compacted or crashed engine, whose full graph
    no longer exists.
    """
    tasks = engine.tasks  # refuses a compacted or crashed engine
    names = {task.name for task in tasks}
    for task in tasks:
        for dep in task.deps:
            if dep not in names:
                raise SchedulingError(
                    f"task {task.name!r} depends on unknown task {dep!r}"
                )

    queues: dict[str, list[Task]] = defaultdict(list)
    for task in tasks:
        queues[task.resource].append(task)
    cursor = {resource: 0 for resource in queues}
    # One free-time per lane; a pool's next task is dispatched onto
    # whichever lane frees first (round-robin copy engines/streams).
    lane_free = {
        resource: [0.0] * engine.lanes_of(resource) for resource in queues
    }

    schedule = Schedule(
        lanes={resource: engine.lanes_of(resource) for resource in queues}
    )
    remaining = len(tasks)
    while remaining:
        best: Task | None = None
        best_start = 0.0
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
            if best is None or start < best_start:
                best, best_start, best_lane = task, start, lane
        if best is None:
            pending = [
                queue[cursor[resource]].name
                for resource, queue in queues.items()
                if cursor[resource] < len(queue)
            ]
            raise SchedulingError(
                f"pipeline deadlock: queue heads {pending} all blocked "
                "(cyclic dependencies across FIFO queues?)"
            )
        finish = best_start + best.duration
        schedule.tasks[best.name] = ScheduledTask(
            best, best_start, finish, lane=best_lane
        )
        lane_free[best.resource][best_lane] = finish
        cursor[best.resource] += 1
        remaining -= 1
    schedule.lane_state = {
        resource: sorted((free_at, lane) for lane, free_at in enumerate(frees))
        for resource, frees in lane_free.items()
    }
    return schedule


def check_batch_oracle(report, faults=None) -> int:
    """Batch re-simulation as the oracle of the incremental schedule.

    Re-simulates each device's final task graph in
    ``report.device_schedules`` from scratch with :func:`run_reference`
    — a batch scheduler's way of placing the graph — and raises
    :class:`~repro.errors.SchedulingError` unless every task's start,
    finish and lane equal the ones the run placed by extension.
    Schedules list tasks in dispatch order, which per resource pool is
    submission order, so re-adding them rebuilds every FIFO queue.
    Devices ``faults`` crashes are skipped (the crash dropped their
    unfinished tail, so the survivors no longer form the graph their
    lanes were computed from), and compacted schedules are refused:
    pass a :meth:`~repro.serve.scheduler.QueryScheduler.run_online`
    report.  Returns the number of tasks checked.
    """
    crashed = {crash.device for crash in faults.crashes} if faults else set()
    checked = 0
    for device, schedule in enumerate(report.device_schedules):
        if device in crashed:
            continue
        if schedule.retired_tasks:
            raise SchedulingError(
                f"device {device} schedule was compacted; the batch "
                "oracle needs a complete one"
            )
        engine = PipelineEngine(schedule.lanes, device=device)
        for item in schedule.tasks.values():
            engine.add(item.task)
        batch = run_reference(engine)
        for name, item in schedule.tasks.items():
            again = batch.tasks[name]
            if (item.start, item.finish, item.lane) != (
                again.start, again.finish, again.lane
            ):
                raise SchedulingError(
                    f"device {device} task {name!r}: incremental "
                    f"{(item.start, item.finish, item.lane)} != batch "
                    f"{(again.start, again.finish, again.lane)}"
                )
        checked += len(schedule.tasks)
    return checked
