"""Oracles the pipeline engine is checked against.

Nothing on a production path calls into this module.  It holds:

* :func:`run_reference` — the original all-queue-heads scanner, the
  executable specification of the engine's dispatch pass
  (:meth:`~repro.pipeline.engine.PlanTemplate.dispatch`): it repeatedly
  starts the earliest-ready head-of-queue task, rescanning every queue
  per decision.  It takes a plain task list and shares no code with
  the engine.
* :func:`check_batch_oracle` — re-simulates each device's final task
  graph of a serving report with the scanner and requires every task
  of the incremental schedule to match.
"""

from __future__ import annotations

from collections import defaultdict

from repro.errors import SchedulingError
from repro.pipeline.tasks import Schedule, ScheduledTask, Task


def run_reference(tasks: list[Task]) -> Schedule:
    """Simulate the graph ``tasks``, in submission order, with the
    all-queue-heads scanner.

    ``tests/pipeline/test_engine_reference.py`` asserts that it and the
    engine produce identical schedules on randomized DAGs, deadlock
    and unknown-dependency detection included.
    """
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
    # One free time per resource: its FIFO queue runs one task at a time.
    free_at = {resource: 0.0 for resource in queues}

    schedule = Schedule()
    remaining = len(tasks)
    while remaining:
        best: Task | None = None
        best_start = 0.0
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
            start = max(free_at[resource], dep_ready, task.available_at)
            if best is None or start < best_start:
                best, best_start = task, start
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
        schedule.tasks[best.name] = ScheduledTask(best, best_start, finish)
        free_at[best.resource] = finish
        cursor[best.resource] += 1
        remaining -= 1
    schedule.free_at = free_at
    return schedule


def check_batch_oracle(report, faults=None) -> int:
    """Batch re-simulation as the oracle of the incremental schedule.

    Re-simulates each device's final task graph in
    ``report.device_schedules`` from scratch with :func:`run_reference`
    — a batch scheduler's way of placing the graph — and raises
    :class:`~repro.errors.SchedulingError` unless every task is tagged
    with its schedule's device and every task's start and finish equal
    the ones the run placed by extension.  Schedules list tasks in
    dispatch order, which per resource is submission order, so
    resubmitting them rebuilds every FIFO queue.  Devices ``faults``
    crashes are skipped (the crash dropped their unfinished tail, so the
    survivors no longer form the graph their times were computed from),
    and compacted schedules are refused: pass a
    :meth:`~repro.serve.scheduler.QueryScheduler.run_online` report.
    Returns the number of tasks checked.
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
        tasks = [item.task for item in schedule.tasks.values()]
        for task in tasks:
            if task.device != device:
                raise SchedulingError(
                    f"task {task.name!r} is tagged for device "
                    f"{task.device} but placed on device {device}"
                )
        batch = run_reference(tasks)
        for name, item in schedule.tasks.items():
            again = batch.tasks[name]
            if (item.start, item.finish) != (again.start, again.finish):
                raise SchedulingError(
                    f"device {device} task {name!r}: incremental "
                    f"{(item.start, item.finish)} != batch "
                    f"{(again.start, again.finish)}"
                )
        checked += len(schedule.tasks)
    return checked
