"""Discrete-event pipeline engine semantics."""

import math

import pytest

from repro.errors import SchedulingError
from repro.pipeline.engine import (
    Admission,
    PipelineEngine,
    PlanTemplate,
    Wave,
)
from repro.pipeline.tasks import Schedule, Task
from tests.pipeline.graphs import place


def wave_of(tasks: list[Task]) -> Wave:
    """One admission placing ``tasks`` as submitted."""
    return Wave([Admission(PlanTemplate(tasks))])


def test_single_resource_runs_fifo():
    schedule = place([Task("a", "gpu", 1.0), Task("b", "gpu", 2.0)])
    assert schedule.tasks["a"].start == 0.0
    assert schedule.tasks["b"].start == 1.0
    assert schedule.makespan == 3.0


def test_independent_resources_overlap():
    schedule = place([Task("copy", "h2d", 5.0), Task("compute", "gpu", 5.0)])
    assert schedule.makespan == 5.0


def test_dependency_delays_start():
    schedule = place(
        [Task("copy", "h2d", 5.0), Task("compute", "gpu", 1.0, ("copy",))]
    )
    assert schedule.tasks["compute"].start == 5.0
    assert schedule.makespan == 6.0


def test_makespan_bounds():
    """max(resource busy) <= makespan <= sum of durations."""
    durations = [1.0, 2.0, 0.5, 3.0]
    tasks: list[Task] = []
    prev = None
    for i, duration in enumerate(durations):
        deps = [prev] if prev and i % 2 else []
        prev = f"t{i}"
        tasks.append(Task(prev, "gpu" if i % 2 else "h2d", duration, deps))
    schedule = place(tasks)
    busiest = max(
        sum(task.duration for task in tasks if task.resource == resource)
        for resource in ("gpu", "h2d")
    )
    assert busiest <= schedule.makespan <= sum(durations) + 1e-12


def test_duplicate_task_name_rejected():
    with pytest.raises(SchedulingError, match="duplicate"):
        place([Task("a", "gpu", 1.0), Task("a", "gpu", 1.0)])


def test_negative_duration_rejected():
    with pytest.raises(SchedulingError, match="negative duration"):
        place([Task("a", "gpu", -1.0)])


def test_nan_duration_rejected():
    """A NaN duration used to give a NaN finish and makespan."""
    engine = PipelineEngine()
    schedule = Schedule()
    with pytest.raises(SchedulingError, match="non-finite duration"):
        engine.extend(schedule, wave_of([Task("a", "gpu", math.nan)]))
    assert schedule.tasks == {} and schedule.makespan == 0.0


def test_nan_release_time_rejected():
    """``available_at=nan`` used to be ignored: the task started at 0.0."""
    engine = PipelineEngine()
    schedule = Schedule()
    with pytest.raises(SchedulingError, match="non-finite available_at"):
        engine.extend(
            schedule, wave_of([Task("a", "gpu", 1.0, available_at=math.nan)])
        )
    assert schedule.tasks == {}


def test_infinite_duration_rejected():
    """An infinite duration used to give an infinite makespan."""
    engine = PipelineEngine()
    schedule = Schedule()
    with pytest.raises(SchedulingError, match="non-finite duration"):
        engine.extend(schedule, wave_of([Task("a", "gpu", math.inf)]))
    assert schedule.tasks == {}


def test_unknown_dependency_rejected():
    with pytest.raises(SchedulingError, match="unknown"):
        place([Task("a", "gpu", 1.0, ("ghost",))])


def test_cross_queue_deadlock_detected():
    # Head of each queue depends on the other queue's head: a(h2d)
    # waits on c(gpu), which waits on a.
    with pytest.raises(SchedulingError, match="deadlock"):
        place([Task("a", "h2d", 1.0, ("c",)), Task("c", "gpu", 1.0, ("a",))])


def test_empty_schedule():
    schedule = place([])
    assert schedule.makespan == 0.0
    assert schedule.tasks == {} and schedule.free_at == {}
