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
from repro.pipeline.tasks import Task


def wave_of(tasks: list[Task]) -> Wave:
    """One admission placing ``tasks`` as submitted."""
    return Wave([Admission(PlanTemplate(tasks))])


def test_single_resource_runs_fifo():
    engine = PipelineEngine()
    engine.add_task("a", "gpu", 1.0)
    engine.add_task("b", "gpu", 2.0)
    schedule = engine.run()
    assert schedule.tasks["a"].start == 0.0
    assert schedule.tasks["b"].start == 1.0
    assert schedule.makespan == 3.0


def test_independent_resources_overlap():
    engine = PipelineEngine()
    engine.add_task("copy", "h2d", 5.0)
    engine.add_task("compute", "gpu", 5.0)
    assert engine.run().makespan == 5.0


def test_dependency_delays_start():
    engine = PipelineEngine()
    engine.add_task("copy", "h2d", 5.0)
    engine.add_task("compute", "gpu", 1.0, ["copy"])
    schedule = engine.run()
    assert schedule.tasks["compute"].start == 5.0
    assert schedule.makespan == 6.0


def test_makespan_bounds():
    """max(resource busy) <= makespan <= sum of durations."""
    engine = PipelineEngine()
    durations = [1.0, 2.0, 0.5, 3.0]
    prev = None
    for i, duration in enumerate(durations):
        deps = [prev] if prev and i % 2 else []
        prev = f"t{i}"
        engine.add_task(prev, "gpu" if i % 2 else "h2d", duration, deps)
    schedule = engine.run()
    busiest = max(schedule.busy_time("gpu"), schedule.busy_time("h2d"))
    assert busiest <= schedule.makespan <= sum(durations) + 1e-12


def test_duplicate_task_name_rejected():
    engine = PipelineEngine()
    engine.add_task("a", "gpu", 1.0)
    with pytest.raises(SchedulingError):
        engine.add_task("a", "gpu", 1.0)


def test_negative_duration_rejected():
    engine = PipelineEngine()
    with pytest.raises(SchedulingError):
        engine.add_task("a", "gpu", -1.0)


def test_nan_duration_rejected():
    """A NaN duration used to give a NaN finish and makespan."""
    engine = PipelineEngine()
    with pytest.raises(SchedulingError, match="non-finite duration"):
        engine.add_task("a", "gpu", math.nan)
    schedule = engine.run()
    with pytest.raises(SchedulingError, match="non-finite duration"):
        engine.extend(schedule, wave_of([Task("a", "gpu", math.nan)]))
    assert engine.tasks == [] and engine.run().makespan == 0.0


def test_nan_release_time_rejected():
    """``available_at=nan`` used to be ignored: the task started at 0.0."""
    engine = PipelineEngine()
    with pytest.raises(SchedulingError, match="non-finite available_at"):
        engine.add(Task("a", "gpu", 1.0, available_at=math.nan))
    schedule = engine.run()
    with pytest.raises(SchedulingError, match="non-finite available_at"):
        engine.extend(
            schedule, wave_of([Task("a", "gpu", 1.0, available_at=math.nan)])
        )
    assert engine.tasks == []


def test_infinite_duration_rejected():
    """An infinite duration used to give an infinite makespan."""
    engine = PipelineEngine()
    with pytest.raises(SchedulingError, match="non-finite duration"):
        engine.add_task("a", "gpu", math.inf)
    schedule = engine.run()
    with pytest.raises(SchedulingError, match="non-finite duration"):
        engine.extend(schedule, wave_of([Task("a", "gpu", math.inf)]))
    assert engine.tasks == []


def test_unknown_dependency_rejected():
    engine = PipelineEngine()
    engine.add_task("a", "gpu", 1.0, ["ghost"])
    with pytest.raises(SchedulingError):
        engine.run()


def test_cross_queue_deadlock_detected():
    engine = PipelineEngine()
    # Head of each queue depends on the other queue's head successor:
    # a(h2d) <- b(gpu) and b's queue head c depends on a's successor d.
    engine.add_task("a", "h2d", 1.0, ["c"])
    engine.add_task("c", "gpu", 1.0, ["a"])
    with pytest.raises(SchedulingError):
        engine.run()


def test_utilization_and_critical_resource():
    engine = PipelineEngine()
    engine.add_task("x", "h2d", 4.0)
    engine.add_task("y", "gpu", 1.0, ["x"])
    schedule = engine.run()
    assert schedule.utilization("h2d") == pytest.approx(4.0 / 5.0)
    assert schedule.critical_resource() == "h2d"


def test_empty_schedule():
    schedule = PipelineEngine().run()
    assert schedule.makespan == 0.0
    assert schedule.critical_resource() is None

