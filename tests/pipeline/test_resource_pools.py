"""Resource pools (multi-lane/stream-count support) and task phases."""

import pytest

from repro.pipeline import PipelineEngine, ResourcePool
from repro.pipeline.tasks import GPU, H2D


def test_single_lane_serializes():
    engine = PipelineEngine()
    engine.add_task("a", GPU, 1.0)
    engine.add_task("b", GPU, 1.0)
    schedule = engine.run()
    assert schedule.makespan == 2.0


def test_two_lanes_overlap_independent_tasks():
    engine = PipelineEngine({GPU: 2})
    engine.add_task("a", GPU, 1.0)
    engine.add_task("b", GPU, 1.0)
    schedule = engine.run()
    assert schedule.makespan == 1.0
    assert {schedule.tasks["a"].lane, schedule.tasks["b"].lane} == {0, 1}


def test_pool_accepts_resource_pool_objects():
    engine = PipelineEngine([ResourcePool(GPU, lanes=3)])
    for i in range(3):
        engine.add_task(f"t{i}", GPU, 2.0)
    assert engine.lanes_of(GPU) == 3
    assert engine.run().makespan == 2.0


def test_lanes_respect_dependencies():
    engine = PipelineEngine({GPU: 2})
    engine.add_task("a", GPU, 1.0)
    engine.add_task("b", GPU, 1.0, ["a"])
    schedule = engine.run()
    assert schedule.tasks["b"].start == 1.0
    assert schedule.makespan == 2.0


def test_three_tasks_two_lanes_queue():
    engine = PipelineEngine({H2D: 2})
    for i in range(3):
        engine.add_task(f"c{i}", H2D, 1.0)
    schedule = engine.run()
    # Third transfer waits for the first lane to free.
    assert schedule.tasks["c2"].start == 1.0
    assert schedule.makespan == 2.0


def test_utilization_accounts_for_lanes():
    engine = PipelineEngine({GPU: 2})
    engine.add_task("a", GPU, 1.0)
    engine.add_task("b", GPU, 1.0)
    schedule = engine.run()
    # Both lanes fully busy over a makespan of 1.0.
    assert schedule.utilization(GPU) == 1.0


def test_invalid_lane_count_rejected():
    with pytest.raises(ValueError):
        ResourcePool(GPU, lanes=0)
    # A fractional or NaN lane count passed the `< 1` test and failed
    # at the first placement; True became one lane.
    for lanes in (2.5, float("nan"), True):
        with pytest.raises(ValueError, match="lane count"):
            ResourcePool(GPU, lanes=lanes)
        with pytest.raises(ValueError, match="lane count"):
            PipelineEngine({GPU: lanes})


def test_phase_defaults_to_resource():
    engine = PipelineEngine()
    engine.add_task("x", GPU, 1.0)
    engine.add_task("y", H2D, 2.0, phase="load")
    schedule = engine.run()
    assert schedule.phase_time(GPU) == 1.0
    assert schedule.phase_time("load") == 2.0
    assert schedule.phase_times() == {GPU: 1.0, "load": 2.0}


def test_phases_aggregate_across_resources():
    engine = PipelineEngine()
    engine.add_task("p1", GPU, 1.0, phase="partition")
    engine.add_task("p2", GPU, 2.0, ["p1"], phase="partition")
    engine.add_task("j", GPU, 3.0, ["p2"], phase="join")
    schedule = engine.run()
    assert schedule.phase_time("partition") == 3.0
    assert schedule.phase_time("join") == 3.0
    assert schedule.makespan == 6.0
