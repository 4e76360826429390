"""Resources as single FIFO queues, and task phases."""

from repro.pipeline import PipelineEngine, Task
from repro.pipeline.tasks import GPU, H2D


def test_single_lane_serializes():
    engine = PipelineEngine()
    engine.add(Task("a", GPU, 1.0))
    engine.add(Task("b", GPU, 1.0))
    schedule = engine.run()
    assert schedule.makespan == 2.0


def test_phase_defaults_to_resource():
    engine = PipelineEngine()
    engine.add(Task("x", GPU, 1.0))
    engine.add(Task("y", H2D, 2.0, phase="load"))
    schedule = engine.run()
    assert schedule.phase_time(GPU) == 1.0
    assert schedule.phase_time("load") == 2.0
    assert schedule.phase_times() == {GPU: 1.0, "load": 2.0}


def test_phases_aggregate_across_resources():
    engine = PipelineEngine()
    engine.add(Task("p1", GPU, 1.0, phase="partition"))
    engine.add(Task("p2", GPU, 2.0, ("p1",), phase="partition"))
    engine.add(Task("j", GPU, 3.0, ("p2",), phase="join"))
    schedule = engine.run()
    assert schedule.phase_time("partition") == 3.0
    assert schedule.phase_time("join") == 3.0
    assert schedule.makespan == 6.0
