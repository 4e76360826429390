"""Resources as single FIFO queues, and task phases."""

from repro.core.strategy import JoinPlan, PipelinedJoinStrategy
from repro.data import unique_pair
from repro.pipeline import Task
from repro.pipeline.tasks import GPU, H2D
from tests.pipeline.graphs import place


def simulate(tasks: list[Task]):
    """The metrics of a plan of ``tasks`` that declares no phases."""
    plan = JoinPlan(strategy="test", spec=unique_pair(1000), tasks=tasks)
    return PipelinedJoinStrategy().simulate(plan)


def test_single_lane_serializes():
    schedule = place([Task("a", GPU, 1.0), Task("b", GPU, 1.0)])
    assert schedule.makespan == 2.0


def test_phase_defaults_to_resource():
    metrics = simulate(
        [Task("x", GPU, 1.0), Task("y", H2D, 2.0, phase="load")]
    )
    assert metrics.phases == {GPU: 1.0, "load": 2.0}


def test_phases_aggregate_across_resources():
    metrics = simulate([
        Task("p1", GPU, 1.0, phase="partition"),
        Task("p2", GPU, 2.0, ("p1",), phase="partition"),
        Task("j", GPU, 3.0, ("p2",), phase="join"),
    ])
    assert metrics.phases == {"partition": 3.0, "join": 3.0}
    assert metrics.seconds == 6.0
