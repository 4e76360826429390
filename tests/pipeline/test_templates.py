"""Plan templates: a task graph lowered once, admitted many times.

A :class:`~repro.pipeline.engine.PlanTemplate` holds a graph's tasks in
dispatch order and is validated when built; an
:class:`~repro.pipeline.engine.Admission` places it under an alias, at
a release time, on a device.  Admitting a template must place exactly
what submitting its namespaced tasks one by one places.
"""

import math

import pytest

from repro.core.strategy import JoinPlan, create_strategy
from repro.data import unique_pair
from repro.errors import SchedulingError
from repro.pipeline.engine import Admission, PipelineEngine, PlanTemplate, Wave
from repro.pipeline.tasks import Schedule, Task

DEADLOCKED = [
    Task("a", "r1", 1.0, deps=("d",)),
    Task("b", "r1", 1.0),
    Task("c", "r2", 1.0, deps=("b",)),
    Task("d", "r2", 1.0),
]

PLAN = [
    Task("h2d[0]", "h2d", 1.0),
    Task("join[0]", "gpu", 2.0, deps=("h2d[0]",), phase="join"),
    Task("h2d[1]", "h2d", 1.5, deps=("join[0]",)),
    Task("join[1]", "gpu", 0.5, deps=("h2d[1]", "h2d[1]"), phase="join"),
    Task("d2h", "d2h", 0.25, deps=("join[1]",)),
]


def namespaced(alias: str, at: float, device: int = 0) -> list[Task]:
    return [
        Task(
            name=f"{alias}:{task.name}",
            resource=task.resource,
            duration=task.duration,
            deps=tuple(f"{alias}:{dep}" for dep in task.deps),
            phase=task.phase,
            available_at=at,
            device=device,
        )
        for task in PLAN
    ]


def test_dispatch_order_follows_dependencies_and_fifo():
    """Submitted before its dependency on another queue, ``late`` is
    dispatched after it; ties go to the lower submission index."""
    template = PlanTemplate([
        Task("late", "gpu", 1.0, deps=("copy",)),
        Task("copy", "h2d", 1.0),
        Task("next", "gpu", 1.0),
    ])
    assert template.names == ("copy", "late", "next")
    assert template.deps == ((), (0,), ())
    assert template.pools == ("gpu", "h2d")
    assert len(template) == 3


def test_deadlocked_template_rejected_when_built():
    engine = PipelineEngine()
    engine.add(Task("seed", "r1", 1.0))
    schedule = engine.run()
    with pytest.raises(SchedulingError, match="deadlock"):
        PlanTemplate(DEADLOCKED)
    plan = JoinPlan(strategy="gpu_resident", spec=unique_pair(1000))
    plan.tasks.extend(DEADLOCKED)
    with pytest.raises(SchedulingError, match="deadlock"):
        create_strategy("gpu_resident").schedule(plan, engine)
    # Nothing reached the engine or the schedule; both still extend.
    assert [task.name for task in engine.tasks] == ["seed"]
    assert set(schedule.tasks) == {"seed"}
    ok = Wave([Admission(PlanTemplate([Task("ok", "r1", 1.0)]))])
    assert engine.extend(schedule, ok).tasks["ok"].start == 1.0


@pytest.mark.parametrize(
    "task, message",
    [
        (Task("a", "gpu", -1.0), "negative duration"),
        (Task("a", "gpu", math.nan), "non-finite duration"),
        (Task("a", "gpu", math.inf), "non-finite duration"),
        (Task("a", "gpu", 1.0, available_at=math.nan), "non-finite available_at"),
        (Task("a", "gpu", 1.0, deps=("ghost",)), "unknown task"),
    ],
)
def test_template_validates_its_graph_once(task, message):
    with pytest.raises(SchedulingError, match=message):
        PlanTemplate([task])


def test_duplicate_names_rejected():
    with pytest.raises(SchedulingError, match="duplicate"):
        PlanTemplate([Task("a", "gpu", 1.0), Task("a", "h2d", 1.0)])


@pytest.mark.parametrize("lanes", [{}, {"h2d": 2, "gpu": 2}])
def test_admissions_match_namespaced_tasks(lanes):
    """Three admissions of one template, in two waves, place exactly
    what submitting the namespaced tasks by name places."""
    template = PlanTemplate(PLAN)
    engine = PipelineEngine(dict(lanes), device=1)
    schedule = engine.extend(
        Schedule(),
        Wave([Admission(template, "q0", 0.0, 1), Admission(template, "q1", 0.5, 1)]),
    )
    engine.extend(schedule, Wave([Admission(template, "q2", 3.0, 1)]))

    oracle = PipelineEngine(dict(lanes), device=1)
    for alias, at in (("q0", 0.0), ("q1", 0.5), ("q2", 3.0)):
        for task in namespaced(alias, at, device=1):
            oracle.add(task)
    expected = oracle.run()
    assert set(schedule.tasks) == set(expected.tasks)
    for name, item in expected.tasks.items():
        placed = schedule.tasks[name]
        assert (placed.start, placed.finish, placed.lane) == (
            item.start, item.finish, item.lane
        ), name
        assert placed.task == item.task
    assert schedule.lane_state == expected.lane_state
    # The engine re-simulates its admitted graph to the same schedule.
    assert engine.run().lane_state == expected.lane_state


def test_admission_records_its_finish():
    template = PlanTemplate(PLAN)
    admission = Admission(template, "q", 1.0)
    schedule = PipelineEngine().extend(Schedule(), Wave([admission]))
    assert admission.finish == max(
        schedule.tasks[f"q:{task.name}"].finish for task in PLAN
    )
    assert len(admission) == len(PLAN) == len(Wave([admission]))


@pytest.mark.parametrize("at", [-1.0, math.nan, math.inf])
def test_bad_admission_clock_rejected(at):
    engine = PipelineEngine()
    schedule = engine.run()
    wave = Wave([Admission(PlanTemplate(PLAN), "q", at)])
    with pytest.raises(SchedulingError, match="available_at for admission 'q'"):
        engine.extend(schedule, wave)
    with pytest.raises(SchedulingError, match="available_at for admission 'q'"):
        engine.admit(Admission(PlanTemplate(PLAN), "q", at))
    assert schedule.tasks == {} and engine.tasks == []


def test_admission_for_another_device_rejected():
    engine = PipelineEngine(device=1)
    with pytest.raises(SchedulingError, match="device"):
        engine.extend(Schedule(), Wave([Admission(PlanTemplate(PLAN), "q", 0.0, 0)]))
    assert engine.tasks == []


def test_name_collision_rolls_the_wave_back():
    template = PlanTemplate(PLAN)
    engine = PipelineEngine()
    schedule = engine.extend(Schedule(), Wave([Admission(template, "q0", 0.0)]))
    before = dict(schedule.tasks)
    lane_state = dict(schedule.lane_state)
    wave = Wave([Admission(template, "q1", 1.0), Admission(template, "q0", 1.0)])
    with pytest.raises(SchedulingError, match="duplicate task name: 'q0:h2d\\[0\\]'"):
        engine.extend(schedule, wave)
    assert schedule.tasks == before and schedule.lane_state == lane_state
    extended = engine.extend(schedule, Wave([Admission(template, "q1", 1.0)]))
    assert len(extended.tasks) == 2 * len(PLAN)


def test_plan_template_is_built_once_per_plan():
    strategy = create_strategy("gpu_resident")
    plan = strategy.prepare(unique_pair(1_000_000))
    assert plan.template is plan.template
    assert plan.template.tasks == tuple(plan.tasks)  # one queue: FIFO order
    assert strategy.simulate(plan).seconds == strategy.estimate(
        unique_pair(1_000_000)
    ).seconds
