"""Incremental schedule extension is pinned to one-wave placement.

``PipelineEngine.extend(schedule, new_tasks)`` places a :class:`Wave`
of plan-template admissions on top of a previous extension's
carried-over per-resource free times, in place.  Because already-placed
tasks occupy earlier positions of every FIFO queue and templates are
self-contained, the extended schedule must be **bit-identical** (exact
``==``, not approx) to placing every admission in one wave on an empty
schedule and to the reference scanner — these tests replay randomized
arrival sequences against both.
"""

import random

import pytest

from repro.errors import SchedulingError
from repro.pipeline.engine import Admission, PipelineEngine, PlanTemplate, Wave
from repro.pipeline.oracle import run_reference
from repro.pipeline.tasks import Schedule, Task
from tests.pipeline.graphs import place, placed_tasks

#: One arrival: a template and the alias and release time it is
#: admitted under (both ``None`` to place its tasks as submitted).
Arrival = tuple[PlanTemplate, "str | None", "float | None"]


def random_arrival_waves(seed: int, aliased: bool) -> list[list[Arrival]]:
    """Randomized multi-wave arrival sequence over random resources.

    Each wave admits one to three random self-contained templates
    (dependencies on earlier tasks of the same template only) with
    zero-duration tasks and per-task release times.  ``aliased`` admits
    each under its own alias, released at the wave's clock (which only
    grows), as the serving layer places queries; otherwise its tasks
    are placed as submitted, each at its own release time.
    """
    rng = random.Random(seed)
    resources = [f"r{i}" for i in range(rng.randint(1, 4))]
    waves: list[list[Arrival]] = []
    clock = 0.0
    for wave_index in range(rng.randint(1, 6)):
        clock += rng.random() * 3
        wave: list[Arrival] = []
        for query in range(rng.randint(1, 3)):
            tasks: list[Task] = []
            for i in range(rng.randint(1, 10)):
                candidates = [task.name for task in tasks]
                deps = rng.sample(
                    candidates, min(len(candidates), rng.randint(0, 3))
                )
                tasks.append(
                    Task(
                        name=f"w{wave_index}q{query}t{i}",
                        resource=rng.choice(resources),
                        duration=rng.random() * rng.choice([0.0, 1.0, 10.0]),
                        deps=tuple(deps),
                        available_at=rng.choice([0.0, clock]),
                    )
                )
            alias = f"w{wave_index}q{query}" if aliased else None
            wave.append((PlanTemplate(tasks), alias, clock if aliased else None))
        waves.append(wave)
    return waves


def admissions(wave: list[Arrival]) -> list[Admission]:
    return [Admission(template, alias, at) for template, alias, at in wave]


def wave_of(tasks: list[Task]) -> Wave:
    """One admission placing ``tasks`` as submitted."""
    return Wave([Admission(PlanTemplate(tasks))])


def assert_identical(actual: Schedule, expected: Schedule) -> None:
    assert set(actual.tasks) == set(expected.tasks)
    for name, item in expected.tasks.items():
        placed = actual.tasks[name]
        assert (placed.start, placed.finish) == (item.start, item.finish), name
    assert actual.makespan == expected.makespan


@pytest.mark.parametrize("aliased", [False, True])
@pytest.mark.parametrize("seed", range(120))
def test_randomized_arrival_sequences_match_full_run(seed, aliased):
    waves = random_arrival_waves(seed, aliased)

    incremental = PipelineEngine()
    schedule = Schedule()
    for wave in waves:
        assert incremental.extend(schedule, Wave(admissions(wave))) is schedule

    admitted = [admission for wave in waves for admission in admissions(wave)]
    full = PipelineEngine().extend(Schedule(), Wave(admitted))

    assert_identical(schedule, full)
    assert_identical(schedule, run_reference(placed_tasks(admitted)))
    assert schedule.free_at == full.free_at


def test_extend_empty_schedule_equals_run():
    tasks = [
        Task("a", "gpu", 2.0),
        Task("b", "h2d", 1.0),
        Task("c", "gpu", 3.0, deps=("a", "b")),
    ]
    engine = PipelineEngine()
    schedule = engine.extend(Schedule(), wave_of(tasks))
    assert_identical(schedule, run_reference(tasks))


def test_extension_tasks_respect_available_at():
    engine = PipelineEngine()
    schedule = Schedule()
    engine.extend(schedule, wave_of([Task("late", "gpu", 1.0, available_at=5.0)]))
    assert schedule.tasks["late"].start == 5.0
    assert schedule.makespan == 6.0


def test_extension_may_introduce_new_resources():
    engine = PipelineEngine()
    schedule = place([Task("a", "gpu", 1.0)], engine)
    engine.extend(schedule, wave_of([Task("b", "cpu", 2.0, available_at=1.0)]))
    assert schedule.tasks["b"].start == 1.0
    assert schedule.free_at == {"gpu": 1.0, "cpu": 3.0}


def test_extend_without_recorded_lane_state_is_refused():
    """Placing on idle resources would start new work before the placed
    tasks free them, so a schedule that holds tasks but records no free
    times (e.g. one rebuilt by hand) is stale."""
    engine = PipelineEngine()
    schedule = place([Task("a", "h2d", 3.0), Task("b", "h2d", 1.0)], engine)
    free_at = schedule.free_at
    schedule.free_at = {}
    with pytest.raises(SchedulingError, match="stale schedule.*no free times"):
        engine.extend(schedule, wave_of([Task("c", "h2d", 1.0)]))
    assert set(schedule.tasks) == {"a", "b"}
    # The refusal changed nothing: with its free times back the schedule
    # extends.
    schedule.free_at = free_at
    engine.extend(schedule, wave_of([Task("c", "h2d", 1.0)]))
    assert schedule.tasks["c"].start == 4.0


def test_extend_after_run_reference():
    """The retained scanner also records the carry-over free times."""
    tasks = [Task("a", "h2d", 3.0), Task("b", "h2d", 1.0)]
    engine = PipelineEngine()
    place(tasks, engine)
    schedule = run_reference(tasks)
    assert schedule.free_at == {"h2d": 4.0}
    extended = engine.extend(schedule, wave_of([Task("c", "h2d", 1.0)]))
    assert extended.tasks["c"].start == 4.0


def test_stale_schedule_rejected():
    engine = PipelineEngine()
    place([Task("a", "gpu", 1.0)], engine)
    with pytest.raises(SchedulingError, match="stale"):
        engine.extend(Schedule(), wave_of([Task("b", "gpu", 1.0)]))


def test_bad_batches_leave_engine_untouched():
    engine = PipelineEngine()
    schedule = place([Task("a", "gpu", 1.0)], engine)
    for batch, message in [
        ([Task("a", "gpu", 1.0)], "duplicate"),
        ([Task("x", "gpu", 1.0), Task("x", "gpu", 1.0)], "duplicate"),
        ([Task("y", "gpu", -1.0)], "negative duration"),
        ([Task("z", "gpu", 1.0, available_at=-2.0)], "negative available_at"),
        ([Task("w", "gpu", 1.0, deps=("ghost",))], "unknown"),
    ]:
        with pytest.raises(SchedulingError, match=message):
            engine.extend(schedule, wave_of(batch))
        assert set(schedule.tasks) == {"a"}
        assert schedule.free_at == {"gpu": 1.0}
    # The engine is still extendable after every rejected batch.
    extended = engine.extend(schedule, wave_of([Task("ok", "gpu", 1.0)]))
    assert extended.tasks["ok"].start == 1.0


def test_deadlock_among_new_tasks_detected_and_rolled_back():
    engine = PipelineEngine()
    schedule = place([Task("seed", "r1", 1.0)], engine)
    deadlocked = [
        Task("a", "r1", 1.0, deps=("d",)),
        Task("b", "r1", 1.0),
        Task("c", "r2", 1.0, deps=("b",)),
        Task("d", "r2", 1.0),
    ]
    with pytest.raises(SchedulingError, match="deadlock"):
        engine.extend(schedule, wave_of(deadlocked))
    # Rolled back: engine and schedule exactly as before, still
    # extendable.
    assert set(schedule.tasks) == {"seed"}
    assert schedule.free_at == {"r1": 1.0}
    extended = engine.extend(schedule, wave_of([Task("ok", "r1", 1.0)]))
    assert extended.tasks["ok"].start == 1.0


def test_in_place_extension_mutates_and_returns_the_schedule():
    engine = PipelineEngine()
    schedule = place([Task("a", "gpu", 1.0)], engine)
    extended = engine.extend(schedule, wave_of([Task("b", "gpu", 2.0)]))
    assert extended is schedule
    assert schedule.tasks["b"].start == 1.0
    assert schedule.free_at == {"gpu": 3.0}
    assert_identical(
        schedule, run_reference([Task("a", "gpu", 1.0), Task("b", "gpu", 2.0)])
    )


def test_run_records_lane_state():
    """``free_at`` holds each resource's last finish."""
    schedule = place([
        Task("a", "h2d", 3.0),
        Task("b", "h2d", 1.0),
        Task("c", "gpu", 2.0, deps=("b",)),
    ])
    assert schedule.free_at == {"h2d": 4.0, "gpu": 6.0}
