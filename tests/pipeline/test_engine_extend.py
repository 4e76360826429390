"""Incremental schedule extension is pinned to full re-simulation.

``PipelineEngine.extend(schedule, new_tasks)`` places a :class:`Wave`
of plan-template admissions on top of a previous run's carried-over
lane heaps, in place.  Because already-submitted tasks occupy earlier
positions of every FIFO queue and templates are self-contained, the
extended schedule must be **bit-identical** (exact ``==``, not approx)
to a full ``run()`` over the same admissions and to the reference
scanner — these tests replay randomized arrival sequences against both.
"""

import random

import pytest

from repro.errors import SchedulingError
from repro.pipeline.engine import Admission, PipelineEngine, PlanTemplate, Wave
from repro.pipeline.oracle import run_reference
from repro.pipeline.tasks import Schedule, Task

#: One arrival: a template and the alias and release time it is
#: admitted under (both ``None`` to place its tasks as submitted).
Arrival = tuple[PlanTemplate, "str | None", "float | None"]


def random_arrival_waves(
    seed: int, aliased: bool
) -> tuple[dict[str, int], list[list[Arrival]]]:
    """Randomized multi-wave arrival sequence over random lane pools.

    Each wave admits one to three random self-contained templates
    (dependencies on earlier tasks of the same template only) with
    zero-duration tasks and per-task release times.  ``aliased`` admits
    each under its own alias, released at the wave's clock (which only
    grows), as the serving layer places queries; otherwise its tasks
    are placed as submitted, each at its own release time.
    """
    rng = random.Random(seed)
    resources = {f"r{i}": rng.randint(1, 3) for i in range(rng.randint(1, 4))}
    pool_names = list(resources)
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
                        resource=rng.choice(pool_names),
                        duration=rng.random() * rng.choice([0.0, 1.0, 10.0]),
                        deps=tuple(deps),
                        available_at=rng.choice([0.0, clock]),
                    )
                )
            alias = f"w{wave_index}q{query}" if aliased else None
            wave.append((PlanTemplate(tasks), alias, clock if aliased else None))
        waves.append(wave)
    return resources, waves


def admissions(wave: list[Arrival]) -> list[Admission]:
    return [Admission(template, alias, at) for template, alias, at in wave]


def wave_of(tasks: list[Task]) -> Wave:
    """One admission placing ``tasks`` as submitted."""
    return Wave([Admission(PlanTemplate(tasks))])


def assert_identical(actual: Schedule, expected: Schedule) -> None:
    assert set(actual.tasks) == set(expected.tasks)
    for name, item in expected.tasks.items():
        placed = actual.tasks[name]
        assert (placed.start, placed.finish, placed.lane) == (
            item.start,
            item.finish,
            item.lane,
        ), name
    assert actual.makespan == expected.makespan


@pytest.mark.parametrize("aliased", [False, True])
@pytest.mark.parametrize("seed", range(120))
def test_randomized_arrival_sequences_match_full_run(seed, aliased):
    resources, waves = random_arrival_waves(seed, aliased)

    incremental = PipelineEngine(dict(resources))
    schedule = Schedule()
    for wave in waves:
        assert incremental.extend(schedule, Wave(admissions(wave))) is schedule

    oracle = PipelineEngine(dict(resources))
    for wave in waves:
        for admission in admissions(wave):
            oracle.admit(admission)
    full = oracle.run()

    assert_identical(schedule, full)
    assert_identical(schedule, run_reference(oracle))
    assert schedule.lane_state == full.lane_state
    # The extending engine retained every admission, so a full re-run
    # of it reproduces the same schedule.
    assert_identical(incremental.run(), full)


@pytest.mark.parametrize("seed", range(0, 120, 10))
def test_extend_after_run_matches(seed):
    """run() the first wave, submitted task by task, then extend() the
    rest on its schedule."""
    resources, waves = random_arrival_waves(seed, aliased=True)
    engine = PipelineEngine(dict(resources))
    for admission in admissions(waves[0]):
        for index in range(len(admission)):
            engine.add(admission.task(index))
    schedule = engine.run()
    for wave in waves[1:]:
        engine.extend(schedule, Wave(admissions(wave)))

    oracle = PipelineEngine(dict(resources))
    for wave in waves:
        for admission in admissions(wave):
            oracle.admit(admission)
    assert_identical(schedule, oracle.run())
    # Tasks and admissions in one graph re-simulate to the same schedule.
    assert_identical(engine.run(), schedule)


def test_extend_empty_schedule_equals_run():
    tasks = [
        Task("a", "gpu", 2.0),
        Task("b", "h2d", 1.0),
        Task("c", "gpu", 3.0, deps=("a", "b")),
    ]
    engine = PipelineEngine()
    schedule = engine.extend(Schedule(), wave_of(tasks))
    oracle = PipelineEngine()
    for task in tasks:
        oracle.add(task)
    assert_identical(schedule, oracle.run())


def test_extension_tasks_respect_available_at():
    engine = PipelineEngine()
    schedule = engine.run()
    engine.extend(schedule, wave_of([Task("late", "gpu", 1.0, available_at=5.0)]))
    assert schedule.tasks["late"].start == 5.0
    assert schedule.makespan == 6.0


def test_extension_may_introduce_new_resources():
    engine = PipelineEngine({"gpu": 1})
    engine.add(Task("a", "gpu", 1.0))
    schedule = engine.run()
    engine.extend(schedule, wave_of([Task("b", "cpu", 2.0, available_at=1.0)]))
    assert schedule.tasks["b"].start == 1.0
    assert schedule.lanes["cpu"] == 1
    assert schedule.lane_state["cpu"] == [(3.0, 0)]


def test_extension_reuses_freed_lanes_like_a_full_run():
    """Multi-lane pools: the carried-over lane heap must hand the next
    task whichever lane frees first, lowest index on ties."""
    engine = PipelineEngine({"pool": 2})
    engine.add(Task("a", "pool", 3.0))
    engine.add(Task("b", "pool", 1.0))
    schedule = engine.run()
    engine.extend(schedule, wave_of([Task("c", "pool", 1.0)]))
    # lane 1 (task b) freed at 1.0, before lane 0 (task a) at 3.0.
    assert schedule.tasks["c"].lane == 1
    assert schedule.tasks["c"].start == 1.0


def test_extend_without_recorded_lane_state_is_refused():
    """Placing on fresh lanes would start new work before the placed
    tasks free them, so a schedule that holds tasks but records no lane
    state (e.g. one rebuilt by hand) is stale."""
    engine = PipelineEngine({"pool": 2})
    engine.add(Task("a", "pool", 3.0))
    engine.add(Task("b", "pool", 1.0))
    schedule = engine.run()
    schedule.lane_state = {}
    with pytest.raises(SchedulingError, match="stale schedule.*no lane state"):
        engine.extend(schedule, wave_of([Task("c", "pool", 1.0)]))
    assert set(schedule.tasks) == {"a", "b"}
    assert [task.name for task in engine.tasks] == ["a", "b"]


def test_extend_after_run_reference():
    """The retained scanner also records carry-over lane state."""
    engine = PipelineEngine({"pool": 2})
    engine.add(Task("a", "pool", 3.0))
    engine.add(Task("b", "pool", 1.0))
    schedule = run_reference(engine)
    assert schedule.lane_state["pool"] == [(1.0, 1), (3.0, 0)]
    extended = engine.extend(schedule, wave_of([Task("c", "pool", 1.0)]))
    assert extended.tasks["c"].lane == 1


def test_stale_schedule_rejected():
    engine = PipelineEngine()
    engine.add(Task("a", "gpu", 1.0))
    with pytest.raises(SchedulingError, match="stale"):
        engine.extend(Schedule(), wave_of([Task("b", "gpu", 1.0)]))


def test_bad_batches_leave_engine_untouched():
    engine = PipelineEngine()
    engine.add(Task("a", "gpu", 1.0))
    schedule = engine.run()
    for batch, message in [
        ([Task("a", "gpu", 1.0)], "duplicate"),
        ([Task("x", "gpu", 1.0), Task("x", "gpu", 1.0)], "duplicate"),
        ([Task("y", "gpu", -1.0)], "negative duration"),
        ([Task("z", "gpu", 1.0, available_at=-2.0)], "negative available_at"),
        ([Task("w", "gpu", 1.0, deps=("ghost",))], "unknown"),
    ]:
        with pytest.raises(SchedulingError, match=message):
            engine.extend(schedule, wave_of(batch))
        assert [task.name for task in engine.tasks] == ["a"]
        assert set(schedule.tasks) == {"a"}
        assert schedule.lane_state == {"gpu": [(1.0, 0)]}
    # The engine is still extendable after every rejected batch.
    extended = engine.extend(schedule, wave_of([Task("ok", "gpu", 1.0)]))
    assert extended.tasks["ok"].start == 1.0


def test_deadlock_among_new_tasks_detected_and_rolled_back():
    engine = PipelineEngine()
    engine.add(Task("seed", "r1", 1.0))
    schedule = engine.run()
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
    assert [task.name for task in engine.tasks] == ["seed"]
    assert set(schedule.tasks) == {"seed"}
    assert set(schedule.lanes) == {"r1"}
    extended = engine.extend(schedule, wave_of([Task("ok", "r1", 1.0)]))
    assert extended.tasks["ok"].start == 1.0


def test_in_place_extension_mutates_and_returns_the_schedule():
    engine = PipelineEngine({"gpu": 1})
    engine.add(Task("a", "gpu", 1.0))
    schedule = engine.run()
    extended = engine.extend(schedule, wave_of([Task("b", "gpu", 2.0)]))
    assert extended is schedule
    assert schedule.tasks["b"].start == 1.0
    assert schedule.lane_state["gpu"] == [(3.0, 0)]

    oracle = PipelineEngine({"gpu": 1})
    oracle.add(Task("a", "gpu", 1.0))
    oracle.add(Task("b", "gpu", 2.0))
    assert_identical(schedule, oracle.run())


def test_lane_count_change_rejected():
    narrow = PipelineEngine({"pool": 1})
    narrow.add(Task("a", "pool", 1.0))
    schedule = narrow.run()
    wide = PipelineEngine({"pool": 2})
    wide.add(Task("a", "pool", 1.0))
    with pytest.raises(SchedulingError, match="lane"):
        wide.extend(schedule, wave_of([Task("b", "pool", 1.0)]))


def test_run_records_lane_state():
    engine = PipelineEngine({"pool": 2, "gpu": 1})
    engine.add(Task("a", "pool", 3.0))
    engine.add(Task("b", "pool", 1.0))
    engine.add(Task("c", "gpu", 2.0, deps=("b",)))
    schedule = engine.run()
    assert schedule.lane_state["pool"] == [(1.0, 1), (3.0, 0)]
    assert schedule.lane_state["gpu"] == [(3.0, 0)]
