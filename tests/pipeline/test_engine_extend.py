"""Incremental schedule extension is pinned to full re-simulation.

``PipelineEngine.extend(schedule, new_tasks)`` places newly submitted
tasks on top of a previous run's carried-over lane heaps and finish
calendar.  Because already-submitted tasks occupy earlier positions of
every FIFO queue and never depend on later submissions, the combined
schedule must be **bit-identical** (exact ``==``, not approx) to a full
``run()`` over the same tasks — the full simulation is retained as the
equivalence oracle, and these tests replay randomized arrival sequences
against it.
"""

import random

import pytest

from repro.errors import SchedulingError
from repro.pipeline.engine import PipelineEngine
from repro.pipeline.oracle import run_reference
from repro.pipeline.tasks import Schedule, Task


def random_arrival_waves(
    seed: int,
) -> tuple[dict[str, int], list[list[Task]]]:
    """Randomized multi-wave arrival sequence over random lane pools.

    Later waves may depend on any earlier task (cross-wave joins), carry
    monotonically increasing release times (the admission clock), and
    include zero-duration tasks.
    """
    rng = random.Random(seed)
    resources = {f"r{i}": rng.randint(1, 3) for i in range(rng.randint(1, 4))}
    pool_names = list(resources)
    waves: list[list[Task]] = []
    earlier: list[str] = []
    clock = 0.0
    for wave_index in range(rng.randint(1, 6)):
        clock += rng.random() * 3
        wave: list[Task] = []
        for i in range(rng.randint(1, 15)):
            candidates = earlier + [task.name for task in wave]
            deps = rng.sample(candidates, min(len(candidates), rng.randint(0, 3)))
            wave.append(
                Task(
                    name=f"w{wave_index}t{i}",
                    resource=rng.choice(pool_names),
                    duration=rng.random() * rng.choice([0.0, 1.0, 10.0]),
                    deps=tuple(deps),
                    available_at=rng.choice([0.0, clock]),
                )
            )
        earlier.extend(task.name for task in wave)
        waves.append(wave)
    return resources, waves


def clone(task: Task) -> Task:
    return Task(
        name=task.name,
        resource=task.resource,
        duration=task.duration,
        deps=task.deps,
        phase=task.phase,
        available_at=task.available_at,
    )


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


@pytest.mark.parametrize("in_place", [False, True])
@pytest.mark.parametrize("seed", range(120))
def test_randomized_arrival_sequences_match_full_run(seed, in_place):
    resources, waves = random_arrival_waves(seed)

    incremental = PipelineEngine(dict(resources))
    schedule = Schedule()
    for wave in waves:
        schedule = incremental.extend(
            schedule, [clone(t) for t in wave], in_place=in_place
        )

    oracle = PipelineEngine(dict(resources))
    for wave in waves:
        for task in wave:
            oracle.add(clone(task))
    full = oracle.run()

    assert_identical(schedule, full)
    # The extending engine retained every task, so a full re-run of it
    # (the oracle on its own task list) reproduces the same schedule.
    assert_identical(incremental.run(), full)


@pytest.mark.parametrize("seed", range(0, 120, 10))
def test_extend_after_run_matches(seed):
    """run() the first wave, then extend() the rest on its schedule."""
    resources, waves = random_arrival_waves(seed)
    engine = PipelineEngine(dict(resources))
    for task in waves[0]:
        engine.add(clone(task))
    schedule = engine.run()
    for wave in waves[1:]:
        schedule = engine.extend(schedule, [clone(t) for t in wave])

    oracle = PipelineEngine(dict(resources))
    for wave in waves:
        for task in wave:
            oracle.add(clone(task))
    assert_identical(schedule, oracle.run())


def test_extend_empty_schedule_equals_run():
    tasks = [
        Task("a", "gpu", 2.0),
        Task("b", "h2d", 1.0),
        Task("c", "gpu", 3.0, deps=("a", "b")),
    ]
    engine = PipelineEngine()
    schedule = engine.extend(Schedule(), [clone(t) for t in tasks])
    oracle = PipelineEngine()
    for task in tasks:
        oracle.add(clone(task))
    assert_identical(schedule, oracle.run())


def test_extension_tasks_respect_available_at():
    engine = PipelineEngine()
    schedule = engine.run()
    schedule = engine.extend(
        schedule, [Task("late", "gpu", 1.0, available_at=5.0)]
    )
    assert schedule.tasks["late"].start == 5.0
    assert schedule.makespan == 6.0


def test_extension_may_introduce_new_resources():
    engine = PipelineEngine({"gpu": 1})
    engine.add(Task("a", "gpu", 1.0))
    schedule = engine.run()
    schedule = engine.extend(schedule, [Task("b", "cpu", 2.0, deps=("a",))])
    assert schedule.tasks["b"].start == 1.0
    assert schedule.lanes["cpu"] == 1


def test_extension_reuses_freed_lanes_like_a_full_run():
    """Multi-lane pools: the carried-over lane heap must hand the next
    task whichever lane frees first, lowest index on ties."""
    engine = PipelineEngine({"pool": 2})
    engine.add(Task("a", "pool", 3.0))
    engine.add(Task("b", "pool", 1.0))
    schedule = engine.run()
    schedule = engine.extend(schedule, [Task("c", "pool", 1.0)])
    # lane 1 (task b) freed at 1.0, before lane 0 (task a) at 3.0.
    assert schedule.tasks["c"].lane == 1
    assert schedule.tasks["c"].start == 1.0


def test_extend_without_recorded_lane_state_reconstructs_it():
    engine = PipelineEngine({"pool": 2})
    engine.add(Task("a", "pool", 3.0))
    engine.add(Task("b", "pool", 1.0))
    schedule = engine.run()
    schedule.lane_state = {}  # e.g. a deserialized schedule
    extended = engine.extend(schedule, [Task("c", "pool", 1.0)])
    assert extended.tasks["c"].lane == 1
    assert extended.tasks["c"].start == 1.0


def test_extend_after_run_reference():
    """The retained scanner also records carry-over lane state."""
    engine = PipelineEngine({"pool": 2})
    engine.add(Task("a", "pool", 3.0))
    engine.add(Task("b", "pool", 1.0))
    schedule = run_reference(engine)
    assert schedule.lane_state["pool"] == [(1.0, 1), (3.0, 0)]
    extended = engine.extend(schedule, [Task("c", "pool", 1.0)])
    assert extended.tasks["c"].lane == 1


def test_stale_schedule_rejected():
    engine = PipelineEngine()
    engine.add(Task("a", "gpu", 1.0))
    with pytest.raises(SchedulingError, match="stale"):
        engine.extend(Schedule(), [Task("b", "gpu", 1.0)])


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
            engine.extend(schedule, batch)
        assert [task.name for task in engine.tasks] == ["a"]
    # The engine is still extendable after every rejected batch.
    extended = engine.extend(schedule, [Task("ok", "gpu", 1.0)])
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
        engine.extend(schedule, deadlocked, in_place=True)
    # Rolled back: engine and in-place schedule exactly as before,
    # still extendable.
    assert [task.name for task in engine.tasks] == ["seed"]
    assert set(schedule.tasks) == {"seed"}
    assert set(schedule.lanes) == {"r1"}
    extended = engine.extend(schedule, [Task("ok", "r1", 1.0)])
    assert extended.tasks["ok"].start == 1.0


def test_in_place_extension_mutates_and_returns_the_schedule():
    engine = PipelineEngine({"gpu": 1})
    engine.add(Task("a", "gpu", 1.0))
    schedule = engine.run()
    extended = engine.extend(
        schedule, [Task("b", "gpu", 2.0, deps=("a",))], in_place=True
    )
    assert extended is schedule
    assert schedule.tasks["b"].start == 1.0
    assert schedule.lane_state["gpu"] == [(3.0, 0)]

    oracle = PipelineEngine({"gpu": 1})
    oracle.add(Task("a", "gpu", 1.0))
    oracle.add(Task("b", "gpu", 2.0, deps=("a",)))
    assert_identical(schedule, oracle.run())


def test_lane_count_change_rejected():
    narrow = PipelineEngine({"pool": 1})
    narrow.add(Task("a", "pool", 1.0))
    schedule = narrow.run()
    wide = PipelineEngine({"pool": 2})
    wide.add(Task("a", "pool", 1.0))
    with pytest.raises(SchedulingError, match="lane"):
        wide.extend(schedule, [Task("b", "pool", 1.0)])


def test_run_records_lane_state():
    engine = PipelineEngine({"pool": 2, "gpu": 1})
    engine.add(Task("a", "pool", 3.0))
    engine.add(Task("b", "pool", 1.0))
    engine.add(Task("c", "gpu", 2.0, deps=("b",)))
    schedule = engine.run()
    assert schedule.lane_state["pool"] == [(1.0, 1), (3.0, 0)]
    assert schedule.lane_state["gpu"] == [(3.0, 0)]
