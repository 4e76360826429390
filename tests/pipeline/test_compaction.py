"""Schedule compaction is pure bookkeeping: retiring finished tasks
must never change what the engine schedules next.

``PipelineEngine.compact(schedule, horizon)`` drops tasks whose
finishes precede the live frontier from both the schedule and the
engine's books.  Because extension places self-contained templates and
reads only the carried-over lane heaps (``lane_state``), every
``extend`` after a compaction must be **bit-identical** (exact ``==``)
to the same extension on an uncompacted twin engine — replayed here
over randomized multi-wave arrival sequences, with the uncompacted twin
as the oracle and the twin pinned to a full ``run()`` and the reference
scanner.
"""

import random

import pytest

from repro.errors import SchedulingError
from repro.pipeline.engine import Admission, PipelineEngine, PlanTemplate, Wave
from repro.pipeline.oracle import run_reference
from repro.pipeline.tasks import Schedule, Task


def chain_wave(
    wave: int, rng: random.Random, pools: list[str]
) -> list[tuple[PlanTemplate, str]]:
    """One admission wave of per-query chain templates, each with the
    alias the serving layer would namespace it under."""
    queries: list[tuple[PlanTemplate, str]] = []
    for q in range(rng.randint(1, 3)):
        tasks: list[Task] = []
        for i in range(rng.randint(1, 5)):
            tasks.append(
                Task(
                    name=f"t{i}",
                    resource=rng.choice(pools),
                    duration=rng.random() * rng.choice([0.5, 2.0]),
                    deps=(tasks[-1].name,) if tasks else (),
                )
            )
        queries.append((PlanTemplate(tasks), f"w{wave}q{q}"))
    return queries


def admissions(
    queries: list[tuple[PlanTemplate, str]], clock: float
) -> list[Admission]:
    return [Admission(template, alias, clock) for template, alias in queries]


def simple_engine() -> tuple[PipelineEngine, Schedule]:
    engine = PipelineEngine({"gpu": 1, "h2d": 1})
    engine.add(Task("a", "h2d", 1.0))
    engine.add(Task("b", "gpu", 2.0, ("a",)))
    engine.add(Task("c", "gpu", 3.0, ("b",)))
    return engine, engine.run()


# ---------------------------------------------------------------------------
# Schedule.compact semantics
# ---------------------------------------------------------------------------
def test_compact_retires_only_finished_and_preserves_makespan():
    engine, schedule = simple_engine()
    makespan = schedule.makespan
    assert makespan == 6.0
    retired = engine.compact(schedule, 3.0)  # a (1.0) and b (3.0)
    assert retired == 2
    assert set(schedule.tasks) == {"c"}
    assert schedule.retired_tasks == 2
    assert schedule.retired_makespan == 3.0
    assert schedule.makespan == makespan  # history survives compaction


def test_compact_past_everything_keeps_whole_run_makespan():
    engine, schedule = simple_engine()
    assert engine.compact(schedule, 100.0) == 3
    assert schedule.tasks == {}
    assert schedule.makespan == 6.0


def test_compact_before_any_finish_is_a_noop():
    engine, schedule = simple_engine()
    assert engine.compact(schedule, 0.5) == 0
    assert len(schedule.tasks) == 3
    # Nothing retired: the full graph still exists, run() stays legal.
    assert engine.run().makespan == 6.0


def test_lane_state_untouched_by_compaction():
    engine, schedule = simple_engine()
    before = {name: list(heap) for name, heap in schedule.lane_state.items()}
    engine.compact(schedule, 3.0)
    after = {name: list(heap) for name, heap in schedule.lane_state.items()}
    assert after == before


# ---------------------------------------------------------------------------
# Guard rails
# ---------------------------------------------------------------------------
def test_run_and_reference_refuse_after_compact():
    engine, schedule = simple_engine()
    engine.compact(schedule, 3.0)
    with pytest.raises(SchedulingError, match="after compact"):
        engine.run()
    with pytest.raises(SchedulingError, match="after compact"):
        run_reference(engine)


def test_compact_refuses_merged_view():
    engine, schedule = simple_engine()
    merged = Schedule.merged([schedule])
    with pytest.raises(SchedulingError, match="merged"):
        engine.compact(merged, 3.0)


def test_compact_refuses_stale_schedule():
    engine, schedule = simple_engine()
    schedule.compact(3.0)  # behind the engine's back
    with pytest.raises(SchedulingError, match="stale"):
        engine.compact(schedule, 4.0)
    with pytest.raises(SchedulingError, match="stale"):
        engine.extend(
            schedule, Wave([Admission(PlanTemplate([Task("d", "gpu", 1.0)]))])
        )


# ---------------------------------------------------------------------------
# Differential: compacted extends == uncompacted extends, bit for bit
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("seed", range(40))
def test_compacted_extension_bit_identical(seed):
    rng = random.Random(seed)
    resources = {f"r{i}": rng.randint(1, 2) for i in range(rng.randint(1, 3))}
    pools = list(resources)

    compacted_engine = PipelineEngine(dict(resources))
    oracle_engine = PipelineEngine(dict(resources))
    compacted = Schedule(lanes=dict(resources))
    oracle = Schedule(lanes=dict(resources))
    batch_engine = PipelineEngine(dict(resources))
    clock = 0.0
    total_retired = 0
    for wave in range(rng.randint(3, 6)):
        clock += rng.random() * 2
        queries = chain_wave(wave, rng, pools)
        compacted_engine.extend(compacted, Wave(admissions(queries, clock)))
        oracle_engine.extend(oracle, Wave(admissions(queries, clock)))
        for admission in admissions(queries, clock):
            batch_engine.admit(admission)
        # Every retained task agrees exactly with the oracle.
        for name, item in compacted.tasks.items():
            twin = oracle.tasks[name]
            assert (item.start, item.finish, item.lane) == (
                twin.start, twin.finish, twin.lane
            ), name
        assert compacted.lane_state == oracle.lane_state
        assert compacted.makespan == oracle.makespan
        # Retire everything finished by a random horizon <= the clock
        # frontier; templates are self-contained, so nothing future
        # depends on it.
        total_retired += compacted_engine.compact(
            compacted, rng.random() * clock
        )
    assert compacted.makespan == oracle.makespan
    assert compacted.retired_tasks == total_retired
    assert len(compacted.tasks) == len(oracle.tasks) - total_retired
    # The uncompacted twin is the schedule of admitting every wave up
    # front and placing it in one batch.
    for batch in (batch_engine.run(), run_reference(batch_engine)):
        assert set(batch.tasks) == set(oracle.tasks)
        for name, item in batch.tasks.items():
            twin = oracle.tasks[name]
            assert (item.start, item.finish, item.lane) == (
                twin.start, twin.finish, twin.lane
            ), name
