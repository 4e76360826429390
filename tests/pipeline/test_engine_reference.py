"""Schedule identity between the engine's linear pass and the scanner.

The engine (a template's dispatch order placed in one pass over
per-resource free times) must produce exactly the schedule of
``run_reference`` (the original all-queue-heads scanner, kept in
:mod:`repro.pipeline.oracle` as the executable specification): same
start/finish times, same carried-over free times, same deadlock
detection.
"""

import random

import pytest

from repro.errors import SchedulingError
from repro.pipeline.engine import Admission, PipelineEngine, PlanTemplate, Wave
from repro.pipeline.oracle import run_reference
from repro.pipeline.tasks import Schedule, Task
from tests.pipeline.graphs import place, placed_tasks


def random_graph(seed: int, *, interleaved: bool = False) -> list[Task]:
    """A randomized DAG over random resources: random dependencies
    (only on earlier tasks — acyclic by construction), zero-duration
    tasks, and release times.

    ``interleaved`` submits the same graph in a random merge of its
    per-resource queues: each queue keeps its order (so no deadlock
    appears), but a task may be submitted before a dependency on
    another resource — a submission order that is not topological.
    """
    rng = random.Random(seed)
    resources = [f"r{i}" for i in range(rng.randint(1, 5))]
    tasks: list[Task] = []
    for i in range(rng.randint(1, 80)):
        deps = rng.sample(
            [task.name for task in tasks], min(len(tasks), rng.randint(0, 3))
        )
        tasks.append(
            Task(
                name=f"t{i}",
                resource=rng.choice(resources),
                duration=rng.random() * rng.choice([0.0, 1.0, 10.0]),
                deps=tuple(deps),
                available_at=rng.choice([0.0, 0.0, rng.random() * 5]),
            )
        )
    if interleaved:
        queues = {r: [t for t in tasks if t.resource == r] for r in resources}
        tasks = []
        while any(queues.values()):
            queue = rng.choice([q for q in queues.values() if q])
            tasks.append(queue.pop(0))
    return tasks


def assert_same_schedule(actual: Schedule, expected: Schedule) -> None:
    assert set(actual.tasks) == set(expected.tasks)
    for name, item in expected.tasks.items():
        placed = actual.tasks[name]
        assert (placed.start, placed.finish) == (item.start, item.finish), name
    assert actual.makespan == expected.makespan
    assert actual.free_at == expected.free_at


@pytest.mark.parametrize("seed", range(200))
def test_randomized_dag_schedules_identical(seed):
    tasks = random_graph(seed)
    assert_same_schedule(place(tasks), run_reference(tasks))


@pytest.mark.parametrize("seed", range(100))
def test_non_topological_submission_matches_reference(seed):
    """The template as submitted and the template admitted under an
    alias both place an interleaved submission exactly like the
    scanner does."""
    tasks = random_graph(seed, interleaved=True)
    assert_same_schedule(place(tasks), run_reference(tasks))

    admission = Admission(PlanTemplate(tasks), "q", 2.5)
    placed = PipelineEngine().extend(Schedule(), Wave([admission]))
    # The scanner over the admission's namespaced tasks, released at 2.5.
    assert_same_schedule(placed, run_reference(placed_tasks([admission])))


def test_interleaving_breaks_topological_order():
    """The interleaved generator is not vacuous: some seeds submit a
    task before one of its dependencies."""

    def topological(tasks: list[Task]) -> bool:
        seen: set[str] = set()
        for task in tasks:
            if not seen.issuperset(task.deps):
                return False
            seen.add(task.name)
        return True

    shuffled = [
        seed
        for seed in range(100)
        if not topological(random_graph(seed, interleaved=True))
    ]
    assert len(shuffled) >= 20


def test_cross_queue_deadlock_detected_by_both():
    # Head of r1 waits on a task stuck behind the head of r2 and vice
    # versa: a cycle across FIFO queues, not in the DAG.
    tasks = [
        Task("a", "r1", 1.0, deps=("d",)),
        Task("b", "r1", 1.0),
        Task("c", "r2", 1.0, deps=("b",)),
        Task("d", "r2", 1.0),
    ]
    with pytest.raises(SchedulingError, match="deadlock"):
        place(tasks)
    with pytest.raises(SchedulingError, match="deadlock"):
        run_reference(tasks)


def test_unknown_dependency_detected_by_both():
    tasks = [Task("a", "r", 1.0, deps=("ghost",))]
    with pytest.raises(SchedulingError, match="unknown"):
        place(tasks)
    with pytest.raises(SchedulingError, match="unknown"):
        run_reference(tasks)


def test_duplicate_dependencies_are_counted_once():
    schedule = place(
        [Task("a", "r", 1.0), Task("b", "r", 2.0, deps=("a", "a"))]
    )
    assert schedule.tasks["b"].start == 1.0
    assert schedule.makespan == 3.0
