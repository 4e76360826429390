"""``simulate(plan)`` is one dispatch pass over the plan's template.

An estimate builds no schedule: ``PipelinedJoinStrategy.simulate``
takes the makespan from ``PlanTemplate.dispatch`` and sums each
phase's durations itself.  These tests pin both to the engine's placed
schedule and to the reference scanner, on every plan the registered
strategies prepare for the regress reference specs and the mixed
serving workload, and on random graphs.
"""

import pytest

from repro.bench.regress import reference_spec
from repro.core.strategy import (
    JoinPlan,
    PipelinedJoinStrategy,
    create_strategy,
    registered_strategies,
)
from repro.data import unique_pair
from repro.errors import DeviceMemoryOverflowError
from repro.pipeline.oracle import run_reference
from repro.serve import mixed_workload
from tests.pipeline.graphs import place
from tests.pipeline.test_engine_reference import random_graph


@pytest.fixture(scope="module")
def registered_plans():
    """(strategy, plan) for every plan the registered strategies
    prepare for their regress reference specs and the 64 mixed-workload
    specs, with and without materialization; a strategy whose data
    cannot fit a spec prepares no plan for it."""
    keys = registered_strategies()
    specs = [reference_spec(key) for key in keys]
    specs += [request.spec for request in mixed_workload(64)]
    plans = []
    for key in keys:
        strategy = create_strategy(key)
        for spec in specs:
            for materialize in (False, True):
                try:
                    plan = strategy.prepare(spec, materialize=materialize)
                except DeviceMemoryOverflowError:
                    continue
                plans.append((strategy, plan))
    assert len(plans) == 658
    assert {strategy.key for strategy, _ in plans} == set(keys)
    return plans


def test_phases_sum_durations_in_dispatch_order(registered_plans):
    """Each phase total is ``sum()`` of its tasks' durations in the
    placed schedule's (dispatch) order: the declared phases first, an
    empty one the int ``0``, then the others as dispatched.  From
    CPython 3.12 on ``sum()`` of floats is compensated, so a
    left-to-right ``+=`` would move totals there."""
    for strategy, plan in registered_plans:
        placed = [item.task for item in place(plan.tasks).tasks.values()]
        order = dict.fromkeys(plan.phases)
        order.update(dict.fromkeys(task.effective_phase for task in placed))
        expected = {
            phase: sum(
                task.duration
                for task in placed
                if task.effective_phase == phase
            )
            for phase in order
        }
        phases = strategy.simulate(plan).phases
        assert list(phases.items()) == list(expected.items()), plan.strategy
        assert list(map(type, phases.values())) == list(
            map(type, expected.values())
        )


def test_makespan_matches_the_scanner(registered_plans):
    for strategy, plan in registered_plans:
        assert (
            strategy.simulate(plan).seconds
            == run_reference(plan.tasks).makespan
        ), plan.strategy


@pytest.mark.parametrize("seed", range(100))
def test_random_graph_makespan_matches_the_scanner(seed):
    for interleaved in (False, True):
        tasks = random_graph(seed, interleaved=interleaved)
        plan = JoinPlan(strategy="random", spec=unique_pair(1000), tasks=tasks)
        assert (
            PipelinedJoinStrategy().simulate(plan).seconds
            == run_reference(tasks).makespan
        )
