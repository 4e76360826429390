"""One shared strategy object per (key, calibration, grant) per scheduler.

The scheduler plans every query with strategy objects it creates once
and keeps; that is only sound because strategies never change their
own state after ``__init__`` (the contract documented on
:class:`~repro.core.strategy.PipelinedJoinStrategy`).
"""

from collections import Counter
from dataclasses import is_dataclass

import pytest

import repro.serve.scheduler as scheduler_module
from repro.bench.regress import reference_spec
from repro.core import create_strategy, estimate_cache, registered_strategies
from repro.gpusim.calibration import DEFAULT_CALIBRATION, calibration_preset
from repro.serve import QueryScheduler
from repro.serve.workload import mixed_workload, stream_workload


def state(obj):
    """Recursive snapshot of an object's instance state: every
    attribute's identity and, for non-value objects, its own state.
    Frozen dataclasses are immutable values and compare by ``==``."""
    if is_dataclass(obj) and obj.__dataclass_params__.frozen:
        return obj
    if hasattr(obj, "__dict__") and not isinstance(obj, type):
        return (
            type(obj),
            {name: (id(value), state(value)) for name, value in vars(obj).items()},
        )
    return obj


@pytest.mark.parametrize("key", registered_strategies())
@pytest.mark.parametrize("materialize", [False, True])
def test_prepare_and_estimate_leave_strategy_state_unchanged(key, materialize):
    strategy = create_strategy(key, calibration=calibration_preset("fast"))
    before = state(strategy)
    spec = reference_spec(key)
    estimate_cache.clear()  # estimate must compute, not hit
    strategy.estimate(spec, materialize=materialize)
    strategy.prepare(spec, materialize=materialize)
    strategy.estimate(spec, materialize=materialize)  # now a cache hit
    assert state(strategy) == before


@pytest.fixture
def creations(monkeypatch):
    """Every ``create_strategy`` call the scheduler makes, as
    (key, calibration, device_budget grant) -> count."""
    counts: Counter = Counter()
    real = scheduler_module.create_strategy

    def counting(key, system=None, calibration=None, config=None, **kwargs):
        counts[key, calibration, kwargs.get("device_budget")] += 1
        return real(key, system, calibration, config, **kwargs)

    monkeypatch.setattr(scheduler_module, "create_strategy", counting)
    return counts


def test_run_stream_creates_each_strategy_once(creations):
    requests = sorted(
        [*stream_workload(300, seed=3), *mixed_workload(16, spacing_seconds=0.1)],
        key=lambda request: request.submit_at,
    )
    report = QueryScheduler(devices=2).run_stream(
        iter(requests), max_queue_depth=64, compact_every=32
    )
    assert report.arrivals == len(requests)
    assert creations, "the stream planned nothing"
    assert set(creations.values()) == {1}
    # Co-processing queries are planned under their memory grant.
    assert any(grant is not None for _, _, grant in creations)


def test_strategies_are_not_shared_across_schedulers(creations):
    for _ in range(2):
        QueryScheduler().run_online(mixed_workload(8))
    assert set(creations.values()) == {2}


def test_fast_slow_fleet_gets_a_strategy_per_calibration(creations):
    fast, slow = calibration_preset("fast"), calibration_preset("slow")
    scheduler = QueryScheduler(devices=2, device_calibrations=[fast, slow])
    report = scheduler.run_online(mixed_workload(32))
    assert {o.device for o in report.outcomes} == {0, 1}
    assert set(creations.values()) == {1}
    by_key: dict = {}
    for key, calibration, grant in creations:
        by_key.setdefault((key, grant), set()).add(calibration)
    # Each device's offers are estimated under its own calibration.
    assert any({fast, slow} <= calibrations for calibrations in by_key.values())
    for (key, calibration, grant), strategy in scheduler._strategies.items():
        assert strategy.cost_model.calib == (calibration or DEFAULT_CALIBRATION)
