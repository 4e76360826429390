"""One shared strategy object per (key, calibration, grant) per scheduler,
and one price per request per run.

The scheduler plans every query with strategy objects it creates once
and keeps; that is only sound because strategies never change their
own state after ``__init__`` (the contract documented on
:class:`~repro.core.strategy.PipelinedJoinStrategy`).  What admission
reads about a request — its solo choice and its estimates — is
computed once per run and kept in the run's profile table.
"""

from collections import Counter
from dataclasses import is_dataclass

import pytest

import repro.serve.scheduler as scheduler_module
from repro.bench.regress import reference_spec
from repro.bench.serve_bench import fingerprint_sharded
from repro.core import create_strategy, estimate_cache, registered_strategies
from repro.core.strategy import PipelinedJoinStrategy
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


@pytest.fixture
def choices(monkeypatch):
    """Every ``choose_strategy_name`` call the scheduler makes, as
    (spec, available_bytes) -> count."""
    counts: Counter = Counter()
    real = scheduler_module.choose_strategy_name

    def counting(spec, system=None, **kwargs):
        counts[spec, kwargs.get("available_bytes")] += 1
        return real(spec, system, **kwargs)

    monkeypatch.setattr(scheduler_module, "choose_strategy_name", counting)
    return counts


@pytest.fixture
def estimates(monkeypatch):
    """Every strategy estimate, as (key, calibration, device_budget
    grant, spec) -> count."""
    counts: Counter = Counter()
    real = PipelinedJoinStrategy.estimate

    def counting(self, spec, **kwargs):
        grant = getattr(self, "device_budget", None)
        counts[self.key, self.cost_model.calib, grant, spec] += 1
        return real(self, spec, **kwargs)

    monkeypatch.setattr(PipelinedJoinStrategy, "estimate", counting)
    return counts


def test_admission_prices_each_request_once_per_run(choices, estimates):
    requests = list(stream_workload(400))
    scheduler = QueryScheduler(devices=2)
    estimate_cache.clear()
    first = scheduler.run_stream(iter(requests))
    assert first.completed == len(requests)
    # One solo choice per distinct (spec, materialize, pin), asked of
    # the idle device; offers re-walk the stored footprints.
    distinct = {(r.spec, r.materialize, r.strategy) for r in requests}
    solo_choices = Counter(
        (spec, None) for spec, _, pin in distinct if pin is None
    )
    assert choices == solo_choices
    assert estimates, "the stream priced nothing"
    assert set(estimates.values()) == {1}
    priced = dict(estimates)

    # The table lives one run: a second run on the same scheduler, with
    # the process-wide caches cleared, prices everything again.
    choices.clear()
    estimates.clear()
    estimate_cache.clear()
    second = scheduler.run_stream(iter(requests))
    assert fingerprint_sharded(second) == fingerprint_sharded(first)
    assert choices == solo_choices
    assert estimates == priced
