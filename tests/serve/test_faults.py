"""Crash-failure fault injection and query recovery.

The robustness contract for the serving fleet, end to end:

* **Inertness** — ``FaultPlan()`` (and ``faults=None``) runs the exact
  fault-free code path: bit-identical to the recorded golden schedules
  on ``devices=1`` and to a plain run on sharded fleets;
* **Chaos** — 100+ seeded random fault plans (devices 1–3, crashes plus
  transient admission failures) always conserve queries
  (``completed + shed + failed == arrivals``), drain every arena
  ledger (which each run's own audit checks), respect crash times and
  retry budgets, pass the batch oracle on every surviving device, and
  keep uncompacted streaming == online under faults (outcomes, failure
  order, makespan);
* **Makespan** — one definition, the fleet's schedule makespan:
  finished pre-crash work counts even when its query later failed;
* **Recovery** — a query lost to a crash is retried on a surviving
  device (front-of-queue, after backoff), budgets exhaust into
  ``"retries_exhausted"``, a fleet with no accepting device left fails
  everything with ``"fleet_lost"``, and an ``add`` event scheduled
  after a total loss rescues the backlog;
* **Interplay** — work stealing × retirement × crash: a stolen query
  whose destination device dies is retried elsewhere without
  double-releasing its original reservation (the arena's ``forced``
  audit log records exactly one reclamation);
* **Validation** — malformed fault plans and fleet-event schedules
  fail loudly (:class:`~repro.errors.FaultPlanError`,
  :class:`~repro.errors.FleetEventError`) before anything is mutated,
  and :func:`~repro.serve.check_fault_invariants` rejects reports that
  violate conservation, crash-time safety, or retry budgets.
"""

import math
from types import SimpleNamespace

import pytest

from repro.bench.serve_bench import fingerprint_sharded, run_serve
from repro.data.spec import unique_pair
from repro.errors import (
    DeviceMemoryOverflowError,
    FaultInvariantError,
    FaultPlanError,
    FleetEventError,
    InvalidConfigError,
    SchedulingError,
)
from repro.gpusim.arena import DeviceMemoryArena
from repro.pipeline.engine import PipelineEngine
from repro.pipeline.oracle import check_batch_oracle
from repro.pipeline.tasks import Task
from repro.serve import (
    DEADLINE_CLASSES,
    DeviceCrash,
    FaultPlan,
    FleetEvent,
    QueryRequest,
    QueryScheduler,
    check_fault_invariants,
    mixed_workload,
    random_workload,
    stream_workload,
    validate_fleet_events,
)
from repro.serve.placement import DeviceFleet
from tests.serve.golden import GOLDEN, assert_matches_golden

M = 1_000_000
DEFAULT_CAP = 8_589_934_592
#: Device 0 fits the big queries, devices 1+ only the small one — the
#: same shape ``test_hetero.py`` uses to force a steal.
STEAL_CAPS = [3_600_000_000, 2_000_000_000, 2_000_000_000]

#: ≥100 random fault plans, cycling fleet sizes 1–3 (the acceptance
#: floor for the chaos suite).
CHAOS_SEEDS = range(102)


def _steal_workload() -> list[QueryRequest]:
    big = unique_pair(64 * M)
    return [
        QueryRequest(qid="q0", spec=big),
        QueryRequest(qid="q1", spec=big),
        QueryRequest(qid="q2", spec=unique_pair(4 * M)),
    ]


def _conserved(report, arrivals: int) -> None:
    shed = len(getattr(report, "shed", ()) or ())
    assert len(report.outcomes) + shed + len(report.failed) == arrivals


# ----------------------------------------------------------------------
# Inertness: the empty plan is bit-identical to the fault-free path.
# ----------------------------------------------------------------------

@pytest.mark.parametrize("seed", range(0, 200, 10))
def test_empty_plan_matches_golden_single_device(seed):
    report = QueryScheduler(devices=1).run_online(
        random_workload(seed), faults=FaultPlan()
    )
    assert_matches_golden(report, GOLDEN["seeds"][str(seed)])
    assert report.failed == [] and report.retried_count == 0


@pytest.mark.parametrize("devices", [1, 2, 3])
def test_empty_plan_is_bit_identical_to_none(devices):
    for seed in (0, 7, 31):
        plain = QueryScheduler(devices=devices).run_online(
            random_workload(seed)
        )
        empty = QueryScheduler(devices=devices).run_online(
            random_workload(seed), faults=FaultPlan()
        )
        assert fingerprint_sharded(empty) == fingerprint_sharded(plain)
        assert empty.makespan == plain.makespan
        assert empty.failed == []


def test_empty_plan_is_inert_in_stream_mode():
    plain = QueryScheduler(devices=2).run_stream(stream_workload(200, seed=3))
    empty = QueryScheduler(devices=2).run_stream(
        stream_workload(200, seed=3), faults=FaultPlan()
    )
    assert plain.completed == empty.completed
    assert plain.makespan == empty.makespan
    assert empty.failed == [] and empty.failed_count == 0
    assert FaultPlan().is_empty
    FaultPlan().validate(1)  # the empty plan is always valid


# ----------------------------------------------------------------------
# Chaos: ≥100 random plans, devices 1–3, conservation + drained ledgers.
# ----------------------------------------------------------------------

@pytest.mark.parametrize("seed", CHAOS_SEEDS)
def test_chaos_random_fault_plans(seed):
    devices = 1 + seed % 3
    requests = random_workload(seed)
    base = QueryScheduler(devices=devices).run_online(random_workload(seed))
    plan = FaultPlan.random(
        seed,
        devices=devices,
        horizon=base.makespan,
        qids=[request.qid for request in requests],
        admission_fault_rate=0.25,
    )
    online = QueryScheduler(devices=devices).run_online(
        random_workload(seed), faults=plan
    )
    stream = QueryScheduler(devices=devices).run_stream(
        iter(requests), compact_every=None, faults=plan
    )
    # Uncompacted streaming == online under faults: outcomes, failures
    # (order included) and makespan.
    assert sorted(fingerprint_sharded(stream)) == sorted(
        fingerprint_sharded(online)
    )
    assert stream.failed == online.failed
    assert stream.makespan == online.makespan
    assert online.makespan == max(
        schedule.makespan for schedule in online.device_schedules
    )
    check_batch_oracle(online, plan)
    for report in (online, stream):
        _conserved(report, len(requests))
        crashed = {crash.device: crash.at for crash in plan.crashes}
        for outcome in report.outcomes:
            assert 0 <= outcome.retries <= 3
            at = crashed.get(outcome.device)
            if at is not None:
                assert outcome.admit_at < at
                assert outcome.finish_at <= at
        for failure in report.failed:
            assert failure.reason in ("retries_exhausted", "fleet_lost")
            assert 0 <= failure.attempts <= 3


@pytest.mark.parametrize("seed", range(12))
def test_chaos_streaming_fault_plans(seed):
    devices = 1 + seed % 3
    arrivals = 60
    requests = list(stream_workload(arrivals, seed=seed))
    horizon = requests[-1].submit_at + 0.5
    plan = FaultPlan.random(
        seed,
        devices=devices,
        horizon=horizon,
        qids=[request.qid for request in requests],
        admission_fault_rate=0.2,
    )
    kwargs = dict(max_queue_depth=64, compact_every=16, faults=plan)
    report = QueryScheduler(devices=devices).run_stream(
        iter(requests), **kwargs
    )
    _conserved(report, arrivals)
    # Determinism: the same faulted stream replays identically.
    again = QueryScheduler(devices=devices).run_stream(
        iter(requests), **kwargs
    )
    assert again.completed == report.completed
    assert again.shed_count == report.shed_count
    assert again.failed == report.failed
    assert again.makespan == report.makespan


def test_faulted_run_is_deterministic():
    plan = FaultPlan(
        crashes=(DeviceCrash(at=0.02, device=1),),
        admission_failures={"q001": 1, "q004": 2},
    )
    runs = [
        QueryScheduler(devices=2).run_online(
            mixed_workload(10, spacing_seconds=0.01), faults=plan
        )
        for _ in range(2)
    ]
    assert fingerprint_sharded(runs[0]) == fingerprint_sharded(runs[1])
    assert runs[0].failed == runs[1].failed
    assert runs[0].makespan == runs[1].makespan


def test_serve_bench_rerun_keeps_the_retry_backoff():
    """``run_serve``'s determinism re-run builds a fresh scheduler; it
    must copy every knob, including a non-default retry backoff, or a
    run that retries anything is flagged non-deterministic."""
    baseline = run_serve(16, devices=2, check_determinism=False)
    plan = FaultPlan.random(
        0,
        devices=2,
        horizon=baseline.makespan,
        qids=[f"q{i:03d}" for i in range(16)],
        admission_fault_rate=0.1,
        allow_total_loss=False,
    )
    report = run_serve(
        16,
        scheduler=QueryScheduler(devices=2, retry_backoff_seconds=1.0),
        faults=plan,
    )
    assert any(o.retries for o in report.outcomes) or report.failed
# ----------------------------------------------------------------------

def test_crash_retries_lost_queries_on_surviving_device():
    requests = mixed_workload(6)
    base = QueryScheduler(devices=2).run_online(mixed_workload(6))
    victims = [o for o in base.outcomes if o.device == 1]
    assert victims, "baseline must place work on device 1"
    crash_at = min(o.finish_at for o in victims) / 2
    plan = FaultPlan(crashes=(DeviceCrash(at=crash_at, device=1),))
    report = QueryScheduler(devices=2).run_online(
        mixed_workload(6), faults=plan
    )
    # Everything completes — nothing is lost, nothing fails.
    _conserved(report, len(requests))
    assert report.failed == []
    retried = [o for o in report.outcomes if o.retries]
    assert retried, "the crash must actually cost at least one retry"
    for outcome in retried:
        assert outcome.device == 0  # re-admitted on the survivor
        assert outcome.admit_at >= crash_at  # after the crash + backoff
    assert report.retried_count == len(retried)
    # Device 1's arena shows why it drained: forced reclamations.
    forced = report.arenas[1].forced
    assert forced and all(at == crash_at for at, _, _ in forced)


def test_query_finished_before_the_crash_keeps_its_outcome():
    base = QueryScheduler(devices=1).run_online(mixed_workload(2))
    finishes = sorted(o.finish_at for o in base.outcomes)
    # Crash strictly between the two finishes: the first query's work
    # is history, only the second is lost.
    crash_at = (finishes[0] + finishes[1]) / 2
    plan = FaultPlan(crashes=(DeviceCrash(at=crash_at, device=0),))
    report = QueryScheduler(devices=1, max_retries=0).run_online(
        mixed_workload(2), faults=plan
    )
    survivors = {o.qid: o for o in report.outcomes}
    assert len(survivors) == 1 and len(report.failed) == 1
    (kept,) = survivors.values()
    assert kept.finish_at <= crash_at and kept.retries == 0
    (failure,) = report.failed
    assert failure.reason == "retries_exhausted"
    assert failure.attempts == 0 and failure.last_device == 0


def test_exhausted_retry_budget_records_failure():
    base = QueryScheduler(devices=1).run_online(mixed_workload(1))
    crash_at = base.outcomes[0].finish_at / 2
    plan = FaultPlan(crashes=(DeviceCrash(at=crash_at, device=0),))
    report = QueryScheduler(devices=1, max_retries=0).run_online(
        mixed_workload(1), faults=plan
    )
    assert report.outcomes == []
    (failure,) = report.failed
    assert failure.reason == "retries_exhausted"
    assert failure.attempts == 0
    assert failure.last_device == 0


def test_total_fleet_loss_fails_everything_as_fleet_lost():
    base = QueryScheduler(devices=1).run_online(mixed_workload(3))
    crash_at = min(o.finish_at for o in base.outcomes) / 2
    plan = FaultPlan(crashes=(DeviceCrash(at=crash_at, device=0),))
    report = QueryScheduler(devices=1).run_online(
        mixed_workload(3), faults=plan
    )
    _conserved(report, 3)
    assert report.outcomes == []
    assert len(report.failed) == 3
    assert all(f.reason == "fleet_lost" for f in report.failed)


@pytest.mark.parametrize("stream", [False, True])
def test_makespan_counts_finished_work_of_failed_queries(stream):
    """One makespan definition for both entry points: the latest finish
    of any task still on any device's schedule.  A total fleet loss
    fails every query, but the work finished before the crash stays."""
    base = QueryScheduler(devices=1).run_online(mixed_workload(3))
    crash_at = min(o.finish_at for o in base.outcomes) * 0.99
    plan = FaultPlan(crashes=(DeviceCrash(at=crash_at, device=0),))
    scheduler = QueryScheduler(devices=1)
    if stream:
        report = scheduler.run_stream(iter(mixed_workload(3)), faults=plan)
    else:
        report = scheduler.run_online(mixed_workload(3), faults=plan)
    assert report.outcomes == [] and len(report.failed) == 3
    (schedule,) = report.device_schedules
    assert 0.0 < report.makespan == schedule.makespan <= crash_at


def test_add_event_rescues_the_backlog_after_total_loss():
    base = QueryScheduler(devices=1).run_online(mixed_workload(3))
    crash_at = min(o.finish_at for o in base.outcomes) / 2
    plan = FaultPlan(crashes=(DeviceCrash(at=crash_at, device=0),))
    events = [
        FleetEvent(
            at=crash_at + 0.01, action="add", capacity_bytes=DEFAULT_CAP
        )
    ]
    report = QueryScheduler(devices=1).run_online(
        mixed_workload(3), fleet_events=events, faults=plan
    )
    # The joining device (index 1) picks the whole backlog back up.
    _conserved(report, 3)
    assert report.failed == []
    assert len(report.outcomes) == 3
    assert all(o.device == 1 for o in report.outcomes)
    assert all(o.admit_at >= crash_at for o in report.outcomes)


def test_transient_admission_failures_charge_the_retry_budget():
    plan = FaultPlan(admission_failures={"q000": 2})
    report = QueryScheduler(devices=1).run_online(
        mixed_workload(2), faults=plan
    )
    outcomes = {o.qid: o for o in report.outcomes}
    assert report.failed == []
    assert outcomes["q000"].retries == 2
    # Two refusals, linear backoff 0.05: ready at 0.05, then 0.05+0.10.
    assert outcomes["q000"].admit_at == pytest.approx(0.15)
    assert outcomes["q001"].retries == 0


def test_admission_faults_alone_can_exhaust_the_budget():
    plan = FaultPlan(admission_failures={"q000": 5})
    report = QueryScheduler(devices=1, max_retries=2).run_online(
        mixed_workload(2), faults=plan
    )
    (failure,) = report.failed
    assert failure.qid == "q000"
    assert failure.reason == "retries_exhausted"
    assert failure.attempts == 2 and failure.last_device is None
    assert [o.qid for o in report.outcomes] == ["q001"]


def test_streaming_crash_conserves_and_recovers():
    requests = list(stream_workload(80, seed=11))
    horizon = requests[-1].submit_at
    plan = FaultPlan(crashes=(DeviceCrash(at=horizon / 2, device=1),))
    report = QueryScheduler(devices=2).run_stream(
        iter(requests), max_queue_depth=32, compact_every=16, faults=plan
    )
    _conserved(report, 80)
    assert report.completed > 0
    # Everything that completed after the crash ran on the survivor.
    assert report.failed_rate == len(report.failed) / 80


@pytest.mark.parametrize("lose_fleet", [False, True])
def test_stream_wait_queue_exits_leave_no_carried_profile(lose_fleet):
    """The scheduler carries each queued request's admission profile
    until the request leaves the wait queue, and every run ends by
    checking that none is left (a leak raises ``SchedulingError``).
    This stream leaves the queue every way but stealing (which the
    steal tests cover): admitted, shed at a full queue, expired at its
    deadline, refused by an admission fault (once, and until its retry
    budget is spent), lost to a crash and retried, and, when the whole
    fleet crashes, failed as stranded.  ``s000007`` waits in a full
    queue, so its profile is carried before its first refusal."""
    requests = list(
        stream_workload(
            300, seed=3, classes=DEADLINE_CLASSES, deadline_scale=0.02
        )
    )
    horizon = requests[-1].submit_at
    crashes = [DeviceCrash(at=horizon / 2, device=1)]
    if lose_fleet:
        crashes.append(DeviceCrash(at=horizon * 0.9, device=0))
    plan = FaultPlan(
        crashes=tuple(crashes),
        admission_failures={"s000000": 1, "s000007": 4},
    )
    report = QueryScheduler(devices=2).run_stream(
        iter(requests), max_queue_depth=8, compact_every=16, faults=plan
    )
    _conserved(report, 300)
    assert {"queue_full", "deadline_expired"} <= {
        item.reason for item in report.shed
    }
    retried = {o.qid for o in report.outcomes if o.retries}
    assert "s000000" in retried  # refused once at admission
    assert len(retried) > 1  # crash victims re-admitted
    failed = {f.qid: f.reason for f in report.failed}
    assert failed.pop("s000007") == "retries_exhausted"
    assert set(failed.values()) == ({"fleet_lost"} if lose_fleet else set())


# ----------------------------------------------------------------------
# Interplay: stealing × retirement × crash (satellite).
# ----------------------------------------------------------------------

def test_stolen_query_survives_destination_crash_without_double_release():
    """q2 is stolen by device 1 at t=0 (device 0 is full, the FIFO head
    q1 is blocked).  Device 2 retires gracefully, then device 1 crashes
    mid-q2: the stolen query must be retried on device 0 and its
    original reservation reclaimed exactly once."""
    base = QueryScheduler(
        devices=3, device_capacities=STEAL_CAPS, steal=True
    ).run_online(_steal_workload())
    (q2_base,) = [o for o in base.outcomes if o.qid == "q2"]
    assert q2_base.stolen and q2_base.device == 1 and q2_base.admit_at == 0.0
    crash_at = q2_base.finish_at / 2
    events = [FleetEvent(at=crash_at / 2, action="retire", device=2)]
    plan = FaultPlan(crashes=(DeviceCrash(at=crash_at, device=1),))
    report = QueryScheduler(
        devices=3, device_capacities=STEAL_CAPS, steal=True
    ).run_online(_steal_workload(), fleet_events=events, faults=plan)
    _conserved(report, 3)
    assert report.failed == []
    outcomes = {o.qid: o for o in report.outcomes}
    q2 = outcomes["q2"]
    assert q2.retries == 1
    assert q2.device == 0  # device 2 retired, device 1 dead
    assert q2.admit_at >= crash_at
    # Exactly one forced reclamation: q2's grant on the dead device,
    # logged at the crash time.  A double release would have raised
    # DeviceMemoryOverflowError and failed the run outright.
    (reclaimed,) = report.arenas[1].forced
    at, owner, nbytes = reclaimed
    assert at == crash_at and owner == "q2" and nbytes > 0
    assert report.arenas[2].forced == []  # retirement is a clean drain


# ----------------------------------------------------------------------
# Up-front validation (satellite): fleet events and fault plans.
# ----------------------------------------------------------------------

def test_fleet_event_schedule_validated_before_any_mutation():
    with pytest.raises(FleetEventError, match="retires device 5"):
        QueryScheduler(devices=2).run_online(
            mixed_workload(2),
            fleet_events=[FleetEvent(at=0.5, action="retire", device=5)],
        )
    with pytest.raises(FleetEventError, match="device 1 twice"):
        QueryScheduler(devices=2).run_online(
            mixed_workload(2),
            fleet_events=[
                FleetEvent(at=0.2, action="retire", device=1),
                FleetEvent(at=0.4, action="retire", device=1),
            ],
        )
    # FleetEventError is an InvalidConfigError: existing handlers keep
    # catching it.
    assert issubclass(FleetEventError, InvalidConfigError)
    # Retiring a device an earlier event added is legitimate.
    validate_fleet_events(
        [
            FleetEvent(at=0.1, action="add", capacity_bytes=DEFAULT_CAP),
            FleetEvent(at=0.3, action="retire", device=1),
        ],
        1,
    )


def test_fault_plan_validation_rejects_bad_plans():
    with pytest.raises(FaultPlanError, match=">= 0"):
        DeviceCrash(at=-1.0, device=0)
    with pytest.raises(FaultPlanError, match=">= 0"):
        DeviceCrash(at=0.0, device=-1)
    # NaN and inf pass a plain `< 0` test; such a crash would never be
    # applied.
    for at in (float("nan"), float("inf")):
        with pytest.raises(FaultPlanError, match="finite"):
            DeviceCrash(at=at, device=0)
        with pytest.raises(FaultPlanError, match="horizon"):
            FaultPlan.random(0, devices=2, horizon=at)
    with pytest.raises(FaultPlanError, match="sorted"):
        FaultPlan(
            crashes=(
                DeviceCrash(at=2.0, device=0),
                DeviceCrash(at=1.0, device=1),
            )
        ).validate(2)
    with pytest.raises(FaultPlanError, match="dies once"):
        FaultPlan(
            crashes=(
                DeviceCrash(at=1.0, device=0),
                DeviceCrash(at=2.0, device=0),
            )
        ).validate(1)
    with pytest.raises(FaultPlanError, match="only 1 device"):
        FaultPlan(crashes=(DeviceCrash(at=1.0, device=1),)).validate(1)
    with pytest.raises(FaultPlanError, match="positive"):
        FaultPlan(admission_failures={"q0": 0}).validate(1)
    with pytest.raises(FaultPlanError, match="non-empty"):
        FaultPlan(admission_failures={"": 1}).validate(1)
    assert issubclass(FaultPlanError, InvalidConfigError)


def test_fault_plan_validated_by_the_scheduler_up_front():
    bad = FaultPlan(crashes=(DeviceCrash(at=1.0, device=3),))
    with pytest.raises(FaultPlanError, match="device 3"):
        QueryScheduler(devices=2).run_online(mixed_workload(2), faults=bad)
    # A crash of a device an `add` event creates by then is valid...
    plan = FaultPlan(crashes=(DeviceCrash(at=1.0, device=2),))
    events = [FleetEvent(at=0.5, action="add", capacity_bytes=DEFAULT_CAP)]
    plan.validate(2, events)
    # ...but not if the add lands after the crash.
    late = [FleetEvent(at=2.0, action="add", capacity_bytes=DEFAULT_CAP)]
    with pytest.raises(FaultPlanError, match="exist by then"):
        plan.validate(2, late)


def test_scheduler_retry_knobs_are_validated():
    with pytest.raises(InvalidConfigError, match="max_retries"):
        QueryScheduler(max_retries=-1)
    with pytest.raises(InvalidConfigError, match="retry_backoff"):
        QueryScheduler(retry_backoff_seconds=-0.1)


def test_fault_plan_random_is_deterministic_and_bounded():
    kwargs = dict(
        devices=3,
        horizon=5.0,
        qids=[f"q{i}" for i in range(20)],
        admission_fault_rate=0.5,
        max_admission_faults=2,
    )
    one = FaultPlan.random(42, **kwargs)
    two = FaultPlan.random(42, **kwargs)
    assert one == two
    assert FaultPlan.random(43, **kwargs) != one
    for seed in range(30):
        plan = FaultPlan.random(seed, **kwargs)
        plan.validate(3)
        assert all(0.0 <= c.at <= 5.0 for c in plan.crashes)
        assert len({c.device for c in plan.crashes}) == len(plan.crashes)
        assert all(1 <= n <= 2 for n in plan.admission_failures.values())
        spared = FaultPlan.random(
            seed, allow_total_loss=False, **kwargs
        )
        assert len(spared.crashes) <= 2  # at least one device survives


# ----------------------------------------------------------------------
# The invariant checker itself.
# ----------------------------------------------------------------------

def _fake_outcome(qid, **overrides):
    fields = dict(
        qid=qid,
        device=0,
        admit_at=0.0,
        finish_at=1.0,
        retries=0,
        deadline_at=math.inf,
        deadline_missed=False,
    )
    fields.update(overrides)
    return SimpleNamespace(**fields)


def _fake_report(**overrides):
    fields = dict(
        outcomes=[], failed=[], shed=[], arenas=[],
        schedule=SimpleNamespace(tasks={}),
    )
    fields.update(overrides)
    arenas = fields["arenas"]
    return SimpleNamespace(
        devices=len(arenas),
        device_peak_bytes=tuple(arena.peak_bytes for arena in arenas),
        device_capacity_bytes=tuple(arena.capacity_bytes for arena in arenas),
        **fields,
    )


def test_invariant_checker_rejects_conservation_violations():
    with pytest.raises(FaultInvariantError, match="conservation"):
        check_fault_invariants(
            _fake_report(), FaultPlan(), arrivals=1, max_retries=3
        )
    assert issubclass(FaultInvariantError, SchedulingError)


def test_invariant_checker_rejects_post_crash_completions():
    plan = FaultPlan(crashes=(DeviceCrash(at=1.0, device=0),))
    ghost = _fake_outcome("q0", admit_at=0.5, finish_at=2.0)
    with pytest.raises(FaultInvariantError, match="after the crash"):
        check_fault_invariants(
            _fake_report(outcomes=[ghost]), plan, arrivals=1, max_retries=3
        )
    late = _fake_outcome("q1", admit_at=1.0, finish_at=1.0)
    with pytest.raises(FaultInvariantError, match="at or after"):
        check_fault_invariants(
            _fake_report(outcomes=[late]), plan, arrivals=1, max_retries=3
        )


def test_invariant_checker_rejects_blown_retry_budgets():
    greedy = _fake_outcome("q0", retries=4)
    with pytest.raises(FaultInvariantError, match="over the budget"):
        check_fault_invariants(
            _fake_report(outcomes=[greedy]),
            FaultPlan(),
            arrivals=1,
            max_retries=3,
        )


def test_invariant_checker_rejects_undrained_arenas():
    arena = DeviceMemoryArena(capacity_bytes=100, device=0)
    arena.reserve("q0", 10)
    with pytest.raises(FaultInvariantError, match="still holds"):
        check_fault_invariants(
            _fake_report(outcomes=[_fake_outcome("q0")], arenas=[arena]),
            FaultPlan(),
            arrivals=1,
            max_retries=3,
        )


# ----------------------------------------------------------------------
# Layer unit tests: arena audit helpers, engine.crash, fleet crash.
# ----------------------------------------------------------------------

def test_arena_force_release_keeps_the_ledger_exact():
    arena = DeviceMemoryArena(capacity_bytes=100, device=1)
    arena.reserve("q0", 40, at=0.0)
    arena.reserve("q1", 25, at=0.5)
    assert [r.owner for r in arena.reservations_of("q")] == ["q0", "q1"]
    assert [r.owner for r in arena.reservations_of("q1")] == ["q1"]
    assert arena.reservations_of("zz") == ()
    freed = arena.force_release("q0", at=1.0)
    assert freed == 40
    assert arena.used_bytes == 25
    assert arena.forced == [(1.0, "q0", 40)]
    # Forcing the same owner twice is the exact double-release the
    # ledger exists to catch.
    with pytest.raises(DeviceMemoryOverflowError, match="reconciled twice"):
        arena.force_release("q0", at=1.0)
    assert arena.reconcile(["q1"], at=2.0) == 25
    assert arena.drained
    assert arena.forced == [(1.0, "q0", 40), (2.0, "q1", 25)]
    arena.check_invariants()
    # Timeline recorded the forced releases like any other transition.
    assert arena.timeline[-1][1] == 0


def test_engine_crash_invalidates_the_unfinished_tail():
    engine = PipelineEngine({"gpu": 1, "h2d": 1})
    engine.add(Task("a", "h2d", 1.0))
    engine.add(Task("b", "gpu", 2.0, ("a",)))
    engine.add(Task("c", "gpu", 3.0, ("b",)))
    schedule = engine.run()
    assert schedule.makespan == 6.0
    lost = engine.crash(schedule, 3.0)  # a (1.0) and b (3.0) survive
    assert lost == ["c"]
    assert sorted(schedule.tasks) == ["a", "b"]
    assert engine.is_crashed and engine.is_retired
    # Sealed harder than retirement: no new work, no re-simulation.
    with pytest.raises(SchedulingError, match="retired"):
        engine.add(Task("d", "gpu", 1.0))
    with pytest.raises(SchedulingError, match="crash"):
        engine.run()
    with pytest.raises(SchedulingError, match="retired"):
        engine.extend(schedule, [Task("d", "gpu", 1.0)])
    # Compaction still sweeps the surviving history.
    assert engine.compact(schedule, 6.0) == 2
    assert schedule.tasks == {}
    assert schedule.retired_makespan == 3.0  # only completed work


def test_engine_crash_rejects_foreign_schedules():
    engine = PipelineEngine({"gpu": 1})
    engine.add(Task("a", "gpu", 1.0))
    schedule = engine.run()
    other = PipelineEngine({"gpu": 1})
    other.add(Task("x", "gpu", 1.0))
    other.add(Task("y", "gpu", 1.0))
    with pytest.raises(SchedulingError):
        engine.crash(other.run(), 0.5)


def test_fleet_crash_device_validation():
    fleet = DeviceFleet([DEFAULT_CAP, DEFAULT_CAP])
    with pytest.raises(InvalidConfigError, match="unknown device 5"):
        fleet.crash_device(5, 1.0)
    fleet.crash_device(1, 1.0)
    assert fleet[1].crashed and fleet[1].crashed_at == 1.0
    assert not fleet[1].accepting
    with pytest.raises(InvalidConfigError, match="already crashed"):
        fleet.crash_device(1, 2.0)
    # Unlike retire, a crash may take the last accepting device.
    fleet.crash_device(0, 3.0)
    assert fleet.active() == []


def test_crash_supersedes_a_pending_retirement():
    fleet = DeviceFleet([DEFAULT_CAP, DEFAULT_CAP])
    fleet[1].running.add("q9")  # mid-drain: retirement cannot finalize
    fleet.retire_device(1)
    assert fleet[1].retiring and not fleet[1].retired
    assert fleet.crash_device(1, 1.0) == ["q9"]
    # The crash wins: finalize_retirement must not re-seal the engine.
    assert fleet[1].finalize_retirement() is False
    assert fleet[1].crashed and not fleet[1].retired
