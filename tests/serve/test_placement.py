"""Unit tests for the device fleet and placement policies."""

from dataclasses import replace

import pytest

from repro.errors import InvalidConfigError, SchedulingError
from repro.pipeline.engine import Admission, PipelineEngine, PlanTemplate, Wave
from repro.pipeline.tasks import Schedule, ScheduledTask, Task
from repro.serve import (
    DeviceFleet,
    QueryRequest,
    QueryScheduler,
    create_placement_policy,
    mixed_workload,
    registered_placement_policies,
    stream_workload,
)
from repro.serve.placement import (
    FIRST_FIT,
    LEAST_LOADED,
    ROUND_ROBIN,
    PlacementCandidate,
    PlacementPolicy,
)
from tests.pipeline.graphs import place

GB = 10**9
#: One task for device 1, for tests of a sealed device's engine.
LATE = Wave([Admission(PlanTemplate([Task("late", "gpu", 1.0)]), device=1)])


def _candidates(*devices: int) -> list[PlacementCandidate]:
    return [
        PlacementCandidate(
            device=device, strategy="gpu_resident", need_bytes=GB
        )
        for device in devices
    ]


def _fleet(n: int = 3) -> DeviceFleet:
    return DeviceFleet([8 * GB] * n)


# ---------------------------------------------------------------------------
# Policies
# ---------------------------------------------------------------------------
def test_policy_registry_lists_all_builtins():
    assert set(registered_placement_policies()) == {
        LEAST_LOADED, FIRST_FIT, ROUND_ROBIN,
    }


def test_unknown_policy_key_rejected():
    with pytest.raises(InvalidConfigError, match="unknown placement policy"):
        create_placement_policy("best_fit_decreasing")
    with pytest.raises(InvalidConfigError):
        QueryScheduler(placement="nope")


def test_policy_instance_passes_through():
    policy = create_placement_policy(ROUND_ROBIN)
    assert create_placement_policy(policy) is policy


def test_least_loaded_prefers_idle_then_lowest_index():
    fleet = _fleet(3)
    policy = create_placement_policy(LEAST_LOADED)
    # All idle: ties break toward device 0.
    assert policy.select(_candidates(0, 1, 2), fleet).device == 0
    # Device 0 busy until t=5, device 1 until t=1, device 2 idle.
    fleet[0].predicted_finish["a"] = 5.0
    fleet[1].predicted_finish["b"] = 1.0
    assert policy.select(_candidates(0, 1, 2), fleet).device == 2
    # Restricted to the busy devices, the lighter one wins.
    assert policy.select(_candidates(0, 1), fleet).device == 1


def test_first_fit_takes_lowest_feasible_device():
    fleet = _fleet(3)
    fleet[0].predicted_finish["a"] = 99.0  # load is irrelevant
    policy = create_placement_policy(FIRST_FIT)
    assert policy.select(_candidates(0, 2), fleet).device == 0
    assert policy.select(_candidates(1, 2), fleet).device == 1


def test_round_robin_cycles_and_skips_infeasible_devices():
    fleet = _fleet(3)
    policy = create_placement_policy(ROUND_ROBIN)
    assert policy.select(_candidates(0, 1, 2), fleet).device == 0
    assert policy.select(_candidates(0, 1, 2), fleet).device == 1
    assert policy.select(_candidates(0, 1, 2), fleet).device == 2
    assert policy.select(_candidates(0, 1, 2), fleet).device == 0
    # Cursor at 1, but only device 0 fits: wraps around to it.
    assert policy.select(_candidates(0), fleet).device == 0
    # reset() rewinds the cursor (the scheduler calls it per run).
    policy.reset()
    assert policy.select(_candidates(0, 1, 2), fleet).device == 0


def test_round_robin_with_no_candidates_raises():
    policy = create_placement_policy(ROUND_ROBIN)
    with pytest.raises(InvalidConfigError):
        policy.select([], _fleet(2))


# ---------------------------------------------------------------------------
# Fleet
# ---------------------------------------------------------------------------
def test_fleet_needs_at_least_one_device():
    with pytest.raises(InvalidConfigError):
        DeviceFleet([])


def test_fleet_devices_have_private_arenas_and_ids():
    """Each device also gets its own engine the moment it joins."""
    fleet = DeviceFleet([4 * GB, 8 * GB])
    assert len(fleet) == 2
    assert [d.arena.device for d in fleet] == [0, 1]
    assert [d.engine.device for d in fleet] == [0, 1]
    assert fleet.add_device(GB).engine.device == 2
    assert fleet[1].capacity_bytes == 8 * GB
    fleet[0].arena.reserve("q", GB)
    assert fleet[0].free_bytes == 3 * GB
    assert fleet[1].free_bytes == 8 * GB  # untouched


@pytest.mark.parametrize("index", [-1, -2, True, 1.0, "1", 3])
def test_fleet_refuses_indices_that_name_no_device(index):
    """On three devices Python resolved -1 and -2 from the end of the
    list (devices 2 and 1) and ``True`` as device 1; ``1.0`` and ``"1"``
    raised a bare TypeError.  ``3``, one past the end, is caught by the
    same range check."""
    fleet = _fleet(3)
    with pytest.raises(InvalidConfigError, match="unknown device"):
        fleet.crash_device(index, 1.0)
    with pytest.raises(InvalidConfigError, match="unknown device"):
        fleet.retire_device(index)
    assert all(device.accepting for device in fleet)


def test_crashing_an_idle_device_seals_its_engine():
    """A device that never got work has an engine too, so a crash seals
    it against new work like any other."""
    fleet = _fleet(2)
    assert fleet.crash_device(1, 1.0) == []
    assert fleet[1].engine.is_crashed and fleet[1].schedule.tasks == {}
    with pytest.raises(SchedulingError, match="left the fleet"):
        fleet[1].engine.extend(fleet[1].schedule, LATE)
    assert not fleet[0].engine.is_crashed


def test_retiring_an_idle_device_seals_its_engine_at_once():
    """Nothing to drain: the retirement completes when requested, and
    the device's engine refuses new work."""
    fleet = _fleet(2)
    assert fleet.retire_device(1).retired
    assert fleet[1].engine.is_retired and not fleet[1].engine.is_crashed
    with pytest.raises(SchedulingError, match="left the fleet"):
        fleet[1].engine.extend(fleet[1].schedule, LATE)
    assert not fleet[0].engine.is_retired


def test_fleet_busy_until_reads_predicted_finishes():
    fleet = _fleet(2)
    assert fleet[0].busy_until() == 0.0
    fleet[0].predicted_finish["a"] = 2.5
    fleet[0].predicted_finish["b"] = 4.0
    assert fleet[0].busy_until() == 4.0


def test_merged_schedule_is_identity_for_one_device():
    report = QueryScheduler().run_online(mixed_workload(2))
    assert report.schedule is report.device_schedules[0]


def test_schedule_merged_unions_tasks_and_rejects_collisions():
    def one(name, device, finish):
        schedule = Schedule()
        task = Task(name=name, resource="gpu", duration=finish, device=device)
        schedule.tasks[name] = ScheduledTask(task, 0.0, finish)
        return schedule

    merged = Schedule.merged([one("a", 0, 1.0), one("b", 1, 3.0)])
    assert set(merged.tasks) == {"a", "b"}
    assert merged.makespan == 3.0
    assert merged.is_merged_view
    with pytest.raises(SchedulingError, match="more than one device"):
        Schedule.merged([one("a", 0, 1.0), one("a", 1, 2.0)])


def test_merged_view_keeps_the_devices_retired_history():
    """Compaction drops bookkeeping, not history, on a fleet too: the
    merged view sums the devices' retired tasks and keeps the latest
    retired finish, so its makespan is the run's."""
    report = QueryScheduler(devices=2).run_stream(
        stream_workload(200, seed=0), max_queue_depth=128, compact_every=1
    )
    merged = report.schedule
    assert merged.is_merged_view
    assert merged.retired_tasks == sum(
        schedule.retired_tasks for schedule in report.device_schedules
    ) > 0
    assert merged.makespan == report.makespan > 0.0


def test_extending_a_merged_view_is_refused():
    """A merged reporting view spans devices whose same-named resources
    are distinct physical queues — seeding an engine extension with it
    would silently interleave cross-device free times, so extend()
    must reject it loudly (a 2-device ServeReport.schedule is merged)."""
    report = QueryScheduler(devices=2).run_online(mixed_workload(4))
    assert report.schedule.is_merged_view
    engine = PipelineEngine()
    with pytest.raises(SchedulingError, match="merged reporting view"):
        engine.extend(
            report.schedule,
            Wave([Admission(PlanTemplate([Task("late", "gpu", 1.0)]))]),
        )
    # Per-device schedules (devices=1 reports) remain extendable views.
    single = QueryScheduler().run_online(mixed_workload(2))
    assert not single.schedule.is_merged_view


# ---------------------------------------------------------------------------
# Device-tagged tasks and engines
# ---------------------------------------------------------------------------
def test_engine_extend_rejects_misrouted_tasks_without_side_effects():
    engine = PipelineEngine(device=1)
    schedule = place(
        [Task(name="t0", resource="gpu", duration=1.0, device=1)], engine
    )
    template = PlanTemplate([Task(name="t1", resource="gpu", duration=1.0)])
    with pytest.raises(SchedulingError, match="device"):
        engine.extend(schedule, Wave([Admission(template, device=0)]))
    # The rejected wave rolled back: the engine is still extendable.
    assert set(schedule.tasks) == {"t0"}
    extended = engine.extend(schedule, Wave([Admission(template, device=1)]))
    assert extended.tasks["t1"].start == 1.0
    assert extended.tasks["t1"].task.device == 1


def test_engine_device_must_be_a_non_negative_int():
    # A device id indexes the fleet: a negative number, a fraction or a
    # bool is no id.
    for device in (-1, 0.5, True):
        with pytest.raises(SchedulingError, match="an int >= 0"):
            PipelineEngine(device=device)


# ---------------------------------------------------------------------------
# Scheduler integration
# ---------------------------------------------------------------------------
class _Answers(PlacementPolicy):
    """Answers every placement with ``answer(first candidate)``."""

    key = "answers"

    def __init__(self, answer):
        self.answer = answer

    def select(self, candidates, fleet):
        return self.answer(candidates[0])


@pytest.mark.parametrize(
    "answer",
    [
        lambda c: replace(c, device=-1),
        lambda c: replace(c, device=2),
        lambda c: replace(c, need_bytes=1),
        lambda c: replace(c, strategy="coprocessing"),
        lambda c: None,
    ],
    ids=["negative-device", "unknown-device", "one-byte", "other-strategy",
         "none"],
)
def test_placement_answer_must_be_one_of_its_candidates(answer):
    """A device of -1 placed queries on device 1 until its reservation
    failed; device 2 of a 2-device fleet raised a bare IndexError; a
    one-byte footprint served every query on one reserved byte and
    passed the run audit; another strategy ran every query as
    co-processing under the solo footprint."""
    scheduler = QueryScheduler(devices=2, placement=_Answers(answer))
    with pytest.raises(SchedulingError, match="placement policy 'answers'"):
        scheduler.run_online(mixed_workload(8))


def test_placement_answer_equal_to_a_candidate_is_accepted():
    """Candidates are compared by value: a policy may rebuild the one it
    picks.  Rebuilding the first candidate serves exactly as first-fit,
    which picks the lowest device index among them."""
    rebuilt = QueryScheduler(
        devices=2, placement=_Answers(lambda c: replace(c))
    ).run_online(mixed_workload(8))
    first_fit = QueryScheduler(devices=2, placement=FIRST_FIT).run_online(
        mixed_workload(8)
    )
    assert rebuilt.outcomes == first_fit.outcomes
    assert {o.device for o in rebuilt.outcomes} == {0, 1}


def test_scheduler_rejects_bad_device_count():
    with pytest.raises(InvalidConfigError):
        QueryScheduler(devices=0)


def test_sharded_report_carries_placements_and_peaks():
    report = QueryScheduler(devices=2).run_online(mixed_workload(8))
    assert report.devices == 2
    assert len(report.device_peak_bytes) == 2
    assert {o.device for o in report.outcomes} <= {0, 1}
    # Tasks in the merged schedule carry their query's device tag.
    for outcome in report.outcomes:
        for name, item in report.schedule.tasks.items():
            if name.startswith(f"{outcome.qid}:"):
                assert item.task.device == outcome.device


def test_sharded_render_includes_device_column():
    sharded = QueryScheduler(devices=2).run_online(mixed_workload(4))
    assert " dev " in sharded.render(per_query=True)
    single = QueryScheduler().run_online(mixed_workload(4))
    assert " dev " not in single.render(per_query=True)


def test_pinned_strategy_too_big_for_any_device_raises():
    from repro.serve.workload import M
    from repro.data.spec import unique_pair

    with pytest.raises(SchedulingError, match="never be admitted"):
        QueryScheduler(devices=2).run_online(
            [QueryRequest(qid="q0", spec=unique_pair(1024 * M),
                          strategy="gpu_resident")]
        )
