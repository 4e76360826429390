"""Online admission (incremental schedule extension) vs batch mode.

``QueryScheduler.run_online`` places every admission wave with
``PipelineEngine.extend`` over the carried-over free times; re-running
each device's final task graph from scratch (the batch oracle,
:func:`~repro.pipeline.oracle.check_batch_oracle`) must reproduce every
task's start and finish **exactly**.  These tests pin that
equivalence on the mixed serving workload, batched and staggered, and
check the online mode's own determinism and arena accounting.
"""

import re
from dataclasses import replace

import pytest

from repro.bench.serve_bench import fingerprint as _fingerprint
from repro.bench.serve_bench import run_serve, verify_report
from repro.errors import SchedulingError
from repro.pipeline.engine import PipelineEngine
from repro.pipeline.oracle import check_batch_oracle
from repro.pipeline.tasks import ScheduledTask, Task
from repro.serve import QueryScheduler, mixed_workload, random_workload
from repro.serve.scheduler import _Run


def _assert_schedules_identical(left, right):
    assert set(left.schedule.tasks) == set(right.schedule.tasks)
    for name, expected in right.schedule.tasks.items():
        actual = left.schedule.tasks[name]
        assert (actual.start, actual.finish) == (
            expected.start, expected.finish
        ), name


@pytest.mark.parametrize("clients", [1, 4, 8])
def test_online_matches_batch_for_batched_arrivals(clients):
    online = QueryScheduler().run_online(mixed_workload(clients))
    assert check_batch_oracle(online) == len(online.schedule.tasks) > 0
    # The same batch sharded over two devices: each device's schedule
    # passes the oracle, and sharding never lengthens the makespan.
    sharded = QueryScheduler(devices=2).run_online(mixed_workload(clients))
    assert check_batch_oracle(sharded) == len(sharded.schedule.tasks)
    assert sharded.makespan <= online.makespan


@pytest.mark.parametrize("spacing", [0.05, 0.25, 1.0])
def test_online_matches_batch_for_staggered_arrivals(spacing):
    """Arrival-driven admission: every submit_at is its own wave."""
    online = QueryScheduler().run_online(
        mixed_workload(8, spacing_seconds=spacing)
    )
    assert check_batch_oracle(online) == len(online.schedule.tasks)


def test_online_matches_batch_under_eager_degradation():
    """max_degradation=None exercises the degrade-eagerly policy arm."""
    online = QueryScheduler(max_degradation=None).run_online(
        mixed_workload(8)
    )
    check_batch_oracle(online)


def test_batch_oracle_catches_a_moved_task():
    """The oracle is not vacuous: shifting one task of the incremental
    schedule makes it disagree with the re-simulation."""
    online = QueryScheduler().run_online(mixed_workload(4))
    (schedule,) = online.device_schedules
    name, item = next(reversed(schedule.tasks.items()))
    schedule.tasks[name] = ScheduledTask(
        item.task, item.start + 1.0, item.finish + 1.0
    )
    with pytest.raises(SchedulingError, match=re.escape(name)):
        check_batch_oracle(online)


def test_batch_oracle_catches_a_misrouted_task():
    """Nor is it blind to devices: a task tagged for another device than
    the schedule it was placed in fails it."""
    online = QueryScheduler().run_online(mixed_workload(4))
    (schedule,) = online.device_schedules
    name, item = next(iter(schedule.tasks.items()))
    schedule.tasks[name] = ScheduledTask(
        replace(item.task, device=1), item.start, item.finish
    )
    with pytest.raises(SchedulingError, match=re.escape(name) + ".*device 1"):
        check_batch_oracle(online)


def test_online_mode_is_deterministic():
    first = QueryScheduler().run_online(
        mixed_workload(8, spacing_seconds=0.1)
    )
    second = QueryScheduler().run_online(
        mixed_workload(8, spacing_seconds=0.1)
    )
    assert _fingerprint(first) == _fingerprint(second)
    assert first.makespan == second.makespan
    # Same admission order (admit times are part of the fingerprint)
    # and same wall-clock-independent simulated schedule.
    _assert_schedules_identical(first, second)


def test_online_serves_any_iterable_of_requests():
    """An iterator or a tuple of requests is served exactly like the
    list: reading the input once for the report's order used to exhaust
    an iterator, so nothing arrived and nothing was served."""
    requests = random_workload(0)
    expected = _fingerprint(QueryScheduler().run_online(requests))
    assert len(expected) == len(requests) > 0
    for given in (iter(requests), tuple(requests)):
        report = QueryScheduler().run_online(given)
        assert report.arrivals == len(requests)
        assert _fingerprint(report) == expected


def test_online_report_passes_serving_guarantees():
    report = QueryScheduler().run_online(mixed_workload(8))
    verify_report(report, clients=8, check_serial=True)
    assert report.peak_reserved_bytes <= report.capacity_bytes


def test_run_serve_online_checks_determinism_and_guarantees():
    report = run_serve(QueryScheduler(), mixed_workload(4), check_serial=True)
    assert len(report.outcomes) == 4
    assert report.makespan > 0
    sharded = run_serve(
        QueryScheduler(devices=2), mixed_workload(4), check_serial=True
    )
    assert len(sharded.outcomes) == 4
    assert sharded.devices == 2


def test_placed_tasks_are_built_only_when_read(monkeypatch):
    """Admission places each plan's template without building a Task
    per placed task; reading ``.task`` builds one equal, field for
    field, to the plan task namespaced under the query id, released at
    the admission clock and tagged with the device."""
    plans = {}
    prepare_plan = _Run._prepare_plan

    def admitting(self, key, request, *args, **kwargs):
        plan = prepare_plan(self, key, request, *args, **kwargs)
        plans[request.qid] = plan
        return plan

    monkeypatch.setattr(_Run, "_prepare_plan", admitting)
    report = QueryScheduler(devices=2).run_online(mixed_workload(16))

    schedules = report.device_schedules
    placed = [item for s in schedules for item in s.tasks.values()]
    # White-box: the slot stays empty until something reads ``.task``.
    assert placed and all(item._task is None for item in placed)
    expected_names = set()
    for outcome in report.outcomes:
        qid = outcome.qid
        for task in plans[qid].tasks:
            expected = Task(
                name=f"{qid}:{task.name}",
                resource=task.resource,
                duration=task.duration,
                deps=tuple(f"{qid}:{dep}" for dep in task.deps),
                phase=task.phase,
                available_at=outcome.admit_at,
                device=outcome.device,
            )
            assert schedules[outcome.device].tasks[expected.name].task == expected
            expected_names.add(expected.name)
    assert expected_names == {name for s in schedules for name in s.tasks}


def test_extension_lengths_count_the_placed_tasks(monkeypatch):
    """``len()`` of each wave handed to ``PipelineEngine.extend`` is its
    task count, so the lengths sum to the tasks in the device
    schedules — the count the benchmark's layer tracer reports."""
    lengths = []
    extend = PipelineEngine.extend

    def counted(self, schedule, new_tasks):
        lengths.append(len(new_tasks))
        return extend(self, schedule, new_tasks)

    monkeypatch.setattr(PipelineEngine, "extend", counted)
    report = QueryScheduler(devices=2).run_online(mixed_workload(16))
    assert len(lengths) > 2
    assert sum(lengths) == sum(len(s.tasks) for s in report.device_schedules)
