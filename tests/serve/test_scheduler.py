"""Admission-controlled multi-query scheduling."""

import pytest

from repro.core import estimate_cache
from repro.core.streaming import StreamingProbeJoin
from repro.core.strategy import GPU_RESIDENT, STREAMING, strategy_factory
from repro.data.spec import unique_pair
from repro.errors import InvalidConfigError, ReproError, SchedulingError
from repro.bench.serve_bench import fingerprint as _fingerprint
from repro.serve import QueryRequest, QueryScheduler, mixed_workload
from repro.serve.workload import M


def test_empty_batch():
    report = QueryScheduler().run_online([])
    assert report.outcomes == []
    assert report.makespan == 0.0


def test_single_query_matches_solo_estimate():
    report = QueryScheduler().run_online(
        [QueryRequest(qid="q0", spec=unique_pair(16 * M))]
    )
    (outcome,) = report.outcomes
    assert outcome.strategy == GPU_RESIDENT
    assert not outcome.degraded
    assert report.makespan == pytest.approx(outcome.solo_seconds, rel=1e-12)


@pytest.mark.parametrize(
    "kwargs, match",
    [
        (dict(lanes={"h2d": 0}), r"lanes\['h2d'\]"),
        (dict(lanes={"h2d": -2}), r"lanes\['h2d'\]"),
        (dict(lanes={"h2d": 1.5}), r"lanes\['h2d'\]"),
        (dict(lanes={"gpu": True}), r"lanes\['gpu'\]"),
        (dict(device_calibrations=["fast"]), r"device_calibrations\[0\]"),
        (
            dict(devices=2, device_calibrations=[None, "slow"]),
            r"device_calibrations\[1\]",
        ),
        (dict(max_degradation=float("nan")), "max_degradation"),
        (dict(retry_backoff_seconds=float("nan")), "retry_backoff_seconds"),
    ],
    ids=[
        "lanes-zero", "lanes-negative", "lanes-float", "lanes-bool",
        "calibration-name", "calibration-name-second-device",
        "max-degradation-nan", "retry-backoff-nan",
    ],
)
def test_constructor_rejects_invalid_inputs(kwargs, match):
    """Every input the constructor accepts must be usable: a zero or
    fractional lane width, a calibration given by name and a NaN bound
    each used to pass construction and then fail (or, for NaN
    ``max_degradation``, silently drop the degradation bound) mid-run."""
    with pytest.raises(InvalidConfigError, match=match):
        QueryScheduler(**kwargs)


def test_duplicate_ids_rejected():
    spec = unique_pair(16 * M)
    with pytest.raises(InvalidConfigError):
        QueryScheduler().run_online(
            [QueryRequest(qid="q", spec=spec), QueryRequest(qid="q", spec=spec)]
        )


def test_impossible_query_raises():
    # Pinned to GPU-resident at a size that can never fit the device.
    with pytest.raises(SchedulingError):
        QueryScheduler().run_online(
            [
                QueryRequest(
                    qid="q0", spec=unique_pair(1024 * M), strategy=GPU_RESIDENT
                )
            ]
        )


def test_mid_ladder_failure_surfaces_as_the_library_error(monkeypatch):
    """Admission sizes every request's offers on the planner ladder; a
    rung whose footprint raises (a buggy strategy, a bad calibration)
    must fail the run with that error, not hang it or let it finish on
    the remaining rungs."""
    estimate_cache.clear()  # drop memoized ladder walks from other tests

    def explode(cls, spec, system):
        raise SchedulingError("streaming rung exploded mid-ladder")

    monkeypatch.setattr(
        StreamingProbeJoin, "device_bytes_needed", classmethod(explode)
    )
    try:
        with pytest.raises(ReproError, match="mid-ladder"):
            QueryScheduler().run_online(mixed_workload(2))
    finally:
        estimate_cache.clear()  # don't leak poisoned ladder entries


def test_admission_degrades_strategy_under_pressure():
    """Two queries that are GPU-resident alone cannot both hold their
    resident working sets; the second degrades to streaming."""
    scheduler = QueryScheduler(max_degradation=None)
    spec = unique_pair(96 * M)
    resident_need = strategy_factory(GPU_RESIDENT).device_bytes_needed(
        spec, scheduler.system
    )
    streaming_need = strategy_factory(STREAMING).device_bytes_needed(
        spec, scheduler.system
    )
    capacity = scheduler.system.gpu.device_memory
    assert resident_need <= capacity < 2 * resident_need
    assert resident_need + streaming_need <= capacity

    report = scheduler.run_online(
        [
            QueryRequest(qid="q0", spec=spec),
            QueryRequest(qid="q1", spec=spec),
        ]
    )
    first, second = report.outcomes
    assert first.strategy == GPU_RESIDENT and not first.degraded
    assert second.strategy == STREAMING
    assert second.degraded and second.solo_strategy == GPU_RESIDENT
    assert second.admit_at == 0.0  # co-resident, not queued


def test_bounded_degradation_waits_instead():
    """With a tight degradation bound the second query queues for the
    first one's memory instead of taking a much slower placement."""
    spec = unique_pair(96 * M)
    report = QueryScheduler(max_degradation=1.0).run_online(
        [
            QueryRequest(qid="q0", spec=spec),
            QueryRequest(qid="q1", spec=spec),
        ]
    )
    first, second = report.outcomes
    assert not second.degraded
    assert second.strategy == GPU_RESIDENT
    assert second.admit_at == pytest.approx(first.finish_at)
    assert second.wait_seconds > 0


def test_arena_accounting_never_exceeds_device_memory():
    report = QueryScheduler().run_online(mixed_workload(12, scale=0.5))
    assert 0 < report.peak_reserved_bytes <= report.capacity_bytes


def test_concurrent_beats_serial_on_mixed_workload():
    report = QueryScheduler().run_online(mixed_workload(8))
    assert report.makespan < report.serial_seconds
    assert report.speedup > 1.0


def test_schedule_is_deterministic():
    a = QueryScheduler().run_online(mixed_workload(10, scale=0.5))
    b = QueryScheduler().run_online(mixed_workload(10, scale=0.5))
    assert _fingerprint(a) == _fingerprint(b)


def test_tasks_respect_admission_release_times():
    """No task of a query may start before the query was admitted."""
    report = QueryScheduler().run_online(mixed_workload(8, scale=0.5))
    for outcome in report.outcomes:
        starts = [
            item.start
            for name, item in report.schedule.tasks.items()
            if name.startswith(f"{outcome.qid}:")
        ]
        assert starts and min(starts) >= outcome.admit_at
        assert outcome.finish_at == pytest.approx(
            max(
                item.finish
                for name, item in report.schedule.tasks.items()
                if name.startswith(f"{outcome.qid}:")
            )
        )


def test_staggered_submissions_respected():
    requests = mixed_workload(4, scale=0.25, spacing_seconds=0.5)
    report = QueryScheduler().run_online(requests)
    for request, outcome in zip(requests, report.outcomes):
        assert outcome.submit_at == request.submit_at
        assert outcome.admit_at >= request.submit_at
        assert outcome.latency_seconds >= 0


def test_report_renders_summary():
    report = QueryScheduler().run_online(mixed_workload(4, scale=0.25))
    text = report.render(per_query=True)
    assert "makespan" in text
    assert "q000" in text
