"""The run audit (:mod:`repro.serve.audit`).

Every run audits its own report before returning it, so the suites
that serve the golden seeds need no report checks of their own; the
first test pins that contract.  The rest tamper with one field of a
real report each and check that the audit's matching branch rejects
it.
"""

import dataclasses

import pytest

from repro.bench.serve_bench import verify_stream_report
from repro.data.spec import unique_pair
from repro.errors import FaultInvariantError
from repro.gpusim.arena import DeviceMemoryArena
from repro.serve import (
    FaultPlan,
    QueryRequest,
    QueryScheduler,
    check_fault_invariants,
    mixed_workload,
    stream_workload,
)

M = 1_000_000


def _audit(report, **kwargs):
    check_fault_invariants(
        report,
        FaultPlan(),
        arrivals=report.arrivals,
        max_retries=3,
        **kwargs,
    )


def _online(devices=1):
    report = QueryScheduler(devices=devices).run_online(mixed_workload(8))
    _audit(report)  # untampered, it passes
    return report


@pytest.mark.parametrize("faulted", [False, True], ids=["plain", "faulted"])
@pytest.mark.parametrize("entry", ["run_online", "run_stream"])
def test_every_run_audits_itself(entry, faulted, monkeypatch):
    """A reservation that outlives its query fails the run that leaked
    it: both entry points, with and without a fault plan, raise from
    inside the run instead of returning a report."""

    def leaky_release(self, owner, *, at=0.0):
        return self.reservations[owner].nbytes

    monkeypatch.setattr(DeviceMemoryArena, "release", leaky_release)
    requests = [QueryRequest(f"q{i}", unique_pair(M)) for i in range(3)]
    faults = FaultPlan(admission_failures={"q0": 1}) if faulted else None
    run = getattr(QueryScheduler(), entry)
    with pytest.raises(FaultInvariantError, match="still holds"):
        run(iter(requests), faults=faults)


def test_audit_rejects_a_qid_that_ends_twice():
    """Counting outcomes is not enough: eight ends over seven distinct
    qids lose one arrival and double-count another."""
    report = _online()
    report.outcomes[1] = report.outcomes[0]
    with pytest.raises(FaultInvariantError, match="conservation"):
        _audit(report)


def test_audit_rejects_lost_arrivals():
    report = QueryScheduler().run_stream(
        stream_workload(100, arrival_rate=250.0),
        max_queue_depth=16,
        compact_every=16,
    )
    report.arrivals += 1
    with pytest.raises(FaultInvariantError, match="conservation"):
        _audit(report, compact_every=16)


def test_audit_rejects_an_arena_count_that_does_not_match_the_devices():
    report = _online(devices=2)
    report.arenas.pop()
    with pytest.raises(FaultInvariantError, match="1 arenas for 2 devices"):
        _audit(report)


def test_audit_rejects_a_peak_over_capacity():
    report = _online()
    report.device_peak_bytes = (report.device_capacity_bytes[0] + 1,)
    with pytest.raises(FaultInvariantError, match="over its capacity"):
        _audit(report)


def test_audit_rejects_a_timeline_not_back_at_zero():
    report = _online()
    (arena,) = report.arenas
    arena.timeline.append((arena.timeline[-1][0], 1))
    with pytest.raises(FaultInvariantError, match="timeline ends at 1"):
        _audit(report)


def test_audit_rejects_failure_attempts_over_budget():
    report = QueryScheduler(max_retries=2).run_online(
        mixed_workload(2), faults=FaultPlan(admission_failures={"q000": 5})
    )
    (failure,) = report.failed
    assert failure.attempts == 2
    report.failed[0] = dataclasses.replace(failure, attempts=3)
    with pytest.raises(FaultInvariantError, match="3 attempts, over"):
        check_fault_invariants(
            report, FaultPlan(), arrivals=2, max_retries=2
        )


def test_audit_rejects_unbounded_retention():
    """The retention bound holds only while compaction is on; the bench
    harness's ``verify_stream_report`` runs the same check."""
    report = QueryScheduler().run_stream(
        stream_workload(100, arrival_rate=250.0),
        max_queue_depth=16,
        compact_every=16,
    )
    assert report.compactions > 0
    report.peak_retained_tasks = 10**9
    with pytest.raises(FaultInvariantError, match="not bounded"):
        _audit(report, compact_every=16)
    with pytest.raises(FaultInvariantError, match="not bounded"):
        verify_stream_report(report, compact_every=16)
    _audit(report)  # compaction off: no bound to hold
