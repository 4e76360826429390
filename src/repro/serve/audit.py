"""The run audit: every run-level invariant of a serving run, in one place.

:meth:`~repro.serve.scheduler._Run._report` audits every run's
:class:`~repro.serve.report.ServeReport` once, with
:func:`check_fault_invariants`, faulted or not, online or streaming.  A
violation raises :class:`~repro.errors.FaultInvariantError` instead of
returning a plausible-looking report, so nothing downstream re-checks a
report a run returned.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.errors import FaultInvariantError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from repro.serve.faults import FaultPlan
    from repro.serve.report import ServeReport


def check_fault_invariants(
    report: "ServeReport",
    plan: "FaultPlan",
    *,
    arrivals: int,
    max_retries: int,
    compact_every: int | None = None,
) -> None:
    """Audit a run's report; raise
    :class:`~repro.errors.FaultInvariantError` on any violation.

    ``plan`` is the run's fault plan (``FaultPlan()`` for a fault-free
    run), ``max_retries`` the scheduler's retry budget and
    ``compact_every`` the run's compaction cadence (``None`` when
    compaction is off, as in every ``run_online``).  Six checks:

    * **conservation** — every arrival is exactly one of completed,
      shed or failed: the three lists hold ``arrivals`` entries, with
      distinct qids;
    * **arenas** — one arena per device, every device's peak within its
      capacity, and every ledger passes
      :meth:`~repro.gpusim.arena.DeviceMemoryArena.check_invariants`,
      holds no reservation (crash reconciliation returned every grant)
      and its timeline ends at 0 used bytes;
    * **crash-time safety** — no completed query was admitted on a
      crashed device at/after its crash, none finished there after it,
      and no surviving task on a crashed device finishes past the
      crash;
    * **retry budgets** — no outcome records more retries than
      ``max_retries`` and no failure more attempts than that;
    * **deadline bits** — no outcome finishes after its hard deadline
      (``deadline_at``, from its
      :class:`~repro.serve.admission.QueryClass`) unless it is recorded
      as a miss (``deadline_missed``), and nothing is recorded as a
      miss that finished in time;
    * **retention** — when compaction is on, :func:`check_retention`.
    """
    completed, shed, failed = report.outcomes, report.shed, report.failed
    ends = len(completed) + len(shed) + len(failed)
    qids = {item.qid for group in (completed, shed, failed) for item in group}
    if ends != arrivals or len(qids) != ends:
        raise FaultInvariantError(
            f"conservation violated: {len(completed)} completed + "
            f"{len(shed)} shed + {len(failed)} failed (over {len(qids)} "
            f"distinct qids) for {arrivals} arrivals"
        )
    if len(report.arenas) != report.devices:
        raise FaultInvariantError(
            f"{len(report.arenas)} arenas for {report.devices} devices"
        )
    for arena, peak, capacity in zip(
        report.arenas, report.device_peak_bytes, report.device_capacity_bytes
    ):
        if peak > capacity:
            raise FaultInvariantError(
                f"device {arena.device} peaked at {peak} bytes, over its "
                f"capacity of {capacity}"
            )
        arena.check_invariants()
        if not arena.drained:
            raise FaultInvariantError(
                f"device {arena.device} arena still holds "
                f"{sorted(arena.reservations)} after the run"
            )
        if arena.timeline and arena.timeline[-1][1] != 0:
            raise FaultInvariantError(
                f"device {arena.device} arena timeline ends at "
                f"{arena.timeline[-1][1]} used bytes, not 0"
            )
    crash_at = {crash.device: crash.at for crash in plan.crashes}
    for outcome in completed:
        crashed = crash_at.get(outcome.device)
        if crashed is not None:
            if outcome.admit_at >= crashed:
                raise FaultInvariantError(
                    f"{outcome.qid!r} was admitted on device "
                    f"{outcome.device} at t={outcome.admit_at}, at or "
                    f"after its crash at t={crashed}"
                )
            if outcome.finish_at > crashed:
                raise FaultInvariantError(
                    f"{outcome.qid!r} completed on crashed device "
                    f"{outcome.device} at t={outcome.finish_at}, after "
                    f"the crash at t={crashed}"
                )
        if outcome.retries > max_retries:
            raise FaultInvariantError(
                f"{outcome.qid!r} recorded {outcome.retries} retries, "
                f"over the budget of {max_retries}"
            )
        deadline_at, missed = outcome.deadline_at, outcome.deadline_missed
        if outcome.finish_at > deadline_at and not missed:
            raise FaultInvariantError(
                f"{outcome.qid!r} finished at t={outcome.finish_at}, "
                f"past its hard deadline t={deadline_at}, but was not "
                "recorded as a deadline miss"
            )
        if missed and outcome.finish_at <= deadline_at:
            raise FaultInvariantError(
                f"{outcome.qid!r} is recorded as a deadline miss but "
                f"finished at t={outcome.finish_at}, within its "
                f"deadline t={deadline_at}"
            )
    for failure in failed:
        if failure.attempts > max_retries:
            raise FaultInvariantError(
                f"failed query {failure.qid!r} records "
                f"{failure.attempts} attempts, over the budget of "
                f"{max_retries}"
            )
    # Only a crash can fail this check, so crash-free audits skip
    # building the merged view (O(tasks), on every run).
    if crash_at:
        for name, item in report.schedule.tasks.items():
            crashed = crash_at.get(item.task.device)
            if crashed is not None and item.finish > crashed:
                raise FaultInvariantError(
                    f"task {name!r} on crashed device "
                    f"{item.task.device} finishes at t={item.finish}, "
                    f"after the crash at t={crashed}"
                )
    check_retention(report, compact_every)


def check_retention(report: "ServeReport", compact_every: int | None) -> None:
    """The compaction guarantee, when compaction is on: at most
    ``compact_every - 1`` released-but-unretired queries of at most
    ``max_tasks_per_query`` tasks each sit between sweeps, so the peak
    retained schedule stays within ``peak_inflight_tasks +
    compact_every * max_tasks_per_query``."""
    if compact_every is None:
        return
    bound = (
        report.peak_inflight_tasks
        + compact_every * report.max_tasks_per_query
    )
    if report.peak_retained_tasks > bound:
        raise FaultInvariantError(
            f"retained schedule not bounded by in-flight work: peak "
            f"{report.peak_retained_tasks} tasks > "
            f"{report.peak_inflight_tasks} in-flight + "
            f"{compact_every} x {report.max_tasks_per_query} per query "
            f"= {bound}"
        )
