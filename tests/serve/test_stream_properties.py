"""Property-based differential suite for steady-state streaming.

Runs :meth:`~repro.serve.scheduler.QueryScheduler.run_stream` over 120
seeded randomized workloads (mixed placement regimes, batched and
staggered arrivals) and asserts, per seed and fleet size 1/2/3:

(a) **Streaming == online** — with shedding disabled, the compacted
    streaming run (most aggressive cadence, ``compact_every=1``) and
    the uncompacted one both reproduce
    :meth:`~repro.serve.scheduler.QueryScheduler.run_online`'s
    per-query admissions, strategies, reservations, placements, admit
    and finish times, final makespan and per-device memory peaks —
    bit for bit.  Compaction must be invisible in every outcome;
(b) **Arena accounting** — every device's arena stays within capacity
    and drains, in streaming mode exactly as in online mode (each run
    checks this itself, in its audit);
(c) **Accounting totality** — completed + shed == arrivals, always.

Separate tests pin (a) on a 400-arrival open-arrival stream at a
realistic compaction cadence, and the backpressure policy: shedding is
deterministic, the queue-depth cap is honoured (no recorded depth ever
exceeds it), per-query SLOs override the fleet default, and the
retained schedule stays bounded by in-flight work.
"""

import math

import pytest

from repro.errors import InvalidConfigError
from repro.serve import (
    QueryRequest,
    QueryScheduler,
    percentile,
    random_workload,
    stream_workload,
)
from repro.serve.workload import _resident, M

#: Seeds of the streaming differential — at least 100 by contract.
SEEDS = range(120)

#: Fleet sizes the differential checks sweep.
FLEETS = (1, 2, 3)


def _outcome_map(outcomes):
    return {
        o.qid: (o.device, o.strategy, o.reserved_bytes, o.admit_at,
                o.finish_at, o.solo_seconds)
        for o in outcomes
    }


@pytest.mark.parametrize("seed", SEEDS)
def test_stream_differential(seed):
    requests = random_workload(seed)
    for devices in FLEETS:
        online = QueryScheduler(devices=devices).run_online(requests)
        compacted = QueryScheduler(devices=devices).run_stream(
            iter(requests), compact_every=1
        )
        uncompacted = QueryScheduler(devices=devices).run_stream(
            iter(requests), compact_every=None
        )
        for stream in (compacted, uncompacted):
            # (c) totality: nothing shed, nothing lost.
            assert stream.shed == []
            assert stream.arrivals == len(requests)
            assert stream.completed + stream.shed_count == stream.arrivals
            # (a) identical outcomes, device assignments included.
            assert _outcome_map(stream.outcomes) == _outcome_map(
                online.outcomes
            )
            assert stream.makespan == online.makespan
            assert stream.device_peak_bytes == online.device_peak_bytes
        # Aggressive compaction actually retired work (whenever any
        # query finished before the last admission; with >= 2 queries
        # the final release always retires at the end-of-loop sweep),
        # so the equivalence above is not vacuous.
        assert compacted.retired_tasks > 0
        assert (
            compacted.peak_retained_tasks <= uncompacted.peak_retained_tasks
        )


@pytest.mark.parametrize("devices", [1, 2])
def test_compaction_is_invisible_on_a_long_stream(devices):
    """A mid-size open-arrival stream, long enough for many sweeps at a
    realistic cadence: compacting every 16 releases, never compacting
    and ``run_online`` agree on every outcome and the makespan."""
    requests = list(stream_workload(400, arrival_rate=120.0, seed=7))
    compacted = QueryScheduler(devices=devices).run_stream(
        iter(requests), compact_every=16
    )
    uncompacted = QueryScheduler(devices=devices).run_stream(
        iter(requests), compact_every=None
    )
    online = QueryScheduler(devices=devices).run_online(requests)
    assert compacted.shed == [] and uncompacted.shed == []
    expected = _outcome_map(online.outcomes)
    assert _outcome_map(compacted.outcomes) == expected
    assert _outcome_map(uncompacted.outcomes) == expected
    assert compacted.makespan == uncompacted.makespan == online.makespan
    assert compacted.retired_tasks > 0


def test_shedding_is_deterministic_and_accounted():
    def run():
        return QueryScheduler(devices=2).run_stream(
            stream_workload(600, arrival_rate=300.0, seed=3),
            max_queue_depth=16,
            slo_wait_seconds=1.0,
            compact_every=32,
        )

    first, second = run(), run()
    assert first.arrivals == 600
    assert first.completed + first.shed_count == 600
    assert first.shed_count > 0  # the limits actually engaged
    assert [tuple(vars(s).values()) for s in first.shed] == [
        tuple(vars(s).values()) for s in second.shed
    ]
    assert _outcome_map(first.outcomes) == _outcome_map(second.outcomes)
    assert first.makespan == second.makespan
    for item in first.shed:
        assert item.reason in ("queue_full", "slo_wait")
        if item.reason == "queue_full":
            assert item.queue_depth >= 16
        else:
            assert item.estimated_wait_seconds > 1.0


def test_queue_depth_cap_is_honoured():
    report = QueryScheduler().run_stream(
        stream_workload(400, arrival_rate=400.0, seed=5),
        max_queue_depth=8,
    )
    assert report.queue_depths, "every arrival samples the depth"
    assert len(report.queue_depths) == report.arrivals
    assert report.peak_queue_depth <= 8
    assert any(s.reason == "queue_full" for s in report.shed)


def test_per_query_slo_overrides_fleet_default():
    spec = _resident(32 * M)
    # Three identical queries arriving back-to-back: the first admits
    # onto an idle fleet; the later ones see a positive estimated wait.
    strict = [
        QueryRequest(qid=f"q{i}", spec=spec, submit_at=0.0,
                     slo_wait_seconds=0.0)
        for i in range(3)
    ]
    report = QueryScheduler().run_stream(
        iter(strict), slo_wait_seconds=1e9
    )
    # Per-query zero-wait SLO sheds despite the generous fleet default.
    assert report.completed >= 1
    assert report.shed_count >= 1
    assert all(s.reason == "slo_wait" for s in report.shed)

    lenient = [
        QueryRequest(qid=f"q{i}", spec=spec, submit_at=0.0,
                     slo_wait_seconds=1e9)
        for i in range(3)
    ]
    report = QueryScheduler().run_stream(iter(lenient), slo_wait_seconds=0.0)
    # Per-query generous SLO overrides the zero-wait fleet default.
    assert report.shed == []
    assert report.completed == 3


def test_retained_schedule_bounded_by_inflight_work():
    report = QueryScheduler(devices=2).run_stream(
        stream_workload(300, arrival_rate=150.0, seed=11),
        compact_every=8,
    )
    assert report.compactions > 0
    assert report.retired_tasks > 0
    assert report.max_tasks_per_query > 0
    assert report.peak_retained_tasks <= (
        report.peak_inflight_tasks + 8 * report.max_tasks_per_query
    )
    # Without compaction the same stream retains every task ever
    # scheduled — the O(total arrivals) growth compaction removes.
    unbounded = QueryScheduler(devices=2).run_stream(
        stream_workload(300, arrival_rate=150.0, seed=11),
        compact_every=None,
    )
    assert unbounded.peak_retained_tasks > report.peak_retained_tasks


def test_stream_validates_input():
    spec = _resident(4 * M)
    backwards = [
        QueryRequest(qid="a", spec=spec, submit_at=1.0),
        QueryRequest(qid="b", spec=spec, submit_at=0.5),
    ]
    with pytest.raises(InvalidConfigError, match="sorted"):
        QueryScheduler().run_stream(iter(backwards))
    dupes = [
        QueryRequest(qid="a", spec=spec, submit_at=0.0),
        QueryRequest(qid="a", spec=spec, submit_at=1.0),
    ]
    with pytest.raises(InvalidConfigError, match="unique"):
        QueryScheduler().run_stream(iter(dupes))
    with pytest.raises(InvalidConfigError, match="max_queue_depth"):
        QueryScheduler().run_stream(iter([]), max_queue_depth=0)
    with pytest.raises(InvalidConfigError, match="slo_wait_seconds"):
        QueryScheduler().run_stream(iter([]), slo_wait_seconds=-1.0)
    with pytest.raises(InvalidConfigError, match="compact_every"):
        QueryScheduler().run_stream(iter([]), compact_every=0)
    # Both limits are counts: a NaN cap never sheds and a NaN cadence
    # never compacts (and its retention audit passes, as `peak > nan`
    # is false), while True and 2.5 are typos for something else.
    for knob in ("max_queue_depth", "compact_every"):
        for value in (math.nan, True, 2.5):
            with pytest.raises(InvalidConfigError, match=knob):
                QueryScheduler().run_stream(iter([]), **{knob: value})
    with pytest.raises(InvalidConfigError, match="negative slo"):
        QueryRequest(qid="a", spec=spec, slo_wait_seconds=-0.1)
    # Non-finite inputs: NaN passes plain comparisons, and a NaN or
    # infinite arrival would silently end (or break) the run.
    for submit_at in (math.nan, math.inf):
        with pytest.raises(InvalidConfigError, match="submit_at"):
            QueryRequest(qid="a", spec=spec, submit_at=submit_at)
    with pytest.raises(InvalidConfigError, match="negative slo"):
        QueryRequest(qid="a", spec=spec, slo_wait_seconds=math.nan)
    with pytest.raises(InvalidConfigError, match="slo_wait_seconds"):
        QueryScheduler().run_stream(iter([]), slo_wait_seconds=math.nan)
    for knob in ("arrival_rate", "deadline_scale"):
        with pytest.raises(InvalidConfigError, match=knob):
            next(stream_workload(4, **{knob: math.nan}))
    # An infinite SLO stays legal: it never sheds.
    QueryRequest(qid="a", spec=spec, slo_wait_seconds=math.inf)


def test_empty_stream():
    report = QueryScheduler().run_stream(iter([]))
    assert report.arrivals == 0
    assert report.completed == 0
    assert report.shed == []
    assert report.makespan == 0.0
    assert report.sustained_qps == 0.0
    assert report.p99_latency == 0.0
    assert report.render()  # renders without crashing


def test_percentile_helper_matches_pinned_convention():
    """The shared helper reproduces the nearest-rank formula
    ``ServeReport.p95_latency`` has always used."""
    import math

    values = [5.0, 1.0, 4.0, 2.0, 3.0]
    for q in (0.0, 0.5, 0.95, 0.99, 1.0):
        ordered = sorted(values)
        rank = math.ceil(q * len(ordered)) - 1
        expected = ordered[max(0, min(len(ordered) - 1, rank))]
        assert percentile(values, q) == expected
    assert percentile([], 0.5) == 0.0
    assert percentile([7.0], 0.99) == 7.0


def test_percentile_empty_kwarg_reports_absence():
    """Report-level percentiles keep the historical 0.0-for-empty
    convention (pinned above); group-level stats pass ``empty=None`` so
    an empty class reports *no* latency instead of a fake 0.0 one."""
    assert percentile([], 0.5, empty=None) is None
    assert percentile([], 0.99, empty=0.0) == 0.0
    assert percentile([3.0], 0.5, empty=None) == 3.0


def test_empty_class_group_reports_na_not_zero():
    """A class whose every query was shed at deadline expiry has no
    completions: its latencies are None and render as ``n/a`` — not as
    an impossibly perfect 0.000 s."""
    from types import SimpleNamespace

    from repro.serve.report import _fmt_secs, _group_class_stats

    shed = [
        SimpleNamespace(reason="deadline_expired", class_name="batch"),
        SimpleNamespace(reason="queue_full", class_name="ignored"),
    ]
    stats = _group_class_stats([], "class_name", shed)
    assert set(stats) == {"batch"}  # queue_full sheds don't make groups
    group = stats["batch"]
    assert group.count == 0
    assert group.mean_latency is None
    assert group.p50_latency is None
    assert group.p99_latency is None
    assert group.deadline_miss_rate == 1.0  # expired sheds are misses
    assert _fmt_secs(group.p50_latency) == "n/a"
    assert _fmt_secs(1.5) == "1.500"
