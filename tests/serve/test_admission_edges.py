"""Adversarial unit tests for the admission-policy registry.

Edge cases the property suite's random sweeps cannot pin precisely:
deterministic tie-breaks on equal deadlines, EDF's heap against a
per-entry oracle over random queue entries and exits, the weighted-fair
starvation bound, empty/singleton queues, a policy raising, lying or
writing through its view of the queue mid-pop, service-class
validation, and per-class attribution of ``deadline_expired`` sheds.
"""

import dataclasses
import math
import pickle
from types import MappingProxyType

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bench.serve_bench import fingerprint
from repro.data import unique_pair
from repro.errors import (
    FaultInvariantError,
    InvalidConfigError,
    SchedulingError,
)
from repro.serve import (
    DEADLINE_CLASSES,
    FaultPlan,
    QueryClass,
    QueryRequest,
    QueryScheduler,
    check_fault_invariants,
    create_admission_policy,
    mixed_workload,
    registered_admission_policies,
    stream_workload,
)
from repro.serve.admission import (
    AdmissionContext,
    AdmissionPolicy,
    EdfAdmission,
    FifoAdmission,
    SjfAdmission,
    WeightedFairAdmission,
)

M = 1_000_000


def _request(qid, *, tenant="default", priority=0, deadline=None, at=0.0):
    return QueryRequest(
        qid=qid,
        spec=unique_pair(8 * M),
        submit_at=at,
        query_class=QueryClass(
            name=f"class-{tenant}",
            tenant=tenant,
            priority=priority,
            deadline_seconds=deadline,
        ),
    )


def _ctx(clock=0.0):
    return AdmissionContext(clock=clock, solo_seconds=lambda r: 1.0)


def _select(policy, requests):
    """``policy``'s pick from a fresh wait queue of ``requests``, each
    entering it in order, as the scheduler feeds it: one
    ``record_enqueue`` per entry, then ``select`` on a read-only view."""
    policy.reset()
    queue = {}
    for request in requests:
        queue[request.qid] = request
        policy.record_enqueue(request)
    return policy.select(MappingProxyType(queue), _ctx())


# ---------------------------------------------------------------------------
# Tie-breaks and singletons
# ---------------------------------------------------------------------------
def test_equal_deadlines_tie_break_deterministically_by_qid():
    # Same class, same submit time -> identical hard deadlines; the
    # winner must be the smallest qid regardless of queue position.
    queue = [
        _request("q2", deadline=5.0),
        _request("q0", deadline=5.0),
        _request("q1", deadline=5.0),
    ]
    assert _select(EdfAdmission(), queue) == "q0"
    # Equal solo estimates tie-break the same way under SJF.
    assert _select(SjfAdmission(), queue) == "q0"


def test_no_deadline_sorts_last_under_edf():
    queue = [
        _request("q0", deadline=None),
        _request("q1", deadline=9.0),
    ]
    assert _select(EdfAdmission(), queue) == "q1"


def test_every_policy_picks_the_singleton():
    queue = [_request("q0", deadline=1.0)]
    for key in registered_admission_policies():
        assert _select(create_admission_policy(key), queue) == "q0"


def test_empty_workload_is_fine_under_every_policy():
    for key in registered_admission_policies():
        report = QueryScheduler(admission=key).run_online([])
        assert report.outcomes == []
        assert report.deadline_miss_rate == 0.0


def test_unknown_policy_rejected_eagerly_and_instances_pass_through():
    with pytest.raises(InvalidConfigError, match="fifo"):
        QueryScheduler(admission="lifo")
    with pytest.raises(InvalidConfigError, match="lifo"):
        create_admission_policy("lifo")
    policy = FifoAdmission()
    assert create_admission_policy(policy) is policy


# ---------------------------------------------------------------------------
# EDF's cached rank keys
# ---------------------------------------------------------------------------
def _oracle_deadline(request):
    """The hard deadline as EDF computed it per entry before requests
    carried ``deadline_at``."""
    qc = request.query_class
    if qc is None or qc.deadline_seconds is None:
        return math.inf
    return request.submit_at + qc.deadline_seconds


#: Few distinct submit times and deadlines, so equal finite deadlines
#: (0.5 + 1.0 == 1.0 + 0.5) and ``inf`` ties are common, as they are on
#: the recovery stream, where most picks tie at ``inf``.
_QUEUE_ENTRY = st.tuples(
    st.sampled_from([0.0, 0.5, 1.0, 1.25]),
    st.one_of(
        st.none(),
        st.just("unclassed"),
        st.sampled_from([0.5, 1.0, 2.0]),
        st.floats(min_value=0.01, max_value=4.0),
    ),
)


#: One step on a wait queue: enter at the back or the front (a request
#: not queued now, fresh or one that left), leave (any queued request),
#: or pick; the number chooses the request.
_QUEUE_STEP = st.tuples(
    st.sampled_from(["back", "front", "leave", "select"]),
    st.integers(min_value=0, max_value=1 << 16),
)


@settings(max_examples=300, deadline=None)
@given(
    entries=st.lists(_QUEUE_ENTRY, min_size=1, max_size=40),
    steps=st.lists(_QUEUE_STEP, max_size=120),
    order=st.randoms(use_true_random=False),
)
def test_edf_select_matches_the_per_entry_key_oracle(entries, steps, order):
    """One ``EdfAdmission`` fed a random sequence of queue entries and
    exits, as the scheduler feeds it, picks the queued request with the
    minimal ``(deadline, qid)`` at every step."""
    qids = [f"q{n}" for n in range(len(entries))]
    order.shuffle(qids)  # "q10" < "q9": qid order is string order
    pool = [
        QueryRequest(qid=qid, spec=unique_pair(8 * M), submit_at=at)
        if deadline == "unclassed"
        else _request(qid, deadline=deadline, at=at)
        for qid, (at, deadline) in zip(qids, entries)
    ]
    policy = EdfAdmission()
    policy.reset()
    queue = {}
    view = MappingProxyType(queue)
    for action, pick in steps + [("select", 0)]:
        if action in ("back", "front"):
            waiting = [r for r in pool if r.qid not in queue]
            if not waiting:
                continue
            request = waiting[pick % len(waiting)]
            if action == "front":
                behind = list(queue.values())
                queue.clear()
                queue[request.qid] = request
                queue.update((r.qid, r) for r in behind)
            else:
                queue[request.qid] = request
            policy.record_enqueue(request)
        elif action == "leave":
            if queue:
                del queue[list(queue)[pick % len(queue)]]
        elif queue:
            oracle = min(
                queue.values(),
                key=lambda r: (_oracle_deadline(r), r.qid),
            )
            assert policy.select(view, _ctx()) == oracle.qid


def test_cached_rank_keys_stay_outside_the_dataclass_contract():
    request = _request("q7", deadline=2.0, at=1.5)
    assert request.deadline_at == 3.5
    assert request.edf_key == (3.5, "q7")
    names = [item.name for item in dataclasses.fields(QueryRequest)]
    assert "deadline_at" not in names and "edf_key" not in names
    values = [getattr(request, name) for name in names]
    assert repr(request) == "QueryRequest(" + ", ".join(
        f"{name}={value!r}" for name, value in zip(names, values)
    ) + ")"
    assert hash(request) == hash(tuple(values))
    assert list(dataclasses.asdict(request)) == names
    # Equality reads the fields only, even against a forged key.
    twin = _request("q7", deadline=2.0, at=1.5)
    object.__setattr__(twin, "edf_key", (0.0, "q0"))
    assert twin == request and hash(twin) == hash(request)

    moved = dataclasses.replace(request, submit_at=2.0)
    assert moved.edf_key == (4.0, "q7") and moved.deadline_at == 4.0
    renamed = dataclasses.replace(request, qid="q8")
    assert renamed.edf_key == (3.5, "q8")
    unclassed = dataclasses.replace(request, query_class=None)
    assert unclassed.edf_key == (math.inf, "q7")
    assert unclassed.deadline_at == math.inf

    restored = pickle.loads(pickle.dumps(request))
    assert restored == request
    assert restored.edf_key == (3.5, "q7") and restored.deadline_at == 3.5


# ---------------------------------------------------------------------------
# Weighted-fair starvation bound
# ---------------------------------------------------------------------------
class _RecordingWeightedFair(WeightedFairAdmission):
    key = "recording_weighted_fair"

    def __init__(self):
        super().__init__()
        self.admitted = []

    def record_admit(self, request, ctx):
        self.admitted.append(request)
        super().record_admit(request, ctx)


def test_weighted_fair_serves_a_flooded_out_tenant_within_one_round():
    # Nine tenant-a queries arrive ahead of one tenant-b query, all at
    # t=0.  FIFO would serve b tenth; weighted fair must serve b by the
    # second admission (one admission per active tenant per round).
    requests = [_request(f"a{i}", tenant="a") for i in range(9)]
    requests.append(_request("b0", tenant="b"))
    policy = _RecordingWeightedFair()
    QueryScheduler(admission=policy).run_online(requests)
    order = [r.qid for r in policy.admitted]
    assert sorted(order) == sorted(r.qid for r in requests)
    assert order.index("b0") <= 1


def test_weighted_fair_round_gap_never_exceeds_active_tenant_count():
    # Three equal-weight tenants with equal-size queries, grouped by
    # tenant in arrival order: while a tenant has queued work it is
    # served at least once every three admissions.
    requests = [
        _request(f"{tenant}{i}", tenant=tenant)
        for tenant in ("a", "b", "c")
        for i in range(4)
    ]
    policy = _RecordingWeightedFair()
    QueryScheduler(admission=policy).run_online(requests)
    served = [r.query_class.tenant for r in policy.admitted]
    assert len(served) == len(requests)
    last_seen = {}
    for pos, tenant in enumerate(served):
        if tenant in last_seen:
            assert pos - last_seen[tenant] <= 3, served
        else:
            assert pos < 3, served
        last_seen[tenant] = pos


def test_weighted_fair_priority_weights_shift_the_share():
    # Tenant "hot" (weight 4) pays a quarter of the charge per
    # admission, so its queries front-load the admit order.
    requests = [
        _request(f"h{i}", tenant="hot", priority=4) for i in range(4)
    ] + [_request(f"c{i}", tenant="cold", priority=1) for i in range(4)]
    policy = _RecordingWeightedFair()
    QueryScheduler(admission=policy).run_online(requests)
    order = [r.query_class.tenant for r in policy.admitted]
    hot_positions = [i for i, t in enumerate(order) if t == "hot"]
    cold_positions = [i for i, t in enumerate(order) if t == "cold"]
    assert sum(hot_positions) < sum(cold_positions)


# ---------------------------------------------------------------------------
# Policies that raise or lie mid-pop
# ---------------------------------------------------------------------------
class _BoomPolicy(AdmissionPolicy):
    key = "boom"

    def __init__(self, *, after):
        self.after = after
        self.calls = 0

    def select(self, queue, ctx):
        self.calls += 1
        if self.calls > self.after:
            raise RuntimeError("boom")
        return next(iter(queue))


class _LyingPolicy(AdmissionPolicy):
    key = "liar"

    def __init__(self, verdict):
        self.verdict = verdict

    def select(self, queue, ctx):
        return self.verdict


class _WritingPolicy(AdmissionPolicy):
    key = "writer"

    def __init__(self, write):
        self.write = write

    def select(self, queue, ctx):
        self.write(queue)
        return next(iter(queue))


def test_policy_exception_mid_pop_propagates_and_books_stay_consistent():
    requests = mixed_workload(8)
    scheduler = QueryScheduler(admission=_BoomPolicy(after=2))
    with pytest.raises(RuntimeError, match="boom"):
        scheduler.run_online(requests)
    # The scheduler instance (and its solo-estimate cache, warmed by
    # the aborted run) must still produce the untouched FIFO schedule.
    scheduler.admission = "fifo"
    recovered = scheduler.run_online(requests)
    pristine = QueryScheduler().run_online(mixed_workload(8))
    assert fingerprint(recovered) == fingerprint(pristine)
    assert recovered.makespan == pristine.makespan


# 0 is the head's index under a select contract that answered
# positions; "q000" is admitted at the first pick, so the second pick
# names a qid that already left; "q999" never arrives.
@pytest.mark.parametrize(
    "verdict",
    [-1, 99, True, "0", None, 1.0, pytest.param(0, id="int0"), "q000",
     "q999"],
)
def test_out_of_range_or_mistyped_selection_raises_naming_the_policy(verdict):
    scheduler = QueryScheduler(admission=_LyingPolicy(verdict))
    with pytest.raises(SchedulingError, match="liar"):
        scheduler.run_online(mixed_workload(4))


def _assign(queue):
    queue["q999"] = None


def _delete(queue):
    del queue[next(iter(queue))]


@pytest.mark.parametrize("write", [_assign, _delete])
def test_a_policy_cannot_write_through_its_view_of_the_queue(write):
    with pytest.raises(TypeError, match="mappingproxy"):
        QueryScheduler(admission=_WritingPolicy(write)).run_online(
            mixed_workload(4)
        )


def test_streaming_policy_exception_propagates_too():
    with pytest.raises(RuntimeError, match="boom"):
        QueryScheduler(admission=_BoomPolicy(after=1)).run_stream(
            iter(mixed_workload(8))
        )


# ---------------------------------------------------------------------------
# Service-class validation
# ---------------------------------------------------------------------------
def test_query_class_validation_errors():
    with pytest.raises(InvalidConfigError, match="name"):
        QueryClass(name="")
    with pytest.raises(InvalidConfigError, match="tenant"):
        QueryClass(name="x", tenant="")
    with pytest.raises(InvalidConfigError, match="priority"):
        QueryClass(name="x", priority=-1)
    with pytest.raises(InvalidConfigError, match="deadline"):
        QueryClass(name="x", deadline_seconds=0.0)
    with pytest.raises(InvalidConfigError, match="max_degradation"):
        QueryClass(name="x", max_degradation=0.5)
    # NaN passes plain comparisons: a NaN deadline would count every
    # query as deadline-bearing and none as missed, and a NaN bound
    # would switch the degrade-vs-wait bound off for the class.
    with pytest.raises(InvalidConfigError, match="deadline"):
        QueryClass(name="x", deadline_seconds=math.nan)
    with pytest.raises(InvalidConfigError, match="max_degradation"):
        QueryClass(name="x", max_degradation=math.nan)
    with pytest.raises(InvalidConfigError, match="query_class"):
        QueryRequest(qid="q", spec=unique_pair(M), query_class="gold")


def test_weight_floors_priority_at_one():
    assert QueryClass(name="x", priority=0).weight == 1
    assert QueryClass(name="x", priority=7).weight == 7


# ---------------------------------------------------------------------------
# deadline_expired sheds: verdict and per-class attribution
# ---------------------------------------------------------------------------
def test_deadline_expired_sheds_are_attributed_per_class():
    report = QueryScheduler(devices=1).run_stream(
        stream_workload(
            1200, seed=3, classes=DEADLINE_CLASSES, deadline_scale=0.05
        ),
        max_queue_depth=256,
    )
    expired = [s for s in report.shed if s.reason == "deadline_expired"]
    assert expired, "expected deadline expiry under 0.05x deadlines"
    # The verdict is distinct from slo_wait and carries the class and
    # tenant the query was submitted under.
    deadline_names = {
        c.name for c in DEADLINE_CLASSES if c.deadline_seconds is not None
    }
    for item in expired:
        assert item.class_name in deadline_names
        assert item.tenant.startswith("tenant-")
        assert item.estimated_wait_seconds >= 0.0
    assert report.deadline_expired_count == len(expired)
    # Per-class stats attribute every expired shed to its own label and
    # fold it into that class's miss rate.
    stats = report.per_class_stats()
    assert sum(s.deadline_expired for s in stats.values()) == len(expired)
    for name, group in stats.items():
        if group.deadline_expired:
            assert name in deadline_names
            assert group.deadline_miss_rate > 0.0
    # Batch mode never sheds, so the same classes only ever record
    # misses there.
    assert "deadline_expired" not in {
        s.reason
        for s in QueryScheduler().run_stream(
            iter(mixed_workload(8))
        ).shed
    }


# ---------------------------------------------------------------------------
# Fault-invariant deadline auditing (negative tests)
# ---------------------------------------------------------------------------
def _completed_report():
    report = QueryScheduler(devices=1).run_online(
        [_request("q0", deadline=1000.0)]
    )
    assert len(report.outcomes) == 1
    return report


def test_invariant_checker_rejects_unrecorded_deadline_miss():
    report = _completed_report()
    outcome = report.outcomes[0]
    outcome.deadline_at = outcome.finish_at / 2
    outcome.deadline_missed = False
    with pytest.raises(FaultInvariantError, match="not .*recorded"):
        check_fault_invariants(
            report, FaultPlan(), arrivals=1, max_retries=3
        )


def test_invariant_checker_rejects_forged_deadline_miss():
    report = _completed_report()
    outcome = report.outcomes[0]
    assert outcome.finish_at <= outcome.deadline_at
    outcome.deadline_missed = True
    with pytest.raises(FaultInvariantError, match="within its"):
        check_fault_invariants(
            report, FaultPlan(), arrivals=1, max_retries=3
        )


def test_invariant_checker_accepts_honest_deadline_recording():
    report = _completed_report()
    outcome = report.outcomes[0]
    check_fault_invariants(report, FaultPlan(), arrivals=1, max_retries=3)
    outcome.deadline_at = outcome.finish_at / 2
    outcome.deadline_missed = True
    check_fault_invariants(report, FaultPlan(), arrivals=1, max_retries=3)


def test_unclassed_outcomes_audit_trivially():
    report = QueryScheduler().run_online(
        [QueryRequest(qid="q0", spec=unique_pair(M))]
    )
    assert math.isinf(report.outcomes[0].deadline_at)
    assert not report.outcomes[0].deadline_missed
    check_fault_invariants(report, FaultPlan(), arrivals=1, max_retries=3)
