"""Differential property suite for the admission-policy registry.

Four properties over 100 recorded seeds and fleets of 1-3 devices:

(a) ``fifo`` (the default) reproduces the recorded pre-registry golden
    schedules bit-identically — the policy hook may not perturb the
    default path;
(b) online incremental extension == batch re-simulation (the
    :func:`~repro.bench.regress.check_batch_oracle`) under *every*
    registered policy on classed workloads;
(c) conservation — ``completed + shed + failed == arrivals`` — holds
    under every policy crossed with seeded fault plans, and the fault
    invariant audit (which now also checks deadline recording) passes;
(d) ``sjf`` never worsens mean latency against ``fifo`` on the
    canonical 64-client workload.
"""

import json
from pathlib import Path

import pytest

from repro.bench.regress import check_batch_oracle
from repro.bench.serve_bench import fingerprint
from repro.serve import (
    DEADLINE_CLASSES,
    FaultPlan,
    QueryScheduler,
    check_fault_invariants,
    mixed_workload,
    random_workload,
    stream_workload,
    with_classes,
)
from repro.serve.admission import FIFO, registered_admission_policies

GOLDEN_PATH = Path(__file__).parent / "golden_single_device.json"
GOLDEN = json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))
SEEDS = sorted(int(seed) for seed in GOLDEN["seeds"])[:100]
FLEETS = (1, 2, 3)
POLICIES = registered_admission_policies()


def test_suite_covers_100_seeds_and_every_policy():
    assert len(SEEDS) >= 100
    assert FIFO in POLICIES and len(POLICIES) == 4


@pytest.mark.parametrize("seed", SEEDS)
def test_fifo_bit_identical_to_golden(seed):
    """(a) The explicit default policy replays the recorded schedules."""
    entry = GOLDEN["seeds"][str(seed)]
    report = QueryScheduler(devices=1, admission=FIFO).run_online(
        random_workload(seed)
    )
    assert [list(item) for item in fingerprint(report)] == entry["fingerprint"]
    assert report.makespan == entry["makespan"]
    assert report.peak_reserved_bytes == entry["peak_reserved_bytes"]


@pytest.mark.parametrize("seed", SEEDS)
def test_online_equals_batch_under_every_policy(seed):
    """(b) Reordering composes with sharding without breaking the
    online == batch identity."""
    requests = with_classes(random_workload(seed))
    for policy in POLICIES:
        for devices in FLEETS:
            online = QueryScheduler(
                devices=devices, admission=policy
            ).run_online(requests)
            assert check_batch_oracle(online) > 0, (policy, devices)


@pytest.mark.parametrize("seed", SEEDS)
def test_conservation_under_policy_cross_faults(seed):
    """(c) No policy loses a query under crashes and admission faults;
    retried queries re-enter under their original class, audited by the
    fault invariants (deadline recording included)."""
    devices = FLEETS[seed % len(FLEETS)]
    requests = with_classes(random_workload(seed))
    plan = FaultPlan.random(
        seed,
        devices=devices,
        horizon=30.0,
        qids=[request.qid for request in requests],
        admission_fault_rate=0.15,
    )
    for policy in POLICIES:
        scheduler = QueryScheduler(devices=devices, admission=policy)
        report = scheduler.run_online(requests, faults=plan)
        assert len(report.outcomes) + len(report.failed) == len(requests)
        check_fault_invariants(
            report,
            plan,
            arrivals=len(requests),
            max_retries=scheduler.max_retries,
        )
        # Survivors keep the class they were submitted under.
        labels = {r.qid: r.query_class.name for r in requests}
        for outcome in report.outcomes:
            assert outcome.class_name == labels[outcome.qid]


@pytest.mark.parametrize("policy", POLICIES)
def test_stream_conservation_under_every_policy(policy):
    """(c, streaming) Bounded-queue streaming with deadline classes
    accounts for every arrival: completed + shed + failed == arrivals."""
    arrivals = 1500
    report = QueryScheduler(devices=2, admission=policy).run_stream(
        stream_workload(
            arrivals,
            seed=11,
            classes=DEADLINE_CLASSES,
            deadline_scale=0.25,
        ),
        max_queue_depth=48,
    )
    assert (
        len(report.outcomes) + len(report.shed) + len(report.failed)
        == arrivals
    )
    for shed in report.shed:
        assert shed.reason in ("queue_full", "slo_wait", "deadline_expired")


def test_sjf_never_worsens_mean_latency():
    """(d) On the canonical 64-client workload, shortest-job-first is
    at least as good as FIFO on mean latency."""
    fifo = QueryScheduler(admission=FIFO).run_online(mixed_workload(64))
    sjf = QueryScheduler(admission="sjf").run_online(mixed_workload(64))
    assert sjf.mean_latency <= fifo.mean_latency * (1 + 1e-12)
