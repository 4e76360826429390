"""Property-based differential suite for the sharded serving layer.

Runs the scheduler over 200 seeded randomized workloads
(:func:`repro.serve.workload.random_workload` — mixed placement
regimes, batched and staggered arrivals) and asserts, per seed:

(a) **Legacy equivalence** — ``devices=1`` reproduces, bit for bit,
    the single-device schedule recorded *before* the placement layer
    existed (``golden_single_device.json``, captured by
    ``tools/capture_serve_golden.py``): same admissions, strategies,
    reservations, admit/finish times, makespan and peak;
(b) **Online == batch** — for every fleet size, incremental extension
    (:meth:`~repro.serve.scheduler.QueryScheduler.run_online`) matches
    a from-scratch batch re-simulation of every device exactly
    (:func:`~repro.pipeline.oracle.check_batch_oracle`);
(c) **Arena accounting** — every device's peak stays within capacity,
    every ledger drains (no reservation outlives its query), and every
    timeline ends at zero used bytes: each run checks this itself, in
    its audit (:func:`~repro.serve.audit.check_fault_invariants`), so
    every run here that returns a report has passed it;
(d) **Sharding monotonicity** — adding devices never increases the
    fleet makespan on these workloads.

The golden file is the refactor's falsifier: regenerating it
re-baselines (a) from current behaviour, so only do that deliberately
for a reviewed change — never to turn a red suite green.
"""

import pytest

from repro.pipeline.oracle import check_batch_oracle
from repro.serve import QueryScheduler, mixed_workload, random_workload
from tests.serve.golden import GOLDEN, GOLDEN_SEEDS, assert_matches_golden

#: Fleet sizes the differential checks sweep.
FLEETS = (1, 2, 3)


def test_golden_covers_200_seeds():
    assert len(GOLDEN_SEEDS) >= 200
    assert GOLDEN_SEEDS == list(range(len(GOLDEN_SEEDS)))


@pytest.mark.parametrize("seed", GOLDEN_SEEDS)
def test_randomized_differential(seed):
    entry = GOLDEN["seeds"][str(seed)]
    spans = {}
    for devices in FLEETS:
        online = QueryScheduler(devices=devices).run_online(
            random_workload(seed)
        )
        # (b) online == batch re-simulation on every device.
        check_batch_oracle(online)
        assert all(0 <= o.device < devices for o in online.outcomes)
        spans[devices] = online.makespan
        if devices == 1:
            # (a) sharded devices=1 == the recorded legacy schedule.
            assert_matches_golden(online, entry)
            assert all(o.device == 0 for o in online.outcomes)
    # (d) makespan never increases with fleet size.
    for smaller, larger in zip(FLEETS, FLEETS[1:]):
        assert spans[larger] <= spans[smaller] * (1 + 1e-12), (
            f"seed {seed}: {larger} devices made the makespan worse "
            f"({spans[larger]!r} vs {spans[smaller]!r})"
        )


@pytest.mark.parametrize("name", sorted(GOLDEN["canonical"]))
def test_canonical_workloads_match_golden(name):
    clients, spacing = name.split("x")
    report = QueryScheduler(devices=1).run_online(
        mixed_workload(int(clients), spacing_seconds=float(spacing))
    )
    assert_matches_golden(report, GOLDEN["canonical"][name])


def test_two_devices_beat_one_on_the_64_client_acceptance_workload():
    """The acceptance bar: sharding the canonical 64-client workload
    across two devices must strictly beat one device."""
    one = QueryScheduler(devices=1).run_online(mixed_workload(64))
    two = QueryScheduler(devices=2).run_online(mixed_workload(64))
    assert two.makespan < one.makespan
    # Genuine sharding, not one hot device: both devices took queries.
    assert {o.device for o in two.outcomes} == {0, 1}


@pytest.mark.parametrize("placement", ["first_fit", "round_robin"])
def test_alternative_policies_hold_the_core_properties(placement):
    """Every registered policy keeps determinism, online==batch and the
    arena invariants — only the default policy's makespan is tracked."""
    for seed in GOLDEN_SEEDS[:25]:
        online = QueryScheduler(devices=2, placement=placement).run_online(
            random_workload(seed)
        )
        check_batch_oracle(online)
