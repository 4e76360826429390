"""Differential suite for the learned cost-model serving path.

Mirrors the placement/fault golden discipline for the ``learned`` flag:

(a) **Inertness** — with a fitted model *installed* process-wide but
    ``learned=False`` (the default), every recorded golden seed stays
    bit-identical: installation without activation may not perturb a
    single admission, placement, reservation or finish time;
(b) **Safety under activation** — ``learned=True`` on a two-device
    fleet may legitimately pick different ladder rungs, but every run
    must still pass the full fault-invariant audit (conservation,
    arena reconciliation, retry budgets) and replay deterministically;
(c) **Graceful absence** — ``learned=True`` with no model installed
    (or an empty model) is exactly the analytic path.
"""

import json
from pathlib import Path

import pytest

from repro.bench.regress import check_batch_oracle
from repro.bench.serve_bench import fingerprint, fingerprint_sharded
from repro.core import learned_cost, sample_store
from repro.core.learned_cost import LearnedCostModel
from repro.core.sample_store import SampleStore
from repro.serve import QueryScheduler, random_workload
from repro.serve.faults import FaultPlan, check_fault_invariants

GOLDEN_PATH = Path(__file__).parent / "golden_single_device.json"
GOLDEN = json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))

#: Every recorded golden seed — the learned-off identity sweep runs all
#: of them, same contract as the placement property suite.
SEEDS = sorted(int(seed) for seed in GOLDEN["seeds"])

#: 50 randomized workloads for the learned-on invariant property.
PROPERTY_SEEDS = tuple(range(0, 100, 2))

#: Workloads whose estimates train the module's fitted model.
RECORDING_SEEDS = (0, 60, 120, 180)


@pytest.fixture(scope="module")
def model():
    """One fitted model for the whole module, trained by recording the
    estimates of a few golden-seed serve runs."""
    store = SampleStore()
    sample_store.attach(store)
    try:
        for seed in RECORDING_SEEDS:
            QueryScheduler(devices=1).run_online(random_workload(seed))
    finally:
        sample_store.detach()
    fitted = LearnedCostModel.fit(store)
    assert len(fitted) > 0, "recording produced no fittable fingerprint"
    return fitted


@pytest.fixture
def installed(model):
    learned_cost.set_model(model)
    yield model
    learned_cost.clear_model()


def _golden_matches(report, entry) -> None:
    assert [list(item) for item in fingerprint(report)] == entry["fingerprint"]
    assert report.makespan == entry["makespan"]
    assert report.peak_reserved_bytes == entry["peak_reserved_bytes"]


# ---------------------------------------------------------------------------
# (a) learned-off bit-identity on every golden seed
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("seed", SEEDS)
def test_learned_off_bit_identical_to_golden(seed, installed):
    report = QueryScheduler(devices=1, learned=False).run_online(
        random_workload(seed)
    )
    _golden_matches(report, GOLDEN["seeds"][str(seed)])


# ---------------------------------------------------------------------------
# (b) learned-on keeps every serving invariant
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("seed", PROPERTY_SEEDS)
def test_learned_on_satisfies_fault_invariants(seed, installed):
    requests = random_workload(seed)
    scheduler = QueryScheduler(devices=2, learned=True)
    report = scheduler.run_online(random_workload(seed))
    check_fault_invariants(
        report,
        FaultPlan(),
        arrivals=len(requests),
        max_retries=scheduler.max_retries,
    )
    for arena in report.arenas:
        assert arena.peak_bytes <= arena.capacity_bytes
        arena.check_invariants()
        assert arena.drained


@pytest.mark.parametrize("seed", (0, 70, 190))
def test_learned_on_replays_deterministically(seed, installed):
    first = QueryScheduler(devices=2, learned=True).run_online(
        random_workload(seed)
    )
    second = QueryScheduler(devices=2, learned=True).run_online(
        random_workload(seed)
    )
    assert fingerprint_sharded(first) == fingerprint_sharded(second)
    assert first.makespan == second.makespan


def test_learned_on_matches_batch_mode(installed):
    """online == batch survives activation: the learned path changes
    which estimates feed the scheduler, never the admission algebra."""
    for seed in (0, 70):
        online = QueryScheduler(devices=2, learned=True).run_online(
            random_workload(seed)
        )
        check_batch_oracle(online)


# ---------------------------------------------------------------------------
# (c) the flag without a model is the analytic path
# ---------------------------------------------------------------------------
def test_learned_flag_without_model_is_analytic():
    learned_cost.clear_model()
    seed = SEEDS[0]
    baseline = QueryScheduler(devices=1).run_online(random_workload(seed))
    flagged = QueryScheduler(devices=1, learned=True).run_online(
        random_workload(seed)
    )
    assert fingerprint(flagged) == fingerprint(baseline)
    _golden_matches(flagged, GOLDEN["seeds"][str(seed)])


def test_empty_model_is_analytic(installed):
    learned_cost.set_model(LearnedCostModel({}))
    seed = SEEDS[1]
    report = QueryScheduler(devices=1, learned=True).run_online(
        random_workload(seed)
    )
    _golden_matches(report, GOLDEN["seeds"][str(seed)])
