"""Differential suite for serving from a warm cache store.

The test names come from the learned cost model that once sat in front
of the analytic one; that model has been removed, so every serve is now
the analytic ("learned off") path.  Each test keeps its name and checks
the same property of the memory that stays: a cache store
(:class:`~repro.core.sample_store.SampleStore`) recorded from a few
golden-seed serves and attached with ``estimate_cache.attach_store``.
Every run starts from an empty in-memory LRU, so each estimate, plan and
ladder miss consults the store first.

(a) **Inertness** — with the warm store attached, every recorded golden
    seed stays bit-identical: a persisted entry may not perturb a
    single admission, placement, reservation or finish time;
(b) **Safety** — two-device runs from the warm store pass the full
    fault-invariant audit (conservation, arena reconciliation, retry
    budgets), match the batch oracle, and replay exactly when every
    miss is answered by the store;
(c) **Graceful absence** — a store path with no file yet, or a file
    holding only its header, is exactly the analytic path.
"""

import json
from pathlib import Path

import pytest

from repro.bench.regress import check_batch_oracle
from repro.bench.serve_bench import fingerprint, fingerprint_sharded
from repro.core import estimate_cache
from repro.core.sample_store import FORMAT, VERSION, SampleStore
from repro.serve import QueryScheduler, random_workload
from repro.serve.faults import FaultPlan, check_fault_invariants

GOLDEN_PATH = Path(__file__).parent / "golden_single_device.json"
GOLDEN = json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))

#: Every recorded golden seed — the identity sweep runs all of them,
#: same contract as the placement property suite.
SEEDS = sorted(int(seed) for seed in GOLDEN["seeds"])

#: 50 randomized workloads for the two-device invariant property.
PROPERTY_SEEDS = tuple(range(0, 100, 2))

#: Workloads whose cache entries warm the module's store.
RECORDING_SEEDS = (0, 60, 120, 180)


@pytest.fixture(scope="module")
def store():
    """One in-memory store for the whole module, warmed by the cache
    entries of a few golden-seed serve runs."""
    warm = SampleStore()
    estimate_cache.clear()
    estimate_cache.attach_store(warm)
    try:
        for seed in RECORDING_SEEDS:
            QueryScheduler(devices=1).run_online(random_workload(seed))
    finally:
        estimate_cache.detach_store()
        estimate_cache.clear()
    assert all(warm.cached_entries), "recording persisted no cache entries"
    return warm


@pytest.fixture
def installed(store):
    """The warm store attached to an empty LRU for one test."""
    estimate_cache.clear()
    estimate_cache.attach_store(store)
    yield store
    estimate_cache.detach_store()
    estimate_cache.clear()


def _golden_matches(report, entry) -> None:
    assert [list(item) for item in fingerprint(report)] == entry["fingerprint"]
    assert report.makespan == entry["makespan"]
    assert report.peak_reserved_bytes == entry["peak_reserved_bytes"]


# ---------------------------------------------------------------------------
# (a) bit-identity on every golden seed
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("seed", SEEDS)
def test_learned_off_bit_identical_to_golden(seed, installed):
    report = QueryScheduler(devices=1).run_online(random_workload(seed))
    _golden_matches(report, GOLDEN["seeds"][str(seed)])


# ---------------------------------------------------------------------------
# (b) two devices from the warm store keep every serving invariant
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("seed", PROPERTY_SEEDS)
def test_learned_on_satisfies_fault_invariants(seed, installed):
    requests = random_workload(seed)
    scheduler = QueryScheduler(devices=2)
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
    """The first run writes its new entries through to the store; the
    replay, from an empty LRU again, computes nothing and matches."""
    first = QueryScheduler(devices=2).run_online(random_workload(seed))
    estimate_cache.clear()
    second = QueryScheduler(devices=2).run_online(random_workload(seed))
    stats = estimate_cache.stats()
    assert stats.misses > 0 and stats.store_hits == stats.misses
    assert stats.plan_store_hits == stats.plan_misses
    assert stats.ladder_misses > 0
    assert stats.ladder_store_hits == stats.ladder_misses
    assert fingerprint_sharded(first) == fingerprint_sharded(second)
    assert first.makespan == second.makespan


def test_learned_on_matches_batch_mode(installed):
    """The batch oracle holds from the warm store: persisted entries
    change where estimates come from, never the admission algebra."""
    for seed in (0, 70):
        online = QueryScheduler(devices=2).run_online(random_workload(seed))
        check_batch_oracle(online)


# ---------------------------------------------------------------------------
# (c) a store with nothing in it is the analytic path
# ---------------------------------------------------------------------------
def test_learned_flag_without_model_is_analytic(tmp_path):
    """``serve --sample-store PATH`` on a path with no file yet."""
    seed = SEEDS[0]
    estimate_cache.clear()
    baseline = QueryScheduler(devices=1).run_online(random_workload(seed))
    store = SampleStore.open(str(tmp_path / "absent.jsonl"))
    estimate_cache.clear()
    estimate_cache.attach_store(store)
    try:
        flagged = QueryScheduler(devices=1).run_online(random_workload(seed))
        assert estimate_cache.stats().store_hits == 0
    finally:
        estimate_cache.detach_store()
        estimate_cache.clear()
    assert fingerprint(flagged) == fingerprint(baseline)
    _golden_matches(flagged, GOLDEN["seeds"][str(seed)])
    assert store.pending_records > 0  # the cold run wrote through


def test_empty_model_is_analytic(tmp_path):
    """A store file that holds only its header."""
    path = tmp_path / "empty.jsonl"
    path.write_text(
        json.dumps({"format": FORMAT, "version": VERSION}) + "\n",
        encoding="utf-8",
    )
    store = SampleStore.load(str(path))
    assert store.cached_entries == (0, 0, 0)
    assert store.skipped_records == 0
    seed = SEEDS[1]
    estimate_cache.clear()
    estimate_cache.attach_store(store)
    try:
        report = QueryScheduler(devices=1).run_online(random_workload(seed))
        assert estimate_cache.stats().store_hits == 0
    finally:
        estimate_cache.detach_store()
        estimate_cache.clear()
    _golden_matches(report, GOLDEN["seeds"][str(seed)])
