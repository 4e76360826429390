"""Hit/miss and invalidation behavior of the shared estimate cache."""

import pytest

from repro.core import create_strategy, estimate_cache
from repro.data import unique_pair
from repro.gpusim.calibration import Calibration
from repro.gpusim.spec import v100_system
from repro.core.config import GpuJoinConfig

SPEC = unique_pair(32_000_000)
BIG = unique_pair(512_000_000)


@pytest.fixture(autouse=True)
def fresh_cache():
    estimate_cache.clear()
    yield
    estimate_cache.configure(
        enabled=True, max_entries=estimate_cache.DEFAULT_MAX_ENTRIES
    )
    estimate_cache.clear()


def test_identical_estimates_hit():
    create_strategy("gpu_resident").estimate(SPEC)
    before = estimate_cache.stats()
    create_strategy("gpu_resident").estimate(SPEC)
    after = estimate_cache.stats()
    assert after.hits == before.hits + 1
    assert after.misses == before.misses
    assert after.entries == before.entries


def test_distinct_kwargs_and_specs_miss():
    strategy = create_strategy("gpu_resident")
    strategy.estimate(SPEC)
    strategy.estimate(SPEC, materialize=True)
    strategy.estimate(unique_pair(16_000_000))
    assert estimate_cache.stats().entries == 3
    assert estimate_cache.stats().hits == 0


def test_config_differences_invalidate():
    create_strategy("gpu_resident").estimate(SPEC)
    create_strategy(
        "gpu_resident", config=GpuJoinConfig(ht_slots=1024)
    ).estimate(SPEC)
    assert estimate_cache.stats().entries == 2
    assert estimate_cache.stats().hits == 0


def test_system_and_calibration_differences_invalidate():
    create_strategy("gpu_resident").estimate(SPEC)
    create_strategy("gpu_resident", v100_system()).estimate(SPEC)
    create_strategy(
        "gpu_resident", calibration=Calibration(gpu_scan_efficiency=0.5)
    ).estimate(SPEC)
    assert estimate_cache.stats().entries == 3
    assert estimate_cache.stats().hits == 0


def test_constructor_extras_invalidate():
    create_strategy("coprocessing").estimate(BIG)
    create_strategy("coprocessing", staging=False).estimate(BIG)
    create_strategy("coprocessing", device_budget=2 * 1024**3).estimate(BIG)
    create_strategy("coprocessing", cpu_bits=5).estimate(BIG)
    assert estimate_cache.stats().entries == 4
    assert estimate_cache.stats().hits == 0


def test_nonpartitioned_variants_do_not_collide():
    chaining = create_strategy("gpu_nonpartitioned").estimate(SPEC)
    perfect = create_strategy("gpu_nonpartitioned_perfect").estimate(SPEC)
    assert estimate_cache.stats().entries == 2
    assert chaining.seconds != perfect.seconds


def test_cached_result_is_copy_safe():
    first = create_strategy("gpu_resident").estimate(SPEC)
    first.phases["join"] = -1.0
    first.notes["poison"] = 1.0
    second = create_strategy("gpu_resident").estimate(SPEC)
    assert second.phases["join"] != -1.0
    assert "poison" not in second.notes


def test_disabled_cache_recomputes_identically():
    warm = create_strategy("coprocessing").estimate(BIG).seconds
    estimate_cache.configure(enabled=False)
    cold = create_strategy("coprocessing").estimate(BIG).seconds
    assert estimate_cache.stats().entries == 0
    assert warm == pytest.approx(cold, abs=1e-9)


def test_clear_resets_entries_and_counters():
    create_strategy("gpu_resident").estimate(SPEC)
    create_strategy("gpu_resident").estimate(SPEC)
    estimate_cache.clear()
    stats = estimate_cache.stats()
    assert (stats.hits, stats.misses, stats.entries) == (0, 0, 0)
    assert stats.hit_rate == 0.0


def test_ladder_choice_memoized_and_correct():
    from repro.core import choose_strategy_name
    from repro.gpusim.spec import SystemSpec

    system = SystemSpec()
    first = choose_strategy_name(SPEC, system)
    second = choose_strategy_name(SPEC, system)
    assert first == second == "gpu_resident"
    constrained = choose_strategy_name(SPEC, system, available_bytes=1 << 20)
    assert constrained == "coprocessing"


def test_plan_cache_counts_hits_and_misses_separately():
    """The plan cache keeps its own accounting, so a key mismatch that
    silently stops plans from hitting is visible in stats() without
    perturbing the estimate counters older tests pin exactly."""
    sentinel = object()
    calls = []

    def compute():
        calls.append(1)
        return sentinel

    assert estimate_cache.cached_plan(("plan", 1), compute) is sentinel
    assert estimate_cache.cached_plan(("plan", 1), compute) is sentinel
    assert len(calls) == 1
    stats = estimate_cache.stats()
    assert (stats.plan_hits, stats.plan_misses, stats.plan_entries) == (1, 1, 1)
    assert (stats.hits, stats.misses) == (0, 0)  # estimate counters untouched
    # Unhashable/None keys bypass the cache and recompute every time.
    assert estimate_cache.cached_plan(None, compute) is sentinel
    assert len(calls) == 2
    estimate_cache.clear()
    stats = estimate_cache.stats()
    assert (stats.plan_hits, stats.plan_misses, stats.plan_entries) == (0, 0, 0)


def test_plan_cache_disabled_recomputes():
    estimate_cache.configure(enabled=False)
    calls = []
    estimate_cache.cached_plan(("k",), lambda: calls.append(1))
    estimate_cache.cached_plan(("k",), lambda: calls.append(1))
    assert len(calls) == 2


def test_scheduler_reuses_cached_plans_across_runs():
    """The serving scheduler's prepared plans hit process-wide: a second
    run over the same workload re-prepares nothing."""
    from repro.serve import QueryScheduler, mixed_workload

    QueryScheduler().run_online(mixed_workload(4))
    after_first = estimate_cache.stats()
    assert after_first.plan_entries > 0
    QueryScheduler().run_online(mixed_workload(4))
    after_second = estimate_cache.stats()
    assert after_second.plan_misses == after_first.plan_misses
    assert after_second.plan_hits > after_first.plan_hits


@pytest.mark.parametrize("devices", (1, 2))
def test_serve_prepares_each_plan_key_once(monkeypatch, devices):
    """A cold serve prepares each (fingerprint, spec, materialize,
    kwargs) key exactly once: an estimate miss and the admission that
    follows it share one plan, so the plan an admitted query gets is
    the very object its estimate built."""
    from repro.core.strategy import (
        PipelinedJoinStrategy,
        registered_strategies,
        strategy_factory,
    )
    from repro.serve import QueryScheduler, mixed_workload
    from repro.serve.scheduler import _Run

    prepared: dict = {}
    built_in_estimate: list = []
    admitted: list = []
    depth = {"prepare": 0, "estimate": 0}

    def counted(original):
        # Count outermost calls only, so a subclass's super().prepare()
        # is not a second prepare.
        def prepare(self, spec, *, materialize=False, **kwargs):
            depth["prepare"] += 1
            try:
                plan = original(self, spec, materialize=materialize, **kwargs)
            finally:
                depth["prepare"] -= 1
            if depth["prepare"] == 0:
                key = estimate_cache.make_key(
                    self.cache_fingerprint(), spec, materialize, kwargs
                )
                prepared[key] = prepared.get(key, 0) + 1
                if depth["estimate"]:
                    built_in_estimate.append(plan)
            return plan

        return prepare

    classes = {strategy_factory(key) for key in registered_strategies()}
    for cls in classes:
        if "prepare" in vars(cls):
            monkeypatch.setattr(cls, "prepare", counted(vars(cls)["prepare"]))
    estimate = PipelinedJoinStrategy.estimate

    def estimating(self, *args, **kwargs):
        depth["estimate"] += 1
        try:
            return estimate(self, *args, **kwargs)
        finally:
            depth["estimate"] -= 1

    monkeypatch.setattr(PipelinedJoinStrategy, "estimate", estimating)
    prepare_plan = _Run._prepare_plan

    def admitting(self, *args, **kwargs):
        plan = prepare_plan(self, *args, **kwargs)
        admitted.append(plan)
        return plan

    monkeypatch.setattr(_Run, "_prepare_plan", admitting)

    QueryScheduler(devices=devices).run_online(mixed_workload(8))

    repeated = [key for key, count in prepared.items() if count != 1]
    assert prepared and not repeated, (
        f"{len(repeated)} of {len(prepared)} plan keys prepared more than once"
    )
    assert len(admitted) == 8
    for plan in admitted:
        assert any(plan is built for built in built_in_estimate)


# ---------------------------------------------------------------------------
# LRU bounding
# ---------------------------------------------------------------------------
def test_estimate_cache_evicts_lru_at_cap():
    estimate_cache.configure(enabled=True, max_entries=2)
    specs = [unique_pair(n * 1_000_000) for n in (4, 8, 16)]
    strategy = create_strategy("gpu_resident")
    for spec in specs:
        strategy.estimate(spec)
    stats = estimate_cache.stats()
    assert stats.entries == 2
    assert stats.evictions == 1
    assert stats.max_entries == 2
    # The oldest entry (specs[0]) was evicted: estimating it again is a
    # miss; the newest (specs[2]) is still a hit.
    strategy.estimate(specs[2])
    assert estimate_cache.stats().hits == stats.hits + 1
    strategy.estimate(specs[0])
    assert estimate_cache.stats().misses == stats.misses + 1


def test_estimate_cache_hit_refreshes_recency():
    estimate_cache.configure(enabled=True, max_entries=2)
    specs = [unique_pair(n * 1_000_000) for n in (4, 8, 16)]
    strategy = create_strategy("gpu_resident")
    strategy.estimate(specs[0])
    strategy.estimate(specs[1])
    strategy.estimate(specs[0])  # hit: specs[0] becomes most-recent
    strategy.estimate(specs[2])  # evicts specs[1], not specs[0]
    before = estimate_cache.stats()
    strategy.estimate(specs[0])
    assert estimate_cache.stats().hits == before.hits + 1


def test_shrinking_max_entries_evicts_oldest_first():
    estimate_cache.configure(enabled=True, max_entries=8)
    specs = [unique_pair(n * 1_000_000) for n in (4, 8, 16)]
    strategy = create_strategy("gpu_resident")
    for spec in specs:
        strategy.estimate(spec)
    assert estimate_cache.stats().entries == 3
    estimate_cache.configure(enabled=True, max_entries=1)
    stats = estimate_cache.stats()
    assert stats.entries == 1
    assert stats.evictions == 2
    # The survivor is the most recently stored spec.
    strategy.estimate(specs[2])
    assert estimate_cache.stats().hits == stats.hits + 1


def test_plan_and_ladder_caches_evict_at_cap():
    estimate_cache.configure(enabled=True, max_entries=2)
    for i in range(4):
        estimate_cache.cached_plan(("plan", i), lambda i=i: i)
        estimate_cache.cached_ladder_choice(("ladder", i), lambda: "x")
    stats = estimate_cache.stats()
    assert stats.plan_entries == 2
    assert stats.plan_evictions == 2
    assert stats.ladder_entries == 2
    assert stats.ladder_evictions == 2
    # Evicted keys recompute (a miss), retained keys hit.
    assert estimate_cache.cached_plan(("plan", 3), lambda: "new") == 3
    assert estimate_cache.stats().plan_hits == stats.plan_hits + 1
    assert estimate_cache.cached_plan(("plan", 0), lambda: "recomputed") == (
        "recomputed"
    )
    assert estimate_cache.stats().plan_misses == stats.plan_misses + 1


def test_configure_rejects_nonpositive_max_entries():
    with pytest.raises(ValueError):
        estimate_cache.configure(enabled=True, max_entries=0)


def test_configure_resets_counters_but_keeps_entries():
    """configure() starts a fresh accounting epoch: counters zero, the
    cached entries survive (so reconfiguring stats tracking mid-process
    doesn't throw away warm state)."""
    strategy = create_strategy("gpu_resident")
    strategy.estimate(SPEC)
    strategy.estimate(SPEC)
    assert estimate_cache.stats().hits == 1
    estimate_cache.configure(enabled=True)
    stats = estimate_cache.stats()
    assert (stats.hits, stats.misses, stats.evictions) == (0, 0, 0)
    assert stats.entries == 1  # the entry itself survived
    strategy.estimate(SPEC)
    assert estimate_cache.stats().hits == 1  # ...and still hits


def test_configure_shrink_evictions_count_in_new_epoch():
    """Evictions caused by a configure() shrink land in the epoch the
    shrink begins, not the one it ends."""
    strategy = create_strategy("gpu_resident")
    for n in (4, 8, 16):
        strategy.estimate(unique_pair(n * 1_000_000))
    estimate_cache.configure(enabled=True, max_entries=1)
    stats = estimate_cache.stats()
    assert stats.evictions == 2
    assert (stats.hits, stats.misses) == (0, 0)


def test_reset_stats_zeroes_every_counter():
    strategy = create_strategy("gpu_resident")
    strategy.estimate(SPEC)
    strategy.estimate(SPEC)
    estimate_cache.cached_plan(("p",), lambda: 1)
    estimate_cache.cached_ladder_choice(("l",), lambda: "x")
    estimate_cache.reset_stats()
    stats = estimate_cache.stats()
    assert (stats.hits, stats.misses, stats.evictions) == (0, 0, 0)
    assert (stats.plan_hits, stats.plan_misses) == (0, 0)
    assert (stats.ladder_hits, stats.ladder_misses) == (0, 0)
    assert (stats.store_hits, stats.plan_store_hits,
            stats.ladder_store_hits) == (0, 0, 0)
    assert stats.entries == 1  # entries are not stats


def test_attached_store_serves_misses_and_takes_writes():
    from repro.core.sample_store import SampleStore

    store = SampleStore()
    estimate_cache.attach_store(store)
    try:
        first = create_strategy("gpu_resident").estimate(SPEC)
        assert store.cached_entries[0] == 1  # write-through on compute
        estimate_cache.clear()  # drop the LRU, keep the store
        second = create_strategy("gpu_resident").estimate(SPEC)
        assert second == first
        stats = estimate_cache.stats()
        assert stats.store_hits == 1
        assert stats.misses == 1  # a store hit still counts the miss
    finally:
        estimate_cache.detach_store()


def test_eviction_never_changes_results():
    """A thrashing one-entry cache must produce the same numbers as a
    generous one — eviction only costs recomputation."""
    strategy = create_strategy("gpu_resident")
    generous = [strategy.estimate(unique_pair(n * 1_000_000)).seconds
                for n in (4, 8, 16, 4, 8, 16)]
    estimate_cache.configure(enabled=True, max_entries=1)
    estimate_cache.clear()
    thrashed = [strategy.estimate(unique_pair(n * 1_000_000)).seconds
                for n in (4, 8, 16, 4, 8, 16)]
    assert thrashed == generous
    assert estimate_cache.stats().evictions > 0
