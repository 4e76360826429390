"""Fast-path vs seed-path equivalence of the scaled join evaluators.

The scaled evaluators (:meth:`GpuCostModel.hash_join_evaluator`,
:meth:`GpuCostModel.nlj_join_evaluator`) must reproduce the one-shot
kernel formulas — which are unchanged from the seed — to within 1e-9
for every configuration regime the strategies hit: uniform and Zipf
partition histograms, the shared-memory fallback (build partitions
overflowing ``elements_per_block``), device-memory tables,
materialization, probe-only (``charge_build=False``) invocations, and
partial trailing chunks.
"""

import time

import numpy as np
import pytest

from repro.core import GpuJoinConfig, create_strategy, estimate_cache
from repro.data import stats as stats_mod
from repro.data import unique_pair, zipf_pair
from repro.gpusim.cost import CoPartitionStats, GpuCostModel

TOLERANCE = 1e-9

SCALES = (1.0, 0.5, 0.015625, 1e-7)


def scaled_stats(build, probe, matches, scale):
    """Stats the way the chunk loops build them: probe side and matches
    scaled by the chunk fraction, matches split per partition."""
    probe_scaled = probe * scale
    return CoPartitionStats(
        build_sizes=build,
        probe_sizes=probe_scaled,
        matches=CoPartitionStats.split_matches(
            build, probe_scaled, matches * scale
        ),
    )


def histogram_cases():
    model = GpuCostModel()
    total_bits = 15
    uniform = unique_pair(32_000_000)
    zipf = zipf_pair(32_000_000, 0.75, skew_side="both")
    cases = []
    for name, spec in (("uniform", uniform), ("zipf", zipf)):
        build = stats_mod.expected_partition_sizes(spec.build, total_bits)
        probe = stats_mod.expected_partition_sizes(spec.probe, total_bits)
        matches = stats_mod.expected_join_cardinality(spec)
        cases.append((name, model, build, probe, matches))
    # Overflow regime: 2^6 partitions of a 8M build vastly exceed the
    # 4096-element block working set, forcing multi-pass fallback.
    spec = unique_pair(8_000_000)
    build = stats_mod.expected_partition_sizes(spec.build, 6)
    probe = stats_mod.expected_partition_sizes(spec.probe, 6)
    cases.append(
        ("fallback", model, build, probe, stats_mod.expected_join_cardinality(spec))
    )
    return cases


@pytest.mark.parametrize(
    "name,model,build,probe,matches",
    histogram_cases(),
    ids=lambda value: value if isinstance(value, str) else "",
)
@pytest.mark.parametrize("charge_build", [True, False])
@pytest.mark.parametrize("use_shared_memory", [True, False])
@pytest.mark.parametrize("materialize", [True, False])
def test_hash_evaluator_matches_one_shot(
    name, model, build, probe, matches, charge_build, use_shared_memory, materialize
):
    kwargs = dict(
        ht_slots=2048,
        elements_per_block=4096,
        threads_per_block=512,
        use_shared_memory=use_shared_memory,
        materialize=materialize,
        out_tuple_bytes=8.0,
        charge_build=charge_build,
    )
    evaluator = model.hash_join_evaluator(build, probe, matches, 8.0, **kwargs)
    for scale in SCALES:
        reference = model.join_copartitions_hash(
            scaled_stats(build, probe, matches, scale), 8.0, **kwargs
        )
        assert evaluator.seconds(scale) == pytest.approx(
            reference.seconds, abs=TOLERANCE
        )


@pytest.mark.parametrize(
    "name,model,build,probe,matches",
    histogram_cases(),
    ids=lambda value: value if isinstance(value, str) else "",
)
@pytest.mark.parametrize("materialize", [True, False])
def test_nlj_evaluator_matches_one_shot(
    name, model, build, probe, matches, materialize
):
    kwargs = dict(
        differing_bits=7,
        threads_per_block=512,
        materialize=materialize,
        out_tuple_bytes=8.0,
    )
    evaluator = model.nlj_join_evaluator(build, probe, matches, 8.0, **kwargs)
    for scale in SCALES:
        reference = model.join_copartitions_nlj(
            scaled_stats(build, probe, matches, scale), 8.0, **kwargs
        )
        assert evaluator.seconds(scale) == pytest.approx(
            reference.seconds, abs=TOLERANCE
        )


def _periods(length, seed):
    """Build and probe periods of ``length`` working-set sizes: random
    bases under host-partition weights of 1 and 1/k, some weights 0.
    Build bases reach past ``elements_per_block`` (the fallback)."""
    rng = np.random.default_rng(seed)
    weights = 1.0 / rng.integers(1, 9, size=length)
    weights[rng.random(length) < 0.25] = 0.0
    build = rng.uniform(100.0, 10_000.0, size=length) * weights
    probe = rng.uniform(100.0, 10_000.0, size=length) * weights
    return build, probe, rng.uniform(0.0, 1e9)


def _assert_period_is_the_tile(make, length, repeat, **kwargs):
    """An evaluator built on (period, repeat) prices exactly what the
    same evaluator built on the tiled histograms prices."""
    build, probe, matches = _periods(length, seed=length * repeat)
    period = make(build, probe, matches, 8.0, repeat=repeat, **kwargs)
    tiled = make(np.tile(build, repeat), np.tile(probe, repeat), matches, 8.0, **kwargs)
    for scale in SCALES:
        got, want = period.cost(scale), tiled.cost(scale)
        assert got.seconds == want.seconds
        assert got.breakdown == want.breakdown


PERIOD_LENGTHS = (1, 5, 11, 16)
REPEATS = (3, 2048, 1 << 15)


@pytest.mark.parametrize("repeat", REPEATS)
@pytest.mark.parametrize("length", PERIOD_LENGTHS)
@pytest.mark.parametrize("materialize", [True, False])
@pytest.mark.parametrize("charge_build", [True, False])
def test_hash_evaluator_on_a_period_is_bitwise_the_tiled_one(
    charge_build, materialize, length, repeat
):
    _assert_period_is_the_tile(
        GpuCostModel().hash_join_evaluator,
        length,
        repeat,
        ht_slots=2048,
        elements_per_block=4096,
        threads_per_block=512,
        materialize=materialize,
        charge_build=charge_build,
    )


@pytest.mark.parametrize("repeat", REPEATS)
@pytest.mark.parametrize("length", PERIOD_LENGTHS)
@pytest.mark.parametrize("materialize", [True, False])
def test_nlj_evaluator_on_a_period_is_bitwise_the_tiled_one(materialize, length, repeat):
    _assert_period_is_the_tile(
        GpuCostModel().nlj_join_evaluator,
        length,
        repeat,
        differing_bits=7,
        threads_per_block=512,
        materialize=materialize,
    )


def test_evaluator_memoizes_per_scale():
    model = GpuCostModel()
    build = np.full(1 << 10, 900.0)
    probe = np.full(1 << 10, 2100.0)
    evaluator = model.hash_join_evaluator(
        build, probe, 1e6, 8.0,
        ht_slots=2048, elements_per_block=4096, threads_per_block=512,
    )
    assert evaluator.cost(0.5) is evaluator.cost(0.5)
    assert evaluator.cost(0.5) is not evaluator.cost(0.25)


def test_evaluator_handles_empty_and_zero_partitions():
    model = GpuCostModel()
    empty = np.empty(0, dtype=np.float64)
    evaluator = model.hash_join_evaluator(
        empty, empty, 0.0, 8.0,
        ht_slots=2048, elements_per_block=4096, threads_per_block=512,
    )
    reference = model.join_copartitions_hash(
        CoPartitionStats(empty, empty, empty), 8.0,
        ht_slots=2048, elements_per_block=4096, threads_per_block=512,
    )
    assert evaluator.seconds(1.0) == pytest.approx(reference.seconds, abs=TOLERANCE)


@pytest.mark.parametrize(
    "key,spec,config,kwargs",
    [
        ("coprocessing", unique_pair(512_000_000), None, {}),
        ("coprocessing", zipf_pair(512_000_000, 0.5, skew_side="both"), None, {}),
        (
            "coprocessing",
            unique_pair(512_000_000),
            GpuJoinConfig(total_radix_bits=8),  # overflow fallback regime
            {},
        ),
        ("coprocessing", unique_pair(512_000_000), None, {"materialize": True}),
        ("streaming", unique_pair(64_000_000, 1024_000_000), None, {}),
        ("streaming", unique_pair(64_000_000, 1024_000_000), None, {"materialize": True}),
    ],
    ids=["coproc-uniform", "coproc-zipf", "coproc-overflow", "coproc-mat",
         "streaming", "streaming-mat"],
)
def test_strategy_estimates_unchanged_by_memoization(key, spec, config, kwargs):
    """End-to-end: a cached estimate equals a cache-disabled recompute."""
    estimate_cache.clear()
    warm = create_strategy(key, config=config).estimate(spec, **kwargs).seconds
    hit = create_strategy(key, config=config).estimate(spec, **kwargs).seconds
    estimate_cache.configure(enabled=False)
    try:
        cold = create_strategy(key, config=config).estimate(spec, **kwargs).seconds
    finally:
        estimate_cache.configure(enabled=True)
    assert warm == pytest.approx(cold, abs=TOLERANCE)
    assert hit == pytest.approx(cold, abs=TOLERANCE)


def test_fig12_scale_estimate_under_one_second():
    """fig12's most expensive cell — one co-processing estimate of a
    2048 M-tuple build, cache cleared — stays under 1 s of wall.  It
    took about 1.7 s before the scaled evaluators and takes
    milliseconds with them; the ceiling is a tripwire for slow
    runners, not a target."""
    spec = unique_pair(2048 * 10**6)
    estimate_cache.clear()
    start = time.perf_counter()
    create_strategy("coprocessing").estimate(spec)
    elapsed = time.perf_counter() - start
    assert elapsed <= 1.0, f"fig12-scale estimate took {elapsed:.3f} s"
