"""Analytic vs empirical workload statistics (the estimate/run contract)."""

import numpy as np
import pytest

from repro.data import Distribution, JoinSpec, RelationSpec, generate_join, generate_relation
from repro.data import stats as stats_mod
from repro.data import zipf_pair
from repro.errors import InvalidConfigError


def test_radix_digit_and_histogram():
    keys = np.array([0b000, 0b001, 0b101, 0b100])
    assert list(stats_mod.radix_digit(keys, 2)) == [0, 1, 1, 0]
    assert list(stats_mod.radix_histogram(keys, 2)) == [2, 2, 0, 0]


def test_radix_digit_with_shift():
    keys = np.array([0b1100, 0b0100])
    assert list(stats_mod.radix_digit(keys, 2, shift=2)) == [3, 1]


def test_radix_digit_requires_bits():
    with pytest.raises(InvalidConfigError):
        stats_mod.radix_digit(np.array([1]), 0)


def test_expected_partition_sizes_uniform():
    spec = RelationSpec(n=4096)
    sizes = stats_mod.expected_partition_sizes(spec, 4)
    assert sizes.shape == (16,)
    assert np.allclose(sizes, 256.0)


UNIFORM_FAMILY = {
    "unique": RelationSpec(n=512_000_000),
    "uniform": RelationSpec(
        n=64_000_000, distinct=512_000_000, distribution=Distribution.UNIFORM
    ),
    "zipf0": RelationSpec(
        n=3_000_001, distinct=1000, distribution=Distribution.ZIPF, zipf_s=0.0
    ),
}


@pytest.mark.parametrize("probe", UNIFORM_FAMILY, ids=str)
@pytest.mark.parametrize("build", UNIFORM_FAMILY, ids=str)
@pytest.mark.parametrize("total_bits, period", [(19, 16), (15, 1), (5, 32), (6, 2)])
def test_copartition_periods_tile_to_the_full_histograms(build, probe, total_bits, period):
    spec = JoinSpec(build=UNIFORM_FAMILY[build], probe=UNIFORM_FAMILY[probe])
    build_period, probe_period, repeat = stats_mod.expected_copartition_periods(
        spec, total_bits, period
    )
    assert repeat == (1 << total_bits) // period
    for side, part in ((spec.build, build_period), (spec.probe, probe_period)):
        assert part.shape == (period,)
        full = stats_mod.expected_partition_sizes(side, total_bits)
        assert np.tile(part, repeat).tobytes() == full.tobytes()


@pytest.mark.parametrize("skew_side", ["build", "probe", "both"])
def test_skewed_joins_get_their_full_histograms(skew_side):
    spec = zipf_pair(64_000_000, 0.5, skew_side=skew_side)
    build, probe, repeat = stats_mod.expected_copartition_periods(spec, 10, 16)
    assert repeat == 1
    assert build.tobytes() == stats_mod.expected_partition_sizes(spec.build, 10).tobytes()
    assert probe.tobytes() == stats_mod.expected_partition_sizes(spec.probe, 10).tobytes()


@pytest.mark.parametrize("period", [0, 3, 1 << 11])
def test_copartition_period_must_divide_the_fanout(period):
    with pytest.raises(InvalidConfigError, match="period"):
        stats_mod.expected_copartition_periods(zipf_pair(1000, 0.0), 10, period)


def test_expected_partition_sizes_zipf_match_empirical():
    spec = RelationSpec(
        n=200_000, distinct=50_000, distribution=Distribution.ZIPF, zipf_s=0.9
    )
    rel = generate_relation(spec, seed=3)
    empirical = stats_mod.empirical_partition_sizes(rel.key, 4)
    expected = stats_mod.expected_partition_sizes(spec, 4)
    # The heavy partitions must agree to within sampling noise.
    assert np.allclose(empirical, expected, rtol=0.08, atol=200)


def test_expected_max_partition_grows_with_skew():
    uniform = RelationSpec(n=100_000, distinct=100_000 // 1, distribution=Distribution.UNIQUE)
    skewed = RelationSpec(
        n=100_000, distinct=100_000, distribution=Distribution.ZIPF, zipf_s=1.0
    )
    assert stats_mod.expected_max_partition_size(
        skewed, 8
    ) > 2 * stats_mod.expected_max_partition_size(uniform, 8)


def test_expected_cardinality_one_sided_skew_does_not_explode():
    """One-sided skew keeps the output linear — the paper's Fig 17/18
    observation."""
    n = 1_000_000
    uniform = zipf_pair(n, 0.0, skew_side="both")
    probe_skew = zipf_pair(n, 1.0, skew_side="probe")
    both_skew = zipf_pair(n, 1.0, skew_side="both")
    base = stats_mod.expected_join_cardinality(uniform)
    assert stats_mod.expected_join_cardinality(probe_skew) == pytest.approx(base, rel=0.01)
    assert stats_mod.expected_join_cardinality(both_skew) > 50 * base


def test_expected_cardinality_identical_skew_matches_empirical():
    spec = zipf_pair(30_000, 0.75, skew_side="both")
    from repro.data import naive_join_count

    build, probe = generate_join(spec, seed=5)
    expected = stats_mod.expected_join_cardinality(spec)
    actual = naive_join_count(build, probe)
    assert actual == pytest.approx(expected, rel=0.15)


def test_matches_per_probe():
    spec = JoinSpec(
        build=RelationSpec(n=1000, distinct=100, distribution=Distribution.UNIFORM),
        probe=RelationSpec(n=500, distinct=100, distribution=Distribution.UNIFORM),
    )
    assert stats_mod.expected_matches_per_probe(spec) == pytest.approx(10.0)


def test_chain_steps_formula():
    assert stats_mod.expected_chain_steps_per_probe(2048, 2048, 1.0) == 1.0
    assert stats_mod.expected_chain_steps_per_probe(8192, 2048, 1.0) == 4.0
    # matches dominate when larger than the load factor
    assert stats_mod.expected_chain_steps_per_probe(100, 2048, 7.0) == 7.0
    with pytest.raises(InvalidConfigError):
        stats_mod.expected_chain_steps_per_probe(10, 0, 1.0)


def test_empirical_chain_steps():
    build_slots = np.array([0, 0, 1])
    probe_slots = np.array([0, 1, 2])
    # chains: slot0 len 2, slot1 len 1, slot2 len 0 -> mean (2+1+0)/3
    assert stats_mod.empirical_chain_steps_per_probe(build_slots, probe_slots, 4) == (
        pytest.approx(1.0)
    )
