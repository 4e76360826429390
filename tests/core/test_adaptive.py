"""Adaptive thread selection (the paper's §IV-B future work)."""

import pytest

from repro.core import (
    AdaptiveCoProcessingJoin,
    CoProcessingJoin,
    recommend_partition_threads,
    recommend_staging_threads,
)
from repro.cpu.numa import NumaModel
from repro.data import unique_pair
from repro.errors import InvalidConfigError
from repro.gpusim.spec import SystemSpec

M = 1_000_000


def test_recommendation_sits_below_the_saturation_knee():
    system = SystemSpec()
    threads = recommend_partition_threads(system, 5 / 16)
    numa = NumaModel(system)
    assert numa.dma_contention_factor(threads) == 1.0
    assert numa.dma_contention_factor(threads + 2) < 1.0


def test_recommendation_hides_partitioning():
    """The recommended count sustains at least pcie / ws_fraction."""
    system = SystemSpec()
    from repro.cpu.radix_partition import CpuPartitionModel

    fraction = 5 / 16
    threads = recommend_partition_threads(system, fraction)
    rate = CpuPartitionModel(system).pass_rate(threads)
    assert rate >= system.interconnect.pinned_bandwidth / fraction * 0.95


def test_recommendation_rejects_bad_fraction():
    with pytest.raises(InvalidConfigError):
        recommend_partition_threads(SystemSpec(), 0.0)


def test_staging_recommendation_is_small():
    """Steady-state staging needs only a handful of cores."""
    threads = recommend_staging_threads(SystemSpec())
    assert 1 <= threads <= 6


def test_adaptive_matches_best_fixed_grid():
    """Phase-adaptive threads must not lose to any fixed count."""
    spec = unique_pair(1024 * M)
    fixed = CoProcessingJoin()
    adaptive = AdaptiveCoProcessingJoin()
    best_fixed = max(
        fixed.estimate(spec, threads=t).throughput for t in (8, 16, 24, 26, 32, 46)
    )
    assert adaptive.estimate(spec).throughput >= 0.99 * best_fixed


def test_adaptive_frees_cores_in_steady_state():
    spec = unique_pair(512 * M)
    metrics = AdaptiveCoProcessingJoin().estimate(spec)
    assert metrics.notes["staging_threads"] < metrics.notes["threads"]
    assert metrics.notes["staging_threads"] <= 6


def test_explicit_threads_still_respected():
    spec = unique_pair(512 * M)
    fixed = CoProcessingJoin().estimate(spec, threads=16)
    pinned = AdaptiveCoProcessingJoin().estimate(
        spec, threads=16, staging_threads=16
    )
    assert pinned.seconds == pytest.approx(fixed.seconds, rel=1e-9)


def test_adaptive_prepare_packs_its_working_sets_once(monkeypatch):
    """The partitioning thread count is read off the plan ``prepare``
    packs anyway; it used to pack the same plan a second time first."""
    calls = []
    plan = CoProcessingJoin.plan

    def counted(self, *args, **kwargs):
        calls.append(args)
        return plan(self, *args, **kwargs)

    monkeypatch.setattr(CoProcessingJoin, "plan", counted)
    AdaptiveCoProcessingJoin().prepare(unique_pair(512 * M))
    assert len(calls) == 1


def test_adaptive_reports_its_name():
    spec = unique_pair(512 * M)
    metrics = AdaptiveCoProcessingJoin().estimate(spec)
    assert "adaptive" in metrics.strategy
