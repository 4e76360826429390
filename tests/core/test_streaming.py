"""Streaming probe-side strategy (§IV-A)."""

import numpy as np
import pytest

from repro.core import GpuJoinConfig, StreamingProbeJoin
from repro.data import (
    Distribution,
    JoinSpec,
    RelationSpec,
    generate_join,
    naive_join_pairs,
    unique_pair,
)
from repro.errors import DeviceMemoryOverflowError, InvalidConfigError

CFG = GpuJoinConfig(total_radix_bits=5)


def _spec(build_n: int, probe_n: int) -> JoinSpec:
    return JoinSpec(
        build=RelationSpec(n=build_n),
        probe=RelationSpec(
            n=probe_n, distinct=build_n, distribution=Distribution.UNIFORM
        ),
    )


def test_union_of_chunk_joins_equals_full_join():
    spec = _spec(2048, 10_000)
    build, probe = generate_join(spec, seed=1)
    result = StreamingProbeJoin(config=CFG).run(build, probe, materialize=True)
    assert np.array_equal(result.pairs(), naive_join_pairs(build, probe))


@pytest.mark.parametrize("chunk_tuples", [500, 1024, 3000, 10_000])
def test_result_invariant_to_chunking(chunk_tuples):
    spec = _spec(2048, 6000)
    build, probe = generate_join(spec, seed=2)
    result = StreamingProbeJoin(config=CFG).run(
        build, probe, materialize=True, chunk_tuples=chunk_tuples
    )
    assert np.array_equal(result.pairs(), naive_join_pairs(build, probe))


def test_default_chunk_is_half_the_build():
    assert StreamingProbeJoin().default_chunk_tuples(64_000_000) == 32_000_000


@pytest.mark.parametrize("chunk_tuples", [0, -5, 1.5e7, True])
def test_bad_chunk_sizes_are_refused(chunk_tuples):
    """``0`` used to mean the default chunk, ``-5`` ended in a negative
    device allocation, a float was accepted, and ``True`` planned
    one-tuple chunks."""
    with pytest.raises(InvalidConfigError, match="chunk_tuples"):
        StreamingProbeJoin().estimate(
            unique_pair(64_000_000, 1_024_000_000), chunk_tuples=chunk_tuples
        )


def test_makespan_at_least_total_transfer_time():
    streaming = StreamingProbeJoin()
    spec = _spec(64_000_000, 512_000_000)
    metrics = streaming.estimate(spec)
    floor = spec.total_bytes / streaming.transfer.pipelined_dma_rate()
    assert metrics.seconds >= floor
    # ... and overlap keeps it close to that floor (§IV-A).
    assert metrics.seconds < 1.3 * floor


def test_throughput_approaches_pcie_bound_with_probe_size():
    streaming = StreamingProbeJoin()
    small = streaming.estimate(_spec(64_000_000, 64_000_000))
    large = streaming.estimate(_spec(64_000_000, 2_048_000_000))
    assert large.throughput > small.throughput
    pcie_bound = streaming.transfer.pipelined_dma_rate() / 8.0
    assert large.throughput <= pcie_bound * 1.05
    assert large.throughput > 0.9 * pcie_bound


def test_materialization_uses_second_dma_engine():
    streaming = StreamingProbeJoin()
    spec = _spec(64_000_000, 512_000_000)
    agg = streaming.estimate(spec)
    mat = streaming.estimate(spec, materialize=True)
    assert mat.pcie_d2h_bytes > 0 and agg.pcie_d2h_bytes == 0
    assert mat.seconds > agg.seconds
    # Output copies overlap input transfers: the penalty stays small
    # when |output| <= |input| (§IV-C).
    assert mat.seconds < 1.25 * agg.seconds


def test_build_side_must_fit_device():
    streaming = StreamingProbeJoin()
    with pytest.raises(DeviceMemoryOverflowError):
        streaming.estimate(_spec(1_024_000_000, 2_048_000_000))


def test_pcie_bytes_accounted():
    spec = _spec(64_000_000, 256_000_000)
    metrics = StreamingProbeJoin().estimate(spec)
    assert metrics.pcie_h2d_bytes == spec.total_bytes
    assert metrics.notes["chunks"] == 8
