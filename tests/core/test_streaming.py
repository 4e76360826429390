"""Streaming probe-side strategy (§IV-A)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
from repro.pipeline.tasks import D2H, GPU, H2D

CFG = GpuJoinConfig(total_radix_bits=5)
M = 1_000_000


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


# ---------------------------------------------------------------------------
# §IV-A double buffering, on the plan the strategy builds
# ---------------------------------------------------------------------------
def _double_buffered(join_seconds, *, materialize=False, chunks=10):
    """The strategy's own pipeline for a 64 M-tuple build and ``chunks``
    64 M-tuple probe chunks, with a free build preparation and chunk
    ``i`` joining in ``join_seconds(i)``; returns the plan and its
    simulated makespan."""
    streaming = StreamingProbeJoin()
    spec = _spec(64 * M, chunks * 64 * M)
    plan = streaming._pipeline_plan(
        spec,
        chunk_tuples=64 * M,
        chunk_join_seconds=join_seconds,
        build_prep_seconds=0.0,
        matches=float(spec.probe.n),
        materialize=materialize,
    )
    return plan, streaming.simulate(plan).seconds


def _durations(plan, resource: str) -> list[float]:
    return [task.duration for task in plan.tasks if task.resource == resource]


def test_transfer_bound_stream_hides_every_join_but_the_last():
    """"The total execution time is the transfer time for the data plus
    the GPU execution time for the last chunk" (§IV-A)."""
    plan, makespan = _double_buffered(lambda i: 0.01)
    joins = _durations(plan, GPU)
    assert makespan == sum([*_durations(plan, H2D), joins[-1]])


def test_compute_bound_stream_hides_every_transfer_but_the_first():
    """Joins slower than transfers: once the build and the first chunk
    are on the device, the GPU never waits for the bus."""
    plan, makespan = _double_buffered(lambda i: 1.0)
    build_h2d, first_probe_h2d = _durations(plan, H2D)[:2]
    probe_joins = _durations(plan, GPU)[1:]  # after the build's preparation
    assert makespan == sum([build_h2d, first_probe_h2d, *probe_joins])


def test_materialized_stream_adds_only_the_last_copy_back():
    """Results double-buffer on the D2H engine (§IV-C), so only the last
    chunk's copy-back runs past the transfer-bound makespan."""
    _, aggregated = _double_buffered(lambda i: 0.01)
    plan, makespan = _double_buffered(lambda i: 0.01, materialize=True)
    assert makespan == aggregated + _durations(plan, D2H)[-1]


def test_stream_takes_each_chunks_join_time_from_a_callable():
    plan, makespan = _double_buffered(lambda i: 0.001 * (i + 1))
    joins = _durations(plan, GPU)
    assert joins[1:] == [0.001 * (i + 1) for i in range(10)]
    assert makespan == sum([*_durations(plan, H2D), joins[-1]])


@settings(max_examples=30, deadline=None)
@given(
    join_seconds=st.lists(
        st.floats(min_value=0.0, max_value=10.0), min_size=1, max_size=12
    ),
    materialize=st.booleans(),
)
def test_stream_makespan_never_beats_its_transfers(join_seconds, materialize):
    """The H2D engine is serial: no schedule ends before every transfer
    has."""
    plan, makespan = _double_buffered(
        join_seconds.__getitem__,
        materialize=materialize,
        chunks=len(join_seconds),
    )
    assert makespan >= sum(_durations(plan, H2D))
