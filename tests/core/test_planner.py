"""Location-based strategy selection (the paper's 'no one size fits all')."""

from repro.core import (
    COPROCESSING,
    GPU_RESIDENT,
    STREAMING,
    CoProcessingJoin,
    GpuPartitionedJoin,
    StreamingProbeJoin,
    choose_strategy_name,
    estimate_with_planner,
    plan_join,
)
from repro.data import Distribution, JoinSpec, RelationSpec, unique_pair

M = 1_000_000


def _spec(build_m: int, probe_m: int) -> JoinSpec:
    return JoinSpec(
        build=RelationSpec(n=build_m * M),
        probe=RelationSpec(
            n=probe_m * M, distinct=build_m * M, distribution=Distribution.UNIFORM
        ),
    )


def test_small_joins_run_resident():
    assert choose_strategy_name(unique_pair(16 * M)) == GPU_RESIDENT


def test_resident_limit_matches_paper():
    """§V-C: 'Our join algorithm implementation is able to push this
    limit to 128M tuples' for equal GPU-resident tables."""
    assert choose_strategy_name(unique_pair(128 * M)) == GPU_RESIDENT
    assert choose_strategy_name(unique_pair(256 * M)) != GPU_RESIDENT


def test_build_fits_probe_does_not_streams():
    assert choose_strategy_name(_spec(64, 2048)) == STREAMING


def test_neither_fits_coprocesses():
    assert choose_strategy_name(_spec(1024, 1024)) == COPROCESSING


def test_plan_join_instantiates_matching_strategy():
    assert isinstance(plan_join(unique_pair(16 * M)), GpuPartitionedJoin)
    assert isinstance(plan_join(_spec(64, 2048)), StreamingProbeJoin)
    assert isinstance(plan_join(_spec(1024, 1024)), CoProcessingJoin)


def test_estimate_with_planner_runs_each_regime():
    for spec in (unique_pair(16 * M), _spec(64, 1024), _spec(1024, 1024)):
        metrics = estimate_with_planner(spec)
        assert metrics.seconds > 0
        assert metrics.throughput > 0


def test_planner_picks_fastest_feasible_option():
    """The resident strategy must dominate wherever it is chosen."""
    spec = unique_pair(64 * M)
    resident = GpuPartitionedJoin().estimate(spec)
    coproc = CoProcessingJoin().estimate(spec)
    assert resident.throughput > coproc.throughput
    assert estimate_with_planner(spec).throughput == resident.throughput


def test_ladder_rung_takes_a_footprint_equal_to_the_headroom():
    """A rung fits when its footprint is at most the available bytes —
    the admission gate reserves exactly the footprint, so an exact fit
    must be taken — and the co-processing floor is the answer when
    nothing fits.  ``choose_strategy_name`` walks the same rungs."""
    from repro.core.planner import ladder_footprints, ladder_rung
    from repro.gpusim.spec import SystemSpec

    spec = unique_pair(64 * M)
    resident, streaming, coproc = ladder_footprints(spec, SystemSpec())
    assert resident > streaming > coproc
    assert ladder_rung((resident, streaming, coproc), resident) == 0
    assert ladder_rung((resident, streaming, coproc), resident - 1) == 1
    assert ladder_rung((resident, streaming, coproc), streaming - 1) == 2
    assert ladder_rung((resident, streaming, coproc), 0) == 2
    for available, key in (
        (resident, GPU_RESIDENT),
        (streaming, STREAMING),
        (streaming - 1, COPROCESSING),
    ):
        assert choose_strategy_name(spec, available_bytes=available) == key
