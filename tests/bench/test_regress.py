"""The registry-refactor equivalence harness."""

from repro.bench.regress import (
    DEFAULT_TOLERANCE,
    reference_spec,
    render,
    run_regression,
)
from repro.core import registered_strategies


def test_all_entry_points_agree():
    rows = run_regression()
    assert {row.key for row in rows} == set(registered_strategies())
    for row in rows:
        assert row.ok(), (
            f"{row.key}: direct={row.direct_seconds!r} "
            f"registry={row.registry_seconds!r} "
            f"pipeline={row.pipeline_seconds!r} "
            f"diff={row.max_abs_diff!r} > {DEFAULT_TOLERANCE!r}"
        )


def test_serial_strategies_check_hand_summed_arithmetic():
    rows = {row.key: row for row in run_regression()}
    # The in-GPU strategies are serial chains on the compute queue: the
    # engine makespan must equal the pre-engine hand-summed phases.
    assert rows["gpu_resident"].handsum_seconds is not None
    assert rows["gpu_nonpartitioned"].handsum_seconds is not None
    # Pipelined strategies genuinely overlap resources.
    assert rows["streaming"].handsum_seconds is None
    assert rows["coprocessing"].handsum_seconds is None


def test_reference_specs_match_strategy_regimes():
    for key in registered_strategies():
        spec = reference_spec(key)
        assert spec.total_tuples > 0


def test_render_marks_ok():
    table = render(run_regression(keys=("gpu_resident",)))
    assert "gpu_resident" in table
    assert "ok" in table

