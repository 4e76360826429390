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


def test_serve_regression_invariants():
    """The per-PR serving smoke: deterministic, within capacity, and
    covering both the single-device and the two-device sharded fleet."""
    from repro.bench.regress import run_serve_regression

    lines = run_serve_regression(levels=(1, 2))
    assert len(lines) == 4  # one single-device + one sharded line per level
    assert all(line.endswith("ok") for line in lines)
    assert sum("2 devices" in line for line in lines) == 2
    assert all("batch oracle" in line for line in lines)


def test_stream_regression_invariants():
    """Compacted streaming == uncompacted == online on a mid-size
    stream, single-device and sharded — and the check is non-vacuous
    (compaction actually retired work)."""
    from repro.bench.regress import run_stream_regression

    lines = run_stream_regression(arrivals=120)
    assert len(lines) == 2
    assert all(line.endswith("ok") for line in lines)
    assert all("compacted == uncompacted == online" in line for line in lines)


def test_serve_regression_propagates_mid_ladder_failures(monkeypatch):
    """A strategy raising mid-ladder must surface as the library error,
    not hang the serving regression or report a bogus oracle verdict.

    The serving regression sizes every request's offers on the planner
    ladder; if a rung's footprint explodes (a buggy strategy, a bad
    calibration), the run must fail with that error before any verdict
    is printed.
    """
    import pytest

    from repro.bench.regress import run_serve_regression
    from repro.core import estimate_cache
    from repro.core.streaming import StreamingProbeJoin
    from repro.errors import ReproError, SchedulingError

    estimate_cache.clear()  # drop memoized ladder walks from other tests

    def explode(cls, spec, system):
        raise SchedulingError("streaming rung exploded mid-ladder")

    monkeypatch.setattr(
        StreamingProbeJoin, "device_bytes_needed", classmethod(explode)
    )
    with pytest.raises(ReproError, match="mid-ladder"):
        run_serve_regression(levels=(2,))
    estimate_cache.clear()  # don't leak poisoned ladder entries


def test_store_regression_warm_start_is_exact():
    """A warm start from a reloaded cache-store file reproduces the
    golden and cold schedules, and the store answers every warm miss."""
    from repro.bench.regress import run_store_regression

    lines = run_store_regression(seeds=(0, 60))
    assert len(lines) == 1
    assert lines[0].endswith("ok")
    assert "every warm miss answered by the store" in lines[0]
