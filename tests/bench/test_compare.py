"""Snapshot/compare regression tool."""

import json

import pytest

from repro.bench import compare as compare_mod
from repro.bench.figures import fig07
from repro.errors import InvalidConfigError, SnapshotError

FIGS = {"fig07": fig07}
SCALE = 0.002


def test_snapshot_roundtrip_is_clean(tmp_path):
    path = tmp_path / "ref.json"
    compare_mod.snapshot(path, scale=SCALE, figures=FIGS)
    assert compare_mod.compare(path, figures=FIGS) == []


def test_compare_detects_moved_points(tmp_path):
    path = tmp_path / "ref.json"
    compare_mod.snapshot(path, scale=SCALE, figures=FIGS)
    payload = json.loads(path.read_text())
    series = payload["figures"]["fig07"]["Aggregation"]
    series[0][1] *= 2.0  # corrupt one stored point
    path.write_text(json.dumps(payload))
    deviations = compare_mod.compare(path, figures=FIGS)
    assert len(deviations) == 1
    assert deviations[0].series == "Aggregation"


def test_compare_detects_run_fail_flips(tmp_path):
    path = tmp_path / "ref.json"
    compare_mod.snapshot(path, scale=SCALE, figures=FIGS)
    payload = json.loads(path.read_text())
    payload["figures"]["fig07"]["Materialization"][2][1] = None
    path.write_text(json.dumps(payload))
    deviations = compare_mod.compare(path, figures=FIGS)
    assert any(d.reference is None for d in deviations)


def test_compare_respects_tolerance(tmp_path):
    path = tmp_path / "ref.json"
    compare_mod.snapshot(path, scale=SCALE, figures=FIGS)
    payload = json.loads(path.read_text())
    payload["figures"]["fig07"]["Aggregation"][0][1] *= 1.03  # 3% drift
    path.write_text(json.dumps(payload))
    assert compare_mod.compare(path, tolerance=0.05, figures=FIGS) == []
    assert compare_mod.compare(path, tolerance=0.01, figures=FIGS)


def test_version_mismatch_rejected(tmp_path):
    path = tmp_path / "ref.json"
    path.write_text(json.dumps({"version": 99, "figures": {}}))
    with pytest.raises(InvalidConfigError):
        compare_mod.compare(path, figures=FIGS)


def test_cli_snapshot_and_compare(tmp_path, capsys):
    from repro.bench.cli import main

    path = tmp_path / "ref.json"
    # Full CLI runs all figures; keep the scale tiny.
    assert main(["--snapshot", str(path), "--scale", "0.001"]) == 0
    assert main(["--compare", str(path), "--scale", "0.001"]) == 0
    out = capsys.readouterr().out
    assert "0 deviation(s)" in out


# A truncated or stale snapshot must not pass as "no deviations": the
# comparison is two-sided in figure names, series labels and x points.
def _edited_snapshot(tmp_path, edit):
    path = tmp_path / "ref.json"
    compare_mod.snapshot(path, scale=SCALE, figures=FIGS)
    payload = json.loads(path.read_text())
    edit(payload["figures"])
    path.write_text(json.dumps(payload))
    return path


def test_compare_rejects_a_figure_the_registry_lacks(tmp_path):
    path = _edited_snapshot(
        tmp_path, lambda figs: figs.update(fig99=figs["fig07"])
    )
    with pytest.raises(SnapshotError, match="fig99"):
        compare_mod.compare(path, figures=FIGS)


def test_compare_rejects_a_missing_series(tmp_path):
    path = _edited_snapshot(
        tmp_path, lambda figs: figs["fig07"].pop("Materialization")
    )
    with pytest.raises(SnapshotError, match="Materialization"):
        compare_mod.compare(path, figures=FIGS)


def test_compare_rejects_missing_x_points(tmp_path):
    path = _edited_snapshot(
        tmp_path, lambda figs: figs["fig07"]["Aggregation"].pop()
    )
    with pytest.raises(SnapshotError, match="x points"):
        compare_mod.compare(path, figures=FIGS)


def test_compare_rejects_a_snapshot_without_figures(tmp_path):
    path = _edited_snapshot(tmp_path, lambda figs: figs.clear())
    with pytest.raises(SnapshotError, match="fig07"):
        compare_mod.compare(path, figures=FIGS)


def test_snapshot_refuses_an_existing_file(tmp_path):
    path = tmp_path / "ref.json"
    path.write_text("keep me")
    with pytest.raises(SnapshotError, match="already exists"):
        compare_mod.snapshot(path, scale=SCALE, figures=FIGS)
    assert path.read_text() == "keep me"


def test_cli_refuses_to_overwrite_a_snapshot(tmp_path, capsys):
    from repro.bench.cli import main

    path = tmp_path / "ref.json"
    path.write_text("keep me")
    with pytest.raises(SystemExit) as exit_info:
        main(["--snapshot", str(path)])
    assert exit_info.value.code == 2
    assert "already exists" in capsys.readouterr().err
    assert path.read_text() == "keep me"


def test_cli_prints_the_tolerance_it_compared_at(tmp_path, capsys, monkeypatch):
    from repro.bench.cli import main

    monkeypatch.setattr(compare_mod, "ALL_FIGURES", FIGS)
    path = tmp_path / "ref.json"
    compare_mod.snapshot(path, scale=SCALE)
    assert main(["--compare", str(path), "--tolerance", "1e-9"]) == 0
    assert "0 deviation(s) beyond relative tolerance 1e-09" in capsys.readouterr().out
