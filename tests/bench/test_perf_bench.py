"""Smoke tests of the tracked perf benchmark suite."""

import json

import pytest

from repro.bench import perf_bench
from repro.bench.perf_bench import (
    PerfEntry,
    bench_engine,
    merge_perf_json,
    perf_main,
    render,
    run_perf,
)


def test_engine_benchmark_reports_throughput():
    entries = bench_engine(quick=True)
    entry = entries["engine_tasks_per_sec"]
    assert entry.n > 0
    assert entry.ops_per_sec > 0
    assert entry.wall_seconds > 0


def test_run_perf_schema_and_render(tmp_path):
    entries = run_perf(quick=True)
    expected = {"estimate_warm", "fig12_cell_estimate", "engine_tasks_per_sec"}
    assert expected <= set(entries)
    assert any(name.startswith("estimate_cold[") for name in entries)
    assert any(name.startswith("serve_online_wall[") for name in entries)
    assert not any(name.startswith("serve_wall[") for name in entries)
    table = render(entries)
    assert "fig12_cell_estimate" in table

    out = tmp_path / "BENCH_perf.json"
    merge_perf_json(entries, str(out))
    payload = json.loads(out.read_text())
    for name, record in payload.items():
        assert set(record) == {"wall_seconds", "ops_per_sec", "n"}, name
        assert record["n"] >= 1


def test_perf_main_ceiling(tmp_path, capsys):
    out = str(tmp_path / "perf.json")
    # A generous ceiling passes (the fast path is ~100x under it)...
    assert perf_main(["--quick", "--out", out, "--ceiling", "30"]) == 0
    # ...and an absurd one fails loudly.
    assert perf_main(["--quick", "--out", "-", "--ceiling", "1e-9"]) == 1
    captured = capsys.readouterr().out
    assert "FAIL" in captured


SERVE_ENTRY = {"wall_seconds": 2.0, "ops_per_sec": 0.5, "n": 3}


def test_perf_write_keeps_serve_series(tmp_path, monkeypatch):
    """``perf`` merges into BENCH_perf.json: the ``serve_*`` series a
    ``serve`` run wrote survive, and stale perf entries are updated."""
    out = tmp_path / "BENCH_perf.json"
    out.write_text(
        json.dumps(
            {
                "serve_stream_wall[20000x2]": SERVE_ENTRY,
                "estimate_warm": {"wall_seconds": 9.0, "ops_per_sec": 0.1, "n": 1},
            }
        )
    )
    fresh = {"estimate_warm": PerfEntry(1e-5, 1e5, 200)}
    monkeypatch.setattr(perf_bench, "run_perf", lambda quick: fresh)
    assert perf_main(["--quick", "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["serve_stream_wall[20000x2]"] == SERVE_ENTRY
    assert payload["estimate_warm"] == {
        "wall_seconds": 1e-5,
        "ops_per_sec": 1e5,
        "n": 200,
    }


def test_failed_write_leaves_the_old_file_byte_identical(tmp_path, monkeypatch):
    out = tmp_path / "BENCH_perf.json"
    out.write_text(json.dumps({"serve_wall[4]": SERVE_ENTRY}, indent=1) + "\n")
    before = out.read_bytes()

    def dump_then_fail(payload, handle, **kwargs):
        handle.write('{"half": ')
        raise OSError("disk full")

    monkeypatch.setattr(perf_bench.json, "dump", dump_then_fail)
    with pytest.raises(OSError, match="disk full"):
        merge_perf_json({"estimate_warm": PerfEntry(1.0, 1.0, 1)}, str(out))
    assert out.read_bytes() == before
    assert [path.name for path in tmp_path.iterdir()] == [out.name]
