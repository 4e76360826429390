"""Tests for the benchmark itself.

    python3 -m pytest -q perfbench

Run from the repository root.  They check that the tracer restores every
patched attribute, that tracing does not change any simulated decision,
that a digest mismatch fails the run, that the metrics ``run.py``
prints are exactly the ones ``BENCHMARK.json`` declares, and that
``stream_edf_recovery`` crashes exactly one device.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

import tracer as tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def api():
    return workloads.load_program()


def test_tracer_restores_every_patched_attribute(api):
    targets = tracing.layer_targets(api)
    originals = [vars(owner)[attr] for owner, attr, _, _ in targets]
    tracer = tracing.Tracer().install(api)
    with tracer:
        for (owner, attr, _, _), original in zip(targets, originals):
            assert vars(owner)[attr] is not original, f"{owner.__name__}.{attr}"
    for (owner, attr, _, _), original in zip(targets, originals):
        assert vars(owner)[attr] is original, f"{owner.__name__}.{attr}"


def test_tracer_reduces_spans_to_self_time_and_outer_calls():
    tracer = tracing.Tracer()
    outer, inner = tracer.span_id("a"), tracer.span_id("b")
    # a[0, 10] > b[1, 4] > b[2, 3], and a[0, 10] > a[5, 9]
    for kind, parent, start, end in (
        (outer, -1, 0.0, 10.0),
        (inner, 0, 1.0, 4.0),
        (inner, 1, 2.0, 3.0),
        (outer, 0, 5.0, 9.0),
    ):
        tracer.kind.append(kind)
        tracer.parent.append(parent)
        tracer.tag.append(0)
        tracer.start.append(start)
        tracer.end.append(end)
    spans = tracer.reduce()
    assert spans["a"] == {"self_s": 3.0 + 4.0, "calls": 1}
    assert spans["b"] == {"self_s": 2.0 + 1.0, "calls": 1}


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_traced_round_decides_exactly_like_untraced(api, name):
    workload = workloads.Workload(name, api, seed=3)
    plain = workload.run_round()
    tracer = tracing.Tracer().install(api)
    with tracer:
        traced = workload.run_round(tracer.pull if workload.streaming else None)
    assert traced.digest == plain.digest
    spans = tracer.reduce()
    assert spans["scheduler.run"]["calls"] == 1
    assert spans["arena.try_reserve"]["calls"] == len(plain.report.outcomes) + sum(
        o.retries for o in plain.report.outcomes
    )


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_recorded_digest_matches(api, name):
    recorded = json.loads((HERE / "digests.json").read_text())[name]["0"]
    assert workloads.Workload(name, api, seed=0).run_round().digest == recorded


def test_a_digest_mismatch_fails_the_run_and_counts_its_arrivals(monkeypatch):
    import run

    monkeypatch.setattr(run, "recorded_digest", lambda name, seed: "0" * 64)
    bench = run.Run(run.parse_args(["--workload", "mixed_cold", "--seed", "1", "--seconds", "1"]))
    bench.measure()
    assert bench.correct is False
    assert bench.failed >= workloads.MIXED_QUERIES
    assert bench.attempted >= bench.failed


def run_cli(name: str, trace: int) -> dict:
    out = subprocess.run(
        [
            sys.executable, str(HERE / "run.py"), "--workload", name,
            "--seed", "5", "--seconds", "1", "--trace", str(trace),
        ],
        cwd=ROOT, capture_output=True, text=True, check=True,
    )
    return json.loads(out.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", (0, 1))
@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_printed_metrics_match_benchmark_json(name, trace):
    result = run_cli(name, trace)
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert {m: v["unit"] for m, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared
    }
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_edf_recovery_plans_exactly_one_crash_then_a_join(api):
    window = workloads.STREAM_ARRIVALS / workloads.ARRIVAL_RATE
    for seed in range(200):
        workload = workloads.Workload("stream_edf_recovery", api, seed)
        (crash,) = workload.fault_plan.crashes
        (join,) = workload.fleet_events
        assert 0.4 * window <= crash.at <= 0.6 * window
        assert join.action == "add" and crash.at + 2.0 <= join.at <= crash.at + 4.0


@pytest.mark.parametrize("seed", (0, 1, 2))
def test_edf_recovery_crashes_exactly_one_device(api, seed):
    workload = workloads.Workload("stream_edf_recovery", api, seed)
    report = workload.run_round().report
    (crash,) = workload.fault_plan.crashes
    on_crashed = [o for o in report.outcomes if o.device == crash.device]
    assert on_crashed and all(o.finish_at <= crash.at for o in on_crashed)
    assert sum(o.retries for o in report.outcomes) > 0
    assert any(o.device == workloads.DEVICES for o in report.outcomes)
    survivors = {o.device for o in report.outcomes if o.admit_at > crash.at}
    assert crash.device not in survivors and len(survivors) == 2


def test_without_the_program_the_benchmark_fails_without_a_result(tmp_path):
    (tmp_path / "perfbench").mkdir()
    for path in HERE.glob("*.py"):
        (tmp_path / "perfbench" / path.name).write_text(path.read_text())
    (tmp_path / "BENCHMARK.json").write_text((ROOT / "BENCHMARK.json").read_text())
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "stream_fifo",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert out.returncode != 0
    assert '"correct"' not in out.stdout
