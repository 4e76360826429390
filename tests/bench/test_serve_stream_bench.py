"""Smoke tests of the ``serve --stream`` steady-state harness."""

import pytest

from repro.bench.serve_bench import run_stream_bench, serve_main


def test_run_stream_bench_verifies_and_reports():
    report, wall = run_stream_bench(
        600, arrival_rate=250.0, devices=2, max_queue_depth=32,
        slo_wait_seconds=2.0, compact_every=32,
    )
    assert wall > 0
    assert report.arrivals == 600
    assert report.completed + report.shed_count == 600
    assert report.compactions > 0
    assert report.peak_retained_tasks <= (
        report.peak_inflight_tasks + 32 * report.max_tasks_per_query
    )


def test_serve_main_stream_cli(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code = serve_main(
        ["--stream", "--arrivals", "400", "--devices", "2",
         "--arrival-rate", "250", "--max-queue", "32", "--slo", "2.0",
         "--compact-every", "32"]
    )
    assert code == 0
    captured = capsys.readouterr().out
    assert "verified" in captured
    assert "arrivals/s processed" in captured
    # The run prints its results and writes nothing.
    assert list(tmp_path.iterdir()) == []

    # Sanity bounds fail loudly.
    assert serve_main(["--stream", "--arrivals", "100", "--max-wall", "0.0"]) == 1
    assert "FAIL" in capsys.readouterr().out
    assert serve_main(
        ["--stream", "--arrivals", "400", "--arrival-rate", "300",
         "--max-queue", "8", "--max-shed-rate", "0.0"]
    ) == 1
    assert "FAIL" in capsys.readouterr().out


@pytest.mark.parametrize(
    "argv, verified",
    [
        (
            ["--compact-every", "0"],
            "verified: every arena within capacity and drained, "
            "completed + shed == arrivals with distinct qids",
        ),
        (
            ["--faults"],
            "verified: every arena within capacity and drained, "
            "completed + shed + failed == arrivals with distinct qids, "
            "retained schedule bounded by in-flight work",
        ),
    ],
    ids=["compaction-off", "faulted"],
)
def test_serve_main_stream_verified_line_names_what_was_audited(
    argv, verified, capsys
):
    """The retention bound is claimed only when compaction ran, and
    failed queries only when the run was faulted."""
    code = serve_main(
        ["--stream", "--arrivals", "300", "--devices", "2", *argv]
    )
    assert code == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line for line in lines if line.startswith("verified:")] == [
        verified
    ]


def test_serve_main_stream_excludes_sweep_flags(capsys):
    with pytest.raises(SystemExit):
        serve_main(["--stream", "--clients", "4"])


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["--clients", "2", "--max-wall", "0", "--max-shed-rate", "0"],
         "--max-wall"),
        (["--clients", "2", "--max-shed-rate", "0"], "--max-shed-rate"),
        (["--sweep", "2,4", "--max-wall", "0"], "--max-wall"),
        (["--clients", "4", "--max-failed-rate", "0"], "--max-failed-rate"),
        (["--stream", "--arrivals", "50", "--max-failed-rate", "0"],
         "--max-failed-rate"),
        (["--stream", "--arrivals", "50", "--max-queue", "-3"], "--max-queue"),
        (["--stream", "--arrivals", "50", "--compact-every", "-1"],
         "--compact-every"),
    ],
    ids=[
        "max-wall-with-clients",
        "max-shed-rate-with-clients",
        "max-wall-with-sweep",
        "max-failed-rate-without-faults",
        "max-failed-rate-stream-without-faults",
        "negative-max-queue",
        "negative-compact-every",
    ],
)
def test_serve_cli_rejects_bounds_it_would_ignore(argv, flag, capsys):
    """A bound outside its mode, or a negative cap, used to be read by
    nothing and exit 0; it must fail argument parsing, naming the flag."""
    with pytest.raises(SystemExit) as excinfo:
        serve_main(argv)
    assert excinfo.value.code == 2
    assert flag in capsys.readouterr().err
