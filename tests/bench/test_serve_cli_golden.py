"""The ``serve`` CLI's printed output, pinned invocation by invocation.

``golden_serve_cli.json`` maps each invocation below to the exit code
and the whole stdout of :func:`~repro.bench.serve_bench.serve_main`.
The ``wall … arrivals/s processed`` line of a ``--stream`` run measures
the host, so it is replaced by a fixed token before comparing.  The
invocations cover every mode (one level, a sweep, a stream), sharded
and heterogeneous fleets, stealing, a reordering admission policy with
deadline classes, a spaced arrival process, and fault injection in both
modes, so a refactor of the bench that moves a number, a heading or a
``verified:`` claim fails here.

To re-record it deliberately, delete the file and run::

    PYTHONPATH=src python -m tests.bench.test_serve_cli_golden
"""

from __future__ import annotations

import contextlib
import io
import json
import re
from pathlib import Path

import pytest

from repro.bench.serve_bench import serve_main

GOLDEN_PATH = Path(__file__).with_name("golden_serve_cli.json")

INVOCATIONS = (
    "--clients 16",
    "--clients 16 --devices 2",
    "--clients 16 --devices 2 --device-calib fast,slow --steal",
    "--clients 8 --devices 2 --device-caps 4,4",
    "--clients 8 --devices 3 --placement round_robin --admission sjf",
    "--clients 8 --arrival-rate 20",
    "--clients 8 --devices 2 --faults",
    "--clients 4 --devices 2 --faults --fault-seed 3",
    "--sweep 1,4,8 --devices 2",
    "--sweep 2,4 --admission edf --classes",
    "--stream --arrivals 1000 --devices 2",
    "--stream --arrivals 1000 --devices 2 --faults",
    "--stream --arrivals 1000 --devices 2 --admission edf --classes "
    "--deadline-scale 0.5 --slo 2.0",
    "--stream --arrivals 500 --max-queue 0 --compact-every 0 --seed 4",
)

_WALL = re.compile(r"^wall \S+ s \(\S+ arrivals/s processed\)$", re.MULTILINE)
WALL_TOKEN = "wall <host-dependent>"


def run_cli(invocation: str) -> dict:
    """Exit code and stdout of one ``serve`` invocation, wall line masked."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = serve_main(invocation.split())
    return {"exit": code, "stdout": _WALL.sub(WALL_TOKEN, out.getvalue())}


def _golden() -> dict[str, dict]:
    return json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))


def test_golden_covers_every_invocation():
    assert list(_golden()) == list(INVOCATIONS)


@pytest.mark.parametrize("invocation", INVOCATIONS)
def test_serve_cli_matches_golden(invocation):
    assert run_cli(invocation) == _golden()[invocation]


if __name__ == "__main__":
    with GOLDEN_PATH.open("x", encoding="utf-8") as handle:
        json.dump(
            {invocation: run_cli(invocation) for invocation in INVOCATIONS},
            handle,
            indent=1,
        )
        handle.write("\n")
    print(f"wrote {len(INVOCATIONS)} CLI runs to {GOLDEN_PATH}")
