"""Golden co-processing plans.

``golden_coproc_plans.json`` holds one SHA-256 per analytic
co-processing plan, taken over every task's name, resource,
``repr(duration)`` and dependencies, so any change to a simulated
duration or to the task graph of these plans fails here.  The cases
cover a unique join, Zipf 1.0 skew on either side and Zipf 0.5 on both,
each under the whole device, the serving benchmark's 1.25 GiB grant and
a 1 GiB grant (which splits host partitions across working sets), with
and without materialization.

The file was recorded before ``prepare`` shared one join evaluator
between working sets with equal inputs, so it checks that the sharing
moved no duration.  To re-record it deliberately, for a reviewed change
of the cost model, delete the file and run::

    PYTHONPATH=src python -m tests.core.test_coproc_golden
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

from repro.core import CoProcessingJoin
from repro.data import unique_pair, zipf_pair

GOLDEN_PATH = Path(__file__).with_name("golden_coproc_plans.json")

GIB = 1 << 30
N = 512_000_000
SPECS = {
    "unique": unique_pair(N),
    "zipf1.0-build": zipf_pair(N, 1.0, skew_side="build"),
    "zipf1.0-probe": zipf_pair(N, 1.0, skew_side="probe"),
    "zipf0.5-both": zipf_pair(N, 0.5, skew_side="both"),
}
GRANTS = {"whole": None, "1.25GiB": int(1.25 * GIB), "1GiB": GIB}
CASES = [
    (f"{spec}/{grant}/{'mat' if materialize else 'agg'}", spec, grant, materialize)
    for spec in SPECS
    for grant in GRANTS
    for materialize in (False, True)
]


def plan_digest(spec: str, grant: str, materialize: bool) -> str:
    """SHA-256 of one prepared plan's task graph."""
    coproc = CoProcessingJoin(device_budget=GRANTS[grant])
    plan = coproc.prepare(SPECS[spec], materialize=materialize)
    digest = hashlib.sha256()
    for task in plan.tasks:
        line = "\t".join(
            (task.name, task.resource, repr(task.duration), ",".join(task.deps))
        )
        digest.update(line.encode() + b"\n")
    return digest.hexdigest()


def _golden() -> dict[str, str]:
    return json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))


def test_golden_covers_every_case():
    assert sorted(_golden()) == sorted(case[0] for case in CASES)


@pytest.mark.parametrize(
    "key, spec, grant, materialize", CASES, ids=[case[0] for case in CASES]
)
def test_coproc_plan_matches_golden(key, spec, grant, materialize):
    assert plan_digest(spec, grant, materialize) == _golden()[key]


if __name__ == "__main__":
    with GOLDEN_PATH.open("x", encoding="utf-8") as handle:
        json.dump(
            {case[0]: plan_digest(*case[1:]) for case in CASES},
            handle,
            indent=1,
            sort_keys=True,
        )
        handle.write("\n")
    print(f"wrote {len(CASES)} plan digests to {GOLDEN_PATH}")
