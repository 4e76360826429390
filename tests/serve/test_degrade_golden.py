"""Golden serving runs that reach the degrade-vs-wait comparison.

When no device can take a query's unconstrained placement, the
scheduler weighs the best degraded placement against the
``max_degradation`` bound and against queueing for the unconstrained
placement's memory.  The 200 single-device golden seeds seldom get
there, so ``golden_degrade.json`` pins ``random_workload`` seeds 0–99
under ``max_degradation=4.0`` on three fleets, one per way the
comparison tends to go:

* one full-size device: the wait comparison decides most verdicts;
* two 4 GB devices: most verdicts degrade;
* a fast and a slow device of 4 GB each: the bound rejects most.

Each run is one SHA-256 over its device-aware fingerprint
(:func:`~repro.bench.serve_bench.fingerprint_sharded`), its makespan
and its per-device peak reservations, floats by ``repr``, so any moved
admission, placement, grant or simulated time fails here.

The file was recorded before the placement probe tested the solo fit
first and the bound before the queueing alternative, so it checks that
the reordering moved no decision.  To re-record it deliberately, for a
reviewed change of the admission rule, delete the file and run::

    PYTHONPATH=src python -m tests.serve.test_degrade_golden
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

from repro.bench.serve_bench import fingerprint_sharded
from repro.gpusim.calibration import calibration_preset
from repro.serve import QueryScheduler, random_workload

GOLDEN_PATH = Path(__file__).with_name("golden_degrade.json")

MAX_DEGRADATION = 4.0
SEEDS = range(100)
GB4 = 4_000_000_000
FLEETS = {
    "one-device": {},
    "two-4GB": {"devices": 2, "device_capacities": [GB4, GB4]},
    "fast,slow-4GB": {
        "devices": 2,
        "device_capacities": [GB4, GB4],
        "device_calibrations": [
            calibration_preset("fast"),
            calibration_preset("slow"),
        ],
    },
}


def run_fleet(fleet: str) -> tuple[dict[str, str], int]:
    """Per-seed run digests on ``fleet``, and the number of degraded
    admissions across its runs."""
    digests: dict[str, str] = {}
    degraded = 0
    for seed in SEEDS:
        report = QueryScheduler(
            max_degradation=MAX_DEGRADATION, **FLEETS[fleet]
        ).run_online(random_workload(seed))
        digest = hashlib.sha256()
        for item in fingerprint_sharded(report):
            digest.update(repr(item).encode() + b"\n")
        digest.update(
            repr((report.makespan, report.device_peak_bytes)).encode()
        )
        digests[str(seed)] = digest.hexdigest()
        degraded += report.degraded_count
    return digests, degraded


def _golden() -> dict[str, dict[str, str]]:
    return json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))


def test_golden_covers_every_fleet_and_seed():
    golden = _golden()
    assert sorted(golden) == sorted(FLEETS)
    for digests in golden.values():
        assert sorted(digests, key=int) == [str(seed) for seed in SEEDS]


@pytest.mark.parametrize("fleet", sorted(FLEETS))
def test_degrade_runs_match_golden(fleet):
    digests, degraded = run_fleet(fleet)
    assert degraded > 0  # the fleet really reaches the degrade branch
    assert digests == _golden()[fleet]


if __name__ == "__main__":
    with GOLDEN_PATH.open("x", encoding="utf-8") as handle:
        json.dump(
            {fleet: run_fleet(fleet)[0] for fleet in FLEETS},
            handle,
            indent=1,
            sort_keys=True,
        )
        handle.write("\n")
    print(f"wrote {len(FLEETS) * len(SEEDS)} run digests to {GOLDEN_PATH}")
