"""Recorded golden schedules and the golden-match check the suites share.

``GOLDEN`` is ``golden_single_device.json``, captured by
``tools/capture_serve_golden.py``: the per-query outcome fingerprint,
makespan and peak reservation of the single-device scheduler on every
:func:`~repro.serve.workload.random_workload` seed (``GOLDEN["seeds"]``)
and on a ladder of canonical mixed workloads (``GOLDEN["canonical"]``).
"""

import json
from pathlib import Path

from repro.bench.serve_bench import fingerprint

GOLDEN = json.loads(
    (Path(__file__).parent / "golden_single_device.json").read_text(
        encoding="utf-8"
    )
)

#: Every recorded random-workload seed, ascending.
GOLDEN_SEEDS = sorted(int(seed) for seed in GOLDEN["seeds"])


def assert_matches_golden(report, entry) -> None:
    """``report`` reproduces one recorded schedule bit for bit: same
    admissions, strategies, reservations, admit/finish times, makespan
    and peak."""
    assert [list(item) for item in fingerprint(report)] == entry["fingerprint"]
    assert report.makespan == entry["makespan"]
    assert report.peak_reserved_bytes == entry["peak_reserved_bytes"]

