#!/usr/bin/env python
"""Capture golden single-device serving schedules.

Writes ``tests/serve/golden_single_device.json``: the per-query outcome
fingerprint, makespan and peak reservation of the **single-device**
scheduler on every randomized property-suite workload
(:func:`repro.serve.workload.random_workload`, seeds ``0..N-1``) plus a
ladder of canonical mixed workloads.  The sharded serving layer's
``devices=1`` mode is pinned bit-identical against this file
(``tests/serve/test_placement_properties.py``), which is what makes the
multi-GPU refactor falsifiable: any drift in admission order, placement,
reservation size or simulated finish times on one device fails the
suite.

Re-running this script re-baselines the pin from the *current* code —
only do that deliberately, for a reviewed behaviour change, never to
make a red suite green.  Usage::

    PYTHONPATH=src python tools/capture_serve_golden.py
"""

from __future__ import annotations

import json
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
GOLDEN_PATH = REPO_ROOT / "tests" / "serve" / "golden_single_device.json"

#: Seeds of the randomized differential suite.
N_SEEDS = 200
#: Canonical mixed-workload ladder: (clients, spacing_seconds).
CANONICAL = ((1, 0.0), (2, 0.0), (4, 0.0), (8, 0.0), (16, 0.0), (8, 0.25))


def _entry(report) -> dict:
    from repro.bench.serve_bench import fingerprint

    return {
        "fingerprint": [list(item) for item in fingerprint(report)],
        "makespan": report.makespan,
        "peak_reserved_bytes": report.peak_reserved_bytes,
    }


def capture() -> dict:
    from repro.serve import QueryScheduler, mixed_workload, random_workload

    def run(requests):
        return QueryScheduler().run_online(requests)

    return {
        "seeds": {
            str(seed): _entry(run(random_workload(seed)))
            for seed in range(N_SEEDS)
        },
        "canonical": {
            f"{clients}x{spacing}": _entry(
                run(mixed_workload(clients, spacing_seconds=spacing))
            )
            for clients, spacing in CANONICAL
        },
    }


def main() -> int:
    payload = capture()
    GOLDEN_PATH.write_text(
        json.dumps(payload, indent=1, sort_keys=True) + "\n", encoding="utf-8"
    )
    print(
        f"captured {len(payload['seeds'])} seeds + "
        f"{len(payload['canonical'])} canonical workloads -> "
        f"{GOLDEN_PATH.relative_to(REPO_ROOT)}"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
