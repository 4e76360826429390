#!/usr/bin/env python
"""Capture golden serving schedules.

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

Also writes ``tests/serve/golden_hetero.json``: the device-aware
fingerprint (:func:`repro.bench.serve_bench.fingerprint_sharded`),
makespan and per-device peaks of two-device **heterogeneous** fleets
(``fast`` and ``slow`` calibration presets, in both device orders,
work stealing off and on) on random workload seeds ``0..49`` and the
32-client mixed workload — 204 runs, pinned by
``tests/serve/test_hetero.py``.  Every estimate and placement on such a
fleet is priced under the candidate device's own calibration, so any
memo that forgets the calibration moves these outcomes.

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
HETERO_PATH = REPO_ROOT / "tests" / "serve" / "golden_hetero.json"

#: Seeds of the randomized differential suite.
N_SEEDS = 200
#: Canonical mixed-workload ladder: (clients, spacing_seconds).
CANONICAL = ((1, 0.0), (2, 0.0), (4, 0.0), (8, 0.0), (16, 0.0), (8, 0.25))
#: Heterogeneous section: random-workload seeds, mixed-workload size,
#: device calibration orders (preset names) and stealing modes.
HETERO_SEEDS = 50
HETERO_MIXED = 32
HETERO_FLEETS = (("fast", "slow"), ("slow", "fast"))
HETERO_MODES = (("nosteal", False), ("steal", True))


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


def _hetero_workload(name: str) -> list:
    from repro.serve import mixed_workload, random_workload

    if name.startswith("random"):
        return random_workload(int(name.removeprefix("random")))
    return mixed_workload(int(name.removeprefix("mixed")))


def capture_hetero() -> dict:
    """Entry per ``<fleet>-<mode>-<workload>`` run, e.g.
    ``fast,slow-steal-random7``."""
    from repro.bench.serve_bench import fingerprint_sharded
    from repro.gpusim.calibration import calibration_preset
    from repro.serve import QueryScheduler

    workloads = [f"random{seed}" for seed in range(HETERO_SEEDS)]
    workloads.append(f"mixed{HETERO_MIXED}")
    entries = {}
    for fleet in HETERO_FLEETS:
        for mode, steal in HETERO_MODES:
            for name in workloads:
                report = QueryScheduler(
                    devices=len(fleet),
                    device_calibrations=[
                        calibration_preset(preset) for preset in fleet
                    ],
                    steal=steal,
                ).run_online(_hetero_workload(name))
                entries[f"{','.join(fleet)}-{mode}-{name}"] = {
                    "fingerprint": [
                        list(item) for item in fingerprint_sharded(report)
                    ],
                    "makespan": report.makespan,
                    "device_peak_bytes": list(report.device_peak_bytes),
                }
    return entries


def _write(path: Path, payload: dict) -> None:
    path.write_text(
        json.dumps(payload, indent=1, sort_keys=True) + "\n", encoding="utf-8"
    )


def main() -> int:
    payload = capture()
    _write(GOLDEN_PATH, payload)
    print(
        f"captured {len(payload['seeds'])} seeds + "
        f"{len(payload['canonical'])} canonical workloads -> "
        f"{GOLDEN_PATH.relative_to(REPO_ROOT)}"
    )
    hetero = capture_hetero()
    _write(HETERO_PATH, hetero)
    print(
        f"captured {len(hetero)} heterogeneous runs -> "
        f"{HETERO_PATH.relative_to(REPO_ROOT)}"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
