"""Record the benchmark's reference data.

    python3 perfbench/record.py digests
    python3 perfbench/record.py baseline

``digests`` runs one round of every workload for each of
``DIGEST_SEEDS`` and writes the outcome digests to
``perfbench/digests.json``; ``run.py`` fails a run whose outcomes differ
from the recorded digest for its workload and seed.  Re-record only when
a change is meant to alter simulated decisions, and say so in that
change.

``baseline`` runs ``run.py`` once per workload and seed of
``BASELINE_SEEDS`` untraced, for ``BENCHMARK.json``'s ``run_seconds``,
interleaving the workloads so that a slow spell of the host lands on all
of them, then once traced per workload, and writes the median and
interquartile range of every metric, with provenance, to
``perfbench/baseline.json``.  Run both from the repository root.
"""

from __future__ import annotations

import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

DIGESTS = HERE / "digests.json"
BASELINE = HERE / "baseline.json"
DIGEST_SEEDS = range(100)
#: One untraced run per seed; inside ``DIGEST_SEEDS``, so that every
#: baseline run is checked against its recorded digest.
BASELINE_SEEDS = range(10)
RUN_SECONDS = json.loads((HERE.parent / "BENCHMARK.json").read_text())["run_seconds"]


def record_digests() -> None:
    api = workloads.load_program()
    table = {}
    for name in workloads.WORKLOADS:
        table[name] = {
            str(seed): workloads.Workload(name, api, seed).run_round().digest
            for seed in DIGEST_SEEDS
        }
        print(f"{name}: {len(DIGEST_SEEDS)} digests", flush=True)
    DIGESTS.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")


def run_once(name: str, seed: int, trace: int) -> dict:
    out = subprocess.run(
        [
            sys.executable, str(HERE / "run.py"),
            "--workload", name, "--seed", str(seed),
            "--seconds", str(RUN_SECONDS), "--trace", str(trace),
        ],
        capture_output=True, text=True, check=True,
    )
    result = json.loads(out.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"{name} seed {seed} failed verification:\n{out.stderr}")
    return result


def summarize(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {
        "median": statistics.median(values),
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / statistics.median(values) if median else 0.0,
        "values": values,
    }


def git_sha() -> str:
    try:
        return subprocess.run(
            ["git", "rev-parse", "HEAD"], capture_output=True, text=True, check=True
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def record_baseline() -> None:
    samples: dict[str, dict[str, list[float]]] = {n: {} for n in workloads.WORKLOADS}
    for seed in BASELINE_SEEDS:
        for name in workloads.WORKLOADS:
            start = time.perf_counter()
            metrics = run_once(name, seed, 0)["metrics"]
            for metric, entry in metrics.items():
                samples[name].setdefault(metric, []).append(entry["value"])
            print(f"{name} seed {seed}: {time.perf_counter() - start:.1f} s", flush=True)
    first = BASELINE_SEEDS[0]
    traced = {
        name: {k: v["value"] for k, v in run_once(name, first, 1)["metrics"].items()}
        for name in workloads.WORKLOADS
    }
    baseline = {
        "provenance": {
            "git_sha": git_sha(),
            "python": platform.python_version(),
            "nproc": os.cpu_count(),
            "machine": platform.machine(),
            "run_seconds": RUN_SECONDS,
            "seeds": [first, BASELINE_SEEDS[-1]],
            "recorded_at": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        },
        "end_to_end": {
            name: {metric: summarize(values) for metric, values in metrics.items()}
            for name, metrics in samples.items()
        },
        "per_layer": traced,
    }
    BASELINE.write_text(json.dumps(baseline, indent=1) + "\n")


def main(argv=None) -> int:
    commands = {"digests": record_digests, "baseline": record_baseline}
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 1 or args[0] not in commands:
        print(__doc__, file=sys.stderr)
        return 2
    commands[args[0]]()
    return 0


if __name__ == "__main__":
    sys.exit(main())
