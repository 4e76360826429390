"""Golden streaming runs that reach every way out of the wait queue.

The perfbench digests pin fifo and edf streams with a queue cap and one
crash, and the other serve goldens pin ``run_online``.  None of them
covers ``slo_wait`` sheds, admission-fault refusals,
``retries_exhausted`` and ``fleet_lost`` failures, ``weighted_fair``
and ``sjf`` streams, or the report's counters.  ``golden_stream.json``
pins ``stream_workload(300, arrival_rate=200, seed=s)`` for seeds 0–24
under five configurations, every run with ``compact_every=32``:

* ``fifo-slo``: two devices, a 0.05 s wait SLO and deadline classes,
  so most sheds are ``slo_wait`` verdicts;
* ``edf-faults``: edf with a one-retry budget, a queue cap, a seeded
  crash plan with admission faults and a full-size device joining at
  1.05 s, so budgets run out and queues fill;
* ``wfair-steal``: weighted-fair admission with stealing on a
  full/half/quarter fleet whose device 0 retires at 0.75 s, so queries
  are stolen, degraded and expire at their deadlines;
* ``sjf-loss``: sjf under a crash plan that may take down the whole
  fleet, so some runs fail everything left with ``fleet_lost``;
* ``fifo-retry-expire``: fifo on two devices with a two-retry budget,
  a queue cap, deadline classes and a seeded crash plan with admission
  faults, so queries that re-entered the queue after a failure later
  expire there (49 of the config's 747 ``deadline_expired`` sheds over
  the 25 seeds, in 21 of the runs).

Each run is one SHA-256, floats by ``repr``, over its device-aware
fingerprint (:func:`~repro.bench.serve_bench.fingerprint_sharded`) and
each outcome's retries, steal and deadline bits; every shed's qid,
reason, queue depth and estimated wait; every failure's qid, reason,
attempts and last device; the makespan and per-device peaks; the task
and compaction counters; and the sampled queue depths.

The first four configurations were recorded before the serve loop
became one run object, and ``fifo-retry-expire`` before the wait queue
kept a deadline heap, so the file checks that neither rewrite moved a
decision or a counter.  To
re-record it deliberately, for a reviewed change of the admission
rule, delete the file and run::

    PYTHONPATH=src python -m tests.serve.test_stream_golden
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

from repro.bench.serve_bench import fingerprint_sharded
from repro.gpusim.spec import SystemSpec
from repro.serve import (
    DEADLINE_CLASSES,
    FaultPlan,
    FleetEvent,
    QueryScheduler,
    ServeReport,
    stream_workload,
)

GOLDEN_PATH = Path(__file__).with_name("golden_stream.json")

SEEDS = range(25)
ARRIVALS = 300
FULL = SystemSpec().gpu.device_memory
CONFIGS = (
    "edf-faults", "fifo-retry-expire", "fifo-slo", "sjf-loss", "wfair-steal",
)


def serve(config: str, seed: int) -> ServeReport:
    """One golden run: ``config``'s scheduler and stream inputs on
    ``seed``'s 300-arrival stream."""
    classes = {"classes": DEADLINE_CLASSES, "deadline_scale": 0.05}
    if config == "sjf-loss":
        classes = {}
    requests = list(
        stream_workload(ARRIVALS, arrival_rate=200, seed=seed, **classes)
    )
    qids = [request.qid for request in requests]
    if config == "fifo-slo":
        scheduler = QueryScheduler(devices=2)
        inputs = {"slo_wait_seconds": 0.05}
    elif config == "edf-faults":
        scheduler = QueryScheduler(devices=2, admission="edf", max_retries=1)
        inputs = {
            "max_queue_depth": 64,
            "faults": FaultPlan.random(
                seed,
                devices=2,
                horizon=1.5,
                qids=qids,
                admission_fault_rate=0.05,
                max_admission_faults=2,
                allow_total_loss=False,
            ),
            "fleet_events": [
                FleetEvent(at=1.05, action="add", capacity_bytes=FULL)
            ],
        }
    elif config == "fifo-retry-expire":
        scheduler = QueryScheduler(devices=2, max_retries=2)
        inputs = {
            "max_queue_depth": 64,
            "faults": FaultPlan.random(
                seed,
                devices=2,
                horizon=1.5,
                qids=qids,
                admission_fault_rate=0.05,
                max_admission_faults=2,
                allow_total_loss=False,
            ),
        }
    elif config == "wfair-steal":
        scheduler = QueryScheduler(
            devices=3,
            admission="weighted_fair",
            steal=True,
            device_capacities=[FULL, FULL // 2, FULL // 4],
        )
        inputs = {
            "max_queue_depth": 32,
            "fleet_events": [FleetEvent(at=0.75, action="retire", device=0)],
        }
    else:
        scheduler = QueryScheduler(devices=2, admission="sjf")
        inputs = {
            "max_queue_depth": 64,
            "faults": FaultPlan.random(
                seed,
                devices=2,
                horizon=1.5,
                qids=qids,
                admission_fault_rate=0.03,
                allow_total_loss=True,
            ),
        }
    return scheduler.run_stream(requests, compact_every=32, **inputs)


def digest_of(report: ServeReport) -> str:
    digest = hashlib.sha256()

    def add(item: object) -> None:
        digest.update(repr(item).encode() + b"\n")

    for item in fingerprint_sharded(report):
        add(item)
    for o in report.outcomes:
        add((o.qid, o.retries, o.stolen, o.deadline_missed))
    for s in report.shed:
        add((s.qid, s.reason, s.queue_depth, s.estimated_wait_seconds))
    for f in report.failed:
        add((f.qid, f.reason, f.attempts, f.last_device))
    add((report.makespan, report.device_peak_bytes))
    add((
        report.peak_retained_tasks,
        report.peak_inflight_tasks,
        report.max_tasks_per_query,
        report.retired_tasks,
        report.compactions,
    ))
    add(report.queue_depths)
    return digest.hexdigest()


def run_config(config: str) -> tuple[dict[str, str], dict[str, int]]:
    """Per-seed run digests under ``config``, and totals over its
    seeds of what the configuration is meant to reach."""
    digests: dict[str, str] = {}
    reached = dict.fromkeys(
        ("slo_wait", "queue_full", "deadline_expired", "retries_exhausted",
         "fleet_lost", "retried", "stolen", "degraded", "late"),
        0,
    )
    for seed in SEEDS:
        report = serve(config, seed)
        digests[str(seed)] = digest_of(report)
        for item in report.shed:
            reached[item.reason] += 1
        for item in report.failed:
            reached[item.reason] += 1
        reached["retried"] += report.retried_count
        reached["stolen"] += report.stolen_count
        reached["degraded"] += report.degraded_count
        reached["late"] += report.deadline_missed_count
    return digests, reached


#: What each configuration is there to reach.
REACHES = {
    "fifo-slo": ("slo_wait",),
    "edf-faults": ("retries_exhausted", "retried", "queue_full", "late"),
    "wfair-steal": (
        "stolen", "degraded", "deadline_expired", "queue_full", "late",
    ),
    "sjf-loss": ("fleet_lost", "retried"),
    "fifo-retry-expire": ("retried", "deadline_expired"),
}


def _golden() -> dict[str, dict[str, str]]:
    return json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))


def test_stream_golden_covers_every_config_and_seed():
    golden = _golden()
    assert sorted(golden) == sorted(CONFIGS) == sorted(REACHES)
    for digests in golden.values():
        assert sorted(digests, key=int) == [str(seed) for seed in SEEDS]


@pytest.mark.parametrize("config", CONFIGS)
def test_stream_runs_match_golden(config):
    digests, reached = run_config(config)
    for what in REACHES[config]:
        assert reached[what] > 0, f"{config} never reaches {what}"
    assert digests == _golden()[config]


if __name__ == "__main__":
    with GOLDEN_PATH.open("x", encoding="utf-8") as handle:
        json.dump(
            {config: run_config(config)[0] for config in CONFIGS},
            handle,
            indent=1,
            sort_keys=True,
        )
        handle.write("\n")
    print(f"wrote {len(CONFIGS) * len(SEEDS)} run digests to {GOLDEN_PATH}")
