"""The benchmark's workloads, driven through the program's public API.

Each workload is a seeded recipe for one *round*: the inputs are built
from ``--seed`` alone, the round runs one scheduler call, and the round
returns the report, its wall time, the wall-clock instant of every
arrival pull and the digest of its per-query outcomes.  Rounds of one
run repeat the same inputs, so every round must produce the same digest.

* ``stream_fifo`` -- ``stream_workload`` at 200 arrivals per simulated
  second through ``run_stream`` on 2 devices, fifo admission,
  least-loaded placement, queue cap 128, compaction every 256 releases.
* ``stream_edf_recovery`` -- the same stream stamped with
  ``DEADLINE_CLASSES`` under ``edf`` admission, with exactly one device
  crash in the middle of the arrival window and a replacement device
  joining a few simulated seconds later.
* ``mixed_cold`` -- the 64-request ``mixed_workload`` in a seeded
  rotation of submit order through ``run_online`` on 2 devices, with
  the process-wide estimate cache cleared before every round.
"""

from __future__ import annotations

import hashlib
import importlib
import random
import sys
import time
from array import array
from dataclasses import dataclass
from pathlib import Path
from types import SimpleNamespace
from typing import Any, Callable

SRC = Path(__file__).resolve().parent.parent / "src"

DEVICES = 2
ARRIVAL_RATE = 200.0
MAX_QUEUE = 128
COMPACT_EVERY = 256
#: Arrivals per stream round: about a second of wall time at the seed.
STREAM_ARRIVALS = 4000
MIXED_QUERIES = 64
#: Relative position of the crash inside the arrival window, and the
#: delay (simulated seconds) before the replacement device joins.
CRASH_WINDOW = (0.4, 0.6)
REPLACEMENT_DELAY = (2.0, 4.0)

CACHE_FIELDS = (
    "hits", "misses", "plan_hits", "plan_misses", "ladder_hits", "ladder_misses"
)

WORKLOADS = ("stream_fifo", "stream_edf_recovery", "mixed_cold")


def load_program() -> SimpleNamespace:
    """Import (or re-import) the program's public modules from ``src``.

    Any already-imported ``repro`` module is dropped first, so calling
    this repeatedly measures the program's own import cost every time.
    Third-party modules stay loaded.
    """
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    for name in [m for m in sys.modules if m == "repro" or m.startswith("repro.")]:
        del sys.modules[name]
    modules = {
        "serve": "repro.serve",
        "scheduler": "repro.serve.scheduler",
        "workload": "repro.serve.workload",
        "faults": "repro.serve.faults",
        "placement": "repro.serve.placement",
        "admission": "repro.serve.admission",
        "estimate_cache": "repro.core.estimate_cache",
        "strategy": "repro.core.strategy",
        "cost": "repro.gpusim.cost",
        "calibration": "repro.gpusim.calibration",
        "arena": "repro.gpusim.arena",
        "engine": "repro.pipeline.engine",
        "gpusim_spec": "repro.gpusim.spec",
        "serve_bench": "repro.bench.serve_bench",
    }
    return SimpleNamespace(
        **{key: importlib.import_module(name) for key, name in modules.items()}
    )


class TimedArrivals:
    """Iterator over a request source that stamps the wall clock of
    every pull; ``run_stream`` pulls lazily, so consecutive stamps are
    the wall time the program spent per arrival.  ``on_next`` (the
    tracer's hook) wraps each pull when set."""

    def __init__(self, source, capacity: int, on_next: Callable | None = None):
        self._next = iter(source).__next__
        self.stamps = array("d", bytes(8 * capacity))
        self.pulled = 0
        self._on_next = on_next

    def __iter__(self):
        return self

    def __next__(self):
        if self._on_next is not None:
            item = self._on_next(self._next, self.pulled)
        else:
            item = self._next()
        self.stamps[self.pulled] = time.perf_counter()
        self.pulled += 1
        return item


@dataclass
class Round:
    report: Any
    #: ``perf_counter()`` when the scheduler call started, and its wall time.
    start: float
    wall_s: float
    arrivals: int
    failed: int
    digest: str
    #: Wall clock of every arrival pull (streams only).
    stamps: Any
    #: Estimate/plan/ladder cache hits and misses during the round.
    cache: dict[str, int]


@dataclass
class Workload:
    """One workload bound to a loaded program and a seed."""

    name: str
    api: SimpleNamespace
    seed: int

    def __post_init__(self) -> None:
        self.streaming = self.name.startswith("stream")
        self.fault_plan, self.fleet_events = self._faults()
        self.mixed_requests = self._mixed_requests()

    # -- inputs ------------------------------------------------------------
    def _faults(self):
        if self.name != "stream_edf_recovery":
            return None, None
        rng = random.Random(f"{self.seed}:faults")
        window = STREAM_ARRIVALS / ARRIVAL_RATE
        crash_at = round(window * rng.uniform(*CRASH_WINDOW), 6)
        join_at = round(crash_at + rng.uniform(*REPLACEMENT_DELAY), 6)
        faults = self.api.faults
        plan = faults.FaultPlan(
            crashes=(faults.DeviceCrash(at=crash_at, device=rng.randrange(DEVICES)),)
        )
        capacity = self.api.gpusim_spec.SystemSpec().gpu.device_memory
        events = [self.api.placement.FleetEvent(at=join_at, action="add", capacity_bytes=capacity)]
        return plan, events

    def _mixed_requests(self):
        if self.streaming:
            return None
        # A seeded rotation keeps the four-regime interleaving, so the
        # seed moves the simulated outcomes by a few percent rather than
        # the ~20% a full shuffle does (see README.md).
        requests = self.api.workload.mixed_workload(MIXED_QUERIES)
        offset = random.Random(self.seed).randrange(MIXED_QUERIES)
        return requests[offset:] + requests[:offset]

    def scheduler(self):
        return self.api.scheduler.QueryScheduler(
            devices=DEVICES,
            placement="least_loaded",
            admission="edf" if self.name == "stream_edf_recovery" else "fifo",
        )

    def arrivals(self, on_next: Callable | None = None) -> TimedArrivals:
        if self.streaming:
            source = self.api.workload.stream_workload(
                STREAM_ARRIVALS,
                arrival_rate=ARRIVAL_RATE,
                seed=self.seed,
                classes=(
                    self.api.workload.DEADLINE_CLASSES
                    if self.name == "stream_edf_recovery"
                    else None
                ),
            )
            return TimedArrivals(source, STREAM_ARRIVALS, on_next)
        return TimedArrivals(self.mixed_requests, MIXED_QUERIES)

    # -- one round ---------------------------------------------------------
    def run_round(self, on_next: Callable | None = None) -> Round:
        """Run one round and verify it; raises on any broken invariant."""
        scheduler = self.scheduler()
        arrivals = self.arrivals(on_next)
        if not self.streaming:
            self.api.estimate_cache.clear()
            arrivals = list(arrivals)
        before = self.api.estimate_cache.stats()
        start = time.perf_counter()
        if self.streaming:
            report = scheduler.run_stream(
                arrivals,
                max_queue_depth=MAX_QUEUE,
                compact_every=COMPACT_EVERY,
                fleet_events=self.fleet_events,
                faults=self.fault_plan,
            )
        else:
            report = scheduler.run_online(arrivals)
        wall = time.perf_counter() - start
        after = self.api.estimate_cache.stats()
        arrivals_n = self.verify(report, scheduler)
        return Round(
            report=report,
            start=start,
            wall_s=wall,
            arrivals=arrivals_n,
            failed=len(report.failed),
            digest=digest(report),
            stamps=arrivals.stamps[: arrivals.pulled] if self.streaming else None,
            cache={
                field: getattr(after, field) - getattr(before, field)
                for field in CACHE_FIELDS
            },
        )

    def verify(self, report, scheduler) -> int:
        """The program's own verifiers plus fault conservation; returns
        the arrival count the report accounts for."""
        serve_bench = self.api.serve_bench
        if self.streaming:
            serve_bench.verify_stream_report(report, compact_every=COMPACT_EVERY)
            arrivals = report.arrivals
            if arrivals != STREAM_ARRIVALS:
                raise AssertionError(
                    f"stream accounted for {arrivals} of {STREAM_ARRIVALS} arrivals"
                )
        else:
            serve_bench.verify_report(report, clients=MIXED_QUERIES)
            arrivals = MIXED_QUERIES
        self.api.faults.check_fault_invariants(
            report,
            self.fault_plan or self.api.faults.FaultPlan(),
            arrivals=arrivals,
            max_retries=scheduler.max_retries,
        )
        return arrivals

    # -- reductions --------------------------------------------------------
    def sim_metrics(self, report) -> dict[str, float]:
        """Simulated outcomes: deterministic for a workload and seed."""
        qps = report.sustained_qps if self.streaming else report.queries_per_second
        arrivals = report.arrivals if self.streaming else MIXED_QUERIES
        return {
            "sim_qps": qps,
            "sim_latency_mean_s": report.mean_latency,
            "sim_latency_p99_s": report.p99_latency,
            "sim_makespan_s": report.makespan,
            "served_share": len(report.outcomes) / arrivals,
        }

    def report_layers(self, report) -> dict[str, float]:
        """Per-layer numbers the report carries directly."""
        retries = sum(o.retries for o in report.outcomes) + sum(
            f.attempts for f in report.failed
        )
        if self.streaming:
            retained = report.peak_retained_tasks
        else:
            retained = len(report.schedule.tasks)
        return {"faults.retries": retries, "engine.peak_retained_tasks": retained}


def digest(report) -> str:
    """SHA-256 over every per-query outcome: completed (qid, device,
    strategy, admit_at, finish_at), shed (qid, reason) and failed
    (qid, reason), floats in full precision."""
    h = hashlib.sha256()
    for o in report.outcomes:
        h.update(
            f"C,{o.qid},{o.device},{o.strategy},{o.admit_at!r},{o.finish_at!r}\n".encode()
        )
    for s in getattr(report, "shed", ()):
        h.update(f"S,{s.qid},{s.reason}\n".encode())
    for f in report.failed:
        h.update(f"F,{f.qid},{f.reason}\n".encode())
    return h.hexdigest()
