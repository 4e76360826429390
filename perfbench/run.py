"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload stream_fifo --seed 1 --seconds 30 --trace 0

Run from the repository root; the program is imported from ``src``.
One process, one thread, one caller: rounds of the workload run back to
back until ``--seconds`` of measuring are spent.  Every round is checked
with the program's own verifiers and its outcome digest is compared
with the first round's and, when ``perfbench/digests.json`` records
one for this workload and seed, with that; a seed without a recorded
digest is named on standard error.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` alternates
untraced and traced rounds and prints the per-layer metrics, writing
the last traced round's spans to ``.bench_build/perfbench/``.  The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import signal
import statistics
import sys
import time
import traceback
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent))

import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

HERE = Path(__file__).resolve().parent
DIGESTS = HERE / "digests.json"
SPAN_DIR = Path(".bench_build") / "perfbench"

#: Reference seconds per probe-loop iteration, about the loop's speed on
#: the 2-vCPU host the benchmark was tuned on.  Wall-clock figures are
#: scaled to that host speed (README.md, "Steadiness").
REFERENCE_S_PER_ITERATION = 1.3e-7
PROBE_ITERATIONS = 1500
#: The probe's keys, built once so that a probe allocates no tracked
#: objects and never triggers a collection of the program's heap.
PROBE_KEYS = tuple((i & 255, "probe", i % 7) for i in range(PROBE_ITERATIONS))
TICK_S = 0.05

#: Every metric's unit, as ``BENCHMARK.json`` declares it.
UNITS = {
    metric["name"]: metric["unit"]
    for kind in ("end_to_end", "per_layer")
    for metric in json.loads((HERE.parent / "BENCHMARK.json").read_text())[kind]
}

#: Per-layer metric -> (span name, field) for the span-derived ones.
SPAN_METRICS = {
    "scheduler.self_s": ("scheduler.run", "self_s"),
    "admission.select_calls": ("admission.select", "calls"),
    "admission.select_s": ("admission.select", "self_s"),
    "placement.select_calls": ("placement.select", "calls"),
    "placement.select_s": ("placement.select", "self_s"),
    "planner.choose_calls": ("planner.choose", "calls"),
    "planner.choose_s": ("planner.choose", "self_s"),
    "strategy.create_calls": ("strategy.create", "calls"),
    "strategy.create_s": ("strategy.create", "self_s"),
    "strategy.estimate_calls": ("strategy.estimate", "calls"),
    "strategy.estimate_s": ("strategy.estimate", "self_s"),
    "strategy.prepare_calls": ("strategy.prepare", "calls"),
    "strategy.prepare_s": ("strategy.prepare", "self_s"),
    "estimate_cache.make_key_s": ("estimate_cache.make_key", "self_s"),
    "estimate_cache.lookup_s": ("estimate_cache.lookup", "self_s"),
    "calibration.validate_calls": ("calibration.validate", "calls"),
    "calibration.validate_s": ("calibration.validate", "self_s"),
    "cost_model.init_calls": ("cost_model.init", "calls"),
    "arena.reserve_calls": ("arena.try_reserve", "calls"),
    "arena.release_calls": ("arena.release", "calls"),
    "arena.used_bytes_calls": ("arena.used_bytes", "calls"),
    "engine.extend_calls": ("engine.extend", "calls"),
    "engine.extend_s": ("engine.extend", "self_s"),
    "engine.compact_calls": ("engine.compact", "calls"),
    "engine.compact_s": ("engine.compact", "self_s"),
    "engine.crash_calls": ("engine.crash", "calls"),
    "workload.next_s": (tracing.WORKLOAD_NEXT, "self_s"),
}
ARENA_SPANS = ("arena.try_reserve", "arena.release", "arena.used_bytes")
CACHE_RATES = {
    "estimate": ("hits", "misses"),
    "plan": ("plan_hits", "plan_misses"),
    "ladder": ("ladder_hits", "ladder_misses"),
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def probe_loop() -> None:
    """A fixed pure-Python loop of the program's kind of work: tuple
    keys, hashing, dict updates."""
    counts: dict = {}
    for key in PROBE_KEYS:
        counts[key] = counts.get(key, 0) + 1


class HostSpeed:
    """Samples the host's speed while a measurement runs.

    The shared host's speed swings by up to 2x within seconds.  Every
    ``TICK_S`` (and once on entry and exit) a SIGALRM handler times one
    probe loop.  ``scale()`` converts wall time measured meanwhile to
    seconds at the reference speed; ``probes(start, end)`` lists the
    probe runs inside a window, whose time the caller subtracts.
    """

    def __enter__(self) -> "HostSpeed":
        self.samples: list[tuple[float, float]] = []
        self._sample()
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._sample()

    def _on_alarm(self, signum, frame) -> None:
        self._sample()

    def _sample(self) -> None:
        start = time.perf_counter()
        probe_loop()
        self.samples.append((start, time.perf_counter() - start))

    def scale(self) -> float:
        median = statistics.median(d for _, d in self.samples)
        return REFERENCE_S_PER_ITERATION * PROBE_ITERATIONS / median

    def probes(self, start: float, end: float) -> list[tuple[float, float]]:
        return [(t, d) for t, d in self.samples if start <= t < end]

    def scaled_wall(self, start: float, wall: float) -> float:
        spent = sum(d for _, d in self.probes(start, start + wall))
        return (wall - spent) * self.scale()


def scaled_gaps_us(result, speed: HostSpeed) -> np.ndarray:
    """Gaps between arrival pulls, less the probe runs that fell inside
    them, at the reference speed."""
    stamps = np.frombuffer(result.stamps)
    probes = speed.probes(result.start, result.start + result.wall_s)
    if probes:
        at = np.array([t for t, _ in probes])
        spent = np.cumsum([d for _, d in probes])
        before = np.searchsorted(at, stamps)
        stamps = stamps - np.where(before > 0, spent[before - 1], 0.0)
    return np.sort(np.diff(stamps)) * 1e6 * speed.scale()


def time_setup(name: str, seed: int) -> float:
    """Import the program afresh, build the workload's inputs and a
    scheduler; the working modules are put back afterwards.  Returns
    the set-up time at the reference host speed."""
    saved = {k: m for k, m in sys.modules.items() if k == "repro" or k.startswith("repro.")}
    with HostSpeed() as speed:
        start = time.perf_counter()
        api = workloads.load_program()
        workload = workloads.Workload(name, api, seed)
        workload.scheduler()
        workload.arrivals()
        elapsed = time.perf_counter() - start
    for key in [k for k in sys.modules if k == "repro" or k.startswith("repro.")]:
        del sys.modules[key]
    sys.modules.update(saved)
    return speed.scaled_wall(start, elapsed)


def recorded_digest(name: str, seed: int) -> str | None:
    if not DIGESTS.exists():
        return None
    return json.loads(DIGESTS.read_text()).get(name, {}).get(str(seed))


class Run:
    """The rounds of one invocation and their bookkeeping."""

    def __init__(self, args) -> None:
        self.args = args
        self.api = workloads.load_program()
        self.workload = workloads.Workload(args.workload, self.api, args.seed)
        self.attempted = 0
        self.failed = 0
        self.correct = True
        self.errors: list[str] = []
        self.reference: workloads.Round | None = None
        #: Per measured untraced round: speed-scaled wall and gap percentiles.
        self.walls: list[float] = []
        self.gaps50: list[float] = []
        self.gaps99: list[float] = []
        self.setup: list[float] = []
        #: Per traced round: per-layer values; traced / untraced wall pairs.
        self.layers: list[dict[str, float]] = []
        self.pairs: list[float] = []
        self.last_tracer: tracing.Tracer | None = None
        for _ in range(3):
            self.time_setup()

    def time_setup(self) -> None:
        self.setup.append(time_setup(self.args.workload, self.args.seed))

    def round(self, traced: bool = False) -> tuple[workloads.Round, float] | None:
        """One verified round and its wall time at the reference host
        speed; ``None`` on failure."""
        # Collect the previous round's (and set-up's) garbage up front, so
        # every round starts from the same heap and the peak RSS does not
        # depend on how many rounds fit in the time.
        gc.collect()
        tracer = tracing.Tracer() if traced else None
        if tracer is not None and not self.workload.streaming:
            # No arrivals are pulled one by one: tag spans with the round.
            tracer.tag_value = len(self.layers)
        try:
            if tracer is None:
                with HostSpeed() as speed:
                    result = self.workload.run_round()
            else:
                with tracer.install(self.api), HostSpeed() as speed:
                    result = self.workload.run_round(
                        tracer.pull if self.workload.streaming else None
                    )
        except Exception:
            self.fail(traceback.format_exc())
            expected = self.reference.arrivals if self.reference else 1
            self.attempted += expected
            self.failed += expected
            return None
        if self.reference is None:
            self.reference = result
            recorded = recorded_digest(self.args.workload, self.args.seed)
            if recorded is None:
                print(
                    f"no digest recorded for {self.args.workload} seed {self.args.seed}:"
                    " rounds are checked only against each other",
                    file=sys.stderr,
                )
            elif recorded != result.digest:
                self.fail(f"outcome digest {result.digest} != recorded {recorded}")
                self.attempted += result.arrivals
                self.failed += result.arrivals
            return result, 0.0
        self.attempted += result.arrivals
        self.failed += result.failed
        if result.digest != self.reference.digest:
            self.fail(f"outcome digest {result.digest} != first round {self.reference.digest}")
            self.failed += result.arrivals - result.failed
        wall = speed.scaled_wall(result.start, result.wall_s)
        if tracer is not None:
            self.layers.append(self.layer_values(result, tracer))
            self.last_tracer = tracer
        else:
            self.walls.append(wall)
            if result.stamps is not None:
                gaps = scaled_gaps_us(result, speed)
            else:  # one batch: every request waits for the whole round
                gaps = np.array([wall * 1e6 / result.arrivals])
            self.gaps50.append(gaps[int(0.50 * len(gaps))])
            self.gaps99.append(gaps[int(0.99 * len(gaps))])
        return result, wall

    def fail(self, message: str) -> None:
        self.errors.append(message)
        self.correct = False

    def measure(self) -> None:
        """Warm up once, then run rounds until the time is spent."""
        if self.round() is None:
            return
        budget = self.args.seconds
        begin = time.perf_counter()
        spent: list[float] = []
        while True:
            start = time.perf_counter()
            if self.args.trace:
                plain, traced = self.round(), self.round(traced=True)
                if plain is None or traced is None:
                    return
                self.pairs.append(traced[1] / plain[1])
            else:
                if self.round() is None:
                    return
                self.time_setup()
            spent.append(time.perf_counter() - start)
            elapsed = time.perf_counter() - begin
            if elapsed + statistics.median(spent) > budget:
                return

    # -- metrics -----------------------------------------------------------
    def end_to_end(self) -> dict[str, float]:
        metrics = {
            "requests_per_s": self.reference.arrivals / statistics.median(self.walls),
            "arrival_gap_us_p50": statistics.median(self.gaps50),
            "arrival_gap_us_p99": statistics.median(self.gaps99),
            "setup_s": statistics.median(self.setup),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        metrics.update(self.workload.sim_metrics(self.reference.report))
        return metrics

    def layer_values(self, result: workloads.Round, tracer: tracing.Tracer) -> dict[str, float]:
        spans = tracer.reduce()
        empty = {"self_s": 0.0, "calls": 0}
        values = {
            metric: spans.get(span, empty)[field]
            for metric, (span, field) in SPAN_METRICS.items()
        }
        admissions = values["arena.reserve_calls"]
        values["scheduler.admissions"] = admissions
        values["planner.choose_per_admission"] = (
            values["planner.choose_calls"] / admissions if admissions else 0.0
        )
        values["arena.self_s"] = sum(spans.get(s, empty)["self_s"] for s in ARENA_SPANS)
        values["engine.tasks_placed"] = tracer.units.get("engine.extend", 0)
        for cache, (hits, misses) in CACHE_RATES.items():
            lookups = result.cache[hits] + result.cache[misses]
            values[f"estimate_cache.{cache}_lookups"] = lookups
            values[f"estimate_cache.{cache}_hit_rate"] = (
                result.cache[hits] / lookups if lookups else 0.0
            )
        values.update(self.workload.report_layers(result.report))
        return values

    def per_layer(self) -> dict[str, float]:
        metrics = {
            key: statistics.median(r[key] for r in self.layers) for key in self.layers[0]
        }
        metrics["trace.overhead_ratio"] = statistics.median(self.pairs)
        return metrics


def main(argv=None) -> int:
    args = parse_args(argv)
    run = Run(args)
    run.measure()
    for error in run.errors:
        print(error, file=sys.stderr)
    if args.trace and run.layers:
        metrics = run.per_layer()
        SPAN_DIR.mkdir(parents=True, exist_ok=True)
        run.last_tracer.write(SPAN_DIR / f"spans-{args.workload}-{args.seed}.csv.gz")
    elif not args.trace and run.walls:
        metrics = run.end_to_end()
    else:
        run.correct = False
        metrics = {}
    rounds = len(run.walls) + len(run.layers)
    print(f"{args.workload} seed {args.seed}: {rounds} rounds, correct={run.correct}")
    for name, value in metrics.items():
        print(f"  {name:36s} {value:14.6g} {UNITS[name]}")
    print(
        json.dumps(
            {
                "correct": run.correct,
                "attempted": max(run.attempted, 1),
                "failed": run.failed,
                "metrics": {
                    name: {"value": value, "unit": UNITS[name]}
                    for name, value in metrics.items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
