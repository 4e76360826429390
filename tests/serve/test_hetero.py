"""Heterogeneous, elastic fleets: calibrations, events, stealing.

Covers the per-device refactor end to end:

* **Homogeneous no-op** — explicitly spelling equal per-device
  capacities/calibrations is bit-identical to the implicit default
  over 100+ randomized seeds (the refactor's falsifier, alongside the
  golden suite in ``test_placement_properties.py``);
* **Unequal capacities** — placement only targets devices a query
  fits, and every per-device arena stays within its *own* cap;
* **Per-device calibrations** — a fast+slow fleet strictly beats the
  slow device alone on the 64-client acceptance workload, and 204
  fast/slow fleet runs are pinned to ``golden_hetero.json``;
* **Elasticity** — mid-run ``add`` never regresses the makespan,
  ``retire`` drains without ever admitting past the retirement time,
  and invalid events/retirements fail loudly;
* **Work stealing** — an idle device pulls admissible work past a
  blocked FIFO head, accounting stays exact (stream:
  ``completed + shed == arrivals``), and stealing never delays any
  admission;
* **CLI plumbing** — ``--device-caps`` / ``--device-calib`` parsing,
  and capped fleets skipping the serial-baseline gate.
"""

import json
from pathlib import Path

import pytest

from repro.bench.serve_bench import (
    fingerprint_sharded,
    parse_device_calib,
    parse_device_caps,
    serial_baseline_applies,
    serve_main,
)
from repro.data.spec import unique_pair
from repro.errors import InvalidConfigError, SchedulingError
from repro.gpusim.calibration import (
    CALIBRATION_PRESETS,
    Calibration,
    calibration_preset,
)
from repro.gpusim.spec import SystemSpec
from repro.pipeline.engine import Admission, PipelineEngine, PlanTemplate, Wave
from repro.pipeline.oracle import check_batch_oracle
from repro.pipeline.tasks import Task
from repro.serve import (
    FleetEvent,
    QueryScheduler,
    mixed_workload,
    random_workload,
    stream_workload,
)
from repro.serve.placement import DeviceFleet
from repro.serve.scheduler import QueryRequest
from tests.pipeline.graphs import place

M = 1_000_000
DEFAULT_CAP = 8_589_934_592  # SystemSpec().gpu.device_memory

#: A head-of-line blocking fleet: after the first big query fills
#: device 0, the second big query fits nowhere (device 1 is too small
#: for any admissible strategy), so an idle device 1 can only be used
#: by stealing the small query waiting behind the blocked head.
STEAL_CAPS = [3_600_000_000, 2_000_000_000]


def _steal_workload() -> list[QueryRequest]:
    big = unique_pair(64 * M)
    return [
        QueryRequest(qid="q0", spec=big),
        QueryRequest(qid="q1", spec=big),
        QueryRequest(qid="q2", spec=unique_pair(4 * M)),
    ]


# ----------------------------------------------------------------------
# Homogeneous fleets: the refactor must be a bit-identical no-op.
# ----------------------------------------------------------------------

@pytest.mark.parametrize("seed", range(100))
def test_explicit_homogeneous_args_are_a_noop(seed):
    """Threading per-device capacities/calibrations through estimates,
    plans and placement must not move a single float when every device
    is equal — checked over 100 randomized workloads."""
    default = QueryScheduler(devices=2).run_online(random_workload(seed))
    explicit = QueryScheduler(
        devices=2,
        device_capacities=[DEFAULT_CAP, DEFAULT_CAP],
        device_calibrations=[None, None],
    ).run_online(random_workload(seed))
    assert fingerprint_sharded(explicit) == fingerprint_sharded(default)
    assert explicit.makespan == default.makespan
    assert explicit.device_peak_bytes == default.device_peak_bytes


def test_ctor_validates_per_device_argument_lengths():
    with pytest.raises(InvalidConfigError, match="device_capacities"):
        QueryScheduler(devices=2, device_capacities=[DEFAULT_CAP])
    with pytest.raises(InvalidConfigError, match="device_calibrations"):
        QueryScheduler(devices=2, device_calibrations=[None])
    with pytest.raises(InvalidConfigError, match="positive"):
        QueryScheduler(devices=1, device_capacities=[0])


# ----------------------------------------------------------------------
# Unequal capacities.
# ----------------------------------------------------------------------

@pytest.mark.parametrize("seed", range(20))
def test_unequal_capacities_respected_per_device(seed):
    caps = [DEFAULT_CAP, 2_000_000_000]
    report = QueryScheduler(devices=2, device_capacities=caps).run_online(
        random_workload(seed)
    )
    assert report.device_capacity_bytes == tuple(caps)
    for outcome in report.outcomes:
        assert outcome.reserved_bytes <= caps[outcome.device]
    assert report.arenas is not None
    for arena, cap in zip(report.arenas, caps):
        assert arena.capacity_bytes == cap
        assert arena.peak_bytes <= cap
        arena.check_invariants()
        assert arena.drained
    check_batch_oracle(report)


@pytest.mark.parametrize("stream", [False, True])
def test_capacity_follows_a_larger_device_joining(stream):
    """The fleet-wide capacity is the largest device's, including one
    an ``add`` event brings in — not the capacity at run start."""
    small = 2 * 1024**3
    scheduler = QueryScheduler(devices=1, device_capacities=[small])
    events = [FleetEvent(at=0.0, action="add", capacity_bytes=DEFAULT_CAP)]
    if stream:
        report = scheduler.run_stream(
            iter(mixed_workload(8)), fleet_events=events
        )
    else:
        report = scheduler.run_online(mixed_workload(8), fleet_events=events)
    assert report.device_capacity_bytes == (small, DEFAULT_CAP)
    assert report.capacity_bytes == DEFAULT_CAP
    assert small < report.peak_reserved_bytes <= report.capacity_bytes
    assert f"of {DEFAULT_CAP / 1e9:.2f} GB" in report.render()


def test_capacities_the_cost_model_cannot_simulate_are_rejected():
    """Admission plans against the arena, but every strategy checks the
    simulated GPU's device memory, so a larger device is refused up
    front instead of overflowing mid-run."""
    memory = SystemSpec().gpu.device_memory
    with pytest.raises(InvalidConfigError, match=r"device_capacities\[1\]"):
        QueryScheduler(devices=2, device_capacities=[memory, 2 * memory])
    with pytest.raises(InvalidConfigError, match=r"device_capacities\[0\]"):
        serve_main(["--clients", "2", "--device-caps", "20"])
    with pytest.raises(InvalidConfigError, match=r"fleet_events\[1\]"):
        QueryScheduler(devices=2).run_online(
            mixed_workload(8),
            fleet_events=[
                FleetEvent(at=0.1, action="add", capacity_bytes=memory),
                FleetEvent(at=0.2, action="add", capacity_bytes=2 * memory),
            ],
        )
    # The simulated device itself is the largest legal arena.
    report = QueryScheduler(device_capacities=[memory]).run_online(
        mixed_workload(2)
    )
    assert report.capacity_bytes == memory


# ----------------------------------------------------------------------
# Per-device calibrations.
# ----------------------------------------------------------------------

def test_fast_plus_slow_fleet_beats_slow_alone():
    """The acceptance bar: on the 64-client canonical workload a
    two-device fast+slow fleet must strictly beat the slow device
    serving alone."""
    slow = calibration_preset("slow")
    fast = calibration_preset("fast")
    alone = QueryScheduler(
        devices=1, device_calibrations=[slow]
    ).run_online(mixed_workload(64))
    fleet = QueryScheduler(
        devices=2, device_calibrations=[fast, slow]
    ).run_online(mixed_workload(64))
    assert fleet.makespan < alone.makespan
    assert {o.device for o in fleet.outcomes} == {0, 1}


HETERO_GOLDEN = json.loads(
    (Path(__file__).parent / "golden_hetero.json").read_text(encoding="utf-8")
)


def _hetero_workload(name: str) -> list[QueryRequest]:
    if name.startswith("random"):
        return random_workload(int(name.removeprefix("random")))
    return mixed_workload(int(name.removeprefix("mixed")))


def test_hetero_golden_covers_every_fleet_and_mode():
    """204 runs: 50 random seeds plus mixed(32), on fast+slow and
    slow+fast fleets, stealing off and on."""
    assert len(HETERO_GOLDEN) == 204
    assert {name.rsplit("-", 1)[0] for name in HETERO_GOLDEN} == {
        f"{fleet}-{mode}"
        for fleet in ("fast,slow", "slow,fast")
        for mode in ("nosteal", "steal")
    }


@pytest.mark.parametrize("name", sorted(HETERO_GOLDEN))
def test_hetero_fleet_matches_golden(name):
    """Every placement, strategy, grant and simulated time on a
    heterogeneous fleet is pinned (``golden_hetero.json``, captured by
    ``tools/capture_serve_golden.py``): offers are estimated under each
    device's own calibration, so a memo that drops the calibration from
    its key moves these outcomes."""
    fleet, mode, workload = name.split("-")
    report = QueryScheduler(
        devices=2,
        device_calibrations=[
            calibration_preset(preset) for preset in fleet.split(",")
        ],
        steal=mode == "steal",
    ).run_online(_hetero_workload(workload))
    entry = HETERO_GOLDEN[name]
    assert [list(item) for item in fingerprint_sharded(report)] == (
        entry["fingerprint"]
    )
    assert report.makespan == entry["makespan"]
    assert list(report.device_peak_bytes) == entry["device_peak_bytes"]


def test_hetero_online_matches_batch():
    for seed in range(10):
        kwargs = dict(
            devices=2,
            device_capacities=[DEFAULT_CAP, 4_000_000_000],
            device_calibrations=[
                calibration_preset("fast"),
                calibration_preset("slow"),
            ],
        )
        online = QueryScheduler(**kwargs).run_online(random_workload(seed))
        check_batch_oracle(online)


def test_calibration_presets_and_validation():
    assert set(CALIBRATION_PRESETS) == {"default", "fast", "slow"}
    assert calibration_preset("default") == Calibration()
    with pytest.raises(ValueError, match="registered presets"):
        calibration_preset("turbo")
    fast = Calibration().gpu_scaled(2.0)
    fast.validate()
    assert fast.kernel_launch_seconds < Calibration().kernel_launch_seconds
    with pytest.raises(ValueError, match="gpu_scan_efficiency"):
        Calibration(gpu_scan_efficiency=0.0)
    with pytest.raises(ValueError):
        Calibration().gpu_scaled(0.0)


# ----------------------------------------------------------------------
# Elasticity: mid-run join / leave.
# ----------------------------------------------------------------------

@pytest.mark.parametrize("seed", range(15))
@pytest.mark.parametrize("at", [0.0, 0.5])
def test_adding_a_device_never_regresses_makespan(seed, at):
    base = QueryScheduler(devices=1).run_online(random_workload(seed))
    grown = QueryScheduler(devices=1).run_online(
        random_workload(seed),
        fleet_events=[
            FleetEvent(at=at, action="add", capacity_bytes=DEFAULT_CAP)
        ],
    )
    assert grown.makespan <= base.makespan * (1 + 1e-12), (
        f"seed {seed}: adding a device at t={at} made the makespan "
        f"worse ({grown.makespan!r} vs {base.makespan!r})"
    )
    # The device materializes iff the run is still going at `at`; an
    # event past the last finish never fires.
    assert grown.devices == (2 if base.makespan > at else 1)


def test_retired_device_never_admits_after_the_event():
    retire_at = 0.4
    requests = mixed_workload(24, spacing_seconds=0.05)
    report = QueryScheduler(devices=2).run_online(
        requests,
        fleet_events=[FleetEvent(at=retire_at, action="retire", device=1)],
    )
    assert len(report.outcomes) == len(requests)  # drains, never drops
    for outcome in report.outcomes:
        if outcome.device == 1:
            assert outcome.admit_at < retire_at
    assert report.arenas is not None
    for arena in report.arenas:
        assert arena.drained


def test_retire_then_add_round_trip_in_stream():
    report = QueryScheduler(devices=2, steal=True).run_stream(
        stream_workload(300, arrival_rate=150.0, seed=3),
        slo_wait_seconds=0.05,
        fleet_events=[
            FleetEvent(at=0.3, action="retire", device=1),
            FleetEvent(at=0.9, action="add", capacity_bytes=DEFAULT_CAP),
        ],
    )
    assert report.completed + report.shed_count == report.arrivals == 300
    assert report.devices == 3
    for outcome in report.outcomes:
        if outcome.device == 1:
            assert outcome.admit_at < 0.3


def test_fleet_event_and_retirement_validation():
    with pytest.raises(InvalidConfigError, match="capacity_bytes"):
        FleetEvent(at=0.0, action="add")
    # A joining device's capacity is a positive int of bytes: NaN
    # passed the old `<= 0` test.
    for capacity in (float("nan"), 4e9, True):
        with pytest.raises(InvalidConfigError, match="capacity_bytes"):
            FleetEvent(at=0.0, action="add", capacity_bytes=capacity)
    with pytest.raises(InvalidConfigError, match="next free index"):
        FleetEvent(at=0.0, action="add", capacity_bytes=1, device=0)
    # A calibration given by name passed every up-front check and then
    # crashed the first estimate on the joining device.
    with pytest.raises(InvalidConfigError, match="calibration"):
        FleetEvent(
            at=0.0, action="add", capacity_bytes=DEFAULT_CAP, calibration="fast"
        )
    with pytest.raises(InvalidConfigError, match="device index"):
        FleetEvent(at=0.0, action="retire")
    # A fractional index passed every up-front check and then crashed
    # the run with a raw TypeError; True retired device 1.
    for device in (1.5, True):
        with pytest.raises(InvalidConfigError, match="device index"):
            FleetEvent(at=0.5, action="retire", device=device)
    with pytest.raises(InvalidConfigError, match="unknown"):
        FleetEvent(at=0.0, action="rebalance")
    with pytest.raises(InvalidConfigError, match=">= 0"):
        FleetEvent(at=-1.0, action="retire", device=0)
    # NaN and inf pass a plain `< 0` test; such an event would never be
    # applied, or (NaN add) would hang the run.
    for at in (float("nan"), float("inf")):
        with pytest.raises(InvalidConfigError, match="finite"):
            FleetEvent(at=at, action="add", capacity_bytes=DEFAULT_CAP)
        with pytest.raises(InvalidConfigError, match="finite"):
            FleetEvent(at=at, action="retire", device=0)

    fleet = DeviceFleet([DEFAULT_CAP, DEFAULT_CAP])
    with pytest.raises(InvalidConfigError, match="unknown device"):
        fleet.retire_device(5)
    fleet.retire_device(1)
    with pytest.raises(InvalidConfigError, match="already retiring"):
        fleet.retire_device(1)
    with pytest.raises(InvalidConfigError, match="last accepting"):
        fleet.retire_device(0)
    assert [d.index for d in fleet.active()] == [0]


def test_retired_engine_rejects_new_work():
    engine = PipelineEngine()
    schedule = place([Task("a", "gpu", 1.0)], engine)
    engine.retire()
    assert engine.is_retired
    with pytest.raises(SchedulingError, match="retired"):
        engine.extend(
            schedule, Wave([Admission(PlanTemplate([Task("b", "gpu", 1.0)]))])
        )
    assert set(schedule.tasks) == {"a"}
    engine.retire()  # idempotent


# ----------------------------------------------------------------------
# Work stealing.
# ----------------------------------------------------------------------

def test_steal_admits_past_a_blocked_head():
    """With the head blocked on every device, an idle small device
    must pull the admissible query waiting behind it."""
    stolen_run = QueryScheduler(
        devices=2, device_capacities=STEAL_CAPS, steal=True
    ).run_online(_steal_workload())
    assert stolen_run.stolen_count == 1
    (q2,) = [o for o in stolen_run.outcomes if o.qid == "q2"]
    assert q2.stolen and q2.device == 1 and q2.admit_at == 0.0

    fifo_run = QueryScheduler(
        devices=2, device_capacities=STEAL_CAPS, steal=False
    ).run_online(_steal_workload())
    assert fifo_run.stolen_count == 0
    fifo_admits = {o.qid: o.admit_at for o in fifo_run.outcomes}
    (q2_fifo,) = [o for o in fifo_run.outcomes if o.qid == "q2"]
    assert q2_fifo.admit_at > 0.0  # it really was stuck behind the head
    # Stealing never delays anyone and never worsens the makespan.
    for outcome in stolen_run.outcomes:
        assert outcome.admit_at <= fifo_admits[outcome.qid]
    assert stolen_run.makespan <= fifo_run.makespan


def test_steal_matches_between_batch_and_online():
    kwargs = dict(devices=2, device_capacities=STEAL_CAPS, steal=True)
    online = QueryScheduler(**kwargs).run_online(_steal_workload())
    check_batch_oracle(online)
    assert online.stolen_count == 1


def test_stream_steal_accounting_is_exact():
    report = QueryScheduler(devices=2, steal=True).run_stream(
        stream_workload(400, arrival_rate=200.0, seed=7),
        slo_wait_seconds=0.05,
    )
    assert report.completed + report.shed_count == report.arrivals == 400
    assert report.arenas is not None
    for arena in report.arenas:
        assert arena.drained


def test_steal_off_is_the_default_and_changes_nothing():
    for seed in range(10):
        default = QueryScheduler(devices=2).run_online(random_workload(seed))
        explicit = QueryScheduler(devices=2, steal=False).run_online(
            random_workload(seed)
        )
        assert fingerprint_sharded(explicit) == fingerprint_sharded(default)


# ----------------------------------------------------------------------
# Bench / CLI plumbing.
# ----------------------------------------------------------------------

def test_parse_device_caps():
    assert parse_device_caps(None, 2) is None
    assert parse_device_caps("8,2", 2) == [8_000_000_000, 2_000_000_000]
    with pytest.raises(ValueError, match="--device-caps has 1 entries"):
        parse_device_caps("8", 2)
    with pytest.raises(ValueError, match="--device-caps must be"):
        parse_device_caps("8,banana", 2)
    with pytest.raises(ValueError, match="positive"):
        parse_device_caps("8,0", 2)


def test_parse_device_calib():
    assert parse_device_calib(None, 2) is None
    fast, slow = parse_device_calib("fast,slow", 2)
    assert fast == calibration_preset("fast")
    assert slow == calibration_preset("slow")
    with pytest.raises(ValueError, match="--device-calib has 1 entries"):
        parse_device_calib("fast", 2)
    with pytest.raises(ValueError, match="--device-calib.*turbo"):
        parse_device_calib("fast,turbo", 2)


def test_capped_fleet_skips_the_serial_baseline(capsys):
    """The serial baseline prices each query alone on a full-size
    device, which a fleet of 2 GB devices is allowed to lose to: the
    bench serves such a fleet without the gate, and the CLI's
    ``verified:`` line does not claim it."""
    scheduler = QueryScheduler(devices=2, device_capacities=[2_000_000_000] * 2)
    assert not serial_baseline_applies(
        scheduler, scale=1.0, spacing_seconds=0.0, faults=None, classes=False
    )
    report = scheduler.run_online(mixed_workload(4))
    assert report.makespan > report.serial_makespan  # the gate would fail
    assert serve_main(
        ["--clients", "4", "--devices", "2", "--device-caps", "2,2"]
    ) == 0
    verified = capsys.readouterr().out.splitlines()[-1]
    assert verified.startswith("verified:")
    assert "serial" not in verified
