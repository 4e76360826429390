"""Shared device-memory arena accounting."""

import pytest

from repro.errors import DeviceMemoryOverflowError
from repro.gpusim import DeviceMemoryArena
from repro.gpusim.spec import SystemSpec

GB = 10**9


def test_reserve_and_release_roundtrip():
    arena = DeviceMemoryArena(8 * GB)
    assert arena.try_reserve("q0", 3 * GB)
    assert arena.try_reserve("q1", 4 * GB)
    assert arena.used_bytes == 7 * GB
    assert arena.free_bytes == 1 * GB
    assert arena.release("q0") == 3 * GB
    assert arena.used_bytes == 4 * GB
    assert not arena.holds("q0")
    assert arena.holds("q1")


def test_overflow_queues_instead_of_crashing():
    arena = DeviceMemoryArena(8 * GB)
    assert arena.try_reserve("q0", 6 * GB)
    # Does not fit: declined with no state change, no exception.
    assert not arena.try_reserve("q1", 3 * GB)
    assert arena.used_bytes == 6 * GB
    assert not arena.holds("q1")
    # After a release it fits.
    arena.release("q0")
    assert arena.try_reserve("q1", 3 * GB)


def test_used_never_exceeds_capacity():
    arena = DeviceMemoryArena(10 * GB)
    granted = 0
    for i, want in enumerate([4, 4, 4, 4, 4]):
        if arena.try_reserve(f"q{i}", want * GB):
            granted += want
        assert arena.used_bytes <= arena.capacity_bytes
        arena.check_invariants()
    assert granted == 8  # two of five declined


def test_peak_tracks_high_water_mark():
    arena = DeviceMemoryArena(8 * GB)
    arena.reserve("a", 2 * GB)
    arena.reserve("b", 5 * GB)
    arena.release("a")
    arena.reserve("c", 1 * GB)
    assert arena.peak_bytes == 7 * GB
    assert arena.peak_bytes <= arena.capacity_bytes


def test_peak_fits_the_default_device():
    capacity = SystemSpec().gpu.device_memory
    arena = DeviceMemoryArena(capacity)
    assert arena.try_reserve("q", capacity)
    assert not arena.try_reserve("overflow", 1)
    assert arena.peak_bytes == capacity


def test_reserve_raises_on_overflow():
    arena = DeviceMemoryArena(1 * GB)
    with pytest.raises(DeviceMemoryOverflowError):
        arena.reserve("big", 2 * GB)


def test_bad_reservations_rejected():
    arena = DeviceMemoryArena(8 * GB)
    arena.reserve("q0", GB)
    with pytest.raises(DeviceMemoryOverflowError):
        arena.try_reserve("q0", GB)  # duplicate owner
    with pytest.raises(DeviceMemoryOverflowError):
        arena.try_reserve("q1", -1)  # negative
    with pytest.raises(DeviceMemoryOverflowError):
        arena.release("unknown")
    with pytest.raises(DeviceMemoryOverflowError):
        DeviceMemoryArena(0)


@pytest.mark.parametrize("capacity", [float("nan"), 4e9, True])
def test_capacity_must_be_a_positive_int(capacity):
    """NaN passes a `<= 0` test, so a NaN arena admitted anything and
    its peak-within-capacity check could never fail."""
    with pytest.raises(DeviceMemoryOverflowError, match="capacity"):
        DeviceMemoryArena(capacity)


def test_timeline_records_transitions():
    arena = DeviceMemoryArena(8 * GB)
    arena.reserve("a", 2 * GB, at=0.0)
    arena.reserve("b", 3 * GB, at=1.0)
    arena.release("a", at=2.0)
    assert arena.timeline == [(0.0, 2 * GB), (1.0, 5 * GB), (2.0, 3 * GB)]


def test_double_release_raises_repro_error():
    """A release the arena does not hold must raise, never be ignored:
    a swallowed double release would let the ledger drift below the
    schedule it mirrors.  Pinned as ReproError so serving callers can
    catch the library hierarchy."""
    from repro.errors import ReproError

    arena = DeviceMemoryArena(8 * GB)
    arena.reserve("q0", GB)
    assert arena.release("q0") == GB
    with pytest.raises(DeviceMemoryOverflowError, match="double release"):
        arena.release("q0")
    assert issubclass(DeviceMemoryOverflowError, ReproError)
    # The failed release changed nothing: ledger still drained.
    assert arena.drained and arena.used_bytes == 0


def test_release_on_wrong_device_names_the_device():
    fleet = [DeviceMemoryArena(8 * GB, device=index) for index in range(2)]
    fleet[0].reserve("q0", GB)
    with pytest.raises(DeviceMemoryOverflowError, match="device 1"):
        fleet[1].release("q0")  # misrouted: q0 lives on device 0
    assert fleet[0].holds("q0")


def test_ledger_records_device_ids():
    arena = DeviceMemoryArena(8 * GB, device=3)
    arena.reserve("q0", GB, at=1.5)
    reservation = arena.reservations["q0"]
    assert reservation.device == 3
    assert reservation.granted_at == 1.5
    with pytest.raises(DeviceMemoryOverflowError):
        DeviceMemoryArena(GB, device=-1)


def test_drained_tracks_live_reservations():
    arena = DeviceMemoryArena(8 * GB)
    assert arena.drained
    arena.reserve("a", GB)
    assert not arena.drained
    arena.release("a")
    assert arena.drained
    assert arena.timeline[-1][1] == 0


@pytest.mark.parametrize("seed", range(5))
def test_running_counter_matches_a_summing_reference(seed):
    """A seeded random mix of every ledger operation keeps the O(1)
    ``used_bytes`` counter equal to the sum of live reservations, and
    the timeline and peak equal a reference that re-sums every time."""
    import random

    rng = random.Random(seed)
    capacity = 8 * GB
    arena = DeviceMemoryArena(capacity, device=seed)
    live: dict[str, int] = {}
    timeline: list[tuple[float, int]] = []
    peak = 0
    for step in range(400):
        at = float(step)
        op = rng.random()
        if op < 0.5 or not live:
            owner, nbytes = f"q{step}", rng.randrange(0, 3 * GB)
            granted = arena.try_reserve(owner, nbytes, at=at)
            assert granted == (sum(live.values()) + nbytes <= capacity)
            if granted:
                live[owner] = nbytes
                timeline.append((at, sum(live.values())))
                peak = max(peak, sum(live.values()))
        elif op < 0.75:
            owner = rng.choice(sorted(live))
            assert arena.release(owner, at=at) == live.pop(owner)
            timeline.append((at, sum(live.values())))
        elif op < 0.9:
            owner = rng.choice(sorted(live))
            assert arena.force_release(owner, at=at) == live.pop(owner)
            timeline.append((at, sum(live.values())))
        else:
            owners = rng.sample(sorted(live), k=rng.randint(1, len(live)))
            freed = sum(live[owner] for owner in owners)
            assert arena.reconcile(owners, at=at) == freed
            for owner in owners:
                del live[owner]
                timeline.append((at, sum(live.values())))
        assert arena.used_bytes == sum(live.values())
        assert arena.free_bytes == capacity - sum(live.values())
        arena.check_invariants()
    assert arena.timeline == timeline
    assert arena.peak_bytes == peak


def test_corrupted_counter_fails_the_invariant_check():
    arena = DeviceMemoryArena(8 * GB, device=3)
    arena.reserve("q0", GB)
    arena._used += 1  # a bookkeeping bug: counter drifts from the ledger
    with pytest.raises(DeviceMemoryOverflowError, match="device 3"):
        arena.check_invariants()
