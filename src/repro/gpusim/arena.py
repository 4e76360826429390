"""Shared device-memory arena for multi-query serving.

:class:`~repro.gpusim.device_memory.DeviceMemory` models one query's
private allocations and *raises* on overflow — the right behaviour when
a single strategy mis-sizes its buffers.  A serving GPU is different:
many co-resident queries compete for the same physical memory, and a
query that does not fit right now is not an error, it simply waits.

The arena therefore exposes *reservations* with try-semantics: the
scheduler asks for a query's whole device footprint up front
(:meth:`try_reserve`), gets a yes/no answer, and releases the
reservation when the query completes.  The arena guarantees the
accounting invariant the serving benchmark asserts: the sum of live
reservations never exceeds capacity, and the recorded high-water mark
is exact.

In a sharded fleet every GPU gets its own arena, identified by
``device``; the id is stamped into every ledger entry so a misrouted
release (a query releasing on a device it was never placed on) fails
loudly with both sides named, instead of silently corrupting another
device's accounting.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import DeviceMemoryOverflowError


def is_capacity(value: object) -> bool:
    """Is ``value`` a device capacity: a positive int that is not a
    bool?  NaN fails every ``<=`` test, so a NaN capacity would admit
    anything and make every peak-within-capacity check vacuous."""
    return isinstance(value, int) and not isinstance(value, bool) and value > 0


@dataclass(frozen=True)
class Reservation:
    """One query's granted slice of device memory (``nbytes`` bytes,
    granted at ``granted_at`` simulated seconds, on arena ``device``)."""

    owner: str
    nbytes: int
    granted_at: float = 0.0
    device: int = 0


@dataclass
class DeviceMemoryArena:
    """Capacity-checked reservation ledger shared by concurrent queries.

    All sizes (``capacity_bytes``, ``used_bytes``, ``free_bytes``,
    ``peak_bytes``) are **bytes**; the ``at`` timestamps recorded in
    reservations and the :attr:`timeline` are **simulated seconds**
    supplied by the scheduler's clock — the arena never reads a wall
    clock, so a request sequence replays to an identical ledger.
    The serving loop places tasks incrementally and releases each
    reservation at its query's simulated finish — the same finish a
    from-scratch re-simulation of the device computes — so the
    timeline and the exact high-water mark do not depend on how the
    schedule was built.

    ``device`` names which GPU of a sharded fleet this arena accounts
    for (0 for the single-device scheduler); it appears in every
    :class:`Reservation` and every error message.  Releasing a
    reservation the arena does not hold — a double release, or a
    release routed to the wrong device — always raises
    :class:`~repro.errors.DeviceMemoryOverflowError` (a
    :class:`~repro.errors.ReproError`): the ledger must sum to zero
    after a drain *because every grant was returned exactly once*, not
    because stray releases were ignored.
    """

    capacity_bytes: int
    device: int = 0
    reservations: dict[str, Reservation] = field(default_factory=dict)
    peak_bytes: int = 0
    #: Every (time, used_bytes) transition, for tests and reports.
    timeline: list[tuple[float, int]] = field(default_factory=list)
    #: Audit log of :meth:`force_release` calls — one
    #: ``(time, owner, nbytes)`` entry per reservation the serving
    #: layer reclaimed from a crashed device, so a drained ledger can
    #: still show *why* it drained.
    forced: list[tuple[float, str, int]] = field(default_factory=list)
    #: Running sum of ``reservations``' bytes, kept by the methods below
    #: so :attr:`used_bytes` is O(1); :meth:`check_invariants` audits it
    #: against the ledger.
    _used: int = field(default=0, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not is_capacity(self.capacity_bytes):
            raise DeviceMemoryOverflowError(
                "arena capacity must be a positive int of bytes, got "
                f"{self.capacity_bytes!r}"
            )
        if self.device < 0:
            raise DeviceMemoryOverflowError(
                f"arena device id must be >= 0, got {self.device}"
            )
        self._used = sum(item.nbytes for item in self.reservations.values())

    # ------------------------------------------------------------------
    @property
    def used_bytes(self) -> int:
        return self._used

    @property
    def free_bytes(self) -> int:
        return self.capacity_bytes - self.used_bytes

    @property
    def drained(self) -> bool:
        """No live reservations: every grant was released exactly once.

        The serving layer's run audit asserts this (plus a final
        :attr:`timeline` entry of 0 used bytes) after every simulated
        run on every device of the fleet.
        """
        return not self.reservations

    def holds(self, owner: str) -> bool:
        return owner in self.reservations

    def fits(self, nbytes: int) -> bool:
        return 0 <= nbytes <= self.free_bytes

    # ------------------------------------------------------------------
    def try_reserve(self, owner: str, nbytes: int, *, at: float = 0.0) -> bool:
        """Reserve ``nbytes`` for ``owner`` if it fits; ``False`` (and no
        state change) otherwise.  Overflow queues, it never raises."""
        if nbytes < 0:
            raise DeviceMemoryOverflowError(
                f"negative reservation for {owner!r}: {nbytes}"
            )
        if owner in self.reservations:
            raise DeviceMemoryOverflowError(
                f"duplicate reservation on device {self.device}: {owner!r}"
            )
        if nbytes > self.free_bytes:
            return False
        granted = int(nbytes)
        self.reservations[owner] = Reservation(owner, granted, at, self.device)
        self._used += granted
        used = self._used
        self.peak_bytes = max(self.peak_bytes, used)
        self.timeline.append((at, used))
        self.check_invariants()
        return True

    def reserve(self, owner: str, nbytes: int, *, at: float = 0.0) -> None:
        """Raising variant, for callers that already verified headroom."""
        if not self.try_reserve(owner, nbytes, at=at):
            raise DeviceMemoryOverflowError(
                f"arena overflow reserving {nbytes / 1e9:.2f} GB for "
                f"{owner!r} on device {self.device}: "
                f"{self.used_bytes / 1e9:.2f} GB of "
                f"{self.capacity_bytes / 1e9:.2f} GB in use"
            )

    def release(self, owner: str, *, at: float = 0.0) -> int:
        """Release ``owner``'s reservation, returning the freed bytes.

        Raises :class:`~repro.errors.DeviceMemoryOverflowError` when the
        arena holds no reservation for ``owner`` — an unknown id, a
        double release, or a release routed to the wrong device of a
        sharded fleet.  Silently accepting any of those would let the
        ledger drift from the schedule it is supposed to mirror.
        """
        if owner not in self.reservations:
            raise DeviceMemoryOverflowError(
                f"releasing unknown reservation {owner!r} on device "
                f"{self.device} (double release, or a release routed to "
                "the wrong device?)"
            )
        freed = self.reservations.pop(owner).nbytes
        self._used -= freed
        self.timeline.append((at, self._used))
        return freed

    # ------------------------------------------------------------------
    def reservations_of(self, owner_prefix: str) -> tuple[Reservation, ...]:
        """Live reservations whose owner starts with ``owner_prefix``,
        sorted by owner — the audit view crash reconciliation and tests
        use to find every grant a lost query (or query family) still
        holds on this device."""
        return tuple(
            self.reservations[owner]
            for owner in sorted(self.reservations)
            if owner.startswith(owner_prefix)
        )

    def force_release(self, owner: str, *, at: float = 0.0) -> int:
        """Reclaim ``owner``'s reservation without its cooperation.

        Ledger bookkeeping is **exactly** :meth:`release` — the grant is
        popped, the timeline records the new ``used_bytes`` at ``at``,
        and the freed bytes are returned — plus an entry in the
        :attr:`forced` audit log.  The ledger stays strict: forcing a
        reservation the arena does not hold raises
        :class:`~repro.errors.DeviceMemoryOverflowError` just like a
        stray :meth:`release` would, so crash reconciliation can never
        paper over a double release.
        """
        if owner not in self.reservations:
            raise DeviceMemoryOverflowError(
                f"force-releasing unknown reservation {owner!r} on device "
                f"{self.device} (already released, or reconciled twice?)"
            )
        freed = self.release(owner, at=at)
        self.forced.append((at, owner, freed))
        return freed

    def reconcile(self, owners: "list[str] | tuple[str, ...]", *, at: float = 0.0) -> int:
        """Force-release every reservation in ``owners`` (the queries
        lost when this arena's device crashed at ``at``), returning the
        total bytes reclaimed.  Owners are processed in the given order
        so the timeline is deterministic."""
        return sum(self.force_release(owner, at=at) for owner in owners)

    # ------------------------------------------------------------------
    def check_invariants(self) -> None:
        """The accounting the run audit asserts on every serving run:
        the running :attr:`used_bytes` counter equals the sum of the
        ledger, which never exceeds capacity, and neither does the
        high-water mark."""
        used = sum(item.nbytes for item in self.reservations.values())
        if used != self._used:
            raise DeviceMemoryOverflowError(
                f"arena used-bytes counter {self._used} disagrees with "
                f"its ledger sum {used} on device {self.device}"
            )
        if used > self.capacity_bytes:
            raise DeviceMemoryOverflowError(
                f"arena over-reserved on device {self.device}: "
                f"{used} > {self.capacity_bytes}"
            )
        if self.peak_bytes > self.capacity_bytes:
            raise DeviceMemoryOverflowError(
                f"arena peak {self.peak_bytes} exceeds capacity "
                f"{self.capacity_bytes} on device {self.device}"
            )
