"""Exception hierarchy for the :mod:`repro` package.

All errors raised by the library derive from :class:`ReproError` so that
callers can catch library failures with a single ``except`` clause while
still letting programming errors (``TypeError`` etc.) propagate.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every error raised by this library."""


class InvalidRelationError(ReproError):
    """A relation failed validation (mismatched columns, bad dtype...)."""


class InvalidConfigError(ReproError):
    """A configuration object has inconsistent or out-of-range values."""


class UnknownStrategyError(InvalidConfigError):
    """A join-strategy registry lookup used an unregistered key."""


class FleetEventError(InvalidConfigError):
    """A fleet-event list failed up-front validation.

    Raised before the run starts — e.g. a ``retire`` naming a device
    index the fleet never reaches, or retiring the same device twice —
    so a bad elasticity schedule cannot fail halfway through a
    simulation that has already mutated state.
    """


class FaultPlanError(InvalidConfigError):
    """A fault-injection plan failed up-front validation.

    Raised before the run starts — unsorted or duplicate crash events,
    crashes naming devices the fleet never reaches, or non-positive
    transient-failure counts.
    """


class SampleStoreError(ReproError):
    """A cache-store file is unusable.

    Raised by :meth:`repro.core.sample_store.SampleStore.load` when the
    file's versioned header is missing, unparsable, or names a format
    version this code cannot read.  Truncated, partially-written or
    malformed *record* lines (the tail a crashed writer leaves behind)
    are **not** errors: loading skips them and counts them in
    :attr:`~repro.core.sample_store.SampleStore.skipped_records`.
    """


class SnapshotError(InvalidConfigError):
    """A figure snapshot cannot be written or compared.

    Raised by :func:`repro.bench.compare.snapshot` when the target file
    already exists (a stored snapshot is a reference and is never
    overwritten), and by :func:`repro.bench.compare.compare` when the
    file's format version, figure names, series labels or x points
    differ from what the figures produce — a stale or truncated
    snapshot must not pass as "no deviations".
    """


class CapacityError(ReproError):
    """A simulated memory allocation exceeded the available capacity."""


class SharedMemoryOverflowError(CapacityError):
    """A co-partition working set does not fit in GPU shared memory."""


class DeviceMemoryOverflowError(CapacityError):
    """A working set or buffer does not fit in GPU device memory."""


class PipelineError(ReproError):
    """The discrete-event pipeline was given an inconsistent task graph."""


class SchedulingError(PipelineError):
    """A task graph contains a cycle or references an unknown dependency."""


class FaultInvariantError(SchedulingError):
    """A fault-injected serving run violated a recovery invariant.

    Raised by the post-run checker when conservation
    (``completed + shed + failed == arrivals``) breaks, an arena ledger
    fails to drain, work lands on a crashed device after its crash
    time, or a retry budget was exceeded without a recorded failure.
    """


class WorkingSetPackingError(ReproError):
    """No feasible packing of partitions into GPU-sized working sets exists."""


class BaselineUnsupportedError(ReproError):
    """A modelled baseline system cannot run the requested workload.

    Used to reproduce documented failures of the comparison systems, e.g.
    DBMS-X returning an error on the TPC-H SF100 orders join and CoGaDB
    failing to load scale factor 100 (paper §V-C).
    """
