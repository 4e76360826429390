"""SLO-aware admission: service classes and wait-queue ordering policies.

The schedulers in :mod:`repro.serve.scheduler` historically admitted
queries strictly in arrival order (head-of-line FIFO).  The paper's
cost model — and the estimate/plan caches built on it — make it cheap
to *search* over admission orders instead: every queued query already
carries a cached solo estimate, so reordering the wait queue by job
size, deadline, or tenant fairness costs one dictionary lookup per
candidate.  This module owns that axis:

* :class:`QueryClass` — the per-query service contract: a priority
  weight, an optional hard deadline (relative to submission), a tenant
  id for fairness accounting, and an optional override of the
  scheduler's degrade-vs-wait threshold;
* :class:`AdmissionPolicy` and its registry — given the *arrived*
  prefix of the wait queue, pick which query the scheduler should try
  to place next.  ``fifo`` (the default) always picks the queue head
  and is pinned bit-identical to the pre-registry scheduler by the
  recorded golden schedules; ``sjf``, ``edf`` and ``weighted_fair``
  reorder admissions without touching placement, stealing, fleet
  elasticity, or fault recovery (a retried query re-enters the queue
  carrying its original :class:`QueryClass`).

Everything here is deterministic.  Policies see candidates in queue
order, tie-break on stable keys (qid for equal deadlines / equal
estimates, first-seen order for tenants), and keep any per-run state
on the instance — the scheduler calls :meth:`AdmissionPolicy.reset` at
the start of every run, mirroring :class:`~repro.serve.placement.PlacementPolicy`.

Head-of-line blocking is preserved, just re-pointed: when the policy's
chosen candidate cannot be placed, the scheduler waits for a finish
instead of trying the next candidate.  Skipping ahead past a blocked
head would silently starve large queries under memory pressure; a
policy that wants small queries first must *rank* them first.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, ClassVar, Sequence

from repro.errors import InvalidConfigError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.serve.scheduler import QueryRequest

#: Registry keys of the built-in policies.
FIFO = "fifo"
SJF = "sjf"
EDF = "edf"
WEIGHTED_FAIR = "weighted_fair"

#: Class/tenant label carried by requests that declare no QueryClass.
DEFAULT_CLASS = "default"
DEFAULT_TENANT = "default"


@dataclass(frozen=True)
class QueryClass:
    """One service class: the SLO contract a query is admitted under.

    ``deadline_seconds`` is **relative to the query's submission time**;
    the absolute hard deadline is ``submit_at + deadline_seconds``
    (``None`` = no deadline).  ``priority`` is the tenant-fairness
    weight (higher = a larger share under ``weighted_fair``; 0 means
    "unweighted", i.e. weight 1).  ``max_degradation`` overrides the
    scheduler's fleet-wide degrade-vs-wait threshold for queries of
    this class (``None`` = inherit the scheduler's setting) — an
    interactive class can accept a 4x-degraded placement to start *now*
    while the batch class keeps the conservative default.

    Instances are frozen and hashable, so one class object is shared by
    every request admitted under it; per-tenant stamping goes through
    :func:`dataclasses.replace`.
    """

    name: str
    priority: int = 0
    deadline_seconds: float | None = None
    tenant: str = DEFAULT_TENANT
    max_degradation: float | None = None

    def __post_init__(self) -> None:
        if not self.name:
            raise InvalidConfigError("query class needs a non-empty name")
        if not self.tenant:
            raise InvalidConfigError(
                f"query class {self.name!r} needs a non-empty tenant"
            )
        if self.priority < 0:
            raise InvalidConfigError(
                f"query class {self.name!r} priority must be >= 0, got "
                f"{self.priority!r}"
            )
        if self.deadline_seconds is not None and self.deadline_seconds <= 0:
            raise InvalidConfigError(
                f"query class {self.name!r} deadline must be > 0 seconds "
                f"(or None for no deadline), got {self.deadline_seconds!r}"
            )
        if self.max_degradation is not None and self.max_degradation < 1.0:
            raise InvalidConfigError(
                f"query class {self.name!r} max_degradation must be >= 1.0 "
                f"(or None to inherit the scheduler's), got "
                f"{self.max_degradation!r}"
            )

    @property
    def weight(self) -> int:
        """Fairness weight: ``priority`` floored at 1."""
        return self.priority if self.priority > 0 else 1


def class_name_of(request: "QueryRequest") -> str:
    """The request's service-class label (``"default"`` when unclassed)."""
    qc = request.query_class
    return qc.name if qc is not None else DEFAULT_CLASS


def tenant_of(request: "QueryRequest") -> str:
    """The request's tenant id (``"default"`` when unclassed)."""
    qc = request.query_class
    return qc.tenant if qc is not None else DEFAULT_TENANT


def hard_deadline(request: "QueryRequest") -> float:
    """Absolute hard deadline in simulated seconds (``inf`` = none)."""
    qc = request.query_class
    if qc is None or qc.deadline_seconds is None:
        return math.inf
    return request.submit_at + qc.deadline_seconds


@dataclass
class AdmissionContext:
    """What a policy may read besides the queue itself.

    ``clock`` is the simulated time of the admission attempt (the
    scheduler refreshes it before every :meth:`AdmissionPolicy.select`
    call — one context object lives per run); ``solo_seconds`` maps a
    request to its unconstrained solo estimate, read from the run's
    admission profile of the request (estimated once per distinct
    spec and run, then a table hit, so ranking the queue is cheap).
    """

    clock: float
    solo_seconds: Callable[["QueryRequest"], float]


class AdmissionPolicy:
    """Picks which *arrived* queued query to try to place next.

    :meth:`select` receives the arrived prefix of the wait queue (every
    entry's ``submit_at <= ctx.clock``), never empty, in queue order,
    and returns the index of the candidate to attempt.  The scheduler
    validates the index and raises on a bad one, so a buggy policy
    cannot corrupt the run's books — the queue and arenas are only
    mutated after a successful placement.

    Implementations must be deterministic.  Per-run state (the fairness
    ledger) lives on the instance; the scheduler calls :meth:`reset` at
    the start of every run and :meth:`record_admit` after every
    successful admission, so ``run_online`` and unshed ``run_stream``
    replays of the same request list see identical policy decisions.
    """

    #: Registry key; subclasses must override.
    key: ClassVar[str] = ""
    #: ``False`` only for FIFO: lets the scheduler skip building the
    #: arrived-prefix view entirely, keeping the default path's cost
    #: (and behavior) bit-identical to the pre-registry scheduler.
    reorders: ClassVar[bool] = True

    def reset(self) -> None:
        """Forget per-run state (fairness ledgers, cursors)."""

    def select(
        self, arrived: Sequence["QueryRequest"], ctx: AdmissionContext
    ) -> int:
        raise NotImplementedError

    def record_admit(
        self, request: "QueryRequest", ctx: AdmissionContext
    ) -> None:
        """Hook called after ``request`` was successfully admitted."""


class FifoAdmission(AdmissionPolicy):
    """Default: strict arrival order — always the queue head.

    Pinned bit-identical to the historical scheduler by the recorded
    golden schedules (``test_fifo_bit_identical_to_golden`` in
    ``tests/serve/test_admission_properties.py``).  Fault retries keep
    their historical head-of-queue re-entry under this policy.
    """

    key = FIFO
    reorders = False

    def select(
        self, arrived: Sequence["QueryRequest"], ctx: AdmissionContext
    ) -> int:
        return 0


class SjfAdmission(AdmissionPolicy):
    """Shortest-estimated-job-first, via the cached solo estimates.

    Ranks arrived queries by their unconstrained solo makespan (the
    same cached estimate the degrade-vs-wait rule already uses), ties
    broken by qid.  Classic SJF: minimizes mean wait when estimates are
    honest; the property suite asserts it never worsens mean latency
    against FIFO on the canonical mixed workload.
    """

    key = SJF

    def select(
        self, arrived: Sequence["QueryRequest"], ctx: AdmissionContext
    ) -> int:
        return min(
            range(len(arrived)),
            key=lambda i: (ctx.solo_seconds(arrived[i]), arrived[i].qid),
        )


class EdfAdmission(AdmissionPolicy):
    """Earliest-deadline-first over the hard deadlines.

    Ranks arrived queries by absolute hard deadline
    (``submit_at + deadline_seconds``; no deadline sorts last as
    ``inf``), with **equal deadlines tie-breaking deterministically by
    qid**.  Optimal for meeting deadlines on a single resource when the
    load is feasible; the bench pins that it strictly reduces the
    deadline-miss rate against FIFO on the deadline-skewed canonical
    workload.
    """

    key = EDF

    def select(
        self, arrived: Sequence["QueryRequest"], ctx: AdmissionContext
    ) -> int:
        return min(
            range(len(arrived)),
            key=lambda i: (hard_deadline(arrived[i]), arrived[i].qid),
        )


class WeightedFairAdmission(AdmissionPolicy):
    """Deficit-style weighted fair queueing across tenants.

    Keeps a per-run ledger of *charged* service per tenant: every
    admission charges the query's cached solo estimate divided by its
    class weight (:attr:`QueryClass.weight`) to the query's tenant.
    :meth:`select` serves the least-charged tenant's oldest arrived
    query — FIFO within a tenant, fair across tenants.  Ties break by
    first-seen order, then tenant name, so replays are deterministic.

    Starvation bound: a waiting tenant's charge never grows, while
    every admission grows the serving tenant's charge by a positive
    amount, so with T active tenants a tenant with queued work is
    served at least once per T admissions once its charge is minimal —
    the adversarial suite pins a round bound on that guarantee.  The
    ledger only mutates in :meth:`record_admit` (never in
    :meth:`select`), so a blocked head retried across waves — or a
    policy exception mid-pop — cannot drift the fairness books.
    """

    key = WEIGHTED_FAIR

    def __init__(self) -> None:
        self._charged: dict[str, float] = {}
        self._seen: dict[str, int] = {}

    def reset(self) -> None:
        self._charged.clear()
        self._seen.clear()

    def _rank(self, tenant: str) -> tuple[float, int, str]:
        return (
            self._charged.get(tenant, 0.0),
            self._seen.get(tenant, len(self._seen)),
            tenant,
        )

    def select(
        self, arrived: Sequence["QueryRequest"], ctx: AdmissionContext
    ) -> int:
        heads: dict[str, int] = {}
        for pos, request in enumerate(arrived):
            tenant = tenant_of(request)
            if tenant not in self._seen:
                self._seen[tenant] = len(self._seen)
            if tenant not in heads:
                heads[tenant] = pos
        return heads[min(heads, key=self._rank)]

    def record_admit(
        self, request: "QueryRequest", ctx: AdmissionContext
    ) -> None:
        tenant = tenant_of(request)
        qc = request.query_class
        weight = qc.weight if qc is not None else 1
        charge = ctx.solo_seconds(request) / weight
        self._charged[tenant] = self._charged.get(tenant, 0.0) + charge


_POLICIES: dict[str, type[AdmissionPolicy]] = {
    policy.key: policy
    for policy in (
        FifoAdmission,
        SjfAdmission,
        EdfAdmission,
        WeightedFairAdmission,
    )
}


def registered_admission_policies() -> tuple[str, ...]:
    """Registry keys of the available policies, FIFO (the default) first."""
    return tuple(_POLICIES)


def create_admission_policy(key: str | AdmissionPolicy) -> AdmissionPolicy:
    """Instantiate a policy by registry key (or pass an instance through).

    A fresh instance per scheduler run keeps stateful policies (the
    weighted-fair ledger) deterministic across runs.
    """
    if isinstance(key, AdmissionPolicy):
        return key
    try:
        factory = _POLICIES[key]
    except KeyError:
        raise InvalidConfigError(
            f"unknown admission policy {key!r}; registered: "
            f"{', '.join(_POLICIES)}"
        ) from None
    return factory()
