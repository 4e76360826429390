"""Deterministic mixed workloads for the serving benchmark.

A serving GPU sees queries from every placement regime at once: small
joins that are GPU-resident on an idle device, streaming joins whose
probe side exceeds memory, and co-processing joins where nothing fits.
:func:`mixed_workload` cycles through those regimes (with a size wobble
so queries are not identical), which is exactly the mix where admission
control matters: resident queries degrade under pressure, and the
different strategies' H2D/GPU/D2H/CPU tasks interleave.

:func:`random_workload` draws the same regimes at random from a seeded
generator — the input source for the property-based differential suite
(``tests/serve/test_placement_properties.py``).  It is **stable by
contract**: the same seed must produce the same request list across
releases, because recorded golden schedules (``tests/serve/golden.py``)
pin the scheduler's output on these workloads.  Cardinalities come from
small discrete grids, so the process-wide estimate cache absorbs
repeated specs across seeds.

:func:`stream_workload` is the open-arrival source for
:meth:`~repro.serve.scheduler.QueryScheduler.run_stream`: a lazy,
seeded generator of 10^5+ requests with exponential inter-arrival gaps,
drawing from a handful of interned spec templates so per-arrival
planning work is all cache hits.
"""

from __future__ import annotations

import random
from dataclasses import replace
from typing import Iterator

from repro.data.spec import Distribution, JoinSpec, RelationSpec, unique_pair
from repro.errors import InvalidConfigError
from repro.serve.admission import QueryClass
from repro.serve.scheduler import QueryRequest

M = 1_000_000

#: The three canonical service classes (see
#: :class:`~repro.serve.admission.QueryClass`).  Deadlines are relative
#: to submission, in simulated seconds; ``INTERACTIVE`` is tight enough
#: that FIFO admission misses it behind heavy queries while
#: deadline-aware admission does not, ``BATCH`` has none at all.
INTERACTIVE = QueryClass(
    name="interactive", priority=4, deadline_seconds=3.0
)
STANDARD = QueryClass(name="standard", priority=2, deadline_seconds=12.0)
BATCH = QueryClass(name="batch", priority=1, deadline_seconds=None)

#: The canonical class cycle, aligned with :func:`mixed_workload`'s
#: four-regime cycle so the *small, fast* queries (kind 0) carry the
#: tight interactive deadline, the mid-size residents (kind 2) the
#: standard one, and the heavy streaming/co-processing queries (kinds
#: 1, 3) run as deadline-free batch — the deadline-skewed mix the
#: admission bench measures policies on.
DEADLINE_CLASSES: tuple[QueryClass, ...] = (
    INTERACTIVE, BATCH, STANDARD, BATCH
)

#: Default tenant cycle for classed workloads.  Length 3 against the
#: length-4 class cycle, so every (class, tenant) pair occurs and the
#: weighted-fair ledger sees real cross-tenant contention.
TENANTS: tuple[str, ...] = ("tenant-a", "tenant-b", "tenant-c")


def _scaled_class(
    template: QueryClass,
    tenant: "str | None",
    deadline_scale: float,
    cache: dict,
) -> QueryClass:
    """One stamped (template, tenant, scale) class instance, interned
    so a 10^5-arrival classed stream allocates O(classes x tenants)
    QueryClass objects, not one per request."""
    key = (id(template), tenant, deadline_scale)
    stamped = cache.get(key)
    if stamped is None:
        stamped = replace(
            template,
            tenant=tenant if tenant is not None else template.tenant,
            deadline_seconds=(
                None
                if template.deadline_seconds is None
                else template.deadline_seconds * deadline_scale
            ),
        )
        cache[key] = stamped
    return stamped


def with_classes(
    requests: "list[QueryRequest]",
    *,
    classes: tuple[QueryClass, ...] = DEADLINE_CLASSES,
    deadline_scale: float = 1.0,
    tenants: "tuple[str, ...] | None" = TENANTS,
) -> "list[QueryRequest]":
    """Stamp service classes onto a request list, deterministically.

    Request ``i`` gets ``classes[i % len(classes)]`` with its deadline
    multiplied by ``deadline_scale`` and (when ``tenants`` is given)
    its tenant replaced by ``tenants[i % len(tenants)]``.  Purely a
    re-stamping — qids, specs and submit times are untouched, so a
    classed workload schedules identically to its unclassed original
    under FIFO admission (classes only change *reporting* there).
    """
    if not classes:
        raise InvalidConfigError("classes must be non-empty")
    if deadline_scale <= 0:
        raise InvalidConfigError("deadline_scale must be positive")
    cache: dict = {}
    return [
        replace(
            request,
            query_class=_scaled_class(
                classes[i % len(classes)],
                tenants[i % len(tenants)] if tenants else None,
                deadline_scale,
                cache,
            ),
        )
        for i, request in enumerate(requests)
    ]

#: Size wobble applied per cycle position so repeated templates differ.
_WOBBLE = (1.0, 0.75, 1.25)


def _resident(n: int) -> JoinSpec:
    return unique_pair(max(n, 2))


def _streaming(build_n: int, probe_n: int) -> JoinSpec:
    return JoinSpec(
        build=RelationSpec(n=max(build_n, 2)),
        probe=RelationSpec(
            n=max(probe_n, 2),
            distinct=max(build_n, 2),
            distribution=Distribution.UNIFORM,
        ),
    )


def mixed_workload(
    n_queries: int,
    *,
    scale: float = 1.0,
    spacing_seconds: float = 0.0,
) -> list[QueryRequest]:
    """``n_queries`` requests cycling through the three placement regimes.

    ``scale`` shrinks cardinalities for smoke runs (strategy *regimes*
    are preserved only near ``scale=1``; smaller scales simply make
    everything cheaper and more resident).  ``spacing_seconds`` staggers
    submissions to model an open arrival process instead of one batch.
    """
    if n_queries <= 0:
        raise InvalidConfigError("n_queries must be positive")
    if scale <= 0:
        raise InvalidConfigError("scale must be positive")
    requests: list[QueryRequest] = []
    for i in range(n_queries):
        wobble = _WOBBLE[(i // 4) % len(_WOBBLE)]
        size = lambda base: max(2, int(base * scale * wobble))  # noqa: E731
        kind = i % 4
        if kind == 0:
            spec, materialize = _resident(size(16 * M)), False
        elif kind == 1:
            spec, materialize = _streaming(size(64 * M), size(512 * M)), True
        elif kind == 2:
            spec, materialize = _resident(size(48 * M)), False
        else:
            spec, materialize = _resident(size(512 * M)), False  # co-processing
        requests.append(
            QueryRequest(
                qid=f"q{i:03d}",
                spec=spec,
                submit_at=i * spacing_seconds,
                materialize=materialize,
            )
        )
    return requests


def classed_workload(
    n_queries: int,
    *,
    scale: float = 1.0,
    spacing_seconds: float = 0.0,
    deadline_scale: float = 1.0,
) -> "list[QueryRequest]":
    """The canonical deadline-skewed serving workload: the
    :func:`mixed_workload` request list stamped with the
    :data:`DEADLINE_CLASSES` cycle and the :data:`TENANTS` rotation.

    Small resident queries carry the tight interactive deadline while
    the heavy regimes run as deadline-free batch, so FIFO admission
    strands interactive queries behind co-processing joins and misses
    their deadlines — the skew the admission bench (``bench serve
    --classes``) measures ``edf`` against.  ``deadline_scale``
    multiplies every deadline (smaller = harsher).
    """
    return with_classes(
        mixed_workload(
            n_queries, scale=scale, spacing_seconds=spacing_seconds
        ),
        deadline_scale=deadline_scale,
    )


#: Cardinality grids (millions of tuples) the randomized workloads draw
#: from.  Discrete on purpose: repeated sizes keep the estimate cache
#: hot across hundreds of seeds.  Do not reorder or edit in place —
#: the golden single-device schedules are pinned against these draws;
#: extend only by appending new grids behind a new ``kind``.
_RANDOM_RESIDENT_M = (4, 8, 16, 32)
_RANDOM_PRESSURE_M = (48, 96, 128)
_RANDOM_STREAM_BUILD_M = (16, 32, 64)
_RANDOM_STREAM_PROBE_M = (128, 256, 512)
_RANDOM_COPROC_M = (256, 384, 512)


def random_workload(
    seed: int,
    *,
    max_queries: int = 6,
    spacing_max_seconds: float = 0.6,
) -> list[QueryRequest]:
    """A seeded random request list mixing all placement regimes.

    Every draw comes from one :class:`random.Random` seeded with
    ``seed``, so the same seed always yields the same workload — the
    determinism the property-based differential suite and its recorded
    golden schedules rely on.  Arrivals are a mix of batched
    (``submit_at`` repeats) and staggered submissions; cardinality
    grids span idle-resident, memory-pressure, streaming and
    co-processing regimes so admission control, degradation and
    waiting all get exercised.
    """
    if max_queries < 2:
        raise InvalidConfigError("max_queries must be at least 2")
    if spacing_max_seconds < 0:
        raise InvalidConfigError("spacing_max_seconds must be non-negative")
    rng = random.Random(seed)
    n_queries = rng.randint(2, max_queries)
    requests: list[QueryRequest] = []
    clock = 0.0
    for i in range(n_queries):
        kind = rng.randrange(4)
        materialize = False
        if kind == 0:  # small, GPU-resident even under load
            spec = _resident(rng.choice(_RANDOM_RESIDENT_M) * M)
        elif kind == 1:  # resident alone, degrades under pressure
            spec = _resident(rng.choice(_RANDOM_PRESSURE_M) * M)
        elif kind == 2:  # streaming probe
            build = rng.choice(_RANDOM_STREAM_BUILD_M) * M
            spec = _streaming(build, rng.choice(_RANDOM_STREAM_PROBE_M) * M)
            materialize = rng.random() < 0.5
        else:  # co-processing: nothing fits
            spec = _resident(rng.choice(_RANDOM_COPROC_M) * M)
        if i and rng.random() < 0.5:
            clock += round(rng.uniform(0.05, spacing_max_seconds), 3)
        requests.append(
            QueryRequest(
                qid=f"q{i:03d}",
                spec=spec,
                submit_at=clock,
                materialize=materialize,
            )
        )
    return requests


#: Interned (spec, materialize) templates the streaming workload draws
#: from.  Built once at import: 10^5+ arrivals share these few spec
#: objects, so the scheduler's admission profiles and the process-wide
#: estimate/plan caches hit on every arrival after warm-up and spec
#: memory stays O(1) in stream length.  Weighted toward small resident
#: joins (3-task graphs) with a pressure band and a streaming tail —
#: the steady-state mix a serving GPU actually sees; the heavy
#: co-processing regime is left to :func:`mixed_workload`, whose
#: 50+-task graphs would dominate a 10^5-arrival stream.
_STREAM_TEMPLATES: tuple[tuple[JoinSpec, bool], ...] = tuple(
    [(_resident(n * M), False) for n in (4, 8, 16, 32)]
    + [(_resident(n * M), False) for n in (48, 96)]
    + [(_streaming(32 * M, 128 * M), True)]
)

#: Cumulative draw weights over :data:`_STREAM_TEMPLATES` (four light
#: residents, two pressure residents, one streaming probe).
_STREAM_WEIGHTS = (0.22, 0.44, 0.66, 0.84, 0.90, 0.96, 1.0)


def stream_workload(
    n_queries: int,
    *,
    arrival_rate: float = 200.0,
    seed: int = 0,
    slo_wait_seconds: float | None = None,
    classes: "tuple[QueryClass, ...] | None" = None,
    deadline_scale: float = 1.0,
) -> Iterator[QueryRequest]:
    """Lazily generate an open arrival stream for
    :meth:`~repro.serve.scheduler.QueryScheduler.run_stream`.

    Yields ``n_queries`` requests with seeded-exponential inter-arrival
    gaps (``arrival_rate`` arrivals per simulated second on average),
    sorted by ``submit_at`` with unique qids — exactly the contract
    ``run_stream`` ingests.  Deterministic per ``seed``.  Specs come
    from the interned :data:`_STREAM_TEMPLATES`, so a million-arrival
    stream allocates no per-query spec objects and every admission
    decision is served from warm caches.  ``slo_wait_seconds``, when
    given, stamps each request's own admission-wait SLO (simulated
    seconds), driving per-query load shedding.  ``classes`` (e.g.
    :data:`DEADLINE_CLASSES`) stamps service classes in the same
    deterministic rotation :func:`with_classes` uses, deadlines scaled
    by ``deadline_scale`` — the RNG draws are untouched, so a classed
    stream's specs and arrival times match the unclassed stream
    exactly.
    """
    if n_queries <= 0:
        raise InvalidConfigError("n_queries must be positive")
    if arrival_rate <= 0:
        raise InvalidConfigError("arrival_rate must be positive")
    if classes is not None and not classes:
        raise InvalidConfigError("classes must be non-empty (or None)")
    if deadline_scale <= 0:
        raise InvalidConfigError("deadline_scale must be positive")
    rng = random.Random(seed)
    cache: dict = {}
    clock = 0.0
    for i in range(n_queries):
        draw = rng.random()
        index = 0
        while _STREAM_WEIGHTS[index] < draw:
            index += 1
        spec, materialize = _STREAM_TEMPLATES[index]
        if i:
            clock += rng.expovariate(arrival_rate)
        query_class = None
        if classes is not None:
            query_class = _scaled_class(
                classes[i % len(classes)],
                TENANTS[i % len(TENANTS)],
                deadline_scale,
                cache,
            )
        yield QueryRequest(
            qid=f"s{i:06d}",
            spec=spec,
            submit_at=clock,
            materialize=materialize,
            slo_wait_seconds=slo_wait_seconds,
            query_class=query_class,
        )
