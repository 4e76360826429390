"""Process-wide memoization of analytic strategy estimates.

The analytic ``estimate()`` paths are pure functions of (strategy
configuration, workload spec, keyword arguments): the same inputs always
produce the same :class:`~repro.core.results.JoinMetrics`.  The serving
layer prices every distinct request again in every run (solo baseline,
degraded-placement estimates), the planner ladder estimates the same
spec it just sized, and the benchmark sweeps revisit identical
workloads across concurrency levels and determinism re-runs — so the
same kernel costs used to be recomputed hundreds of times per run.

This module provides one shared cache:

* :func:`lookup` / :func:`store` — consulted by
  :meth:`repro.core.strategy.PipelinedJoinStrategy.estimate`; keys are
  built from the strategy's *fingerprint* (class, key, system spec,
  calibration, config, constructor extras), the frozen
  :class:`~repro.data.spec.JoinSpec`, and the estimate kwargs.  Any
  unhashable component simply bypasses the cache.  Per-device
  calibrations of a heterogeneous fleet ride in the fingerprint — two
  devices with different calibrations hash to different keys, so the
  shared cache never serves one device's estimate (or plan) to
  another;
* :func:`cached_ladder_choice` — memoizes the planner ladder's
  feasibility decision per (spec, system, available-bytes);
* :func:`cached_plan` — memoizes ``prepare()``'s analytic
  :class:`~repro.core.strategy.JoinPlan` per strategy fingerprint.
  Plan preparation (chunking, working-set packing, task-graph
  construction) dominated the serving wall clock once estimates were
  cached; the sharded serving layer re-prepares the same (spec,
  placement, memory-grant) combination on every device-placement
  candidate and determinism re-run, so plans are memoized the same way.
  ``estimate()`` and the serving scheduler's admission share one
  prepare per key: both go through
  :meth:`~repro.core.strategy.PipelinedJoinStrategy.cached_prepare`,
  which keys the plan exactly as the estimate is keyed, so an estimate
  miss leaves behind the plan its admission then reuses.
  Cached plans are **shared, read-only** objects: callers must not
  mutate ``plan.tasks`` (the serving scheduler only reads plans,
  admitting each plan's template under the query's alias).  A plan's lowered template (:attr:`~repro.core.strategy.
  JoinPlan.template`) lives on the plan, so :func:`clear` drops it
  with the plan;
* :func:`clear` / :func:`stats` / :func:`configure` — test and
  benchmark hooks.

All three caches are **LRU-bounded** (:func:`configure`'s
``max_entries``, default :data:`DEFAULT_MAX_ENTRIES` — generous; far
above any benchmark's working set).  A steady-state serving process
admitting an unbounded stream of *distinct* queries therefore holds at
most ``3 * max_entries`` cached objects instead of growing without
limit; a lookup refreshes an entry's recency, and evictions are
counted per cache (``stats().evictions`` / ``plan_evictions`` /
``ladder_evictions``) so a thrashing cache shows up in
:func:`stats` instead of hiding as slow estimates.
Eviction never affects results — an evicted entry is simply recomputed
on its next use.  All three insertion sites evict *before* inserting
when ``len(cache) >= max_entries`` — the ``>=`` (not ``>``) comparison
is what guarantees no cache ever holds ``max_entries + 1`` entries;
``tests/core/test_estimate_cache.py`` pins the bound for each cache.

The caches can optionally be **persisted across processes** through a
:class:`repro.core.sample_store.SampleStore` (:func:`attach_store`):
misses consult the store before recomputing and new entries are
written through, so a warm-started process makes bit-identical
decisions to a cold one without re-estimating.

Per-device memory budgets are part of every key already: a strategy's
fingerprint includes its constructor extras (co-processing's
``device_budget`` grant), and the ladder key includes the available
bytes the walk was asked about — so a sharded fleet's devices, each
with its own headroom, share cache entries exactly when their
placement inputs coincide and never otherwise.

Metrics are stored and returned as defensive copies (their ``phases`` /
``notes`` dicts are mutable), so callers can annotate a result without
poisoning later hits.  Correctness does not depend on the cache: with
``configure(enabled=False)`` every estimate recomputes and must produce
the same numbers — asserted by ``tests/core/test_estimate_cache.py``
and by ``bench/regress.py``'s cold-vs-hit column on every strategy.

Caveats: the cache is **process-wide mutable state**.  Deterministic
replay is unaffected (a hit returns exactly what recomputation would),
but wall-clock benchmarks must :func:`clear` between repetitions or
they measure memoization, and tests that disable the cache should
re-enable it (``configure(enabled=True)``) to avoid slowing the rest
of the suite.  All cached metrics are in the cost model's native
units: simulated seconds and bytes.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Any, Callable, Hashable

if TYPE_CHECKING:
    from repro.core.results import JoinMetrics
    from repro.core.strategy import JoinPlan

#: Default per-cache entry cap — far above any benchmark's working set;
#: a bound, not a tuning knob.  Override via :func:`configure`.
DEFAULT_MAX_ENTRIES = 65536

_cache: "OrderedDict[Hashable, JoinMetrics]" = OrderedDict()
_ladder_cache: "OrderedDict[Hashable, str]" = OrderedDict()
_plan_cache: "OrderedDict[Hashable, JoinPlan]" = OrderedDict()
_enabled = True
_max_entries = DEFAULT_MAX_ENTRIES
_hits = 0
_misses = 0
_evictions = 0
_plan_hits = 0
_plan_misses = 0
_plan_evictions = 0
_ladder_hits = 0
_ladder_misses = 0
_ladder_evictions = 0
#: Optional persistence backend (see :func:`attach_store`): an object
#: with the duck-typed ``estimate_for_key`` / ``remember_estimate`` /
#: ``ladder_for_key`` / ``remember_ladder`` / ``plan_for_key`` /
#: ``remember_plan`` methods — in practice a
#: :class:`repro.core.sample_store.SampleStore`.
_store: Any = None
_store_hits = 0
_plan_store_hits = 0
_ladder_store_hits = 0


@dataclass(frozen=True)
class CacheStats:
    """Hit/miss/eviction counters of the estimate cache (plan and
    ladder caches tracked separately so estimate-path accounting stays
    comparable across releases).  ``store_hits`` counters record misses
    answered by an attached persistent store instead of recomputation —
    such a miss increments both ``misses`` and the store counter."""

    hits: int
    misses: int
    entries: int
    plan_hits: int = 0
    plan_misses: int = 0
    plan_entries: int = 0
    evictions: int = 0
    plan_evictions: int = 0
    ladder_hits: int = 0
    ladder_misses: int = 0
    ladder_evictions: int = 0
    ladder_entries: int = 0
    store_hits: int = 0
    plan_store_hits: int = 0
    ladder_store_hits: int = 0
    max_entries: int = DEFAULT_MAX_ENTRIES

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


def configure(*, enabled: bool, max_entries: int | None = None) -> None:
    """Enable/disable the cache (disabling also clears it) and, when
    ``max_entries`` is given, re-bound each cache's LRU capacity.
    Shrinking below the current population evicts oldest-first.

    Reconfiguring starts a fresh accounting epoch: counters are reset
    via :func:`reset_stats` *before* any trimming, so hit-rates
    measured after a ``configure`` reflect only that configuration
    (evictions caused by the shrink itself are counted in the new
    epoch).  Cached entries survive unless the cache is disabled.
    """
    global _enabled, _max_entries
    _enabled = enabled
    reset_stats()
    if max_entries is not None:
        if max_entries < 1:
            raise ValueError(f"max_entries must be >= 1, got {max_entries}")
        _max_entries = max_entries
        for cache, counter in (
            (_cache, "_evictions"),
            (_plan_cache, "_plan_evictions"),
            (_ladder_cache, "_ladder_evictions"),
        ):
            while len(cache) > _max_entries:
                cache.popitem(last=False)
                globals()[counter] += 1
    if not enabled:
        clear()


def clear() -> None:
    """Drop every cached estimate and reset the counters."""
    _cache.clear()
    _ladder_cache.clear()
    _plan_cache.clear()
    reset_stats()


def reset_stats() -> None:
    """Zero every hit/miss/eviction counter without touching entries.

    Called by :func:`configure` so reconfigurations don't pollute
    hit-rates with counts from a previous configuration;
    also available directly for benchmarks that want per-phase
    accounting over a warm cache.
    """
    global _hits, _misses, _evictions, _plan_hits, _plan_misses
    global _plan_evictions, _ladder_hits, _ladder_misses, _ladder_evictions
    global _store_hits, _plan_store_hits, _ladder_store_hits
    _hits = 0
    _misses = 0
    _evictions = 0
    _plan_hits = 0
    _plan_misses = 0
    _plan_evictions = 0
    _ladder_hits = 0
    _ladder_misses = 0
    _ladder_evictions = 0
    _store_hits = 0
    _plan_store_hits = 0
    _ladder_store_hits = 0


def stats() -> CacheStats:
    return CacheStats(
        hits=_hits,
        misses=_misses,
        entries=len(_cache),
        plan_hits=_plan_hits,
        plan_misses=_plan_misses,
        plan_entries=len(_plan_cache),
        evictions=_evictions,
        plan_evictions=_plan_evictions,
        ladder_hits=_ladder_hits,
        ladder_misses=_ladder_misses,
        ladder_evictions=_ladder_evictions,
        ladder_entries=len(_ladder_cache),
        store_hits=_store_hits,
        plan_store_hits=_plan_store_hits,
        ladder_store_hits=_ladder_store_hits,
        max_entries=_max_entries,
    )


# ---------------------------------------------------------------------------
# Cross-process persistence (opt-in; see repro.core.sample_store)
# ---------------------------------------------------------------------------
def attach_store(store: Any) -> None:
    """Back the caches with a persistent store.

    ``store`` is duck-typed (``estimate_for_key`` / ``remember_estimate``
    and the ladder/plan analogues) — in practice a
    :class:`repro.core.sample_store.SampleStore`.  While attached, a
    cache miss consults the store before recomputing (a hit there is
    counted in ``stats().store_hits`` *in addition to* the miss, and
    promoted into the in-memory LRU), and every newly computed entry is
    written through so a later process can warm-start.  Stored values
    are exact JSON round-trips of recomputation, so attaching a store
    never changes results — only where they come from.
    """
    global _store
    _store = store


def detach_store() -> None:
    global _store
    _store = None


def make_key(
    fingerprint: Hashable, spec: Hashable, materialize: bool, kwargs: dict[str, Any]
) -> Hashable | None:
    """Build a cache key, or ``None`` when any component is unhashable
    (custom strategies with exotic kwargs fall back to recomputing)."""
    try:
        key = (fingerprint, spec, materialize, tuple(sorted(kwargs.items())))
        hash(key)
    except TypeError:
        return None
    return key


def lookup(key: Hashable | None) -> "JoinMetrics | None":
    """A defensive copy of the cached metrics, or ``None`` on a miss.
    A hit refreshes the entry's LRU recency; with a persistent store
    attached, a miss consults the store and promotes its answer."""
    global _hits, _misses, _store_hits
    if not _enabled or key is None:
        return None
    cached = _cache.get(key)
    if cached is None:
        _misses += 1
        if _store is not None:
            persisted = _store.estimate_for_key(key)
            if persisted is not None:
                _store_hits += 1
                _insert(key, persisted)
                return _copy(persisted)
        return None
    _cache.move_to_end(key)
    _hits += 1
    return _copy(cached)


def store(key: Hashable | None, metrics: "JoinMetrics") -> None:
    if not _enabled or key is None:
        return
    _insert(key, metrics)
    if _store is not None:
        _store.remember_estimate(key, metrics)


def _insert(key: Hashable, metrics: "JoinMetrics") -> None:
    global _evictions
    if key in _cache:
        _cache.move_to_end(key)
    elif len(_cache) >= _max_entries:
        _cache.popitem(last=False)
        _evictions += 1
    _cache[key] = _copy(metrics)


def _copy(metrics: "JoinMetrics") -> "JoinMetrics":
    return replace(metrics, phases=dict(metrics.phases), notes=dict(metrics.notes))


# ---------------------------------------------------------------------------
# Planner-ladder memoization
# ---------------------------------------------------------------------------
def cached_ladder_choice(
    key: Hashable, compute: Callable[[], str]
) -> str:
    """Memoize the planner ladder's strategy choice.

    The ladder walk is pure in (spec, system, available_bytes).  The
    serving scheduler asks it once per request and run, for the solo
    choice; the bench figures and the determinism re-runs repeat it.
    """
    global _ladder_hits, _ladder_misses, _ladder_evictions, _ladder_store_hits
    if not _enabled:
        return compute()
    try:
        hash(key)
    except TypeError:
        return compute()
    choice = _ladder_cache.get(key)
    if choice is None:
        _ladder_misses += 1
        persisted = _store.ladder_for_key(key) if _store is not None else None
        if persisted is not None:
            _ladder_store_hits += 1
            choice = persisted
        else:
            choice = compute()
            if _store is not None:
                _store.remember_ladder(key, choice)
        if len(_ladder_cache) >= _max_entries:
            _ladder_cache.popitem(last=False)
            _ladder_evictions += 1
        _ladder_cache[key] = choice
    else:
        _ladder_cache.move_to_end(key)
        _ladder_hits += 1
    return choice


# ---------------------------------------------------------------------------
# Plan memoization
# ---------------------------------------------------------------------------
def cached_plan(
    key: Hashable | None, compute: Callable[[], "JoinPlan"]
) -> "JoinPlan":
    """Memoize an analytic ``prepare()`` plan.

    ``prepare`` is pure in the strategy fingerprint plus (spec,
    materialize) — the same purity contract estimates rely on, with the
    per-device memory grant captured by the fingerprint's constructor
    extras (``device_budget``).  The returned plan is a **shared,
    read-only** object: callers that need to adapt tasks (the serving
    scheduler's qid/device namespacing) place its template under an
    alias (:class:`~repro.pipeline.engine.Admission`) rather than
    mutate the cached tasks.  ``key=None`` (an
    unhashable fingerprint) and a disabled cache both recompute.
    Hits/misses are tracked separately from the estimate counters
    (``stats().plan_hits`` / ``plan_misses`` / ``plan_entries``), so a
    key mismatch that silently stops the cache from hitting shows up
    in the accounting.
    """
    global _plan_hits, _plan_misses, _plan_evictions, _plan_store_hits
    if not _enabled or key is None:
        return compute()
    plan = _plan_cache.get(key)
    if plan is None:
        _plan_misses += 1
        persisted = _store.plan_for_key(key) if _store is not None else None
        if persisted is not None:
            _plan_store_hits += 1
            plan = persisted
        else:
            plan = compute()
            if _store is not None:
                _store.remember_plan(key, plan)
        if len(_plan_cache) >= _max_entries:
            _plan_cache.popitem(last=False)
            _plan_evictions += 1
        _plan_cache[key] = plan
    else:
        _plan_cache.move_to_end(key)
        _plan_hits += 1
    return plan
