"""The :class:`JoinStrategy` protocol and the strategy registry.

The paper's thesis is that no single GPU join fits every workload: the
right algorithm depends on where the data can live.  This module turns
that thesis into an extension point.  Every strategy is a named entry in
a string-keyed registry and follows one execution model:

* :meth:`JoinStrategy.prepare` derives a :class:`JoinPlan` — a task
  graph over the machine's serially-executing resources (H2D/D2H DMA
  engines, the GPU compute queue, host CPU threads) plus reporting
  metadata — from a workload spec;
* :meth:`JoinStrategy.schedule` feeds the plan to the discrete-event
  :class:`~repro.pipeline.engine.PipelineEngine`, whose simulation turns
  per-task durations into the overlapped end-to-end makespan;
* :meth:`JoinStrategy.execute` runs the join functionally on
  materialized relations, reusing the same plan/schedule machinery with
  observed (rather than expected) task durations.

New strategies (multi-GPU, UVA/UM variants, CPU-only fallbacks) plug in
by subclassing :class:`PipelinedJoinStrategy` and registering — the
planner, executor and benchmarks dispatch through the registry and never
name concrete classes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, ClassVar, Protocol, runtime_checkable

from repro.core import estimate_cache
from repro.core.results import JoinMetrics, JoinRunResult
from repro.data.spec import JoinSpec
from repro.errors import InvalidConfigError, UnknownStrategyError
from repro.pipeline.engine import Admission, PipelineEngine, PlanTemplate
from repro.pipeline.tasks import Schedule, Task

if TYPE_CHECKING:
    from repro.core.config import GpuJoinConfig
    from repro.data.relation import Relation
    from repro.gpusim.calibration import Calibration
    from repro.gpusim.spec import SystemSpec

#: Canonical registry keys of the built-in strategies.
GPU_RESIDENT = "gpu_resident"
GPU_NONPARTITIONED = "gpu_nonpartitioned"
GPU_NONPARTITIONED_PERFECT = "gpu_nonpartitioned_perfect"
STREAMING = "streaming"
COPROCESSING = "coprocessing"
COPROCESSING_ADAPTIVE = "coprocessing_adaptive"


# ---------------------------------------------------------------------------
# Plans
# ---------------------------------------------------------------------------
@dataclass
class JoinPlan:
    """A strategy's declared execution: tasks plus reporting metadata.

    Every resource a task names runs as one serial FIFO lane.
    ``phases`` pre-seeds the metric phases (so a phase with no tasks —
    e.g. D2H in aggregation mode — still reports 0.0).  :attr:`template`
    is the task graph lowered for the engine, built on first use.
    """

    strategy: str
    spec: JoinSpec
    tasks: list[Task] = field(default_factory=list)
    phases: tuple[str, ...] = ()
    matches: float = 0.0
    materialize: bool = False
    pcie_h2d_bytes: float = 0.0
    pcie_d2h_bytes: float = 0.0
    notes: dict[str, float] = field(default_factory=dict)
    _template: PlanTemplate | None = field(
        default=None, init=False, repr=False, compare=False
    )

    @property
    def template(self) -> PlanTemplate:
        """The task graph lowered once into the engine's dispatch order
        (:class:`~repro.pipeline.engine.PlanTemplate`).  It lives as
        long as the plan, so a cached plan's template is shared by its
        estimate and every admission of it, and dropped with the plan.
        Built on first read: a plan is complete once ``prepare``
        returns it."""
        if self._template is None:
            self._template = PlanTemplate(self.tasks)
        return self._template

    def add(
        self,
        name: str,
        resource: str,
        duration: float,
        deps: tuple[str, ...] | list[str] = (),
        phase: str | None = None,
    ) -> str:
        """Append a task and return its name (for dependency chaining)."""
        self.tasks.append(
            Task(
                name=name,
                resource=resource,
                duration=float(duration),
                deps=tuple(deps),
                phase=phase,
            )
        )
        return name


# ---------------------------------------------------------------------------
# Protocol
# ---------------------------------------------------------------------------
@runtime_checkable
class JoinStrategy(Protocol):
    """Structural interface every join strategy implements."""

    key: ClassVar[str]
    name: str

    def prepare(
        self, spec: JoinSpec, *, materialize: bool = False, **kwargs: Any
    ) -> JoinPlan: ...

    def schedule(
        self, plan: JoinPlan, engine: PipelineEngine | None = None
    ) -> Schedule: ...

    def estimate(
        self, spec: JoinSpec, *, materialize: bool = False, **kwargs: Any
    ) -> JoinMetrics: ...

    def execute(
        self,
        build: "Relation",
        probe: "Relation",
        *,
        materialize: bool = False,
        **kwargs: Any,
    ) -> JoinRunResult: ...


class PipelinedJoinStrategy:
    """Shared plan → schedule → metrics machinery.

    Subclasses implement :meth:`prepare` (analytic plans from a spec)
    and :meth:`execute` (functional execution, typically re-planning
    with observed durations), and may override
    :meth:`device_bytes_needed` so the planner can test data-placement
    feasibility without instantiation.

    Immutability contract: a strategy sets all of its state in
    ``__init__`` and never changes it afterwards — :meth:`prepare`,
    :meth:`estimate` and the other methods only read ``self``.  The
    serving scheduler relies on this to share one strategy object per
    (key, calibration, device-memory grant) across every query it
    plans; ``tests/serve/test_strategy_sharing.py`` checks it for every
    registered strategy.
    """

    #: Registry key; subclasses must override.
    key: ClassVar[str] = ""
    #: Display name used in figures and reports.
    name = ""

    # -- planner hooks --------------------------------------------------
    @classmethod
    def device_bytes_needed(cls, spec: JoinSpec, system: "SystemSpec") -> int:
        """Device-memory footprint this strategy reserves for ``spec``.

        The planner and the serving layer's admission control both gate
        on this number: a strategy fits a workload iff its footprint is
        at most the device memory currently available.  The base class
        claims nothing (always feasible); strategies that hold data on
        the device override it.
        """
        return 0

    @classmethod
    def fits(cls, spec: JoinSpec, system: "SystemSpec") -> bool:
        """Whether the workload's data placement suits this strategy
        when it has the whole device to itself."""
        return cls.device_bytes_needed(spec, system) <= system.gpu.device_memory

    # -- protocol -------------------------------------------------------
    def prepare(
        self, spec: JoinSpec, *, materialize: bool = False, **kwargs: Any
    ) -> JoinPlan:
        raise NotImplementedError

    def execute(
        self,
        build: "Relation",
        probe: "Relation",
        *,
        materialize: bool = False,
        **kwargs: Any,
    ) -> JoinRunResult:
        raise NotImplementedError

    def schedule(
        self, plan: JoinPlan, engine: PipelineEngine | None = None
    ) -> Schedule:
        """Simulate the plan's task graph on the pipeline engine."""
        engine = engine if engine is not None else PipelineEngine()
        engine.admit(Admission(plan.template, device=engine.device))
        return engine.run()

    def simulate(self, plan: JoinPlan) -> JoinMetrics:
        """Schedule the plan and fold the result into metrics."""
        return self.metrics_from_schedule(plan, self.schedule(plan))

    # -- estimate memoization ------------------------------------------
    def _fingerprint_extras(self) -> tuple:
        """Constructor state beyond (system, calibration, config) that
        changes estimates; subclasses with extra knobs override (e.g.
        co-processing's ``cpu_bits``/``staging``/``device_budget``)."""
        return ()

    def cache_fingerprint(self) -> tuple:
        """Everything that, together with (spec, kwargs), determines an
        estimate.  The specs and calibration are frozen dataclasses, so
        the tuple is hashable for the registry strategies."""
        cost_model = getattr(self, "cost_model", None)
        return (
            type(self).__qualname__,
            self.key,
            getattr(self, "system", None),
            getattr(self, "config", None),
            getattr(cost_model, "calib", None),
            *self._fingerprint_extras(),
        )

    def estimate(
        self, spec: JoinSpec, *, materialize: bool = False, **kwargs: Any
    ) -> JoinMetrics:
        """Modelled metrics: analytic plan, simulated makespan.

        Estimates are pure in (strategy fingerprint, spec, kwargs) and
        memoized in :mod:`repro.core.estimate_cache`; the planner ladder
        and the serving scheduler's re-planning hit the same cache, so a
        workload's kernel costs are computed once per process.  A miss
        takes its plan from :meth:`cached_prepare` under the same key,
        so the serving scheduler admitting this query later reuses that
        plan instead of preparing it a second time.
        """
        key = self._cache_key(spec, materialize, kwargs)
        cached = estimate_cache.lookup(key)
        if cached is not None:
            return cached
        metrics = self.simulate(
            self.cached_prepare(spec, materialize=materialize, **kwargs)
        )
        estimate_cache.store(key, metrics)
        return metrics

    def cached_prepare(
        self, spec: JoinSpec, *, materialize: bool = False, **kwargs: Any
    ) -> JoinPlan:
        """:meth:`prepare`, memoized in the shared plan cache under the
        key :meth:`estimate` uses for the same arguments: one prepare
        per key serves both the estimate and the admission that
        follows it.  The plan is shared and read-only."""
        return estimate_cache.cached_plan(
            self._cache_key(spec, materialize, kwargs),
            lambda: self.prepare(spec, materialize=materialize, **kwargs),
        )

    def _cache_key(self, spec: JoinSpec, materialize: bool, kwargs: dict):
        return estimate_cache.make_key(
            self.cache_fingerprint(), spec, materialize, kwargs
        )

    def run(
        self,
        build: "Relation",
        probe: "Relation",
        *,
        materialize: bool = False,
        **kwargs: Any,
    ) -> JoinRunResult:
        """Alias of :meth:`execute` (the original entry-point name)."""
        return self.execute(build, probe, materialize=materialize, **kwargs)

    # -- shared metric assembly ----------------------------------------
    def metrics_from_schedule(
        self, plan: JoinPlan, schedule: Schedule
    ) -> JoinMetrics:
        phases = {phase: schedule.phase_time(phase) for phase in plan.phases}
        for phase, seconds in schedule.phase_times().items():
            phases.setdefault(phase, seconds)
        return JoinMetrics(
            strategy=plan.strategy,
            seconds=schedule.makespan,
            total_tuples=plan.spec.total_tuples,
            output_tuples=plan.matches,
            phases=phases,
            pcie_h2d_bytes=plan.pcie_h2d_bytes,
            pcie_d2h_bytes=plan.pcie_d2h_bytes,
            notes=dict(plan.notes),
        )


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------
_REGISTRY: dict[str, type] = {}
_BUILTINS_LOADED = False


def register_strategy(cls: type) -> type:
    """Class decorator: add ``cls`` to the registry under ``cls.key``."""
    key = getattr(cls, "key", "")
    if not key:
        raise InvalidConfigError(
            f"{cls.__name__} cannot register without a non-empty `key`"
        )
    existing = _REGISTRY.get(key)
    if existing is not None and existing is not cls:
        raise InvalidConfigError(
            f"strategy key {key!r} already registered by {existing.__name__}"
        )
    _REGISTRY[key] = cls
    return cls


def _ensure_builtins() -> None:
    """Import the built-in strategy modules (which self-register)."""
    global _BUILTINS_LOADED
    if _BUILTINS_LOADED:
        return
    import repro.core.adaptive  # noqa: F401
    import repro.core.coprocessing  # noqa: F401
    import repro.core.gpu_nonpartitioned  # noqa: F401
    import repro.core.gpu_partitioned  # noqa: F401
    import repro.core.streaming  # noqa: F401

    # Only after every import succeeded: a failed first attempt must
    # retry (and re-raise) rather than cache a partial registry.
    _BUILTINS_LOADED = True


def registered_strategies() -> tuple[str, ...]:
    """All registry keys, in registration order."""
    _ensure_builtins()
    return tuple(_REGISTRY)


def strategy_factory(key: str) -> type:
    """The strategy class registered under ``key``.

    Raises :class:`~repro.errors.UnknownStrategyError` with the list of
    known keys on a miss.
    """
    _ensure_builtins()
    try:
        return _REGISTRY[key]
    except KeyError:
        known = ", ".join(sorted(_REGISTRY))
        raise UnknownStrategyError(
            f"unknown join strategy {key!r}; registered strategies: {known}"
        ) from None


def create_strategy(
    key: str,
    system: "SystemSpec | None" = None,
    calibration: "Calibration | None" = None,
    config: "GpuJoinConfig | None" = None,
    **kwargs: Any,
) -> JoinStrategy:
    """Instantiate the strategy registered under ``key``.

    Extra keyword arguments are forwarded to the strategy constructor
    (e.g. ``staging=False`` for co-processing).
    """
    return strategy_factory(key)(system, calibration, config, **kwargs)
