"""Location-based strategy selection.

A central claim of the paper is that "a one-size-fits-all approach is
not suitable for GPU joins": the right algorithm depends on where the
data can live.  The planner encodes that decision as a ladder of
registry keys — each rung is taken when its strategy's device
footprint (``device_bytes_needed``) fits the memory available:

* both relations (plus partitioned copies) fit in device memory
  → in-GPU partitioned join (§III);
* only the build side fits (with room for double-buffered chunks)
  → streaming probe join (§IV-A);
* neither fits → CPU–GPU co-processing (§IV-B).

The planner dispatches purely through the strategy registry; it names
no concrete strategy class.  The walk itself is :func:`ladder_rung`
over precomputed footprints (:func:`ladder_footprints`): the serving
scheduler computes a request's footprints once per run and re-walks
them against every device's headroom with integer comparisons only.
"""

from __future__ import annotations

from typing import Sequence

from repro.core import estimate_cache
from repro.core.config import GpuJoinConfig
from repro.core.strategy import (
    COPROCESSING,
    GPU_RESIDENT,
    STREAMING,
    JoinStrategy,
    create_strategy,
    strategy_factory,
)
from repro.data.spec import JoinSpec
from repro.errors import DeviceMemoryOverflowError
from repro.gpusim.calibration import Calibration
from repro.gpusim.spec import SystemSpec

#: Preference order: fastest placement first, co-processing as the
#: always-feasible floor.
PLANNER_LADDER = (GPU_RESIDENT, STREAMING, COPROCESSING)


def ladder_footprints(
    spec: JoinSpec,
    system: SystemSpec,
    ladder: Sequence[str] = PLANNER_LADDER,
) -> tuple[int, ...]:
    """Each rung's device footprint for ``spec``, in ``ladder`` order
    (bytes; the strategy's ``device_bytes_needed``)."""
    return tuple(
        strategy_factory(key).device_bytes_needed(spec, system)
        for key in ladder
    )


def ladder_rung(footprints: Sequence[int], available_bytes: float) -> int:
    """The ladder walk: index of the first rung whose footprint fits in
    ``available_bytes``, or the last rung — the always-feasible floor —
    when none does."""
    for rung, need in enumerate(footprints):
        if need <= available_bytes:
            return rung
    return len(footprints) - 1


def choose_strategy_name(
    spec: JoinSpec,
    system: SystemSpec | None = None,
    *,
    available_bytes: float | None = None,
) -> str:
    """Which of the three execution strategies fits this workload.

    ``available_bytes`` restricts the choice to strategies whose device
    footprint fits in that much *free* device memory — the serving
    layer's admission control passes the arena's current headroom, so a
    query that would run GPU-resident on an idle device degrades to
    streaming (or co-processing) under memory pressure.  ``None`` means
    the whole device is available (the single-query planner).
    """
    system = system or SystemSpec()
    if available_bytes is None:
        available_bytes = system.gpu.device_memory

    def walk_ladder() -> str:
        footprints = ladder_footprints(spec, system)
        return PLANNER_LADDER[ladder_rung(footprints, available_bytes)]

    # The walk is pure in (spec, system, available_bytes); admission
    # control re-runs it on every scheduling event, so memoize it
    # alongside the estimates.
    return estimate_cache.cached_ladder_choice(
        (spec, system, available_bytes), walk_ladder
    )


def plan_join(
    spec: JoinSpec,
    system: SystemSpec | None = None,
    calibration: Calibration | None = None,
    config: GpuJoinConfig | None = None,
) -> JoinStrategy:
    """Instantiate the strategy the planner selects for ``spec``.

    Returns a registered :class:`~repro.core.strategy.JoinStrategy`;
    callers can inspect ``.key`` and ``.name``.
    """
    system = system or SystemSpec()
    name = choose_strategy_name(spec, system)
    return create_strategy(name, system, calibration, config)


def estimate_with_planner(
    spec: JoinSpec,
    system: SystemSpec | None = None,
    calibration: Calibration | None = None,
    config: GpuJoinConfig | None = None,
    *,
    materialize: bool = False,
):
    """Plan and estimate in one call; falls back down the strategy ladder
    if a memory check fails despite the planner's coarse sizing."""
    system = system or SystemSpec()
    strategy = plan_join(spec, system, calibration, config)
    try:
        return strategy.estimate(spec, materialize=materialize)
    except DeviceMemoryOverflowError:
        fallback = create_strategy(COPROCESSING, system, calibration, config)
        return fallback.estimate(spec, materialize=materialize)
