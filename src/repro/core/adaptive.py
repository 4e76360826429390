"""Adaptive thread selection for co-processing — the paper's future work.

§IV-B closes with: *"Based on the expected per-thread memory bandwidth
consumption during partitioning, we select the maximum number of threads
that allows enough bandwidth for any overlapping data transfers to the
GPU to operate at full throughput [...] We leave as future work
dynamically changing the number of threads during execution."*

This module implements both halves:

* :func:`recommend_partition_threads` — the paper's static rule: the
  smallest thread count that (a) produces the first working set's
  co-partitions faster than PCIe consumes them and (b) stays below the
  memory-saturation knee;
* :class:`AdaptiveCoProcessingJoin` — the future-work extension: the
  partitioning phase and the staging-only phases run with *different*
  thread counts, each chosen by the rule appropriate to its bandwidth
  demand.
"""

from __future__ import annotations

import math

from repro.core.coprocessing import CoProcessingJoin, CoProcessingPlan
from repro.core.strategy import COPROCESSING_ADAPTIVE, JoinPlan, register_strategy
from repro.cpu.numa import NumaModel
from repro.cpu.radix_partition import CpuPartitionModel
from repro.data.spec import JoinSpec
from repro.errors import InvalidConfigError
from repro.gpusim.calibration import DEFAULT_CALIBRATION, Calibration
from repro.gpusim.spec import SystemSpec


def recommend_partition_threads(
    system: SystemSpec,
    first_ws_fraction: float,
    *,
    calibration: Calibration | None = None,
) -> int:
    """The paper's §IV-B rule: "the maximum number of threads that allows
    enough bandwidth for any overlapping data transfers to the GPU to
    operate at full throughput".

    More threads always shorten the serial head (partitioning the build
    relation) and the chunk partitioning, so the recommendation is the
    *largest* count whose near-socket traffic leaves the DMA stream at
    full rate — one step below the Fig 13 saturation knee.  The count is
    floored at what hides chunk partitioning behind the first working
    set's transfers (rate >= pcie / first_ws_fraction).
    """
    if not 0.0 < first_ws_fraction <= 1.0:
        raise InvalidConfigError("first_ws_fraction must be in (0, 1]")
    model = CpuPartitionModel(system, calibration or DEFAULT_CALIBRATION)
    numa = NumaModel(system, calibration or DEFAULT_CALIBRATION)
    pcie = system.interconnect.pinned_bandwidth

    threads = system.cpu.total_threads
    while threads > 1 and numa.dma_contention_factor(threads) < 1.0:
        threads -= 1

    per_thread = model.calibration.cpu_partition_bytes_per_thread
    hide_floor = max(1, math.ceil(pcie / first_ws_fraction / per_thread))
    return max(threads, min(hide_floor, system.cpu.total_threads))


def recommend_staging_threads(
    system: SystemSpec,
    *,
    calibration: Calibration | None = None,
) -> int:
    """Threads needed so the far→near staging copy outpaces the DMA.

    After the first working set no partitioning remains; the CPU's only
    job is feeding near-socket pinned buffers.  The copy must sustain at
    least half the PCIe rate (only the far-socket half is staged).
    """
    calib = calibration or DEFAULT_CALIBRATION
    per_thread = calib.cpu_thread_bandwidth / 2.0
    target = system.interconnect.pinned_bandwidth / 2.0
    return max(1, min(system.cpu.total_cores, math.ceil(target / per_thread)))


@register_strategy
class AdaptiveCoProcessingJoin(CoProcessingJoin):
    """Co-processing with phase-adaptive CPU thread counts.

    Chooses the partitioning thread count from the workload's actual
    first-working-set fraction and drops to the much smaller staging
    count afterwards, freeing cores (e.g. for an HTAP transactional
    workload, the paper's §V-D motivation) at no throughput cost.
    """

    key = COPROCESSING_ADAPTIVE
    name = "GPU Partitioned (co-processing, adaptive threads)"

    def prepare(
        self,
        spec: JoinSpec,
        *,
        threads: int | None = None,
        chunk_tuples: int | None = None,
        materialize: bool = False,
        staging_threads: int | None = None,
    ) -> JoinPlan:
        if staging_threads is None:
            staging_threads = recommend_staging_threads(
                self.system, calibration=self.cost_model.calib
            )
        graph = super().prepare(
            spec,
            threads=threads,
            chunk_tuples=chunk_tuples,
            materialize=materialize,
            staging_threads=staging_threads,
        )
        graph.notes["staging_threads"] = float(staging_threads)
        return graph

    def _partition_threads(
        self, plan: CoProcessingPlan, threads: int | None
    ) -> int:
        """``threads``, or when it is ``None`` the §IV-B rule for the
        plan's first working set."""
        if threads is None:
            threads = recommend_partition_threads(
                self.system,
                max(plan.first_ws_fraction, 1e-9),
                calibration=self.cost_model.calib,
            )
        return threads
