"""CPU–GPU transfer models: DMA over PCIe, UVA, and Unified Memory.

The paper's out-of-GPU strategies are built on explicit asynchronous DMA
copies from pinned memory (§IV-A); Figures 21 and 22 compare them against
the driver-managed alternatives — UVA (zero-copy access over the bus) and
Unified Memory (page migration on fault).  This module provides the
timing for all three mechanisms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.gpusim.calibration import DEFAULT_CALIBRATION, Calibration
from repro.gpusim.spec import SystemSpec


@dataclass(frozen=True)
class TransferModel:
    """Seconds needed by each transfer mechanism."""

    system: SystemSpec
    calibration: Calibration = DEFAULT_CALIBRATION

    # ------------------------------------------------------------ DMA copy
    def dma_seconds(self, nbytes: float, *, pinned: bool = True) -> float:
        """One explicit ``cudaMemcpyAsync`` (either direction).

        Pinned-memory copies run at full DMA rate; pageable copies are
        staged by the driver and roughly halve throughput.
        """
        link = self.system.interconnect
        bandwidth = link.pinned_bandwidth if pinned else link.pageable_bandwidth
        return nbytes / bandwidth

    def pipelined_dma_rate(self) -> float:
        """Sustained bandwidth of a double-buffered stream of DMA copies,
        accounting for event-synchronization gaps between chunks."""
        return (
            self.system.interconnect.pinned_bandwidth
            * self.calibration.pcie_stream_utilization
        )

    # ----------------------------------------------------------------- UVA
    def uva_sequential_seconds(self, nbytes: float) -> float:
        """Coalesced streaming reads of host memory through UVA."""
        link = self.system.interconnect
        return nbytes / (link.pinned_bandwidth * link.uva_sequential_efficiency)

    def uva_random_seconds(self, accesses: float, access_bytes: float) -> float:
        """Irregular UVA accesses: every access moves a full bus
        transaction of
        :attr:`~repro.gpusim.spec.InterconnectSpec.uva_random_granularity`
        bytes no matter how few bytes are needed (§IV: "only a small
        portion of a page is needed during an access")."""
        link = self.system.interconnect
        granularity = link.uva_random_granularity
        transactions = accesses * max(1.0, math.ceil(access_bytes / granularity))
        return transactions * granularity / link.pinned_bandwidth

    # ------------------------------------------------------------------ UM
    def um_migration_seconds(
        self,
        touched_bytes: float,
        *,
        working_set_bytes: float | None = None,
        reuse_passes: float = 1.0,
    ) -> float:
        """Unified Memory page migration.

        Moves data at near-PCIe rate plus a per-page fault overhead.  When
        the working set exceeds device capacity, pages are evicted and
        re-faulted on every pass over the data (thrashing, §IV-B), so the
        traffic multiplies by ``reuse_passes``.
        """
        link = self.system.interconnect
        working_set = touched_bytes if working_set_bytes is None else working_set_bytes
        passes = 1.0
        if working_set > self.system.gpu.device_memory:
            passes = max(1.0, reuse_passes)
        total = touched_bytes * passes
        pages = total / link.um_page_bytes
        return total / link.pinned_bandwidth + pages * link.um_fault_seconds
