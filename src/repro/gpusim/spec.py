"""Hardware specifications for the simulated system.

The default specs model the paper's testbed (§V-A): an NVIDIA GTX 1080
(8 GB GDDR5X, 20 SMs) attached over PCIe 3.0 x16 to a dual-socket machine
with two 12-core Xeon E5-2650L v3 and 256 GB of memory.  All join
algorithms and cost models are parameterized by these specs, so the same
code can model other devices (a V100 preset is provided for illustration).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import InvalidConfigError
from repro.frozen import cached_hash

GIB = 1024**3
GB = 1e9
WARP_SIZE = 32


@cached_hash
@dataclass(frozen=True)
class GpuSpec:
    """A discrete GPU device."""

    name: str = "GTX 1080"
    num_sms: int = 20
    cores_per_sm: int = 128
    clock_hz: float = 1.607e9
    warp_size: int = WARP_SIZE
    max_threads_per_block: int = 1024
    #: Programmable shared memory per SM (bytes).
    shared_mem_per_sm: int = 96 * 1024
    #: Device (global) memory capacity.
    device_memory: int = 8 * GIB
    #: Peak device-memory bandwidth (GDDR5X on the GTX 1080).
    device_bandwidth: float = 320.0 * GB
    #: Aggregate shared-memory bandwidth: 128 B/cycle/SM.
    shared_bandwidth: float = 20 * 128 * 1.607e9
    #: L2 cache size and the minimum transaction granularity for
    #: non-coalesced (random) global accesses.
    l2_bytes: int = 2 * 1024 * 1024
    random_sector_bytes: int = 32
    #: Number of DMA copy engines (the paper exploits both, §IV-C).
    dma_engines: int = 2

    def __post_init__(self) -> None:
        if self.num_sms <= 0 or self.device_bandwidth <= 0:
            raise InvalidConfigError("GPU spec values must be positive")

    @property
    def total_cores(self) -> int:
        return self.num_sms * self.cores_per_sm

    @property
    def total_shared_memory(self) -> int:
        return self.num_sms * self.shared_mem_per_sm


@cached_hash
@dataclass(frozen=True)
class CpuSpec:
    """A multi-socket host CPU."""

    name: str = "2x Xeon E5-2650L v3"
    sockets: int = 2
    cores_per_socket: int = 12
    smt: int = 2
    clock_hz: float = 1.8e9
    #: Effective memory bandwidth per socket (DDR4-2133, 4 channels).
    memory_bandwidth_per_socket: float = 55.0 * GB
    #: Effective cross-socket (QPI) bandwidth.
    qpi_bandwidth: float = 12.0 * GB
    l3_per_socket: int = 30 * 1024 * 1024
    host_memory: int = 256 * GIB

    @property
    def total_cores(self) -> int:
        return self.sockets * self.cores_per_socket

    @property
    def total_threads(self) -> int:
        return self.total_cores * self.smt

    @property
    def total_memory_bandwidth(self) -> float:
        return self.sockets * self.memory_bandwidth_per_socket


@cached_hash
@dataclass(frozen=True)
class InterconnectSpec:
    """The CPU–GPU link (PCIe 3.0 x16 on the testbed)."""

    name: str = "PCIe 3.0 x16"
    #: Theoretical maximum quoted in the paper's introduction.
    theoretical_bandwidth: float = 15.8 * GB
    #: Achievable bandwidth for large pinned-memory DMA transfers.
    pinned_bandwidth: float = 12.3 * GB
    #: Achievable bandwidth for pageable-memory transfers (staged by the
    #: driver through an internal pinned buffer).
    pageable_bandwidth: float = 6.0 * GB
    #: UVA (zero-copy) sequential streaming efficiency relative to pinned.
    uva_sequential_efficiency: float = 0.90
    #: Minimum transaction size for UVA random accesses over the bus.
    uva_random_granularity: int = 128
    #: Unified Memory page size and per-fault overhead.
    um_page_bytes: int = 64 * 1024
    um_fault_seconds: float = 20e-6


@cached_hash
@dataclass(frozen=True)
class SystemSpec:
    """Complete modelled system: GPU + host + interconnect."""

    gpu: GpuSpec = field(default_factory=GpuSpec)
    cpu: CpuSpec = field(default_factory=CpuSpec)
    interconnect: InterconnectSpec = field(default_factory=InterconnectSpec)

    @property
    def pcie_bandwidth(self) -> float:
        return self.interconnect.pinned_bandwidth


def gtx1080_system() -> SystemSpec:
    """The paper's testbed (default everywhere)."""
    return SystemSpec()


def v100_system() -> SystemSpec:
    """A Tesla V100 + NVLink-class host, for what-if experiments.

    The paper (§V-C) predicts its out-of-GPU joins would scale with faster
    interconnects; this preset lets examples demonstrate that claim.
    """
    gpu = GpuSpec(
        name="Tesla V100",
        num_sms=80,
        cores_per_sm=64,
        clock_hz=1.53e9,
        shared_mem_per_sm=96 * 1024,
        device_memory=32 * GIB,
        device_bandwidth=900.0 * GB,
        shared_bandwidth=80 * 128 * 1.53e9,
        l2_bytes=6 * 1024 * 1024,
    )
    interconnect = InterconnectSpec(
        name="NVLink 2.0",
        theoretical_bandwidth=75.0 * GB,
        pinned_bandwidth=65.0 * GB,
        pageable_bandwidth=20.0 * GB,
    )
    return SystemSpec(gpu=gpu, interconnect=interconnect)
