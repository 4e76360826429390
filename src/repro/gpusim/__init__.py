"""Simulated GPU substrate: hardware specs, warp primitives, memory
accounting, the calibrated cost model, and transfer mechanisms."""

from repro.gpusim.arena import DeviceMemoryArena, Reservation
from repro.gpusim.atomics import NIL, HashTable, chain_insert, chain_insert_reference
from repro.gpusim.calibration import DEFAULT_CALIBRATION, Calibration
from repro.gpusim.cost import CoPartitionStats, GpuCostModel, KernelCost
from repro.gpusim.device_memory import DeviceMemory
from repro.gpusim.shared_memory import (
    SharedMemoryArena,
    join_block_reservation,
    max_partition_fanout,
    partition_block_reservation,
)
from repro.gpusim.occupancy import (
    Occupancy,
    join_kernel_occupancy,
    occupancy_for,
    partition_kernel_occupancy,
)
from repro.gpusim.spec import (
    CpuSpec,
    GpuSpec,
    InterconnectSpec,
    SystemSpec,
    gtx1080_system,
    v100_system,
)
from repro.gpusim.transfer import TransferModel

__all__ = [
    "Calibration",
    "CoPartitionStats",
    "CpuSpec",
    "DEFAULT_CALIBRATION",
    "DeviceMemory",
    "DeviceMemoryArena",
    "Reservation",
    "GpuCostModel",
    "GpuSpec",
    "HashTable",
    "InterconnectSpec",
    "KernelCost",
    "NIL",
    "Occupancy",
    "SharedMemoryArena",
    "SystemSpec",
    "TransferModel",
    "chain_insert",
    "chain_insert_reference",
    "gtx1080_system",
    "join_block_reservation",
    "join_kernel_occupancy",
    "max_partition_fanout",
    "occupancy_for",
    "partition_block_reservation",
    "partition_kernel_occupancy",
    "v100_system",
]
