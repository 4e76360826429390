"""Configuration of the GPU join family.

Defaults reproduce the paper's standard configuration (§V-B,
"Annotation & configuration"): shared memory for 4096 elements and 2048
hash-table buckets per CUDA block, 1024 threads per partitioning block,
512 threads per join block, and a total fanout of 2^15 partitions
reached in two passes.  Figure 5 uses its own variant (2048 elements,
1024 threads, 256 buckets) — see :func:`fig5_config`.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.errors import InvalidConfigError
from repro.frozen import cached_hash
from repro.gpusim.shared_memory import join_block_reservation
from repro.gpusim.spec import GpuSpec
from repro.kernels.common import is_power_of_two
from repro.kernels.radix_partition import derive_bits_per_pass
from repro.pipeline.tasks import is_int

HASH_PROBE = "hash"
NLJ_PROBE = "nlj"

#: Every size knob: a non-bool int of at least 1 (``total_radix_bits``
#: may also be ``None``).
_SIZE_FIELDS = (
    "total_radix_bits",
    "max_bits_per_pass",
    "elements_per_block",
    "ht_slots",
    "threads_per_block_partition",
    "threads_per_block_join",
    "bucket_capacity",
    "output_buffer_bytes",
)


@cached_hash
@dataclass(frozen=True)
class GpuJoinConfig:
    """Tuning knobs of the partitioned GPU join."""

    #: Total radix bits (fanout = 2^bits); ``None`` derives from input size.
    total_radix_bits: int | None = 15
    #: Per-pass fanout cap (shared-memory metadata limit, §III-A).
    max_bits_per_pass: int = 8
    #: Shared-memory elements reserved for a co-partition's build side.
    elements_per_block: int = 4096
    #: Hash-table slots per co-partition table.
    ht_slots: int = 2048
    threads_per_block_partition: int = 1024
    threads_per_block_join: int = 512
    #: Probe kernel: chaining hash (§III-C) or ballot NLJ (§III-B).
    probe_kernel: str = HASH_PROBE
    #: Keep co-partition tables in shared memory (Fig 6 toggles this).
    use_shared_memory: bool = True
    #: Capacity of partitioning pool buckets (multiple of block size).
    bucket_capacity: int = 1024
    #: Warp output buffer bytes (result coalescing, §III-C).
    output_buffer_bytes: int = 1024

    def __post_init__(self) -> None:
        if self.probe_kernel not in (HASH_PROBE, NLJ_PROBE):
            raise InvalidConfigError(f"unknown probe kernel: {self.probe_kernel!r}")
        for name in _SIZE_FIELDS:
            value = getattr(self, name)
            if name == "total_radix_bits" and value is None:
                continue
            if not is_int(value) or value < 1:
                raise InvalidConfigError(
                    f"{name} must be an int of at least 1, got {value!r}"
                )
        if not is_power_of_two(self.ht_slots):
            raise InvalidConfigError("ht_slots must be a power of two")

    # ------------------------------------------------------------------
    def radix_bits_for(self, build_n: int) -> int:
        """Total radix bits: configured, or sized so the average partition
        fills (but does not overflow) the per-block build working set."""
        if self.total_radix_bits is not None:
            return self.total_radix_bits
        bits = 1
        while (build_n >> bits) > self.elements_per_block:
            bits += 1
        return bits

    def bits_per_pass_for(self, build_n: int) -> list[int]:
        return derive_bits_per_pass(
            self.radix_bits_for(build_n), max_bits_per_pass=self.max_bits_per_pass
        )

    def validate_against(self, gpu: GpuSpec, tuple_bytes: int) -> None:
        """Check the per-block shared-memory reservation actually fits."""
        needed = join_block_reservation(
            self.elements_per_block,
            self.ht_slots,
            tuple_bytes,
            output_buffer_bytes=self.output_buffer_bytes,
        )
        if needed > gpu.shared_mem_per_sm:
            raise InvalidConfigError(
                f"join block needs {needed} B of shared memory but the "
                f"device provides {gpu.shared_mem_per_sm} B per SM"
            )

    def with_(self, **kwargs) -> "GpuJoinConfig":
        """Functional update (thin wrapper over ``dataclasses.replace``)."""
        return replace(self, **kwargs)


def default_config() -> GpuJoinConfig:
    """The paper's standard configuration (Figs 7–13, 17–22)."""
    return GpuJoinConfig()


def fig5_config(total_radix_bits: int, probe_kernel: str) -> GpuJoinConfig:
    """Figure 5's microbenchmark configuration: shared memory for 2048
    elements, 1024 threads and 256 hash-table buckets.  The experiment
    sweeps the partition *size*, so callers pass the radix bits that
    yield the desired average partition size."""
    return GpuJoinConfig(
        total_radix_bits=total_radix_bits,
        elements_per_block=2048,
        ht_slots=256,
        threads_per_block_join=1024,
        probe_kernel=probe_kernel,
    )
