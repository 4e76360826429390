"""Partitioned relations as bucket chains.

The GPU partitioning kernel (§III-A) materializes each partition as a
linked list of fixed-capacity buckets drawn from a pre-allocated pool:
buckets amortize pointer chasing and keep scans coalesced, and the pool
lets blocks grab new buckets with a single atomic.  Functionally the
layout is a CSR grouping (tuples contiguous per partition); the bucket
structure matters for *costs* and *memory footprints* (padding of the
last bucket per partition) — both are tracked here because the
working-set packing of §IV-D reserves space "padding included".
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import InvalidConfigError


@dataclass
class PartitionedRelation:
    """A relation grouped into ``2**radix_bits`` radix partitions.

    ``keys``/``payloads`` are reordered so partition ``p`` occupies rows
    ``offsets[p]:offsets[p + 1]``; partition ``p`` holds exactly the
    tuples whose key satisfies ``key & (fanout - 1) == p``.
    """

    keys: np.ndarray
    payloads: np.ndarray
    offsets: np.ndarray
    radix_bits: int
    bucket_capacity: int
    tuple_bytes: int = 8

    def __post_init__(self) -> None:
        if self.radix_bits < 0:
            raise InvalidConfigError("radix_bits must be non-negative")
        if self.bucket_capacity <= 0:
            raise InvalidConfigError("bucket capacity must be positive")
        if self.offsets.shape[0] != self.fanout + 1:
            raise InvalidConfigError(
                f"offsets must have fanout + 1 entries, got {self.offsets.shape[0]}"
            )

    # ------------------------------------------------------------------
    @property
    def fanout(self) -> int:
        return 1 << self.radix_bits

    @property
    def num_tuples(self) -> int:
        return int(self.keys.shape[0])

    def partition_sizes(self) -> np.ndarray:
        return np.diff(self.offsets)

    def partition(self, p: int) -> tuple[np.ndarray, np.ndarray]:
        """Zero-copy view of partition ``p``'s keys and payloads."""
        lo, hi = int(self.offsets[p]), int(self.offsets[p + 1])
        return self.keys[lo:hi], self.payloads[lo:hi]

    # ------------------------------------------------------------------
    # Bucket accounting (drives costs and §IV-D packing footprints)
    # ------------------------------------------------------------------
    def buckets_per_partition(self) -> np.ndarray:
        """Number of pool buckets chained per partition (>= 1 each)."""
        sizes = self.partition_sizes()
        return np.maximum(1, -(-sizes // self.bucket_capacity))

    def total_buckets(self) -> int:
        return int(self.buckets_per_partition().sum())

    def padded_sizes(self) -> np.ndarray:
        """Per-partition footprint in tuples, including last-bucket padding."""
        return self.buckets_per_partition() * self.bucket_capacity

    def padded_bytes(self) -> np.ndarray:
        """Per-partition footprint in bytes, padding included (§IV-D)."""
        return self.padded_sizes() * self.tuple_bytes

    def chain_imbalance(self) -> float:
        """Longest bucket chain relative to the average (>= 1).

        Under the partition-at-a-time work assignment a CUDA block
        sub-partitions one whole chain, so the longest chain bounds the
        pass (§III-A); bucket-at-a-time keeps blocks balanced.
        """
        buckets = self.buckets_per_partition()
        mean = float(buckets.mean())
        return float(buckets.max()) / mean if mean > 0 else 1.0
