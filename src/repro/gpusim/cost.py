"""The GPU cost model.

Converts the *observed or predicted statistics* of a kernel execution
(tuple counts, per-partition sizes, chain loads, match counts) into
simulated seconds, using the hardware rates of
:class:`~repro.gpusim.spec.GpuSpec` and the calibration constants of
:class:`~repro.gpusim.calibration.Calibration`.

Both execution paths share these functions: the functional kernels feed
them *empirical* per-partition statistics, the analytic ``estimate()``
paths feed them *expected* statistics from :mod:`repro.data.stats`.  Any
change to a formula therefore affects both paths identically, which is
what keeps them consistent (and lets the tests assert it).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from repro.gpusim.calibration import DEFAULT_CALIBRATION, Calibration
from repro.gpusim.spec import GpuSpec, SystemSpec


def tiled_sum(values: np.ndarray, repeat: int) -> float:
    """Sum of ``values`` tiled ``repeat`` times.

    numpy sums a contiguous array pairwise, so the rounding of a total
    depends on the whole array: ``repeat * values.sum()`` differs from
    the sum of the full-length histogram in about half of all cases.
    The tile is that very array, so its sum is bit-identical to it.
    """
    if repeat == 1:
        return float(values.sum())
    return float(np.tile(values, repeat).sum())


@dataclass
class KernelCost:
    """Simulated cost of one kernel (or phase), with a breakdown.

    ``seconds`` is the modelled wall time; ``breakdown`` attributes it to
    components (device traffic, lane ops, launches...).  Costs add.
    """

    seconds: float = 0.0
    breakdown: dict[str, float] = field(default_factory=dict)

    @classmethod
    def zero(cls) -> "KernelCost":
        return cls()

    def __add__(self, other: "KernelCost") -> "KernelCost":
        merged = dict(self.breakdown)
        for key, value in other.breakdown.items():
            merged[key] = merged.get(key, 0.0) + value
        return KernelCost(self.seconds + other.seconds, merged)

    def scaled(self, factor: float) -> "KernelCost":
        return KernelCost(
            self.seconds * factor,
            {key: value * factor for key, value in self.breakdown.items()},
        )


@dataclass(frozen=True)
class CoPartitionStats:
    """Statistics of a set of co-partitions handed to the join kernels.

    All arrays are aligned by partition index.  ``matches`` may be a float
    array (expected counts in the analytic path).
    """

    build_sizes: np.ndarray
    probe_sizes: np.ndarray
    matches: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "build_sizes", np.asarray(self.build_sizes, dtype=np.float64))
        object.__setattr__(self, "probe_sizes", np.asarray(self.probe_sizes, dtype=np.float64))
        object.__setattr__(self, "matches", np.asarray(self.matches, dtype=np.float64))

    @property
    def total_build(self) -> float:
        return float(self.build_sizes.sum())

    @property
    def total_probe(self) -> float:
        return float(self.probe_sizes.sum())

    @property
    def total_matches(self) -> float:
        return float(self.matches.sum())

    @staticmethod
    def split_matches(
        build_sizes: np.ndarray,
        probe_sizes: np.ndarray,
        total_matches: float,
        repeat: int = 1,
    ) -> np.ndarray:
        """Attribute a total match count to partitions ∝ ``b_p * s_p``.

        Matches can only occur within a co-partition, and within one the
        expected count is proportional to the product of the two sides.
        With ``repeat > 1`` the sizes are one period of histograms that
        repeat it ``repeat`` times (see :func:`tiled_sum`), and so is
        the result.
        """
        weights = np.asarray(build_sizes, dtype=np.float64) * np.asarray(
            probe_sizes, dtype=np.float64
        )
        total_weight = tiled_sum(weights, repeat)
        if total_weight <= 0:
            return np.zeros_like(weights)
        return weights * (total_matches / total_weight)


class GpuCostModel:
    """Timing formulas for the GPU kernels (see module docstring).

    ``calibration`` defaults to the paper's single calibration; a
    heterogeneous fleet passes each device's own
    :class:`~repro.gpusim.calibration.Calibration` (every strategy a
    device plans with carries that device's cost model, and the
    calibration rides in the strategy's estimate-cache fingerprint so
    cached estimates and plans never cross devices).  The model does
    not re-check the calibration: every ``Calibration`` is validated
    once, when it is constructed, so a malformed per-device calibration
    (CLI-built fleets) has already failed before it reaches here.
    """

    def __init__(
        self,
        system: SystemSpec | None = None,
        calibration: Calibration | None = None,
    ):
        self.system = system or SystemSpec()
        self.calib = calibration or DEFAULT_CALIBRATION

    # ------------------------------------------------------------------
    # Primitive rates
    # ------------------------------------------------------------------
    @property
    def gpu(self) -> GpuSpec:
        return self.system.gpu

    @property
    def lane_op_rate(self) -> float:
        """Lane-operations retired per second by the whole device."""
        return self.gpu.num_sms * self.gpu.clock_hz * self.gpu.warp_size

    def scan_seconds(self, nbytes: float) -> float:
        """Coalesced sequential device traffic."""
        return nbytes / (self.gpu.device_bandwidth * self.calib.gpu_scan_efficiency)

    def materialize_seconds(self, nbytes: float) -> float:
        """Warp-buffered coalesced result writes."""
        return nbytes / (
            self.gpu.device_bandwidth * self.calib.gpu_materialize_efficiency
        )

    def random_access_seconds(self, accesses: float, footprint_bytes: float) -> float:
        """Random (dependent) device accesses against a working set.

        The achieved cost per access grows with the footprint: small
        tables are served largely from L2, while larger ones pay full
        DRAM sector transfers plus growing TLB pressure.  Modelled as a
        base cost plus a per-doubling increment beyond a reference
        footprint — the source of the non-partitioned join's steady
        decline with relation size (Fig 8).
        """
        if footprint_bytes <= 0 or accesses <= 0:
            return 0.0
        calib = self.calib
        doublings = max(
            0.0, math.log2(footprint_bytes / calib.gpu_random_reference_bytes)
        )
        per_access = (
            calib.gpu_random_base_seconds
            + calib.gpu_random_growth_seconds * doublings
        )
        return accesses * per_access

    def lane_op_seconds(self, lane_ops: float) -> float:
        return lane_ops / self.lane_op_rate

    # ------------------------------------------------------------------
    # Radix partitioning (§III-A)
    # ------------------------------------------------------------------
    def partition_pass(
        self,
        n_tuples: float,
        tuple_bytes: float,
        fanout: int,
        *,
        imbalance: float = 1.0,
    ) -> KernelCost:
        """One radix-partitioning pass over ``n_tuples``.

        ``imbalance >= 1`` inflates the pass for the partition-at-a-time
        work assignment under skew (§III-A: the longest bucket chain
        defines the block's execution time); the default bucket-at-a-time
        assignment keeps it at 1.
        """
        calib = self.calib
        traffic = 2.0 * n_tuples * tuple_bytes  # read input + write buckets
        metadata = fanout * calib.partition_metadata_bytes
        seconds = (
            (traffic + metadata)
            / (self.gpu.device_bandwidth * calib.gpu_partition_efficiency)
            * imbalance
            + calib.kernel_launch_seconds
        )
        return KernelCost(
            seconds,
            {
                "partition_traffic": traffic / (self.gpu.device_bandwidth * calib.gpu_partition_efficiency),
                "partition_metadata": metadata / (self.gpu.device_bandwidth * calib.gpu_partition_efficiency),
                "launch": calib.kernel_launch_seconds,
            },
        )

    def multi_pass_partition(
        self,
        n_tuples: float,
        tuple_bytes: float,
        bits_per_pass: list[int],
        *,
        imbalance: float = 1.0,
    ) -> KernelCost:
        """All partitioning passes; fanout compounds across passes."""
        cost = KernelCost.zero()
        cumulative_fanout = 1
        for bits in bits_per_pass:
            cumulative_fanout <<= bits
            cost = cost + self.partition_pass(
                n_tuples, tuple_bytes, cumulative_fanout, imbalance=imbalance
            )
        return cost

    def build_tables_seconds(self, n_entries: float, tuple_bytes: float) -> float:
        """Standalone build of co-partition hash tables: scan the
        partitioned build side once and insert every tuple (Listing 2).
        Used when tables are built once and probed by many chunks."""
        inserts = self.lane_op_seconds(n_entries * self.calib.lane_ops_insert)
        scan = self.scan_seconds(n_entries * tuple_bytes)
        return max(inserts, scan) + self.calib.kernel_launch_seconds

    # ------------------------------------------------------------------
    # Co-partition join kernels (§III-B, §III-C)
    # ------------------------------------------------------------------
    def _utilization(self, probe_sizes: np.ndarray, threads_per_block: int) -> np.ndarray:
        util = probe_sizes / float(threads_per_block)
        # minimum(maximum(...)) is clip() without the ufunc-dispatch
        # detour through numpy.fromnumeric — identical for finite inputs
        # and measurably faster on the 2^15-element arrays of the
        # standard configuration.
        return np.minimum(np.maximum(util, self.calib.min_block_utilization), 1.0)

    def _chain_steps(self, build_sizes: np.ndarray, nslots: int) -> np.ndarray:
        """Expected chain nodes visited per probe, with warp divergence.

        The walk visits the whole slot chain: expected length equals the
        load factor, and divergence makes the warp pay roughly the
        maximum over its lanes (``load + factor * sqrt(load)``).
        """
        load = np.asarray(build_sizes, dtype=np.float64) / float(nslots)
        return load + self.calib.chain_divergence_factor * np.sqrt(load)

    def join_copartitions_hash(
        self,
        stats: CoPartitionStats,
        tuple_bytes: float,
        *,
        ht_slots: int,
        elements_per_block: int,
        threads_per_block: int,
        use_shared_memory: bool = True,
        materialize: bool = False,
        out_tuple_bytes: float = 8.0,
        charge_build: bool = True,
    ) -> KernelCost:
        """Hash-join all co-partitions (build in shared or device memory).

        Partitions whose build side exceeds ``elements_per_block`` fall
        back to hash-based block nested loops (§V-E): the probe side is
        re-scanned once per build block.

        ``charge_build=False`` prices a probe-only invocation against
        tables built earlier (the out-of-GPU strategies build each
        working set's tables once and probe them with many chunks).
        """
        calib = self.calib
        passes = np.maximum(1.0, np.ceil(stats.build_sizes / float(elements_per_block)))
        # Fallback partitions are processed one build block at a time, so
        # each pass's table holds at most ``elements_per_block`` entries.
        block_sizes = np.minimum(stats.build_sizes, float(elements_per_block))
        steps = self._chain_steps(block_sizes, ht_slots)

        build_ops = (
            stats.build_sizes * calib.lane_ops_insert
            if charge_build
            else np.zeros_like(stats.build_sizes)
        )
        step_cost = calib.lane_ops_chain_step
        if not use_shared_memory:
            step_cost *= calib.device_ht_step_penalty
        probe_ops = stats.probe_sizes * passes * (
            calib.lane_ops_scan_per_tuple + steps * step_cost
        )
        # Every true match is visited exactly once across all passes and
        # buffered through the warp output buffer.
        match_ops = stats.matches * (step_cost + calib.lane_ops_flush_per_match)
        util = self._utilization(stats.probe_sizes, threads_per_block)
        lane_ops = float(((build_ops + probe_ops + match_ops) / util).sum())

        build_traffic = stats.total_build if charge_build else 0.0
        traffic = (build_traffic + float((stats.probe_sizes * passes).sum())) * tuple_bytes
        traffic_seconds = self.scan_seconds(traffic)
        ops_seconds = self.lane_op_seconds(lane_ops)
        seconds = max(traffic_seconds, ops_seconds) + calib.kernel_launch_seconds

        breakdown = {
            "join_traffic": traffic_seconds,
            "join_lane_ops": ops_seconds,
            "launch": calib.kernel_launch_seconds,
        }
        if materialize:
            mat = self.materialize_seconds(stats.total_matches * out_tuple_bytes)
            seconds += mat
            breakdown["materialize"] = mat
        return KernelCost(seconds, breakdown)

    def join_copartitions_nlj(
        self,
        stats: CoPartitionStats,
        tuple_bytes: float,
        *,
        differing_bits: int,
        threads_per_block: int,
        materialize: bool = False,
        out_tuple_bytes: float = 8.0,
    ) -> KernelCost:
        """Ballot-based nested-loop join of all co-partitions (Listing 1).

        Each probe warp scans the build side 32 elements at a time; every
        round costs a fixed setup plus one ballot per bit not already
        fixed by partitioning.
        """
        calib = self.calib
        warp = float(self.gpu.warp_size)
        rounds = np.ceil(stats.build_sizes / warp)
        per_round = calib.nlj_round_base_ops + differing_bits * calib.nlj_ops_per_bit
        probe_ops = stats.probe_sizes * rounds * per_round / warp
        build_ops = stats.build_sizes * calib.lane_ops_build_copy
        flush_ops = stats.matches * calib.lane_ops_flush_per_match
        util = self._utilization(stats.probe_sizes, threads_per_block)
        lane_ops = float(((build_ops + probe_ops + flush_ops) / util).sum())

        traffic = (stats.total_build + stats.total_probe) * tuple_bytes
        traffic_seconds = self.scan_seconds(traffic)
        ops_seconds = self.lane_op_seconds(lane_ops)
        seconds = max(traffic_seconds, ops_seconds) + calib.kernel_launch_seconds
        breakdown = {
            "join_traffic": traffic_seconds,
            "join_lane_ops": ops_seconds,
            "launch": calib.kernel_launch_seconds,
        }
        if materialize:
            mat = self.materialize_seconds(stats.total_matches * out_tuple_bytes)
            seconds += mat
            breakdown["materialize"] = mat
        return KernelCost(seconds, breakdown)

    # ------------------------------------------------------------------
    # Non-partitioned join kernels (§V-B)
    # ------------------------------------------------------------------
    def nonpartitioned_build(self, n_tuples: float, tuple_bytes: float) -> KernelCost:
        """Build one global chaining hash table with device atomics."""
        footprint = n_tuples * (tuple_bytes + 2 * 4)  # entries + slot heads
        seconds = (
            self.random_access_seconds(
                n_tuples * self.calib.nonpartitioned_accesses_per_build, footprint
            )
            + self.scan_seconds(n_tuples * tuple_bytes)
            + self.calib.kernel_launch_seconds
        )
        return KernelCost(seconds, {"np_build": seconds})

    def nonpartitioned_probe(
        self,
        n_probe: float,
        build_n: float,
        tuple_bytes: float,
        *,
        accesses_per_probe: float | None = None,
        matches: float = 0.0,
        materialize: bool = False,
        out_tuple_bytes: float = 8.0,
    ) -> KernelCost:
        """Probe the global table: 3–4 random accesses per tuple (chaining)
        or one (perfect hash) against an ``O(build)`` footprint."""
        calib = self.calib
        accesses = (
            calib.nonpartitioned_accesses_per_probe
            if accesses_per_probe is None
            else accesses_per_probe
        )
        footprint = build_n * (tuple_bytes + 2 * 4)
        random_seconds = self.random_access_seconds(n_probe * accesses, footprint)
        scan = self.scan_seconds(n_probe * tuple_bytes)
        seconds = random_seconds + scan + calib.kernel_launch_seconds
        breakdown = {
            "np_probe_random": random_seconds,
            "np_probe_scan": scan,
            "launch": calib.kernel_launch_seconds,
        }
        if materialize:
            mat = self.materialize_seconds(matches * out_tuple_bytes)
            seconds += mat
            breakdown["materialize"] = mat
        return KernelCost(seconds, breakdown)

    # ------------------------------------------------------------------
    # Scaled (batch) join evaluation — the out-of-GPU fast path
    # ------------------------------------------------------------------
    def hash_join_evaluator(
        self,
        build_sizes: np.ndarray,
        probe_sizes: np.ndarray,
        total_matches: float,
        tuple_bytes: float,
        *,
        ht_slots: int,
        elements_per_block: int,
        threads_per_block: int,
        use_shared_memory: bool = True,
        materialize: bool = False,
        out_tuple_bytes: float = 8.0,
        charge_build: bool = True,
        repeat: int = 1,
    ) -> "ScaledHashJoinCost":
        """Precompute the per-working-set invariants of
        :meth:`join_copartitions_hash` for probe sides that are a fixed
        base scaled by a scalar (the out-of-GPU chunk loops).  The
        histograms may be one period of ``repeat`` (see
        :class:`_ScaledJoinCostBase`)."""
        return ScaledHashJoinCost(
            self,
            build_sizes,
            probe_sizes,
            total_matches,
            tuple_bytes,
            ht_slots=ht_slots,
            elements_per_block=elements_per_block,
            threads_per_block=threads_per_block,
            use_shared_memory=use_shared_memory,
            materialize=materialize,
            out_tuple_bytes=out_tuple_bytes,
            charge_build=charge_build,
            repeat=repeat,
        )

    def nlj_join_evaluator(
        self,
        build_sizes: np.ndarray,
        probe_sizes: np.ndarray,
        total_matches: float,
        tuple_bytes: float,
        *,
        differing_bits: int,
        threads_per_block: int,
        materialize: bool = False,
        out_tuple_bytes: float = 8.0,
        repeat: int = 1,
    ) -> "ScaledNljJoinCost":
        """NLJ twin of :meth:`hash_join_evaluator`."""
        return ScaledNljJoinCost(
            self,
            build_sizes,
            probe_sizes,
            total_matches,
            tuple_bytes,
            differing_bits=differing_bits,
            threads_per_block=threads_per_block,
            materialize=materialize,
            out_tuple_bytes=out_tuple_bytes,
            repeat=repeat,
        )

    # ------------------------------------------------------------------
    # Late materialization (Figs 9, 10)
    # ------------------------------------------------------------------
    def gather_payload(
        self, n_tuples: float, width_bytes: float, *, random: bool
    ) -> KernelCost:
        """Fetch late-materialized attributes by tuple identifier.

        Sequential when identifiers are still in input order (the
        non-partitioned join's probe side); random after partitioning has
        reordered the tuples (§V-B, payload-size experiments).
        """
        if width_bytes <= 0 or n_tuples <= 0:
            return KernelCost.zero()
        if random:
            sector = self.gpu.random_sector_bytes
            # A W-byte tuple at a random (unaligned) offset touches
            # 1 + (W-1)/S sectors in expectation.  Costed with the same
            # footprint-scaled model as the non-partitioned probe —
            # gathers through reordered identifiers behave identically.
            sectors_per_tuple = 1.0 + (width_bytes - 1.0) / sector
            seconds = self.random_access_seconds(
                n_tuples * sectors_per_tuple, n_tuples * width_bytes
            )
        else:
            seconds = self.scan_seconds(n_tuples * width_bytes)
        return KernelCost(float(seconds), {"gather": float(seconds)})


# ---------------------------------------------------------------------------
# Scaled co-partition join evaluators (the cost-model fast path)
# ---------------------------------------------------------------------------
class _ScaledJoinCostBase:
    """Shared machinery of the scaled join evaluators.

    The out-of-GPU strategies evaluate the very same co-partition join
    formula once per (working set, probe chunk): the build side (and
    therefore per-partition passes, chain steps, and build lane-ops) is
    *fixed* per working set, and the probe side is a fixed base histogram
    scaled by the chunk fraction — which takes at most two distinct
    values (full chunks plus one trailing partial chunk).  The evaluator
    precomputes every build-side invariant once and reduces each
    evaluation to a handful of vector ops; results are memoized per
    scale, so the per-chunk inner loop collapses to a dict lookup.

    The histograms may be given as one period plus a ``repeat`` count,
    standing for ``np.tile(build_sizes, repeat)`` and
    ``np.tile(probe_sizes, repeat)``: a co-processing working set of a
    uniform-family join holds one size per live host partition, at most
    16 values over up to 2^19 co-partitions (see
    :func:`repro.data.stats.expected_copartition_periods`).  Every
    elementwise invariant is computed on the period, and every sum
    (match-split weight, total matches, traffic, each scale's lane ops)
    goes through :func:`tiled_sum`, so the seconds and the breakdown are
    bit-identical to an evaluator built on the tiled histograms.

    Subclasses fill in the kernel-specific invariants and must agree
    with their one-shot counterpart (``join_copartitions_hash`` /
    ``join_copartitions_nlj``) to within 1e-9 — asserted by
    ``tests/gpusim/test_cost_fastpath.py`` and ``bench/regress.py``.
    """

    def __init__(
        self,
        model: GpuCostModel,
        build_sizes: np.ndarray,
        probe_sizes: np.ndarray,
        total_matches: float,
        tuple_bytes: float,
        *,
        threads_per_block: int,
        materialize: bool,
        out_tuple_bytes: float,
        repeat: int,
    ) -> None:
        self.model = model
        self.repeat = repeat
        self.build_sizes = np.asarray(build_sizes, dtype=np.float64)
        self.probe_base = np.asarray(probe_sizes, dtype=np.float64)
        self.matches_base = CoPartitionStats.split_matches(
            self.build_sizes, self.probe_base, float(total_matches), repeat
        )
        self.tuple_bytes = float(tuple_bytes)
        self.materialize = materialize
        self.out_tuple_bytes = float(out_tuple_bytes)
        self.total_matches_base = tiled_sum(self.matches_base, repeat)
        self._util_base = self.probe_base / float(threads_per_block)
        self._cache: dict[float, KernelCost] = {}

    # Subclass invariants, set by their __init__:
    #: Lane-ops independent of the probe scale (build inserts/copies).
    _fixed_ops: np.ndarray | float = 0.0
    #: Per-partition lane-ops at probe scale 1.0.
    _scaled_ops: np.ndarray
    #: Device traffic (tuples) independent of the probe scale.
    _fixed_traffic: float = 0.0
    #: Device traffic (tuples) at probe scale 1.0.
    _scaled_traffic: float = 0.0

    def cost(self, scale: float = 1.0) -> KernelCost:
        """Kernel cost with the probe side (and matches) scaled."""
        scale = float(scale)
        cached = self._cache.get(scale)
        if cached is None:
            cached = self._evaluate(scale)
            self._cache[scale] = cached
        return cached

    def seconds(self, scale: float = 1.0) -> float:
        return self.cost(scale).seconds

    def _evaluate(self, scale: float) -> KernelCost:
        model = self.model
        calib = model.calib
        util = np.minimum(
            np.maximum(self._util_base * scale, calib.min_block_utilization), 1.0
        )
        lane_ops = tiled_sum(
            (self._fixed_ops + self._scaled_ops * scale) / util, self.repeat
        )
        traffic = (
            self._fixed_traffic + self._scaled_traffic * scale
        ) * self.tuple_bytes
        traffic_seconds = model.scan_seconds(traffic)
        ops_seconds = model.lane_op_seconds(lane_ops)
        seconds = max(traffic_seconds, ops_seconds) + calib.kernel_launch_seconds
        breakdown = {
            "join_traffic": traffic_seconds,
            "join_lane_ops": ops_seconds,
            "launch": calib.kernel_launch_seconds,
        }
        if self.materialize:
            mat = model.materialize_seconds(
                self.total_matches_base * scale * self.out_tuple_bytes
            )
            seconds += mat
            breakdown["materialize"] = mat
        return KernelCost(seconds, breakdown)


class ScaledHashJoinCost(_ScaledJoinCostBase):
    """Scaled evaluator of :meth:`GpuCostModel.join_copartitions_hash`.

    Precomputed once per working set, on the histograms' period:
    per-partition fallback passes (``ceil(build / elements_per_block)``),
    per-pass block sizes and chain steps, build inserts, and the
    probe/match lane-op coefficient arrays.  Each ``cost(scale)`` is
    then two vector multiplies and one divide over the period, and one
    sum over its tile.
    """

    def __init__(
        self,
        model: GpuCostModel,
        build_sizes: np.ndarray,
        probe_sizes: np.ndarray,
        total_matches: float,
        tuple_bytes: float,
        *,
        ht_slots: int,
        elements_per_block: int,
        threads_per_block: int,
        use_shared_memory: bool,
        materialize: bool,
        out_tuple_bytes: float,
        charge_build: bool,
        repeat: int,
    ) -> None:
        super().__init__(
            model,
            build_sizes,
            probe_sizes,
            total_matches,
            tuple_bytes,
            threads_per_block=threads_per_block,
            materialize=materialize,
            out_tuple_bytes=out_tuple_bytes,
            repeat=repeat,
        )
        calib = model.calib
        passes = np.maximum(
            1.0, np.ceil(self.build_sizes / float(elements_per_block))
        )
        block_sizes = np.minimum(self.build_sizes, float(elements_per_block))
        steps = model._chain_steps(block_sizes, ht_slots)
        step_cost = calib.lane_ops_chain_step
        if not use_shared_memory:
            step_cost *= calib.device_ht_step_penalty
        self._fixed_ops = (
            self.build_sizes * calib.lane_ops_insert if charge_build else 0.0
        )
        self._scaled_ops = self.probe_base * passes * (
            calib.lane_ops_scan_per_tuple + steps * step_cost
        ) + self.matches_base * (step_cost + calib.lane_ops_flush_per_match)
        self._fixed_traffic = (
            tiled_sum(self.build_sizes, repeat) if charge_build else 0.0
        )
        self._scaled_traffic = tiled_sum(self.probe_base * passes, repeat)


class ScaledNljJoinCost(_ScaledJoinCostBase):
    """Scaled evaluator of :meth:`GpuCostModel.join_copartitions_nlj`."""

    def __init__(
        self,
        model: GpuCostModel,
        build_sizes: np.ndarray,
        probe_sizes: np.ndarray,
        total_matches: float,
        tuple_bytes: float,
        *,
        differing_bits: int,
        threads_per_block: int,
        materialize: bool,
        out_tuple_bytes: float,
        repeat: int,
    ) -> None:
        super().__init__(
            model,
            build_sizes,
            probe_sizes,
            total_matches,
            tuple_bytes,
            threads_per_block=threads_per_block,
            materialize=materialize,
            out_tuple_bytes=out_tuple_bytes,
            repeat=repeat,
        )
        calib = model.calib
        warp = float(model.gpu.warp_size)
        rounds = np.ceil(self.build_sizes / warp)
        per_round = calib.nlj_round_base_ops + differing_bits * calib.nlj_ops_per_bit
        self._fixed_ops = self.build_sizes * calib.lane_ops_build_copy
        self._scaled_ops = (
            self.probe_base * rounds * per_round / warp
            + self.matches_base * calib.lane_ops_flush_per_match
        )
        self._fixed_traffic = tiled_sum(self.build_sizes, repeat)
        self._scaled_traffic = tiled_sum(self.probe_base, repeat)
