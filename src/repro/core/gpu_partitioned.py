"""The in-GPU partitioned radix hash join (§III) — the paper's core.

Pipeline: multi-pass radix partitioning of both relations into bucket
chains sized for shared memory, per-co-partition build (Listing 2) and
probe (chaining hash, §III-C, or ballot NLJ, §III-B), warp-buffered
output (§III-C), and optional late-materialization gathers.

Both execution paths are provided:

* :meth:`GpuPartitionedJoin.run` — functional execution on materialized
  relations; produces the actual join output plus metrics whose costs are
  derived from the *observed* partition statistics;
* :meth:`GpuPartitionedJoin.estimate` — the same cost formulas fed with
  *expected* statistics of a :class:`~repro.data.spec.JoinSpec`, usable
  at paper scale.
"""

from __future__ import annotations

import math

import numpy as np

from repro.core.config import HASH_PROBE, NLJ_PROBE, GpuJoinConfig, default_config
from repro.core.results import JoinRunResult
from repro.core.strategy import (
    GPU_RESIDENT,
    JoinPlan,
    PipelinedJoinStrategy,
    register_strategy,
)
from repro.data import stats as stats_mod
from repro.data.relation import Relation
from repro.data.spec import Distribution, JoinSpec
from repro.errors import DeviceMemoryOverflowError
from repro.gpusim.calibration import Calibration
from repro.gpusim.cost import CoPartitionStats, GpuCostModel, KernelCost
from repro.gpusim.spec import SystemSpec
from repro.kernels.aggregate import aggregate_pairs
from repro.kernels.build_hash import build_copartition_tables
from repro.kernels.common import key_bit_width
from repro.kernels.probe_hash import probe_copartitions
from repro.kernels.probe_nlj import nlj_copartitions
from repro.kernels.radix_partition import (
    bucket_skew_imbalance,
    estimate_partition_cost,
    gpu_radix_partition,
)
from repro.pipeline.tasks import GPU

#: Result tuples carry the two 4-byte payloads (tuple identifiers).
OUT_TUPLE_BYTES = 8.0

#: Workspace reserved on the device beyond the data itself: bucket pool
#: slack, partition metadata, and result buffers.  Sized so the resident
#: strategy tops out at 128 M-tuple 1:1 inputs, the limit the paper
#: reports for its implementation (§V-C, Fig 15).
GPU_WORKSPACE_RESERVED = 1 << 30


def gpu_resident_bytes_needed(spec: JoinSpec) -> float:
    """Device footprint of the in-GPU strategy for a workload.

    Inputs plus their partitioned (bucket-chain) copies with ~12.5%
    pool slack, plus the fixed workspace reservation.
    """
    data = spec.build.nbytes + spec.probe.nbytes
    return 2.25 * data + GPU_WORKSPACE_RESERVED


@register_strategy
class GpuPartitionedJoin(PipelinedJoinStrategy):
    """GPU-resident partitioned hash/NLJ join."""

    key = GPU_RESIDENT
    name = "GPU Partitioned"

    def __init__(
        self,
        system: SystemSpec | None = None,
        calibration: Calibration | None = None,
        config: GpuJoinConfig | None = None,
    ):
        self.system = system or SystemSpec()
        self.config = config or default_config()
        self.cost_model = GpuCostModel(self.system, calibration)
        self.config.validate_against(self.system.gpu, tuple_bytes=8)

    # ------------------------------------------------------------------
    # Shared cost assembly
    # ------------------------------------------------------------------
    def _join_cost(
        self,
        stats: CoPartitionStats,
        *,
        tuple_bytes: float,
        radix_bits: int,
        key_bits: int,
        materialize: bool,
        charge_build: bool = True,
    ) -> KernelCost:
        cfg = self.config
        if cfg.probe_kernel == NLJ_PROBE:
            return self.cost_model.join_copartitions_nlj(
                stats,
                tuple_bytes,
                differing_bits=max(1, key_bits - radix_bits),
                threads_per_block=cfg.threads_per_block_join,
                materialize=materialize,
                out_tuple_bytes=OUT_TUPLE_BYTES,
            )
        return self.cost_model.join_copartitions_hash(
            stats,
            tuple_bytes,
            ht_slots=cfg.ht_slots,
            elements_per_block=cfg.elements_per_block,
            threads_per_block=cfg.threads_per_block_join,
            use_shared_memory=cfg.use_shared_memory,
            materialize=materialize,
            out_tuple_bytes=OUT_TUPLE_BYTES,
            charge_build=charge_build,
        )

    def _join_cost_evaluator(
        self,
        build_sizes: np.ndarray,
        probe_sizes: np.ndarray,
        total_matches: float,
        *,
        tuple_bytes: float,
        radix_bits: int,
        key_bits: int,
        materialize: bool,
        charge_build: bool = True,
        repeat: int = 1,
    ):
        """Scaled twin of :meth:`_join_cost` for the out-of-GPU chunk
        loops: the build side is fixed, the probe side is ``probe_sizes``
        times a scalar chunk fraction.  Returns an evaluator whose
        ``seconds(scale)`` agrees with :meth:`_join_cost` on the
        correspondingly scaled stats within 1e-9 (memoized per scale).
        With ``repeat > 1`` the sizes are one period of histograms that
        repeat it (:func:`repro.data.stats.expected_copartition_periods`)."""
        cfg = self.config
        if cfg.probe_kernel == NLJ_PROBE:
            # The NLJ kernel always charges the build copy (as does
            # :meth:`_join_cost`, which ignores ``charge_build`` for it).
            return self.cost_model.nlj_join_evaluator(
                build_sizes,
                probe_sizes,
                total_matches,
                tuple_bytes,
                differing_bits=max(1, key_bits - radix_bits),
                threads_per_block=cfg.threads_per_block_join,
                materialize=materialize,
                out_tuple_bytes=OUT_TUPLE_BYTES,
                repeat=repeat,
            )
        return self.cost_model.hash_join_evaluator(
            build_sizes,
            probe_sizes,
            total_matches,
            tuple_bytes,
            ht_slots=cfg.ht_slots,
            elements_per_block=cfg.elements_per_block,
            threads_per_block=cfg.threads_per_block_join,
            use_shared_memory=cfg.use_shared_memory,
            materialize=materialize,
            out_tuple_bytes=OUT_TUPLE_BYTES,
            charge_build=charge_build,
            repeat=repeat,
        )

    def _gather_cost(self, spec: JoinSpec, matches: float) -> KernelCost:
        """Late-materialization gathers: partitioning reorders *both*
        sides, so every wide attribute fetch is a random access (§V-B,
        Figures 9 and 10)."""
        cost = KernelCost.zero()
        if spec.probe.late_payload_bytes:
            cost = cost + self.cost_model.gather_payload(
                matches, spec.probe.late_payload_bytes, random=True
            )
        if spec.build.late_payload_bytes:
            cost = cost + self.cost_model.gather_payload(
                matches, spec.build.late_payload_bytes, random=True
            )
        return cost

    @classmethod
    def device_bytes_needed(cls, spec: JoinSpec, system: SystemSpec) -> int:
        """Both relations plus partitioned copies must be device resident.

        Rounded up so the admission gate can never accept a spec that
        :meth:`_check_device_memory` (which compares the exact float)
        would then reject."""
        return math.ceil(gpu_resident_bytes_needed(spec))

    def _check_device_memory(self, spec: JoinSpec) -> None:
        """In-GPU execution holds inputs plus partitioned copies."""
        needed = gpu_resident_bytes_needed(spec)
        if needed > self.system.gpu.device_memory:
            raise DeviceMemoryOverflowError(
                f"GPU-resident join needs {needed / 1e9:.2f} GB (inputs, "
                f"partitioned copies, bucket pool and output workspace) "
                f"but the device has "
                f"{self.system.gpu.device_memory / 1e9:.2f} GB"
            )

    def _plan(
        self,
        spec: JoinSpec,
        partition_cost: KernelCost,
        join_cost: KernelCost,
        gather_cost: KernelCost,
        matches: float,
        *,
        materialize: bool,
    ) -> JoinPlan:
        """The in-GPU strategy is a serial chain on the compute queue."""
        plan = JoinPlan(
            strategy=self.name,
            spec=spec,
            phases=("partition", "join", "gather"),
            matches=matches,
            materialize=materialize,
            notes={"tuple_bytes": float(spec.build.tuple_bytes)},
        )
        partition = plan.add("partition", GPU, partition_cost.seconds, phase="partition")
        join = plan.add("join", GPU, join_cost.seconds, [partition], phase="join")
        plan.add("gather", GPU, gather_cost.seconds, [join], phase="gather")
        return plan

    # ------------------------------------------------------------------
    # Analytic path
    # ------------------------------------------------------------------
    def prepare(self, spec: JoinSpec, *, materialize: bool = False) -> JoinPlan:
        """Analytic plan for a workload spec (paper-scale capable)."""
        self._check_device_memory(spec)
        cfg = self.config
        bits_per_pass = cfg.bits_per_pass_for(spec.build.n)
        total_bits = sum(bits_per_pass)

        build_sizes = stats_mod.expected_partition_sizes(spec.build, total_bits)
        probe_sizes = stats_mod.expected_partition_sizes(spec.probe, total_bits)
        partition_cost = estimate_partition_cost(
            spec.build.n,
            spec.build.tuple_bytes,
            bits_per_pass,
            self.cost_model,
            imbalance=bucket_skew_imbalance(build_sizes),
        ) + estimate_partition_cost(
            spec.probe.n,
            spec.probe.tuple_bytes,
            bits_per_pass,
            self.cost_model,
            imbalance=bucket_skew_imbalance(probe_sizes),
        )
        matches = stats_mod.expected_join_cardinality(spec)
        stats = CoPartitionStats(
            build_sizes=build_sizes,
            probe_sizes=probe_sizes,
            matches=CoPartitionStats.split_matches(build_sizes, probe_sizes, matches),
        )
        key_bits = key_bit_width(max(spec.build.distinct, spec.probe.distinct) - 1)
        join_cost = self._join_cost(
            stats,
            tuple_bytes=spec.build.tuple_bytes,
            radix_bits=total_bits,
            key_bits=key_bits,
            materialize=materialize,
        )
        gather_cost = self._gather_cost(spec, matches)
        return self._plan(
            spec,
            partition_cost,
            join_cost,
            gather_cost,
            matches,
            materialize=materialize,
        )

    # ------------------------------------------------------------------
    # Functional path
    # ------------------------------------------------------------------
    def execute(
        self,
        build: Relation,
        probe: Relation,
        *,
        materialize: bool = False,
    ) -> JoinRunResult:
        """Execute the join on materialized relations."""
        cfg = self.config
        bits_per_pass = cfg.bits_per_pass_for(build.num_tuples)
        total_bits = sum(bits_per_pass)

        part_build, cost_b = gpu_radix_partition(
            build, bits_per_pass, self.cost_model, bucket_capacity=cfg.bucket_capacity
        )
        part_probe, cost_p = gpu_radix_partition(
            probe, bits_per_pass, self.cost_model, bucket_capacity=cfg.bucket_capacity
        )
        partition_cost = cost_b + cost_p

        if cfg.probe_kernel == NLJ_PROBE:
            key_bits = key_bit_width(
                int(max(build.key.max(initial=0), probe.key.max(initial=0)))
            )
            result = nlj_copartitions(
                part_build,
                part_probe,
                key_bits=key_bits,
                threads_per_block=cfg.threads_per_block_join,
                cost_model=self.cost_model,
                materialize=materialize,
                out_tuple_bytes=OUT_TUPLE_BYTES,
            )
        else:
            tables, _ = build_copartition_tables(
                part_build,
                nslots=cfg.ht_slots,
                elements_per_block=cfg.elements_per_block,
                cost_model=self.cost_model,
            )
            result = probe_copartitions(
                tables,
                part_probe,
                elements_per_block=cfg.elements_per_block,
                threads_per_block=cfg.threads_per_block_join,
                cost_model=self.cost_model,
                use_shared_memory=cfg.use_shared_memory,
                materialize=materialize,
                out_tuple_bytes=OUT_TUPLE_BYTES,
            )

        spec = spec_from_relations(build, probe)
        gather_cost = self._gather_cost(spec, float(result.matches))
        metrics = self.simulate(
            self._plan(
                spec,
                partition_cost,
                result.cost,
                gather_cost,
                float(result.matches),
                materialize=materialize,
            )
        )
        if materialize:
            return JoinRunResult(
                metrics=metrics,
                build_payloads=result.build_payloads,
                probe_payloads=result.probe_payloads,
            )
        return JoinRunResult(
            metrics=metrics,
            aggregate=aggregate_pairs(result.build_payloads, result.probe_payloads),
        )


def spec_from_relations(build: Relation, probe: Relation) -> JoinSpec:
    """Describe materialized relations for the shared cost helpers."""
    from repro.data.spec import RelationSpec

    def describe(rel: Relation) -> "RelationSpec":
        distinct = rel.distinct_keys()
        if rel.num_tuples == 0:
            # Degenerate empty input: describe as a single-tuple domain so
            # spec validation holds; costs scale by actual counts anyway.
            return RelationSpec(
                n=1,
                payload_bytes=rel.payload_bytes,
                late_payload_bytes=rel.late_payload_bytes,
            )
        if distinct == rel.num_tuples:
            return RelationSpec(
                n=rel.num_tuples,
                payload_bytes=rel.payload_bytes,
                late_payload_bytes=rel.late_payload_bytes,
            )
        return RelationSpec(
            n=rel.num_tuples,
            distinct=distinct,
            distribution=Distribution.UNIFORM,
            payload_bytes=rel.payload_bytes,
            late_payload_bytes=rel.late_payload_bytes,
        )

    return JoinSpec(build=describe(build), probe=describe(probe))
