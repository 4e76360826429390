"""Out-of-GPU strategy 2: CPU–GPU co-processing (§IV-B).

Neither relation fits in GPU memory.  The host radix-partitions both
relations (16-way by default) into pinned memory; build-side partitions
are packed into GPU-sized *working sets* (§IV-D), and for each working
set the matching probe co-partitions are streamed through the GPU and
joined with the in-GPU partitioned algorithm.  During the first working
set the CPU partitioning of probe chunks overlaps with the transfers
(the knapsack maximizes that working set to hide it); afterwards all
data is already partitioned and pinned, so the pipeline degenerates to
transfers + joins, with CPU threads performing NUMA staging copies.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.core.config import GpuJoinConfig, default_config
from repro.core.gpu_partitioned import (
    OUT_TUPLE_BYTES,
    GpuPartitionedJoin,
    spec_from_relations,
)
from repro.core.results import JoinRunResult
from repro.core.strategy import (
    COPROCESSING,
    JoinPlan,
    PipelinedJoinStrategy,
    register_strategy,
)
from repro.core.working_set import WorkingSet, pack_working_sets
from repro.cpu.numa import NumaModel
from repro.cpu.radix_partition import CpuPartitionModel, cpu_radix_partition
from repro.data import stats as stats_mod
from repro.data.relation import Relation
from repro.data.spec import JoinSpec
from repro.errors import InvalidConfigError
from repro.gpusim.calibration import Calibration
from repro.gpusim.cost import GpuCostModel, tiled_sum
from repro.gpusim.spec import SystemSpec
from repro.gpusim.transfer import TransferModel
from repro.kernels.aggregate import aggregate_pairs
from repro.kernels.common import key_bit_width
from repro.kernels.radix_partition import derive_bits_per_pass, estimate_partition_cost
from repro.pipeline.tasks import CPU, D2H, GPU, H2D, is_int

#: Default host-side fanout: a single 16-way pass (§V-C).
DEFAULT_CPU_BITS = 4
#: Default CPU threads for the partitioning phase (§V-C).
DEFAULT_THREADS = 16
#: Default probe chunk size streamed through the remaining GPU memory.
DEFAULT_CHUNK_BYTES = 256 * 1024 * 1024
#: Fraction of device memory available to a build working set (the rest
#: holds chunk buffers, output buffers, and sub-partitioning workspace).
WORKING_SET_MEMORY_FRACTION = 0.65
#: Cap on the working-set buffer a co-processing query *reserves* when it
#: shares the device with other queries (§IV-B splits oversized
#: partitions, so working sets shrink to whatever memory is granted).
COPROC_RESERVED_WS_BYTES = 256 * 1024 * 1024


def working_set_columns(final_sizes: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Expected sizes of the final co-partitions resident in one working
    set, each scaled by its host partition's weight in that set.

    ``weights[p]`` is the working set's share of host partition ``p``
    (:attr:`CoProcessingPlan.ws_weights`).  Final co-partition ``i``
    belongs to host partition ``i % fanout``, so column ``p`` of the
    ``(-1, fanout)`` view holds host partition ``p``'s co-partitions.
    Selecting the live columns yields the same elements, IEEE products
    and order as scaling the full-length array by the per-co-partition
    weight and masking out the zero-weight ones, at O(live
    co-partitions) instead of O(all) cost.  A contiguous run of live
    host partitions (the usual packing) is a basic slice, which skips
    the gather's copy; any other live set gathers its columns.
    """
    live = np.flatnonzero(weights > 0)
    if live.size and live[-1] - live[0] + 1 == live.size:
        live = slice(live[0], live[-1] + 1)
    columns = final_sizes.reshape(-1, weights.shape[0])[:, live]
    return (columns * weights[live]).ravel()


@dataclass
class CoProcessingPlan:
    """Static execution plan: packing, chunking and splitting decisions.

    ``ws_weights[w][p]`` is the fraction of host partition ``p`` resident
    in working set ``w`` (1.0 normally; ``1/k`` when an oversized
    partition was recursively split ``k`` ways per §IV-B).
    ``repartition_fraction`` is the share of tuples that needed the extra
    sub-partitioning pass.
    """

    cpu_bits: int
    working_sets: list[WorkingSet]
    build_fractions: list[float]
    chunk_tuples: int
    n_chunks: int
    ws_weights: list[np.ndarray] = None  # type: ignore[assignment]
    repartition_fraction: float = 0.0

    @property
    def first_ws_fraction(self) -> float:
        return self.build_fractions[0] if self.build_fractions else 0.0


@register_strategy
class CoProcessingJoin(PipelinedJoinStrategy):
    """Both relations out of GPU memory: CPU partitioning + GPU joins."""

    key = COPROCESSING
    name = "GPU Partitioned (co-processing)"

    def __init__(
        self,
        system: SystemSpec | None = None,
        calibration: Calibration | None = None,
        config: GpuJoinConfig | None = None,
        *,
        cpu_bits: int = DEFAULT_CPU_BITS,
        staging: bool = True,
        device_budget: int | None = None,
    ):
        if not is_int(cpu_bits) or cpu_bits < 1:
            raise InvalidConfigError(
                f"cpu_bits must be an int of at least 1, got {cpu_bits!r}"
            )
        if device_budget is not None and (
            not is_int(device_budget) or device_budget < 1
        ):
            raise InvalidConfigError(
                "device_budget must be None or an int of at least 1, "
                f"got {device_budget!r}"
            )
        self.system = system or SystemSpec()
        #: Device memory granted to this query (the serving layer passes
        #: its arena reservation); ``None`` means the whole device.
        self.device_budget = device_budget
        self.config = config or default_config()
        self.cost_model = GpuCostModel(self.system, calibration)
        self.transfer = TransferModel(self.system, self.cost_model.calib)
        self.cpu_partition = CpuPartitionModel(self.system, self.cost_model.calib)
        self.numa = NumaModel(self.system, self.cost_model.calib)
        self.cpu_bits = cpu_bits
        self.staging = staging
        self._resident = GpuPartitionedJoin(self.system, calibration, self.config)

    # ------------------------------------------------------------------
    def _fingerprint_extras(self) -> tuple:
        return (self.cpu_bits, self.staging, self.device_budget)

    # ------------------------------------------------------------------
    @classmethod
    def device_bytes_needed(cls, spec: JoinSpec, system: SystemSpec) -> int:
        """The always-feasible floor: one (capped) build working set plus
        double-buffered input chunks and output buffers.  Both relations
        live in host memory, so the device footprint stays small and
        bounded no matter how large the workload is."""
        chunk = min(DEFAULT_CHUNK_BYTES, max(spec.probe.nbytes, spec.probe.tuple_bytes))
        working_set = min(2 * spec.build.nbytes, COPROC_RESERVED_WS_BYTES)
        return int(working_set + 4 * chunk)

    # ------------------------------------------------------------------
    # Planning
    # ------------------------------------------------------------------
    def working_set_capacity(self) -> int:
        if self.device_budget is not None:
            # A serving grant must cover the working set AND the chunk /
            # output buffers priced into device_bytes_needed, so only the
            # remainder after the (worst-case) buffer reservation may
            # hold build working sets — the modelled footprint then
            # stays within the arena reservation.
            budget = min(self.system.gpu.device_memory, self.device_budget)
            return max(budget - 4 * DEFAULT_CHUNK_BYTES, 32 * 1024 * 1024)
        return int(self.system.gpu.device_memory * WORKING_SET_MEMORY_FRACTION)

    def plan(
        self,
        build_partition_sizes: np.ndarray,
        tuple_bytes: int,
        probe_n: int,
        *,
        chunk_tuples: int | None = None,
        bucket_capacity: int = 2048,
        split_oversized: bool = True,
    ) -> CoProcessingPlan:
        """Pack working sets from (expected or observed) partition sizes.

        With ``split_oversized`` (the analytic path), host partitions
        larger than the working-set capacity are recursively
        sub-partitioned ``k`` ways before packing (§IV-B); the extra
        pass's cost is charged through ``repartition_fraction``.
        """
        sizes = np.asarray(build_partition_sizes, dtype=np.float64)
        capacity = self.working_set_capacity()
        fanout = sizes.shape[0]
        total = float(sizes.sum()) or 1.0
        if chunk_tuples is None:
            chunk_tuples = max(1, min(probe_n, DEFAULT_CHUNK_BYTES // tuple_bytes))
        elif not is_int(chunk_tuples) or chunk_tuples < 1:
            raise InvalidConfigError(
                "chunk_tuples must be None or an int of at least 1, "
                f"got {chunk_tuples!r}"
            )

        def padded(values: np.ndarray) -> np.ndarray:
            buckets = np.maximum(1, np.ceil(values / bucket_capacity))
            return (buckets * bucket_capacity * tuple_bytes).astype(np.int64)

        # Expand oversized partitions into k equal virtual sub-partitions.
        origins: list[int] = []
        weights: list[float] = []
        entry_sizes: list[float] = []
        repartitioned = 0.0
        for pid in range(fanout):
            nbytes = int(padded(sizes[pid : pid + 1])[0])
            splits = 1
            if split_oversized and nbytes > capacity:
                splits = int(math.ceil(nbytes / capacity))
                repartitioned += sizes[pid]
            for _ in range(splits):
                origins.append(pid)
                weights.append(1.0 / splits)
                entry_sizes.append(sizes[pid] / splits)
        entry_sizes_arr = np.asarray(entry_sizes)
        working_sets = pack_working_sets(
            padded(entry_sizes_arr), entry_sizes_arr.astype(np.int64), capacity
        )

        ws_weights: list[np.ndarray] = []
        fractions: list[float] = []
        for ws in working_sets:
            weight = np.zeros(fanout, dtype=np.float64)
            for entry in ws.partition_ids:
                weight[origins[entry]] += weights[entry]
            ws_weights.append(weight)
            fractions.append(float((weight * sizes).sum()) / total)

        return CoProcessingPlan(
            cpu_bits=self.cpu_bits,
            working_sets=working_sets,
            build_fractions=fractions,
            chunk_tuples=chunk_tuples,
            n_chunks=math.ceil(probe_n / chunk_tuples),
            ws_weights=ws_weights,
            repartition_fraction=repartitioned / total,
        )

    # ------------------------------------------------------------------
    # Pipeline assembly (shared by prepare and execute)
    # ------------------------------------------------------------------
    def _pipeline_plan(
        self,
        spec: JoinSpec,
        plan: CoProcessingPlan,
        *,
        threads: int,
        matches: float,
        ws_join_seconds,
        ws_prep_seconds,
        materialize: bool,
        staging_threads: int | None = None,
    ) -> JoinPlan:
        """Declare the §IV-B pipeline as a task graph.

        ``ws_join_seconds(ws_index, chunk_index)`` and
        ``ws_prep_seconds(ws_index)`` supply GPU kernel durations (from
        analytic stats or from functional execution).  ``staging_threads``
        optionally uses a different thread count for the staging-only
        phases after the first working set (the adaptive extension).
        """
        calib = self.cost_model.calib
        cpu_rate = self.cpu_partition.pass_rate(threads)
        if staging_threads is None:
            staging_threads = threads
        if self.staging:
            h2d_active = self.numa.h2d_rate_staged(threads)
            h2d_idle = self.numa.h2d_rate_staged(0)
        else:
            h2d_active = self.numa.h2d_rate_direct(threads)
            h2d_idle = self.numa.h2d_rate_direct(0)
        d2h_rate = self.transfer.pipelined_dma_rate()
        staging_rate = self.numa.staging_copy_rate(staging_threads)

        graph = JoinPlan(
            strategy=self.name,
            spec=spec,
            phases=(CPU, H2D, GPU, D2H),
            matches=matches,
            materialize=materialize,
            pcie_h2d_bytes=spec.build.nbytes + spec.probe.nbytes,
            pcie_d2h_bytes=matches * OUT_TUPLE_BYTES if materialize else 0.0,
            notes={
                "tuple_bytes": float(spec.build.tuple_bytes),
                "working_sets": float(len(plan.working_sets)),
                "first_ws_fraction": plan.first_ws_fraction,
                "threads": float(threads),
            },
        )

        # Host partitions the build relation into pinned memory first;
        # oversized partitions get one extra recursive pass (SIV-B).
        repartition = 1.0 + plan.repartition_fraction
        graph.add(
            "R.cpu_partition", CPU, spec.build.nbytes * repartition / cpu_rate
        )

        for w, frac in enumerate(plan.build_fractions):
            phase_a = w == 0
            rate = h2d_active if phase_a else h2d_idle
            ws = plan.working_sets[w]
            # The working set's partitions are transferred and GPU-prepped
            # one at a time ("we initiate each operation of the sequence
            # as soon as the previous step is completed", §IV-B), so prep
            # overlaps the remaining transfers instead of stalling joins.
            n_parts = max(1, len(ws.partition_ids))
            part_bytes = ws.total_bytes / n_parts
            part_prep = float(ws_prep_seconds(w)) / n_parts
            for p in range(n_parts):
                graph.add(
                    f"R.h2d[{w},{p}]", H2D, part_bytes / rate, ["R.cpu_partition"]
                )
                graph.add(
                    f"R.prep[{w},{p}]", GPU, part_prep, [f"R.h2d[{w},{p}]"]
                )
            ws_ready = f"R.prep[{w},{n_parts - 1}]"
            for c in range(plan.n_chunks):
                this_chunk = min(
                    plan.chunk_tuples, spec.probe.n - c * plan.chunk_tuples
                )
                s_co_bytes = frac * this_chunk * spec.probe.tuple_bytes
                h2d_deps: list[str] = []
                if phase_a:
                    # The chunk must be radix-partitioned on the host
                    # before its co-partitions can be shipped.
                    graph.add(
                        f"S.cpu[{c}]",
                        CPU,
                        this_chunk * spec.probe.tuple_bytes * repartition / cpu_rate
                        + calib.pipeline_sync_seconds,
                    )
                    h2d_deps.append(f"S.cpu[{c}]")
                elif self.staging:
                    # Far-socket halves are staged to near-socket pinned
                    # buffers by CPU threads (§IV-B).
                    graph.add(
                        f"S.stage[{w},{c}]",
                        CPU,
                        0.5 * s_co_bytes / staging_rate
                        + calib.pipeline_sync_seconds,
                    )
                    h2d_deps.append(f"S.stage[{w},{c}]")
                if c >= 2:
                    h2d_deps.append(f"S.join[{w},{c - 2}]")
                graph.add(f"S.h2d[{w},{c}]", H2D, s_co_bytes / rate, h2d_deps)
                join_deps = [f"S.h2d[{w},{c}]", ws_ready]
                if materialize and c >= 2:
                    join_deps.append(f"S.d2h[{w},{c - 2}]")
                graph.add(
                    f"S.join[{w},{c}]", GPU, float(ws_join_seconds(w, c)), join_deps
                )
                if materialize:
                    out_bytes = (
                        matches
                        * frac
                        * (this_chunk / spec.probe.n)
                        * OUT_TUPLE_BYTES
                    )
                    graph.add(
                        f"S.d2h[{w},{c}]", D2H, out_bytes / d2h_rate,
                        [f"S.join[{w},{c}]"],
                    )

        return graph

    # ------------------------------------------------------------------
    # Analytic path
    # ------------------------------------------------------------------
    def prepare(
        self,
        spec: JoinSpec,
        *,
        threads: int = DEFAULT_THREADS,
        chunk_tuples: int | None = None,
        materialize: bool = False,
        staging_threads: int | None = None,
    ) -> JoinPlan:
        cfg = self.config
        cpu_sizes = stats_mod.expected_partition_sizes(spec.build, self.cpu_bits)
        plan = self.plan(
            cpu_sizes,
            spec.build.tuple_bytes,
            spec.probe.n,
            chunk_tuples=chunk_tuples,
        )
        threads = self._partition_threads(plan, threads)

        total_bits = max(cfg.radix_bits_for(spec.build.n // (1 << self.cpu_bits)), 1)
        gpu_bits = derive_bits_per_pass(total_bits, max_bits_per_pass=cfg.max_bits_per_pass)
        final_bits = self.cpu_bits + total_bits

        # A uniform-family join's final histograms are one host-fanout
        # row tiled ``repeat`` times, and the columns a working set
        # selects from that row are the period of its full columns.
        build_final, probe_final, repeat = stats_mod.expected_copartition_periods(
            spec, final_bits, 1 << self.cpu_bits
        )
        matches = stats_mod.expected_join_cardinality(spec)
        key_bits = key_bit_width(max(spec.build.distinct, spec.probe.distinct) - 1)

        def ws_prep_seconds(w: int) -> float:
            # Partition the working set on the GPU, then build its
            # co-partition tables once; all chunks probe them.
            elements = plan.working_sets[w].total_elements
            return (
                estimate_partition_cost(
                    elements, spec.build.tuple_bytes, gpu_bits, self.cost_model
                ).seconds
                + self.cost_model.build_tables_seconds(elements, spec.build.tuple_bytes)
            )

        # Per-working-set fast path: the build side (and thus every
        # build-derived invariant of the join formula) is fixed per
        # working set, and a chunk only scales the probe side by its
        # fraction of the probe relation — which takes at most two
        # distinct values.  Build one scaled evaluator per distinct
        # working set and memoize per chunk size, collapsing the
        # ~n_ws * n_chunks kernel-formula evaluations of the inner loop
        # to ~2 per distinct working set.
        #
        # A working set's evaluator depends only on its match share and
        # its build and probe columns.  A side whose final co-partitions
        # all have the same expected size (every uniform-family relation)
        # yields the same columns for any host partitions with the same
        # live weights in order, so that side keys on those weights; a
        # skewed side keys on the whole weights row.  Equal keys mean
        # bitwise-equal inputs, so sharing changes no duration.
        build_uniform = bool((build_final == build_final[0]).all())
        probe_uniform = bool((probe_final == probe_final[0]).all())

        def side_key(uniform: bool, weights: np.ndarray) -> bytes:
            return (weights[weights > 0] if uniform else weights).tobytes()

        ws_keys = [
            (
                plan.build_fractions[w],
                side_key(build_uniform, weights),
                side_key(probe_uniform, weights),
            )
            for w, weights in enumerate(plan.ws_weights)
        ]
        evaluators: dict[tuple, tuple] = {}
        join_memo: dict[tuple, float] = {}

        def ws_evaluator(w: int) -> tuple:
            cached = evaluators.get(ws_keys[w])
            if cached is None:
                b = working_set_columns(build_final, plan.ws_weights[w])
                s = working_set_columns(probe_final, plan.ws_weights[w])
                evaluator = self._resident._join_cost_evaluator(
                    b,
                    s,
                    matches * plan.build_fractions[w],
                    tuple_bytes=spec.build.tuple_bytes,
                    radix_bits=final_bits,
                    key_bits=key_bits,
                    materialize=materialize,
                    charge_build=False,
                    repeat=repeat,
                )
                cached = (evaluator, tiled_sum(s, repeat))
                evaluators[ws_keys[w]] = cached
            return cached

        def ws_join_seconds(w: int, c: int) -> float:
            this_chunk = min(plan.chunk_tuples, spec.probe.n - c * plan.chunk_tuples)
            memo_key = (ws_keys[w], this_chunk)
            cached = join_memo.get(memo_key)
            if cached is None:
                chunk_frac = this_chunk / spec.probe.n
                evaluator, probe_total = ws_evaluator(w)
                partition = estimate_partition_cost(
                    probe_total * chunk_frac,
                    spec.probe.tuple_bytes,
                    gpu_bits,
                    self.cost_model,
                )
                cached = partition.seconds + evaluator.seconds(chunk_frac)
                join_memo[memo_key] = cached
            return cached

        return self._pipeline_plan(
            spec,
            plan,
            threads=threads,
            matches=matches,
            ws_join_seconds=ws_join_seconds,
            ws_prep_seconds=ws_prep_seconds,
            materialize=materialize,
            staging_threads=staging_threads,
        )

    def _partition_threads(self, plan: CoProcessingPlan, threads: int) -> int:
        """The partitioning threads for the packed ``plan``: ``threads``
        here; the adaptive subclass resolves ``None`` from the plan."""
        return threads

    # ------------------------------------------------------------------
    # Functional path
    # ------------------------------------------------------------------
    def execute(
        self,
        build: Relation,
        probe: Relation,
        *,
        threads: int = DEFAULT_THREADS,
        chunk_tuples: int | None = None,
        materialize: bool = False,
    ) -> JoinRunResult:
        """Functional execution at test scale.

        The host 16-way partitions both relations; working sets are packed
        from the *observed* partition sizes; every (working set, chunk)
        cell is joined with the in-GPU partitioned join.  The union of
        cell results equals the full join (co-partitioning invariant).
        """
        part_build = cpu_radix_partition(build, self.cpu_bits)
        sizes = part_build.partition_sizes()
        plan = self.plan(
            sizes,
            build.tuple_bytes,
            probe.num_tuples,
            chunk_tuples=chunk_tuples,
            split_oversized=False,
        )

        build_payloads: list[np.ndarray] = []
        probe_payloads: list[np.ndarray] = []
        cell_seconds: dict[tuple[int, int], float] = {}
        prep_seconds: dict[int, float] = {}

        chunks = [
            probe.slice(i * plan.chunk_tuples, min((i + 1) * plan.chunk_tuples, probe.num_tuples))
            for i in range(plan.n_chunks)
        ]
        chunk_parts = [cpu_radix_partition(chunk, self.cpu_bits) for chunk in chunks]

        for w, ws in enumerate(plan.working_sets):
            r_keys = [part_build.partition(p)[0] for p in ws.partition_ids]
            r_payloads = [part_build.partition(p)[1] for p in ws.partition_ids]
            ws_build = Relation(
                key=np.concatenate(r_keys) if r_keys else np.empty(0, np.int64),
                payload=np.concatenate(r_payloads) if r_payloads else np.empty(0, np.int64),
                name=f"build.ws{w}",
                payload_bytes=build.payload_bytes,
            )
            prep_seconds[w] = 0.0
            for c, chunk_part in enumerate(chunk_parts):
                s_keys = [chunk_part.partition(p)[0] for p in ws.partition_ids]
                s_payloads = [chunk_part.partition(p)[1] for p in ws.partition_ids]
                ws_chunk = Relation(
                    key=np.concatenate(s_keys) if s_keys else np.empty(0, np.int64),
                    payload=np.concatenate(s_payloads) if s_payloads else np.empty(0, np.int64),
                    name=f"probe.ws{w}.chunk{c}",
                    payload_bytes=probe.payload_bytes,
                )
                if ws_build.num_tuples == 0 or ws_chunk.num_tuples == 0:
                    cell_seconds[(w, c)] = 0.0
                    continue
                cell = self._resident.run(ws_build, ws_chunk, materialize=True)
                cell_seconds[(w, c)] = cell.metrics.phases["join"] + (
                    cell.metrics.phases["partition"] / 2.0
                )
                if w == 0 and c == 0:
                    prep_seconds[w] = cell.metrics.phases["partition"] / 2.0
                build_payloads.append(cell.build_payloads)
                probe_payloads.append(cell.probe_payloads)

        all_build = (
            np.concatenate(build_payloads) if build_payloads else np.empty(0, np.int64)
        )
        all_probe = (
            np.concatenate(probe_payloads) if probe_payloads else np.empty(0, np.int64)
        )

        spec = spec_from_relations(build, probe)
        metrics = self.simulate(
            self._pipeline_plan(
                spec,
                plan,
                threads=threads,
                matches=float(all_build.shape[0]),
                ws_join_seconds=lambda w, c: cell_seconds.get((w, c), 0.0),
                ws_prep_seconds=lambda w: prep_seconds.get(w, 0.0),
                materialize=materialize,
            )
        )
        if materialize:
            return JoinRunResult(
                metrics=metrics, build_payloads=all_build, probe_payloads=all_probe
            )
        return JoinRunResult(
            metrics=metrics, aggregate=aggregate_pairs(all_build, all_probe)
        )
