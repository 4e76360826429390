"""Alternative data-transfer mechanisms: UVA and Unified Memory.

Figures 21 and 22 quantify why the paper builds its own transfer
pipeline instead of relying on driver-managed mechanisms:

* **Fig 21** (working set fits in GPU memory): bars show throughput when
  progressively later pipeline steps read their input through UVA —
  plain DMA load, partitioning over UVA, the whole join over UVA, UVA
  used only to load, and Unified Memory loading.
* **Fig 22** (out-of-GPU data): Unified Memory vs UVA vs the paper's
  co-processing strategy.  UVA pays every partitioning pass over the
  bus; UM additionally thrashes pages once the working set exceeds
  device memory (§IV: "parts of the relation to be transferred over
  multiple times").

Each mechanism is declared the way the join strategies declare theirs —
a :class:`~repro.core.strategy.JoinPlan` of H2D bus traversals and GPU
kernels, simulated by
:meth:`~repro.core.strategy.PipelinedJoinStrategy.simulate` — so
overlap (e.g. the first partitioning pass consuming a UVA stream while
it arrives) falls out of the simulation rather than being
hand-computed.  The reference
join strategies are obtained from the registry, never named directly.
"""

from __future__ import annotations

from repro.core.config import GpuJoinConfig
from repro.core.results import JoinMetrics
from repro.core.strategy import (
    COPROCESSING,
    GPU_RESIDENT,
    JoinPlan,
    create_strategy,
)
from repro.data import stats as stats_mod
from repro.data.spec import JoinSpec
from repro.errors import InvalidConfigError
from repro.gpusim.calibration import Calibration
from repro.gpusim.spec import SystemSpec
from repro.gpusim.transfer import TransferModel
from repro.pipeline.tasks import GPU, H2D

GPU_DATA_LOAD = "GPU data load"
UVA_PARTITION = "UVA part."
UVA_JOIN = "UVA join"
UVA_LOAD = "UVA load"
UM_LOAD = "UM"

IN_GPU_MODES = (GPU_DATA_LOAD, UVA_PARTITION, UVA_JOIN, UVA_LOAD, UM_LOAD)

OOG_UM = "UM"
OOG_UVA = "UVA"
OOG_COPROCESSING = "Co-processing"

OOG_MODES = (OOG_UM, OOG_UVA, OOG_COPROCESSING)


class TransferStrategyComparison:
    """Throughput of each transfer mechanism for a given workload."""

    def __init__(
        self,
        system: SystemSpec | None = None,
        calibration: Calibration | None = None,
        config: GpuJoinConfig | None = None,
    ):
        self.system = system or SystemSpec()
        self.join = create_strategy(GPU_RESIDENT, self.system, calibration, config)
        self.transfer = TransferModel(self.system, self.join.cost_model.calib)
        self.coprocessing = create_strategy(
            COPROCESSING, self.system, calibration, config
        )

    # ------------------------------------------------------------------
    def _simulated(self, plan: JoinPlan) -> JoinMetrics:
        spec = plan.spec
        return JoinMetrics(
            strategy=plan.strategy,
            seconds=self.join.simulate(plan).seconds,
            total_tuples=spec.total_tuples,
            output_tuples=stats_mod.expected_join_cardinality(spec),
            notes={"tuple_bytes": float(spec.build.tuple_bytes)},
        )

    def in_gpu(self, spec: JoinSpec, mode: str) -> JoinMetrics:
        """Fig 21: GPU-sized working sets, varying how input arrives."""
        resident = self.join.estimate(spec)
        join_seconds = resident.seconds
        partition_seconds = resident.phases["partition"]
        compute_only = join_seconds - partition_seconds
        nbytes = spec.total_bytes

        plan = JoinPlan(strategy=mode, spec=spec)
        if mode == GPU_DATA_LOAD:
            # Data already GPU resident, "as in our in-GPU experiments"
            # (§V-F) — the load is not part of the measured query.
            plan.add("join", GPU, join_seconds)
        elif mode == UVA_PARTITION:
            # The first partitioning pass reads its input over the bus
            # while it streams in; everything after runs on
            # device-resident buckets.
            plan.add(
                "uva.stream", H2D, self.transfer.uva_sequential_seconds(nbytes)
            )
            plan.add("partition.first", GPU, partition_seconds / 2.0)
            plan.add(
                "partition.rest", GPU, partition_seconds / 2.0, ["uva.stream"]
            )
            plan.add("join", GPU, compute_only, ["partition.rest"])
        elif mode == UVA_JOIN:
            # Both partitioning passes and the probe scan pull from host
            # memory: three sequential traversals over the bus.
            plan.add(
                "uva.traversals",
                H2D,
                3.0 * self.transfer.uva_sequential_seconds(nbytes),
            )
            plan.add("join.compute", GPU, compute_only, ["uva.traversals"])
        elif mode == UVA_LOAD:
            # UVA used only to stage the input into device memory.
            plan.add(
                "uva.load", H2D, self.transfer.uva_sequential_seconds(nbytes)
            )
            plan.add("join", GPU, join_seconds, ["uva.load"])
        elif mode == UM_LOAD:
            # Unified Memory migrates pages on first touch.
            plan.add(
                "um.migrate", H2D, self.transfer.um_migration_seconds(nbytes)
            )
            plan.add("join", GPU, join_seconds, ["um.migrate"])
        else:
            raise InvalidConfigError(f"unknown Fig 21 mode: {mode!r}")
        return self._simulated(plan)

    # ------------------------------------------------------------------
    def out_of_gpu(self, spec: JoinSpec, mode: str) -> JoinMetrics:
        """Fig 22: datasets larger than device memory."""
        nbytes = spec.total_bytes
        if mode == OOG_COPROCESSING:
            return self.coprocessing.estimate(spec)
        plan = JoinPlan(strategy=mode, spec=spec)
        if mode == OOG_UVA:
            # Every partitioning pass reads and writes host memory over
            # the bus (two passes), and the probe pass reads once more:
            # ~5 traversals of the combined input.
            plan.add(
                "uva.traversals",
                H2D,
                5.0 * self.transfer.uva_sequential_seconds(nbytes),
            )
        elif mode == OOG_UM:
            # Pages thrash: the partitioning passes' scattered writes
            # evict and re-fault pages repeatedly (§IV-B: "the irregular
            # access patterns ... cause parts of the relation to be
            # transferred over multiple times").  The working set spans
            # the inputs plus their partitioned copies.
            from repro.core.gpu_partitioned import gpu_resident_bytes_needed

            plan.add(
                "um.thrash",
                H2D,
                self.transfer.um_migration_seconds(
                    nbytes,
                    working_set_bytes=gpu_resident_bytes_needed(spec),
                    reuse_passes=4.0,
                ),
            )
        else:
            raise InvalidConfigError(f"unknown Fig 22 mode: {mode!r}")
        return self._simulated(plan)
