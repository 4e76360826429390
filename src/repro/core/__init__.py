"""The paper's contribution: the hardware-conscious GPU join family."""

from repro.core import estimate_cache, sample_store
from repro.core.adaptive import (
    AdaptiveCoProcessingJoin,
    recommend_partition_threads,
    recommend_staging_threads,
)
from repro.core.config import (
    HASH_PROBE,
    NLJ_PROBE,
    GpuJoinConfig,
    default_config,
    fig5_config,
)
from repro.core.coprocessing import CoProcessingJoin, CoProcessingPlan
from repro.core.gpu_nonpartitioned import GpuNonPartitionedJoin, GpuPerfectHashJoin
from repro.core.sample_store import SampleStore
from repro.core.gpu_partitioned import GpuPartitionedJoin
from repro.core.planner import (
    PLANNER_LADDER,
    choose_strategy_name,
    estimate_with_planner,
    plan_join,
)
from repro.core.results import JoinMetrics, JoinRunResult
from repro.core.strategy import (
    COPROCESSING,
    COPROCESSING_ADAPTIVE,
    GPU_NONPARTITIONED,
    GPU_NONPARTITIONED_PERFECT,
    GPU_RESIDENT,
    STREAMING,
    JoinPlan,
    JoinStrategy,
    PipelinedJoinStrategy,
    create_strategy,
    register_strategy,
    registered_strategies,
    strategy_factory,
)
from repro.core.streaming import StreamingProbeJoin
from repro.core.working_set import (
    WorkingSet,
    knapsack_first_working_set,
    pack_working_sets,
)

__all__ = [
    "AdaptiveCoProcessingJoin",
    "COPROCESSING",
    "COPROCESSING_ADAPTIVE",
    "CoProcessingJoin",
    "CoProcessingPlan",
    "GPU_NONPARTITIONED",
    "GPU_NONPARTITIONED_PERFECT",
    "GPU_RESIDENT",
    "GpuJoinConfig",
    "GpuNonPartitionedJoin",
    "GpuPartitionedJoin",
    "GpuPerfectHashJoin",
    "HASH_PROBE",
    "JoinMetrics",
    "JoinPlan",
    "JoinRunResult",
    "JoinStrategy",
    "NLJ_PROBE",
    "PLANNER_LADDER",
    "PipelinedJoinStrategy",
    "STREAMING",
    "SampleStore",
    "StreamingProbeJoin",
    "WorkingSet",
    "choose_strategy_name",
    "create_strategy",
    "default_config",
    "estimate_cache",
    "estimate_with_planner",
    "fig5_config",
    "knapsack_first_working_set",
    "pack_working_sets",
    "plan_join",
    "recommend_partition_threads",
    "recommend_staging_threads",
    "register_strategy",
    "registered_strategies",
    "sample_store",
    "strategy_factory",
]
