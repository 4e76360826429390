"""Discrete-event pipeline simulation (CUDA streams/events semantics)."""

from repro.pipeline.engine import PipelineEngine
from repro.pipeline.tasks import (
    CPU,
    D2H,
    GPU,
    H2D,
    ResourcePool,
    Schedule,
    ScheduledTask,
    Task,
)

__all__ = [
    "CPU",
    "D2H",
    "GPU",
    "H2D",
    "PipelineEngine",
    "ResourcePool",
    "Schedule",
    "ScheduledTask",
    "Task",
]
