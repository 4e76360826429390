"""Task release times (``available_at``) in the pipeline engine."""

import pytest

from repro.errors import SchedulingError
from repro.pipeline.tasks import Task
from tests.pipeline.graphs import place


def test_task_waits_for_release_time():
    schedule = place(
        [Task("a", "gpu", 1.0), Task("b", "gpu", 1.0, available_at=5.0)]
    )
    assert schedule.tasks["a"].start == 0.0
    assert schedule.tasks["b"].start == 5.0
    assert schedule.makespan == 6.0


def test_release_time_combines_with_dependencies():
    schedule = place([
        Task("a", "h2d", 2.0),
        # Dep finishes at 2.0 but the task is only released at 3.0.
        Task("b", "gpu", 1.0, deps=("a",), available_at=3.0),
        # Dep finishes at 2.0 and release (1.0) is already past.
        Task("c", "gpu", 1.0, deps=("a",), available_at=1.0),
    ])
    assert schedule.tasks["b"].start == 3.0
    assert schedule.tasks["c"].start == 4.0  # FIFO behind b on the queue


def test_default_release_time_preserves_existing_behavior():
    schedule = place([Task("a", "gpu", 1.5), Task("b", "gpu", 0.5)])
    assert schedule.makespan == 2.0
    assert schedule.tasks["b"].start == 1.5


def test_negative_release_time_rejected():
    with pytest.raises(SchedulingError, match="negative available_at"):
        place([Task("a", "gpu", 1.0, available_at=-1.0)])
