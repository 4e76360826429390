"""The engine tests' one way to place a whole task graph, and the task
list the reference scanner gets for placed admissions."""

from repro.pipeline.engine import Admission, PipelineEngine, PlanTemplate, Wave
from repro.pipeline.tasks import Schedule, Task


def place(tasks: list[Task], engine: PipelineEngine | None = None) -> Schedule:
    """Place ``tasks`` as submitted: one admission on an empty schedule
    of ``engine`` (a fresh one by default)."""
    engine = PipelineEngine() if engine is None else engine
    admission = Admission(PlanTemplate(tasks), device=engine.device)
    return engine.extend(Schedule(), Wave([admission]))


def placed_tasks(admissions: list[Admission]) -> list[Task]:
    """The tasks ``admissions`` place, each template in dispatch order."""
    return [
        admission.task(index)
        for admission in admissions
        for index in range(len(admission))
    ]
