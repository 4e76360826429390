"""Outside-in layer tracer.

The tracer replaces public layer functions with thin wrappers at the
name their callers resolve -- module attributes such as
``repro.serve.scheduler.choose_strategy_name``, class methods such as
``PipelineEngine.extend`` and properties such as
``DeviceMemoryArena.used_bytes`` -- and records one span per call: the
layer name, start, end, the enclosing span and a tag (the index of the
last arrival pulled on the streams, the traced round's index on the
batch workload).  Spans live in flat arrays
while the round runs, are reduced to per-layer self times and call
counts afterwards, and can be written out once at the end.
``restore()`` puts every original object back.
"""

from __future__ import annotations

import functools
import gzip
import time
from array import array
from typing import Any, Callable

import numpy as np

#: Span name of the arrival source's ``__next__`` (recorded by the
#: benchmark's own iterator, not by a patch).
WORKLOAD_NEXT = "workload.next"


def layer_targets(api) -> list[tuple[Any, str, str, Callable | None]]:
    """(owner, attribute, span name, unit counter) for every traced layer."""
    scheduler = api.scheduler
    strategy = api.strategy
    arena = api.arena.DeviceMemoryArena
    engine = api.engine.PipelineEngine
    targets: list[tuple[Any, str, str, Callable | None]] = [
        (scheduler.QueryScheduler, "run_stream", "scheduler.run", None),
        (scheduler.QueryScheduler, "run_online", "scheduler.run", None),
        (scheduler, "choose_strategy_name", "planner.choose", None),
        (scheduler, "create_strategy", "strategy.create", None),
        (strategy.PipelinedJoinStrategy, "estimate", "strategy.estimate", None),
        (api.estimate_cache, "make_key", "estimate_cache.make_key", None),
        (api.estimate_cache, "lookup", "estimate_cache.lookup", None),
        (api.calibration.Calibration, "validate", "calibration.validate", None),
        (api.cost.GpuCostModel, "__init__", "cost_model.init", None),
        (arena, "try_reserve", "arena.try_reserve", None),
        (arena, "release", "arena.release", None),
        (arena, "used_bytes", "arena.used_bytes", None),
        (engine, "extend", "engine.extend", _extend_tasks),
        (engine, "compact", "engine.compact", None),
        (engine, "crash", "engine.crash", None),
    ]
    classes = {strategy.strategy_factory(k) for k in strategy.registered_strategies()}
    targets += [
        (cls, "prepare", "strategy.prepare", None)
        for cls in sorted(classes, key=lambda c: c.__qualname__)
        if "prepare" in vars(cls)
    ]
    for registered, create, span in (
        (api.admission.registered_admission_policies, api.admission.create_admission_policy, "admission.select"),
        (api.placement.registered_placement_policies, api.placement.create_placement_policy, "placement.select"),
    ):
        for key in registered():
            cls = type(create(key))
            if "select" in vars(cls):
                targets.append((cls, "select", span, None))
    return targets


def _extend_tasks(args: tuple, kwargs: dict) -> int:
    new_tasks = args[2] if len(args) > 2 else kwargs["new_tasks"]
    return len(new_tasks)


class Tracer:
    """Span recorder plus the patch/restore bookkeeping."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.kind = array("i")
        self.parent = array("i")
        self.tag = array("q")
        self.start = array("d")
        self.end = array("d")
        self.units: dict[str, int] = {}
        self.tag_value = 0
        self._stack = [-1]
        self._patches: list[tuple[Any, str, Any]] = []
        self._next_id = self.span_id(WORKLOAD_NEXT)

    # -- recording ---------------------------------------------------------
    def span_id(self, name: str) -> int:
        sid = self._ids.get(name)
        if sid is None:
            sid = self._ids[name] = len(self.names)
            self.names.append(name)
        return sid

    def call(self, sid: int, fn: Callable, args: tuple, kwargs: dict) -> Any:
        index = len(self.kind)
        self.kind.append(sid)
        self.parent.append(self._stack[-1])
        self.tag.append(self.tag_value)
        self.end.append(0.0)
        self._stack.append(index)
        self.start.append(time.perf_counter())
        try:
            return fn(*args, **kwargs)
        finally:
            self.end[index] = time.perf_counter()
            self._stack.pop()

    def pull(self, next_item: Callable, index: int) -> Any:
        """Hook for the arrival iterator: one ``workload.next`` span per
        pull, and the pulled arrival's index becomes the current tag."""
        item = self.call(self._next_id, next_item, (), {})
        self.tag_value = index
        return item

    # -- patching ----------------------------------------------------------
    def _wrap(self, fn: Callable, name: str, count: Callable | None) -> Callable:
        sid = self.span_id(name)
        call = self.call
        if count is None:

            @functools.wraps(fn)
            def traced(*args, **kwargs):
                return call(sid, fn, args, kwargs)

        else:
            units = self.units
            units.setdefault(name, 0)

            @functools.wraps(fn)
            def traced(*args, **kwargs):
                units[name] += count(args, kwargs)
                return call(sid, fn, args, kwargs)

        return traced

    def patch(self, owner: Any, attr: str, name: str, count: Callable | None = None) -> None:
        original = vars(owner)[attr]
        if isinstance(original, property):
            wrapped: Any = property(
                self._wrap(original.fget, name, count),
                original.fset,
                original.fdel,
                original.__doc__,
            )
        else:
            wrapped = self._wrap(original, name, count)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrapped)

    def install(self, api) -> "Tracer":
        try:
            for owner, attr, name, count in layer_targets(api):
                self.patch(owner, attr, name, count)
        except BaseException:
            self.restore()
            raise
        return self

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    # -- reduction ---------------------------------------------------------
    def reduce(self) -> dict[str, dict[str, float]]:
        """Per span name: ``self_s`` (duration minus the part covered by
        child spans) and ``calls`` (spans not nested directly inside a
        span of the same name, so ``super()`` chains count once)."""
        kind = np.frombuffer(self.kind, dtype=np.intc)
        parent = np.frombuffer(self.parent, dtype=np.intc)
        duration = np.frombuffer(self.end) - np.frombuffer(self.start)
        nested = parent >= 0
        child = np.zeros(len(kind))
        np.add.at(child, parent[nested], duration[nested])
        self_time = duration - child
        parent_kind = np.where(nested, kind[np.where(nested, parent, 0)], -1)
        outer = parent_kind != kind
        out = {}
        for sid, name in enumerate(self.names):
            mask = kind == sid
            out[name] = {
                "self_s": float(self_time[mask].sum()),
                "calls": int((mask & outer).sum()),
            }
        return out

    def write(self, path) -> None:
        """Write every span as gzip'd CSV, times relative to the first."""
        base = self.start[0] if len(self.start) else 0.0
        with gzip.open(path, "wt", compresslevel=1) as out:
            out.write("span,name,start_s,end_s,parent,tag\n")
            for i in range(len(self.kind)):
                out.write(
                    f"{i},{self.names[self.kind[i]]},{self.start[i] - base:.9f},"
                    f"{self.end[i] - base:.9f},{self.parent[i]},{self.tag[i]}\n"
                )
