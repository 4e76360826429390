"""Persistent cache store: the on-disk memory of the cost model.

The analytic cost model re-derives every estimate from scratch in each
process; restart-heavy serving fleets and parallel bench workers pay
that cost again and again for workloads the system has already sized.
This module persists the process-wide estimate, plan and ladder caches
of :mod:`repro.core.estimate_cache` into one append-only file
(``estimate_cache.attach_store``; ``serve --sample-store PATH``), so a
fresh process skips re-estimation for every key an earlier process
already computed — with **bit-identical** results, because cached
values are exact JSON round-trips of what recomputation would produce.

File format (version |VERSION|): UTF-8 JSON lines.  The first line is a
versioned header ``{"format": "repro-kernel-sample-store",
"version": 1}``; every further line is one record tagged by ``kind`` —
``"estimate"`` / ``"ladder"`` / ``"plan"``, a persisted cache entry
keyed by a stable digest of the in-memory cache key.  Appends write
whole lines in a single ``write`` call and new files are created via a
temp file + ``os.replace``, so readers never observe a half-written
header.  A writer killed mid-append can still leave a truncated final
line; :meth:`SampleStore.load` therefore decodes every record when it
loads and *skips* lines that do not decode — truncated JSON, unknown
kinds, malformed payloads — counting them in
:attr:`SampleStore.skipped_records`.  It only raises
:class:`~repro.errors.SampleStoreError` when the header itself is
missing, unparsable, or from an unknown format version.  ``"sample"``
lines (kernel-cost samples that older builds recorded) are dropped
without being counted.

Plan records load one way only, so the version stays 1: this build
ignores the always-empty ``"resources"`` map older builds wrote, but an
older build skips this build's plan records as malformed and recomputes
those plans (no decision changes: a store hit equals recomputation).

Keys and digests: the estimate/plan/ladder cache keys are tuples of
frozen dataclasses (specs, system, calibration, config) whose ``repr``
is deterministic across processes, so ``sha256(repr(key))`` is a stable
cross-process identity.  Keys whose repr embeds a memory address
(exotic custom strategy components) are refused — those entries simply
stay process-local, exactly like unhashable keys bypass the in-memory
cache.

Determinism: persistence never changes decisions.  A warm-started
process (store attached) returns byte-identical metrics, plans and
ladder choices to a cold one, because floats survive the JSON
round-trip exactly; ``tests/core/test_sample_store.py`` proves the
cross-process round-trip and ``tests/serve/test_learned.py`` the
decision identity on served workloads, warm-started from a reloaded
store file included.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Any, Hashable

from repro.core.results import JoinMetrics
from repro.data.spec import Distribution, JoinSpec, RelationSpec
from repro.errors import SampleStoreError
from repro.pipeline.tasks import Task

if TYPE_CHECKING:
    from repro.core.strategy import JoinPlan

#: Format tag and version of the store header line.
FORMAT = "repro-kernel-sample-store"
VERSION = 1


def stable_digest(key: Hashable) -> str | None:
    """A cross-process identity for a cache key, or ``None`` when the
    key has no stable one.

    The digest is ``sha256(repr(key))``: every component of the
    registry strategies' keys is a frozen dataclass, enum, string or
    number, all of which repr deterministically.  A repr that embeds a
    memory address (``<object at 0x...>`` — default object repr of an
    exotic custom component) is process-specific and is refused.
    """
    text = repr(key)
    if " at 0x" in text:
        return None
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:32]


# ---------------------------------------------------------------------------
# Value (de)serialization — exact JSON round-trips of the cached objects
# ---------------------------------------------------------------------------
def _relation_to_dict(rel: RelationSpec) -> dict[str, Any]:
    return {
        "n": rel.n,
        "distinct": rel.distinct,
        "distribution": rel.distribution.value,
        "zipf_s": rel.zipf_s,
        "payload_bytes": rel.payload_bytes,
        "late_payload_bytes": rel.late_payload_bytes,
    }


def _relation_from_dict(data: dict[str, Any]) -> RelationSpec:
    return RelationSpec(
        n=int(data["n"]),
        distinct=None if data["distinct"] is None else int(data["distinct"]),
        distribution=Distribution(data["distribution"]),
        zipf_s=float(data["zipf_s"]),
        payload_bytes=int(data["payload_bytes"]),
        late_payload_bytes=int(data["late_payload_bytes"]),
    )


def spec_to_dict(spec: JoinSpec) -> dict[str, Any]:
    """JSON form of a :class:`~repro.data.spec.JoinSpec` (for plan
    persistence; the frozen dataclass reconstructs equal-by-value)."""
    return {
        "build": _relation_to_dict(spec.build),
        "probe": _relation_to_dict(spec.probe),
        "shared_domain": spec.shared_domain,
        "identical_skew": spec.identical_skew,
    }


def spec_from_dict(data: dict[str, Any]) -> JoinSpec:
    return JoinSpec(
        build=_relation_from_dict(data["build"]),
        probe=_relation_from_dict(data["probe"]),
        shared_domain=bool(data["shared_domain"]),
        identical_skew=bool(data["identical_skew"]),
    )


def metrics_to_dict(metrics: JoinMetrics) -> dict[str, Any]:
    return {
        "strategy": metrics.strategy,
        "seconds": metrics.seconds,
        "total_tuples": metrics.total_tuples,
        "output_tuples": metrics.output_tuples,
        "phases": dict(metrics.phases),
        "pcie_h2d_bytes": metrics.pcie_h2d_bytes,
        "pcie_d2h_bytes": metrics.pcie_d2h_bytes,
        "notes": dict(metrics.notes),
    }


def metrics_from_dict(data: dict[str, Any]) -> JoinMetrics:
    return JoinMetrics(
        strategy=str(data["strategy"]),
        seconds=float(data["seconds"]),
        total_tuples=int(data["total_tuples"]),
        output_tuples=float(data["output_tuples"]),
        phases={str(k): float(v) for k, v in data["phases"].items()},
        pcie_h2d_bytes=float(data["pcie_h2d_bytes"]),
        pcie_d2h_bytes=float(data["pcie_d2h_bytes"]),
        notes={str(k): float(v) for k, v in data["notes"].items()},
    )


def plan_to_dict(plan: "JoinPlan") -> dict[str, Any]:
    return {
        "strategy": plan.strategy,
        "spec": spec_to_dict(plan.spec),
        "tasks": [
            {
                "name": task.name,
                "resource": task.resource,
                "duration": task.duration,
                "deps": list(task.deps),
                "phase": task.phase,
                "available_at": task.available_at,
                "device": task.device,
            }
            for task in plan.tasks
        ],
        "phases": list(plan.phases),
        "matches": plan.matches,
        "materialize": plan.materialize,
        "pcie_h2d_bytes": plan.pcie_h2d_bytes,
        "pcie_d2h_bytes": plan.pcie_d2h_bytes,
        "notes": dict(plan.notes),
    }


def plan_from_dict(data: dict[str, Any]) -> "JoinPlan":
    from repro.core.strategy import JoinPlan  # local: strategy imports us

    return JoinPlan(
        strategy=str(data["strategy"]),
        spec=spec_from_dict(data["spec"]),
        tasks=[
            Task(
                name=str(t["name"]),
                resource=str(t["resource"]),
                duration=float(t["duration"]),
                deps=tuple(str(d) for d in t["deps"]),
                phase=None if t["phase"] is None else str(t["phase"]),
                available_at=float(t["available_at"]),
                device=int(t["device"]),
            )
            for t in data["tasks"]
        ],
        phases=tuple(str(p) for p in data["phases"]),
        matches=float(data["matches"]),
        materialize=bool(data["materialize"]),
        pcie_h2d_bytes=float(data["pcie_h2d_bytes"]),
        pcie_d2h_bytes=float(data["pcie_d2h_bytes"]),
        notes={str(k): float(v) for k, v in data["notes"].items()},
    )


# ---------------------------------------------------------------------------
# The store
# ---------------------------------------------------------------------------
@dataclass
class SampleStore:
    """Append-only store of persisted cache entries.

    ``path=None`` keeps the store purely in memory (``flush`` is then a
    no-op) — used by tests.  With a path, records accumulate in memory
    and :meth:`flush` appends the new ones to the file; use
    :meth:`load` / :meth:`open` to read an existing file.  An
    already-known cache digest is not re-appended, so attaching the
    same store to every run keeps the file's growth proportional to
    *new* knowledge.
    """

    path: str | None = None
    #: Record lines skipped at load: truncated tails, undecodable
    #: lines, unknown kinds and malformed payloads.  Never raises — see
    #: the module docstring.
    skipped_records: int = 0
    _estimates: dict[str, JoinMetrics] = field(default_factory=dict)
    _ladder: dict[str, str] = field(default_factory=dict)
    _plans: "dict[str, JoinPlan]" = field(default_factory=dict)
    _pending: list[dict[str, Any]] = field(default_factory=list)

    # -- loading -------------------------------------------------------
    @classmethod
    def load(cls, path: str) -> "SampleStore":
        """Read an existing store file.

        Raises :class:`~repro.errors.SampleStoreError` for a missing
        file or a corrupt/unknown header; skips (and counts) truncated
        or otherwise undecodable record lines.
        """
        try:
            with open(path, "r", encoding="utf-8") as handle:
                lines = handle.read().split("\n")
        except OSError as exc:
            raise SampleStoreError(f"cannot read sample store {path!r}: {exc}")
        if not lines or not lines[0].strip():
            raise SampleStoreError(f"sample store {path!r} has no header line")
        try:
            header = json.loads(lines[0])
        except json.JSONDecodeError as exc:
            raise SampleStoreError(
                f"sample store {path!r} header is not valid JSON: {exc}"
            )
        if not isinstance(header, dict) or header.get("format") != FORMAT:
            raise SampleStoreError(
                f"sample store {path!r} header does not declare format "
                f"{FORMAT!r}: {header!r}"
            )
        if header.get("version") != VERSION:
            raise SampleStoreError(
                f"sample store {path!r} is format version "
                f"{header.get('version')!r}; this build reads version "
                f"{VERSION}"
            )
        store = cls(path=path)
        for line in lines[1:]:
            if not line.strip():
                continue
            try:
                record = json.loads(line)
                store._ingest(record)
            except (
                json.JSONDecodeError,
                AttributeError,
                KeyError,
                TypeError,
                ValueError,
            ):
                # A crashed writer's truncated tail, or a corrupted
                # line: skip it — the rest of the store stays usable.
                store.skipped_records += 1
        return store

    @classmethod
    def open(cls, path: str) -> "SampleStore":
        """Load ``path`` if it exists, else an empty store bound to it."""
        if os.path.exists(path):
            return cls.load(path)
        return cls(path=path)

    def _ingest(self, record: dict[str, Any]) -> None:
        """Decode one record into the in-memory state (no pending
        write — used while loading).  Raises on malformed records; the
        caller turns that into a skip."""
        kind = record["kind"]
        if kind == "estimate":
            self._estimates[str(record["key"])] = metrics_from_dict(
                record["metrics"]
            )
        elif kind == "ladder":
            self._ladder[str(record["key"])] = str(record["choice"])
        elif kind == "plan":
            self._plans[str(record["key"])] = plan_from_dict(record["plan"])
        elif kind != "sample":  # older builds' kernel samples: dropped
            raise ValueError(f"unknown record kind {kind!r}")

    # -- persisted caches (duck-typed by estimate_cache) ---------------
    def estimate_for_key(self, key: Hashable) -> JoinMetrics | None:
        digest = stable_digest(key)
        if digest is None:
            return None
        return self._estimates.get(digest)

    def remember_estimate(self, key: Hashable, metrics: JoinMetrics) -> None:
        digest = stable_digest(key)
        if digest is None or digest in self._estimates:
            return
        # A copy: the caller may annotate the metrics it was handed.
        self._estimates[digest] = replace(
            metrics, phases=dict(metrics.phases), notes=dict(metrics.notes)
        )
        data = metrics_to_dict(metrics)
        self._pending.append({"kind": "estimate", "key": digest, "metrics": data})

    def ladder_for_key(self, key: Hashable) -> str | None:
        digest = stable_digest(key)
        if digest is None:
            return None
        return self._ladder.get(digest)

    def remember_ladder(self, key: Hashable, choice: str) -> None:
        digest = stable_digest(key)
        if digest is None or digest in self._ladder:
            return
        self._ladder[digest] = choice
        self._pending.append({"kind": "ladder", "key": digest, "choice": choice})

    def plan_for_key(self, key: Hashable) -> "JoinPlan | None":
        digest = stable_digest(key)
        if digest is None:
            return None
        return self._plans.get(digest)

    def remember_plan(self, key: Hashable, plan: "JoinPlan") -> None:
        digest = stable_digest(key)
        if digest is None or digest in self._plans:
            return
        # Plans are shared read-only objects (see estimate_cache), so
        # the store keeps the cached instance itself.
        self._plans[digest] = plan
        data = plan_to_dict(plan)
        self._pending.append({"kind": "plan", "key": digest, "plan": data})

    # -- persistence ---------------------------------------------------
    @property
    def pending_records(self) -> int:
        """Records recorded since the last :meth:`flush`."""
        return len(self._pending)

    @property
    def cached_entries(self) -> tuple[int, int, int]:
        """(estimate, ladder, plan) persisted-cache entry counts."""
        return (len(self._estimates), len(self._ladder), len(self._plans))

    def flush(self) -> int:
        """Append pending records to the file; returns how many were
        written.  Creating a fresh file goes through a temp file +
        ``os.replace`` so a reader never sees a header-less store;
        appends to an existing file write all lines in one call."""
        if self.path is None or not self._pending:
            self._pending.clear()
            return 0
        blob = "".join(
            json.dumps(record, sort_keys=True) + "\n"
            for record in self._pending
        )
        written = len(self._pending)
        if not os.path.exists(self.path):
            header = json.dumps({"format": FORMAT, "version": VERSION})
            tmp = f"{self.path}.tmp.{os.getpid()}"
            with open(tmp, "w", encoding="utf-8") as handle:
                handle.write(header + "\n" + blob)
            os.replace(tmp, self.path)
        else:
            with open(self.path, "a", encoding="utf-8") as handle:
                handle.write(blob)
        self._pending.clear()
        return written

    def summary(self) -> str:
        est, lad, plans = self.cached_entries
        where = self.path if self.path is not None else "<memory>"
        skipped = (
            f", {self.skipped_records} corrupt record(s) skipped"
            if self.skipped_records
            else ""
        )
        return (
            f"{where}: cached {est} estimates, {lad} ladder choices, "
            f"{plans} plans{skipped}"
        )
