"""Persistence contracts of the cache store.

Three anchor properties, matching ``docs/cost_model.md``:

* **Round-trip fidelity** — persisted cache entries survive
  ``flush()`` + ``load()`` exactly, including across a real process
  boundary (a subprocess writes, this process reads);
* **Corruption tolerance** — a truncated, garbled or malformed record
  line (a crashed writer's tail) is *skipped* and counted, never fatal
  and never served, while a missing/corrupt/unknown-version header
  raises the named :class:`~repro.errors.SampleStoreError`;
* **Decision identity** — a warm-started process (store attached to
  the estimate cache) returns bit-identical metrics to a cold one,
  and its store hits are visible in ``stats()``.
"""

import json
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from repro.core import create_strategy, estimate_cache, registered_strategies
from repro.core.sample_store import (
    FORMAT,
    VERSION,
    SampleStore,
    metrics_from_dict,
    metrics_to_dict,
    plan_from_dict,
    plan_to_dict,
    stable_digest,
)
from repro.data import unique_pair
from repro.errors import SampleStoreError

SPEC = unique_pair(32_000_000)


@pytest.fixture(autouse=True)
def detached():
    """Every test starts and ends with no store attached anywhere."""
    estimate_cache.detach_store()
    estimate_cache.clear()
    yield
    estimate_cache.detach_store()
    estimate_cache.clear()


def _estimate_key(spec=SPEC):
    strategy = create_strategy("gpu_resident")
    return estimate_cache.make_key(strategy.cache_fingerprint(), spec, False, {})


def _estimate_record(spec=SPEC) -> dict:
    """The store line ``estimate_cache`` writes through for ``spec``."""
    metrics = create_strategy("gpu_resident").estimate(spec)
    return {
        "kind": "estimate",
        "key": stable_digest(_estimate_key(spec)),
        "metrics": metrics_to_dict(metrics),
    }


# ---------------------------------------------------------------------------
# Round trips
# ---------------------------------------------------------------------------
def test_sample_record_round_trip():
    """An estimate record survives its JSON line exactly: every float of
    the metrics, its phases and its notes, for every registry strategy."""
    for strategy in registered_strategies():
        for materialize in (False, True):
            metrics = create_strategy(strategy).estimate(
                SPEC, materialize=materialize
            )
            record = {
                "kind": "estimate",
                "key": "k",
                "metrics": metrics_to_dict(metrics),
            }
            line = json.dumps(record, sort_keys=True)
            assert metrics_from_dict(json.loads(line)["metrics"]) == metrics


def test_record_sample_deduplicates():
    """A record whose digest the store already holds is not appended
    again, and the first value recorded under a key is the one kept."""
    store = SampleStore()
    store.remember_ladder(("ladder", "k"), "gpu_resident")
    store.remember_ladder(("ladder", "k"), "gpu_resident")
    store.remember_ladder(("ladder", "other"), "streaming")
    assert store.pending_records == 2
    assert store.cached_entries == (0, 2, 0)
    metrics = create_strategy("gpu_resident").estimate(SPEC)
    store.remember_estimate(_estimate_key(), metrics)
    store.remember_estimate(_estimate_key(), replace(metrics, seconds=2.5))
    assert store.pending_records == 3
    assert store.cached_entries == (1, 2, 0)
    assert store.estimate_for_key(_estimate_key()) == metrics


def test_flush_load_round_trip(tmp_path):
    path = str(tmp_path / "store.jsonl")
    store = SampleStore(path=path)
    strategy = create_strategy("gpu_resident")
    key = _estimate_key()
    store.remember_estimate(key, strategy.estimate(SPEC))
    store.remember_ladder(("ladder", "k"), "gpu_resident")
    store.remember_plan(("plan", "k"), strategy.prepare(SPEC))
    assert store.flush() == 3
    assert store.pending_records == 0
    assert store.flush() == 0  # nothing new

    loaded = SampleStore.load(path)
    assert loaded.skipped_records == 0
    assert loaded.cached_entries == (1, 1, 1)
    assert loaded.estimate_for_key(key) == strategy.estimate(SPEC)
    assert loaded.ladder_for_key(("ladder", "k")) == "gpu_resident"
    assert loaded.plan_for_key(("plan", "k")) == strategy.prepare(SPEC)


def test_plan_serialization_round_trip():
    plan = create_strategy("coprocessing").prepare(
        unique_pair(512_000_000), materialize=True
    )
    restored = plan_from_dict(json.loads(json.dumps(plan_to_dict(plan))))
    assert restored == plan


def test_cross_process_round_trip(tmp_path):
    """A store written by another interpreter loads here with identical
    cache entries — the digests really are cross-process."""
    path = tmp_path / "store.jsonl"
    src = Path(__file__).resolve().parents[2] / "src"
    script = (
        "from repro.core import create_strategy, estimate_cache\n"
        "from repro.core.sample_store import SampleStore\n"
        "from repro.data import unique_pair\n"
        f"store = SampleStore(path={str(path)!r})\n"
        "estimate_cache.attach_store(store)\n"
        "spec = unique_pair(32_000_000)\n"
        "metrics = create_strategy('gpu_resident').estimate(spec)\n"
        "estimate_cache.detach_store()\n"
        "store.flush()\n"
        "print(repr(metrics.seconds))\n"
    )
    result = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        env={"PYTHONPATH": str(src)},
        check=True,
    )
    child_seconds = float(result.stdout.strip())

    loaded = SampleStore.load(str(path))
    assert loaded.skipped_records == 0
    # The estimate miss prepared its plan through the plan cache, so the
    # plan was written through too (for the admission that reuses it).
    assert loaded.cached_entries == (1, 0, 1)
    strategy = create_strategy("gpu_resident")
    persisted = loaded.estimate_for_key(_estimate_key())
    assert persisted is not None
    assert persisted.seconds == child_seconds
    # And it agrees bit-for-bit with recomputation in this process.
    assert persisted == strategy.estimate(SPEC)
    plan = loaded.plan_for_key(_estimate_key())
    fresh = strategy.prepare(SPEC)
    assert plan is not None and fresh.tasks
    assert [
        (task.name, task.resource, task.duration, task.deps)
        for task in plan.tasks
    ] == [
        (task.name, task.resource, task.duration, task.deps)
        for task in fresh.tasks
    ]


def test_warm_process_makes_identical_decisions(tmp_path):
    """Cold process records; a simulated warm process (fresh cache,
    loaded store) returns bit-identical metrics while hitting the store."""
    path = str(tmp_path / "store.jsonl")
    store = SampleStore(path=path)
    estimate_cache.attach_store(store)
    cold = create_strategy("coprocessing").estimate(SPEC)
    estimate_cache.detach_store()
    store.flush()

    estimate_cache.clear()  # simulate a fresh process: empty LRU
    estimate_cache.attach_store(SampleStore.load(path))
    warm = create_strategy("coprocessing").estimate(SPEC)
    stats = estimate_cache.stats()
    assert warm == cold
    assert stats.store_hits == 1
    # The store answer was promoted into the LRU: next lookup is a hit.
    create_strategy("coprocessing").estimate(SPEC)
    assert estimate_cache.stats().hits == stats.hits + 1


def test_serve_cli_warm_start_appends_nothing(tmp_path, capsys):
    """A repeat ``serve --sample-store`` run finds every cache entry it
    needs in the store, so it has nothing new to append."""
    from repro.bench.serve_bench import serve_main

    path = str(tmp_path / "samples.jsonl")
    argv = ["--clients", "4", "--sample-store", path]
    assert serve_main(argv) == 0
    cold = capsys.readouterr().out
    assert "0 new record(s) appended" not in cold
    estimate_cache.clear()  # a fresh process starts with an empty LRU
    assert serve_main(argv) == 0
    warm = capsys.readouterr().out
    assert f"sample store {path}: 0 new record(s) appended" in warm
    assert estimate_cache.stats().store_hits > 0


# ---------------------------------------------------------------------------
# Corruption tolerance and the error taxonomy
# ---------------------------------------------------------------------------
def _write_store(tmp_path, *lines: str) -> str:
    path = tmp_path / "store.jsonl"
    header = json.dumps({"format": FORMAT, "version": VERSION})
    path.write_text("\n".join((header,) + lines) + "\n", encoding="utf-8")
    return str(path)


def test_truncated_tail_is_skipped_not_fatal(tmp_path):
    good = json.dumps(_estimate_record())
    truncated = json.dumps(_estimate_record(unique_pair(16_000_000)))[:-9]
    store = SampleStore.load(_write_store(tmp_path, good, truncated))
    assert store.cached_entries == (1, 0, 0)
    assert store.skipped_records == 1
    assert "skipped" in store.summary()


def test_garbled_and_unknown_kind_records_are_skipped(tmp_path):
    analytic = create_strategy("gpu_resident").estimate(SPEC)
    digest = stable_digest(_estimate_key())
    plan = plan_to_dict(create_strategy("gpu_resident").prepare(SPEC))
    del plan["tasks"][0]["duration"]
    listed_phases = dict(metrics_to_dict(analytic), phases=[1, 2])
    store = SampleStore.load(
        _write_store(
            tmp_path,
            "not json at all {{{",
            json.dumps({"kind": "hologram", "x": 1}),
            json.dumps({"kind": "estimate"}),  # missing required fields
            # Valid JSON under a real key, but not a JoinMetrics payload.
            json.dumps(
                {"kind": "estimate", "key": digest, "metrics": {"seconds": 1.0}}
            ),
            json.dumps({"kind": "plan", "key": "p", "plan": plan}),
            json.dumps({"kind": "estimate", "key": "e", "metrics": listed_phases}),
            json.dumps({"kind": "ladder", "key": "k", "choice": "streaming"}),
        )
    )
    assert store.skipped_records == 6
    assert store.cached_entries == (0, 1, 0)
    # The malformed payload was never served: the estimate recomputes.
    estimate_cache.clear()
    estimate_cache.attach_store(store)
    assert create_strategy("gpu_resident").estimate(SPEC) == analytic
    assert estimate_cache.stats().store_hits == 0


def test_sample_lines_of_older_builds_load_without_skips(tmp_path):
    """Version-1 files also hold the kernel-cost ``sample`` lines older
    builds recorded; they are dropped without counting as corrupt, and
    the cache entries beside them still warm-start."""
    legacy = {
        "kind": "sample",
        "strategy": "gpu_resident",
        "fingerprint": "0" * 32,
        "spec": "1" * 32,
        "calibration": "none",
        "features": [1.0, 32.0, 32.0, 0.512, 0.512, 0.0],
        "seconds": 0.0125,
        "materialize": False,
    }
    store = SampleStore.load(
        _write_store(tmp_path, json.dumps(legacy), json.dumps(_estimate_record()))
    )
    assert store.skipped_records == 0
    assert store.cached_entries == (1, 0, 0)
    analytic = create_strategy("gpu_resident").estimate(SPEC)
    estimate_cache.clear()
    estimate_cache.attach_store(store)
    assert create_strategy("gpu_resident").estimate(SPEC) == analytic
    assert estimate_cache.stats().store_hits == 1


def test_plan_records_of_older_builds_load_without_skips(tmp_path):
    """Older builds also wrote each plan's lane-width map, always empty;
    this build writes none, and reads such a record as the plan
    ``prepare`` builds."""
    plan = create_strategy("coprocessing").prepare(unique_pair(512_000_000))
    assert "resources" not in plan_to_dict(plan)
    legacy = dict(plan_to_dict(plan), resources={})
    key = ("plan", "k")
    record = {"kind": "plan", "key": stable_digest(key), "plan": legacy}
    store = SampleStore.load(_write_store(tmp_path, json.dumps(record)))
    assert store.skipped_records == 0
    assert store.plan_for_key(key) == plan


def test_missing_file_raises_sample_store_error(tmp_path):
    with pytest.raises(SampleStoreError):
        SampleStore.load(str(tmp_path / "absent.jsonl"))
    # open() tolerates absence: an empty store bound to the path.
    store = SampleStore.open(str(tmp_path / "absent.jsonl"))
    assert store.cached_entries == (0, 0, 0) and store.path is not None


@pytest.mark.parametrize(
    "header",
    [
        "",  # empty file
        "{broken",  # unparsable header
        json.dumps({"format": "something-else", "version": 1}),
        json.dumps({"format": FORMAT, "version": VERSION + 1}),
        json.dumps(["not", "a", "dict"]),
    ],
)
def test_bad_headers_raise_sample_store_error(tmp_path, header):
    path = tmp_path / "store.jsonl"
    path.write_text(header + "\n" if header else "", encoding="utf-8")
    with pytest.raises(SampleStoreError):
        SampleStore.load(str(path))


def test_flush_creates_file_with_header_atomically(tmp_path):
    path = str(tmp_path / "fresh.jsonl")
    store = SampleStore(path=path)
    store.remember_ladder(("ladder", "k"), "gpu_resident")
    store.flush()
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    assert json.loads(lines[0]) == {"format": FORMAT, "version": VERSION}
    assert len(lines) == 2
    assert not list(Path(path).parent.glob("*.tmp.*"))  # temp cleaned up


def test_in_memory_store_never_touches_disk():
    store = SampleStore()
    store.remember_ladder(("ladder", "k"), "gpu_resident")
    assert store.flush() == 0
    assert store.pending_records == 0


# ---------------------------------------------------------------------------
# Digest stability
# ---------------------------------------------------------------------------
def test_stable_digest_refuses_address_bearing_reprs():
    assert stable_digest(object()) is None  # repr embeds " at 0x..."
    assert stable_digest(("a", 1, 2.5)) is not None
    # Strategy fingerprints are digestible — the whole scheme rests on it.
    assert stable_digest(create_strategy("gpu_resident").cache_fingerprint())


def test_digests_distinguish_specs_and_materialize():
    strategy = create_strategy("gpu_resident")
    keys = {
        stable_digest(
            estimate_cache.make_key(
                strategy.cache_fingerprint(), spec, materialize, {}
            )
        )
        for spec in (SPEC, unique_pair(16_000_000))
        for materialize in (False, True)
    }
    assert len(keys) == 4
