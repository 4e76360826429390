"""The cached-hash contract of the frozen value types behind cache keys.

Every estimate, plan and ladder cache key, and every admission-profile
key of the serving scheduler, is built from these eight types.  Their cached ``__hash__`` must be indistinguishable from
the one ``@dataclass(frozen=True)`` generates — same value, so dict and
set orders cannot change — and invisible everywhere else.
"""

import copy
import pickle
from dataclasses import asdict, dataclass, fields, replace

import pytest

from repro.core import create_strategy, estimate_cache
from repro.core.config import GpuJoinConfig
from repro.core.sample_store import stable_digest
from repro.data.spec import Distribution, JoinSpec, RelationSpec, unique_pair
from repro.frozen import cached_hash
from repro.gpusim.calibration import Calibration, calibration_preset
from repro.gpusim.spec import (
    CpuSpec,
    GpuSpec,
    InterconnectSpec,
    SystemSpec,
    v100_system,
)

#: type -> (factory of a non-default instance, a field change for replace()).
CASES = {
    RelationSpec: (
        lambda: RelationSpec(
            n=1000, distinct=100, distribution=Distribution.ZIPF, zipf_s=0.9
        ),
        {"n": 2000},
    ),
    JoinSpec: (lambda: unique_pair(1000, 4000), {"shared_domain": False}),
    GpuSpec: (lambda: GpuSpec(num_sms=40), {"num_sms": 80}),
    CpuSpec: (lambda: CpuSpec(sockets=1), {"sockets": 4}),
    InterconnectSpec: (
        lambda: InterconnectSpec(pinned_bandwidth=20e9),
        {"pinned_bandwidth": 30e9},
    ),
    SystemSpec: (v100_system, {"cpu": CpuSpec(sockets=1)}),
    Calibration: (
        lambda: calibration_preset("slow"),
        {"lane_ops_insert": 30.0},
    ),
    GpuJoinConfig: (lambda: GpuJoinConfig(ht_slots=1024), {"ht_slots": 512}),
}

#: ``stable_digest`` of the key in ``test_sample_store_digest_unchanged``,
#: recorded before the hashes were cached.
FIXED_KEY_DIGEST = "2345de1276d01b75569fa65ab22efcbe"

params = pytest.mark.parametrize(
    "cls", list(CASES), ids=[cls.__name__ for cls in CASES]
)


def field_tuple_hash(x) -> int:
    return hash(tuple(getattr(x, f.name) for f in fields(x)))


@params
def test_hash_is_the_generated_field_tuple_hash(cls):
    x = CASES[cls][0]()
    assert type(x) is cls
    assert hash(x) == field_tuple_hash(x)
    assert hash(x) == field_tuple_hash(x)  # served from the cache


@params
def test_equal_distinct_instances_hash_equal(cls):
    x = CASES[cls][0]()
    hash(x)
    twin = replace(x)
    assert twin is not x
    assert twin == x
    assert hash(twin) == hash(x)
    assert len({x, twin}) == 1


@params
def test_replace_yields_a_fresh_correct_hash(cls):
    factory, change = CASES[cls]
    x = factory()
    old = hash(x)
    changed = replace(x, **change)
    assert changed != x
    assert hash(changed) == field_tuple_hash(changed)
    assert hash(changed) != old


@params
def test_cache_invisible_to_fields_repr_eq_asdict(cls):
    x = CASES[cls][0]()
    fresh = replace(x)
    before = (repr(x), asdict(x), [f.name for f in fields(x)])
    hash(x)
    assert (repr(x), asdict(x), [f.name for f in fields(x)]) == before
    assert repr(x) == repr(fresh)
    assert x == fresh and fresh == x


@params
def test_pickle_and_copy_carry_no_cached_hash(cls):
    x = CASES[cls][0]()
    hash(x)
    for clone in (pickle.loads(pickle.dumps(x)), copy.copy(x), copy.deepcopy(x)):
        assert clone == x
        # Only the field values travel: a string hash is salted per
        # process, so a cached one would be wrong in another process.
        assert set(vars(clone)) == {f.name for f in fields(clone)}
        assert hash(clone) == hash(x)


def test_sample_store_digest_unchanged():
    strategy = create_strategy(
        "gpu_resident", calibration=calibration_preset("fast")
    )
    key = estimate_cache.make_key(
        strategy.cache_fingerprint(), unique_pair(1_000_000, 4_000_000), False, {}
    )
    hash(key)  # caches the hash of every value object inside the key
    assert stable_digest(key) == FIXED_KEY_DIGEST


def test_only_frozen_dataclasses_qualify():
    @dataclass
    class Mutable:
        x: int = 0

    with pytest.raises(TypeError, match="frozen"):
        cached_hash(Mutable)
    with pytest.raises(TypeError, match="frozen"):
        cached_hash(int)
