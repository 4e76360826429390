"""Cached hashing for the frozen value types behind every cache key.

The estimate, plan and ladder caches and the serving scheduler's
per-run admission profiles key on tuples of frozen dataclasses (specs,
calibrations, configs).  The ``__hash__`` that
``@dataclass(frozen=True)`` generates re-hashes every field on every
call, recursing into nested specs, so a hot serving loop spends a large
share of its time re-deriving hashes of objects that can never change.

:func:`cached_hash` swaps in one shared ``__hash__`` that computes the
generated hash — ``hash`` of the tuple of hashed field values, so dict
and set iteration orders are exactly as before — once per instance and
keeps it in an instance attribute.  The cached value is not a
dataclass field, so ``fields()``, ``repr``, ``==``, ``asdict`` and the
sample store's ``repr``-based digests never see it.  It is dropped on
pickling and copying: string hashes are salted per process, so a hash
carried into another process would be wrong there.
"""

from __future__ import annotations

from dataclasses import fields

#: Name of the instance attribute holding the cached hash.
_SLOT = "_cached_hash"


def _hash(self) -> int:
    # An attribute read and ``object.__setattr__`` keep the instance's
    # attributes in CPython's inline values; touching ``self.__dict__``
    # would build the dict and slow every later attribute read.
    try:
        return self._cached_hash
    except AttributeError:
        value = hash(tuple(getattr(self, name) for name in self._hash_fields))
        object.__setattr__(self, _SLOT, value)
        return value


def _getstate(self) -> dict:
    state = dict(self.__dict__)
    state.pop(_SLOT, None)
    return state


def cached_hash(cls: type) -> type:
    """Class decorator for a frozen dataclass: cache its generated hash.

    Apply it above ``@dataclass(frozen=True)``.  Only frozen classes
    qualify — a mutable instance could change after its hash was cached.
    """
    params = getattr(cls, "__dataclass_params__", None)
    if params is None or not params.frozen:
        raise TypeError(f"{cls.__name__} must be a frozen dataclass")
    cls._hash_fields = tuple(
        f.name
        for f in fields(cls)
        if (f.compare if f.hash is None else f.hash)
    )
    cls.__hash__ = _hash
    cls.__getstate__ = _getstate
    return cls
