"""Analytic workload descriptions.

A :class:`RelationSpec` describes a relation by its statistical properties
instead of materialized arrays.  The cost models consume these descriptions
directly, which is how the benchmark harness reproduces the paper's
experiments at sizes (up to 2048 million tuples, §V-C) that cannot be
materialized in this environment.  The same specs drive the data
generators, so every spec can also be materialized at small scale and the
analytic statistics checked against empirical ones (see
``tests/data/test_stats.py``).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, replace

from repro.data.relation import DEFAULT_PAYLOAD_BYTES, KEY_BYTES
from repro.errors import InvalidConfigError
from repro.frozen import cached_hash


class Distribution(enum.Enum):
    """Key distribution families used in the paper's evaluation."""

    #: Unique keys, uniformly shuffled (the base microbenchmark, §V-A).
    UNIQUE = "unique"
    #: Keys drawn uniformly from a fixed domain (duplicates allowed, Fig 19).
    UNIFORM = "uniform"
    #: Zipf-distributed keys (Figs 17, 18, 20).
    ZIPF = "zipf"


@cached_hash
@dataclass(frozen=True)
class RelationSpec:
    """Statistical description of one relation.

    Parameters
    ----------
    n:
        Number of tuples.
    distinct:
        Size of the key domain the tuples are drawn from.  For
        :attr:`Distribution.UNIQUE` this must equal ``n``.
    distribution:
        Key distribution family.
    zipf_s:
        Zipf exponent; only meaningful for :attr:`Distribution.ZIPF`.
        ``zipf_s == 0`` degenerates to uniform.
    payload_bytes / late_payload_bytes:
        Modelled payload widths, as in :class:`repro.data.Relation`.
    """

    n: int
    distinct: int | None = None
    distribution: Distribution = Distribution.UNIQUE
    zipf_s: float = 0.0
    payload_bytes: int = DEFAULT_PAYLOAD_BYTES
    late_payload_bytes: int = 0

    def __post_init__(self) -> None:
        if self.n <= 0:
            raise InvalidConfigError(f"relation size must be positive, got {self.n}")
        distinct = self.distinct if self.distinct is not None else self.n
        object.__setattr__(self, "distinct", distinct)
        if distinct <= 0:
            raise InvalidConfigError("key domain size must be positive")
        if self.distribution is Distribution.UNIQUE and distinct != self.n:
            raise InvalidConfigError(
                "UNIQUE relations must have distinct == n "
                f"(got distinct={distinct}, n={self.n})"
            )
        if self.distribution is Distribution.ZIPF and self.zipf_s < 0:
            raise InvalidConfigError("zipf exponent must be non-negative")
        if self.payload_bytes < 0 or self.late_payload_bytes < 0:
            raise InvalidConfigError("payload widths must be non-negative")

    # ------------------------------------------------------------------
    @property
    def tuple_bytes(self) -> int:
        """Modelled tuple width as it flows through the join."""
        return KEY_BYTES + self.payload_bytes

    @property
    def nbytes(self) -> int:
        """Modelled size of the join columns."""
        return self.n * self.tuple_bytes

    @property
    def avg_multiplicity(self) -> float:
        """Average number of tuples per distinct key."""
        return self.n / float(self.distinct)

    def scaled(self, n: int) -> "RelationSpec":
        """Same distribution, different cardinality.

        The key domain scales proportionally so that multiplicity (and thus
        match counts per probe) is preserved — this mirrors the paper's
        sweeps, which grow both relations while keeping the distinct-value
        relationship fixed.
        """
        if self.distribution is Distribution.UNIQUE:
            return replace(self, n=n, distinct=n)
        ratio = self.distinct / self.n
        return replace(self, n=n, distinct=max(1, round(n * ratio)))

    def with_payload(
        self, payload_bytes: int | None = None, late_payload_bytes: int | None = None
    ) -> "RelationSpec":
        """Copy with different payload widths (Figures 9 and 10)."""
        return replace(
            self,
            payload_bytes=self.payload_bytes if payload_bytes is None else payload_bytes,
            late_payload_bytes=(
                self.late_payload_bytes
                if late_payload_bytes is None
                else late_payload_bytes
            ),
        )


@cached_hash
@dataclass(frozen=True)
class JoinSpec:
    """Statistical description of a two-relation equi-join workload.

    ``shared_domain`` declares that probe keys are drawn from the build
    relation's key domain, which is how the paper keeps the set of distinct
    values constant while varying the probe size (Figs 8, 11): every probe
    tuple then finds at least one match.
    """

    build: RelationSpec
    probe: RelationSpec
    shared_domain: bool = True
    #: Both sides identically skewed with the same popular values
    #: (the paper's worst case, Figs 17, 18, 20).
    identical_skew: bool = False

    def __post_init__(self) -> None:
        if self.identical_skew:
            if self.build.distribution is not Distribution.ZIPF:
                raise InvalidConfigError(
                    "identical_skew requires zipf-distributed inputs"
                )
            if self.build.distinct != self.probe.distinct:
                raise InvalidConfigError(
                    "identical_skew requires equal key domains"
                )

    @property
    def total_tuples(self) -> int:
        """Combined input cardinality — the denominator of the paper's
        throughput metric (§V-A)."""
        return self.build.n + self.probe.n

    @property
    def total_bytes(self) -> int:
        return self.build.nbytes + self.probe.nbytes

    def scaled(self, build_n: int, probe_n: int | None = None) -> "JoinSpec":
        """Scale both sides, preserving the build:probe ratio by default."""
        if probe_n is None:
            probe_n = round(build_n * self.probe.n / self.build.n)
        return JoinSpec(
            build=self.build.scaled(build_n),
            probe=self.probe.scaled(probe_n),
            shared_domain=self.shared_domain,
            identical_skew=self.identical_skew,
        )


def unique_pair(
    build_n: int,
    probe_n: int | None = None,
    *,
    payload_bytes: int = DEFAULT_PAYLOAD_BYTES,
) -> JoinSpec:
    """The paper's base microbenchmark: unique uniform build keys, probe
    keys drawn from the same domain (1:1 when ``probe_n`` is omitted)."""
    probe_n = build_n if probe_n is None else probe_n
    build = RelationSpec(n=build_n, payload_bytes=payload_bytes)
    if probe_n == build_n:
        probe = RelationSpec(n=probe_n, payload_bytes=payload_bytes)
    else:
        probe = RelationSpec(
            n=probe_n,
            distinct=build_n,
            distribution=Distribution.UNIFORM,
            payload_bytes=payload_bytes,
        )
    return JoinSpec(build=build, probe=probe)


def zipf_pair(
    n: int,
    zipf_s: float,
    *,
    skew_side: str = "both",
    probe_n: int | None = None,
) -> JoinSpec:
    """Skewed workloads of Figures 17, 18 and 20.

    ``skew_side`` selects which input is zipf-distributed: ``"probe"``,
    ``"build"``, or ``"both"`` (identical skew, same popular values — the
    paper's worst case).
    """
    if skew_side not in ("probe", "build", "both"):
        raise InvalidConfigError(f"unknown skew side: {skew_side!r}")
    probe_n = n if probe_n is None else probe_n
    uniform = lambda m: RelationSpec(  # noqa: E731 - local shorthand
        n=m, distinct=n, distribution=Distribution.UNIFORM
    )
    zipf = lambda m: RelationSpec(  # noqa: E731
        n=m, distinct=n, distribution=Distribution.ZIPF, zipf_s=zipf_s
    )
    if zipf_s == 0.0:
        return JoinSpec(build=uniform(n), probe=uniform(probe_n))
    if skew_side == "probe":
        return JoinSpec(build=RelationSpec(n=n), probe=zipf(probe_n))
    if skew_side == "build":
        return JoinSpec(build=zipf(n), probe=uniform(probe_n))
    return JoinSpec(build=zipf(n), probe=zipf(probe_n), identical_skew=True)


def replicated_pair(n: int, replicas: int) -> JoinSpec:
    """Uniform duplicates with a fixed average multiplicity (Figure 19)."""
    if replicas < 1:
        raise InvalidConfigError("replicas must be >= 1")
    distinct = max(1, n // replicas)
    rel = RelationSpec(n=n, distinct=distinct, distribution=Distribution.UNIFORM)
    return JoinSpec(build=rel, probe=rel)
