"""Workload statistics — empirical and analytic.

The cost models in :mod:`repro.gpusim.cost` and the join strategies consume
a small set of workload statistics: partition-size histograms, expected
join cardinality, and hash-chain lengths.  Each statistic has two
implementations that are required (and property-tested) to agree:

* *empirical* — computed from materialized key arrays; used by the
  functional ``run()`` paths;
* *analytic* — computed from a :class:`~repro.data.spec.RelationSpec`;
  used by the ``estimate()`` paths at paper scale (up to 2048M tuples).
"""

from __future__ import annotations

import numpy as np

from repro.data import zipf as zipf_mod
from repro.data.spec import Distribution, JoinSpec, RelationSpec
from repro.errors import InvalidConfigError

# ---------------------------------------------------------------------------
# Empirical statistics
# ---------------------------------------------------------------------------


def radix_digit(keys: np.ndarray, bits: int, shift: int = 0) -> np.ndarray:
    """Radix digit of each key: ``(key >> shift) & (2**bits - 1)``."""
    if bits <= 0:
        raise InvalidConfigError("radix digit needs bits >= 1")
    mask = (1 << bits) - 1
    return (keys >> shift) & mask


def radix_histogram(keys: np.ndarray, bits: int, shift: int = 0) -> np.ndarray:
    """Partition-size histogram of one radix pass."""
    return np.bincount(radix_digit(keys, bits, shift), minlength=1 << bits)


def empirical_partition_sizes(keys: np.ndarray, total_bits: int) -> np.ndarray:
    """Final partition sizes after (multi-pass) radix partitioning.

    Multi-pass radix partitioning on successive digit groups is equivalent,
    for *sizes*, to a single pass on the combined low ``total_bits`` bits.
    """
    return radix_histogram(keys, total_bits, shift=0)


# ---------------------------------------------------------------------------
# Analytic statistics
# ---------------------------------------------------------------------------


def _uniform_family(spec: RelationSpec) -> bool:
    """Whether ``spec`` spreads evenly over any radix fanout."""
    return spec.distribution is not Distribution.ZIPF or spec.zipf_s == 0.0


def expected_partition_sizes(spec: RelationSpec, total_bits: int) -> np.ndarray:
    """Expected partition sizes for a relation spec.

    Uniform-family distributions spread evenly.  For Zipf, rank ``r`` maps
    to key ``r`` (see :func:`repro.data.generator._keys_for`), so partition
    ``p`` collects the mass of ranks ``r ≡ p (mod fanout)``: the head ranks
    are accumulated exactly, the near-uniform tail is spread evenly.
    """
    fanout = 1 << total_bits
    if _uniform_family(spec):
        return np.full(fanout, spec.n / fanout, dtype=np.float64)
    head = min(zipf_mod.HEAD_RANKS, spec.distinct)
    pmf = zipf_mod.pmf_head(spec.distinct, spec.zipf_s, head)
    ranks = np.arange(head, dtype=np.int64)
    mass = np.bincount(ranks & (fanout - 1), weights=pmf, minlength=fanout)
    tail_mass = max(0.0, 1.0 - float(pmf.sum()))
    mass += tail_mass / fanout
    return mass * spec.n


def expected_copartition_periods(
    spec: JoinSpec, total_bits: int, period: int
) -> tuple[np.ndarray, np.ndarray, int]:
    """A join's expected co-partition histograms as ``(build period,
    probe period, repeat)``.

    When both sides are uniform-family, each side's
    :func:`expected_partition_sizes` is ``np.tile`` of its first
    ``period`` entries, repeated ``2**total_bits // period`` times, so
    only that period is built.  Otherwise both full histograms come back
    with a repeat of 1.  ``period`` must divide the fanout.
    """
    fanout = 1 << total_bits
    if period < 1 or fanout % period:
        raise InvalidConfigError(
            f"period {period} does not divide the fanout {fanout}"
        )
    build, probe = spec.build, spec.probe
    if _uniform_family(build) and _uniform_family(probe):
        return (
            np.full(period, build.n / fanout, dtype=np.float64),
            np.full(period, probe.n / fanout, dtype=np.float64),
            fanout // period,
        )
    return (
        expected_partition_sizes(build, total_bits),
        expected_partition_sizes(probe, total_bits),
        1,
    )


def expected_max_partition_size(spec: RelationSpec, total_bits: int) -> float:
    """Size of the largest partition — drives the shared-memory fallback."""
    return float(np.max(expected_partition_sizes(spec, total_bits)))


def expected_join_cardinality(spec: JoinSpec) -> float:
    """Expected number of result tuples.

    With independent draws the expectation factorizes per key:
    ``sum_k E[count_build(k)] * E[count_probe(k)]``.  Three regimes follow:

    * neither or only one side Zipf-skewed → ``n_b * n_p / domain``
      (single-side skew does *not* explode the output — the paper's
      Fig 17/18 observation);
    * both sides identically skewed → ``n_b * n_p * sum_k p_k**2``
      (the data-explosion worst case).
    """
    build, probe = spec.build, spec.probe
    if not spec.shared_domain and build.distribution is Distribution.UNIQUE \
            and probe.distribution is Distribution.UNIQUE \
            and build.n != probe.n:
        # Disjoint unique domains only overlap on the smaller prefix.
        return float(min(build.n, probe.n))
    if spec.identical_skew:
        return build.n * probe.n * zipf_mod.sum_pmf_sq(build.distinct, build.zipf_s)
    domain = max(build.distinct, probe.distinct)
    return build.n * probe.n / float(domain)


def expected_matches_per_probe(spec: JoinSpec) -> float:
    """Average number of build matches found per probe tuple."""
    return expected_join_cardinality(spec) / float(spec.probe.n)


# ---------------------------------------------------------------------------
# Hash-chain statistics
# ---------------------------------------------------------------------------


def expected_chain_steps_per_probe(
    build_size: float,
    nslots: int,
    matches_per_probe: float,
) -> float:
    """Expected linked-list nodes visited per probe of a chaining table.

    With ``build_size`` entries uniformly hashed into ``nslots`` slots, a
    probe walks its full slot chain (probes cannot stop early: several keys
    share a slot).  The expected chain length is the load factor, and every
    actual match must be visited as well; we take the max because matched
    nodes are part of the chain.
    """
    if nslots <= 0:
        raise InvalidConfigError("hash table needs nslots >= 1")
    load = build_size / float(nslots)
    return max(load, matches_per_probe, 1.0)


def empirical_chain_steps_per_probe(
    build_slots: np.ndarray,
    probe_slots: np.ndarray,
    nslots: int,
) -> float:
    """Exact expected chain walk length given materialized slot arrays."""
    chain_len = np.bincount(build_slots, minlength=nslots)
    visits = chain_len[probe_slots]
    return float(np.mean(visits)) if probe_slots.size else 0.0
