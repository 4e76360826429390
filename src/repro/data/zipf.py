"""Zipf-distributed key generation and analytic moments.

The paper's skew experiments (Figs 17, 18, 20) draw keys from a Zipf
distribution over a finite domain of ``n`` ranks with exponent ``s`` in
``[0, 1]``.  Two facilities live here:

* :func:`sample` — draws keys.  For small domains it inverts the exact CDF;
  for large domains it uses a hybrid scheme (exact head + continuous-tail
  inversion) so that sampling stays O(size · log head) with bounded memory.
* analytic moments (:func:`harmonic`, :func:`sum_pmf_sq`, :func:`pmf_head`)
  — consumed by :mod:`repro.data.stats` to predict partition histograms and
  join cardinalities at paper scale without materializing data.

Both facilities are memoized per ``(n, s)``: the moments are pure and the
exact/head CDFs are deterministic arrays, yet every skewed estimate and
every sampled workload used to re-derive them from scratch — for the
exact sampler that was a fresh up-to-4M-element power/cumsum per call.
Cached arrays are returned *read-only* (and shared), so accidental
mutation by a caller raises instead of corrupting later lookups.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from repro.errors import InvalidConfigError

#: Domain size up to which the exact CDF is materialized for sampling.
_EXACT_LIMIT = 1 << 22

#: Number of head ranks handled exactly in the hybrid sampler and in the
#: analytic statistics.  The head captures virtually all of the skew; the
#: tail is nearly uniform and is integrated continuously.
HEAD_RANKS = 1 << 16


@lru_cache(maxsize=None)
def harmonic(n: int, s: float) -> float:
    """Generalized harmonic number ``H(n, s) = sum_{k=1..n} k**-s``.

    Exact summation for small ``n``; midpoint-rule integration of the tail
    beyond :data:`HEAD_RANKS` otherwise (relative error < 1e-6 for the
    exponents used in the paper).  Memoized: the exact branch sums an
    up-to-2^22-element array, and the statistics re-ask for the same
    ``(n, s)`` on every skewed estimate.
    """
    if n <= 0:
        raise InvalidConfigError("harmonic() requires n >= 1")
    if s == 0.0:
        return float(n)
    if n <= _EXACT_LIMIT:
        return float(np.sum(np.arange(1, n + 1, dtype=np.float64) ** -s))
    head = float(np.sum(np.arange(1, HEAD_RANKS + 1, dtype=np.float64) ** -s))
    return head + _tail_integral(HEAD_RANKS, n, s)


def _tail_integral(k: int, n: int, s: float) -> float:
    """Midpoint approximation of ``sum_{j=k+1..n} j**-s``."""
    lo, hi = k + 0.5, n + 0.5
    if s == 1.0:
        return float(np.log(hi / lo))
    return float((hi ** (1.0 - s) - lo ** (1.0 - s)) / (1.0 - s))


@lru_cache(maxsize=128)
def _pmf_head_cached(n: int, s: float, head: int) -> np.ndarray:
    ranks = np.arange(1, head + 1, dtype=np.float64)
    pmf = ranks ** -s / harmonic(n, s)
    pmf.setflags(write=False)
    return pmf


def pmf_head(n: int, s: float, head: int = HEAD_RANKS) -> np.ndarray:
    """Exact probabilities of the ``head`` most popular ranks.

    Returns a shared **read-only** array (memoized per ``(n, s, head)``);
    copy before mutating.
    """
    return _pmf_head_cached(n, s, min(head, n))


def sum_pmf_sq(n: int, s: float) -> float:
    """``sum_k p_k**2`` — the key collision probability.

    For two relations with identical skew and the same popular values, the
    expected join cardinality is ``N_build * N_probe * sum_pmf_sq`` (the
    "data explosion" of Figs 17, 18 and 20).
    """
    if s == 0.0:
        return 1.0 / n
    h1 = harmonic(n, s)
    h2 = harmonic(n, 2.0 * s)
    return h2 / (h1 * h1)


def sample(
    n: int,
    s: float,
    size: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """Draw ``size`` Zipf(s) ranks in ``[0, n)`` (0-based, rank 0 most popular).

    Ranks are returned *unscrambled*; callers that need popular values
    spread over the key domain apply their own bijection.  The relation
    generator (:func:`repro.data.generator.generate_relation`) uses
    rank ``r`` as key ``r``.
    """
    if n <= 0 or size < 0:
        raise InvalidConfigError("sample() requires n >= 1 and size >= 0")
    if s == 0.0:
        return rng.integers(0, n, size=size, dtype=np.int64)
    if n <= _EXACT_LIMIT:
        u = rng.random(size)
        return np.searchsorted(_exact_cdf(n, s), u, side="left").astype(np.int64)
    return _sample_hybrid(n, s, size, rng)


#: Exact-CDF memo for the small-domain sampler.  Entries are up to 32 MB
#: (2^22 float64), so the cache is kept small and FIFO-evicted; skewed
#: workload generation cycles through a handful of ``(n, s)`` pairs.
_EXACT_CDF_CACHE: dict[tuple[int, float], np.ndarray] = {}
_EXACT_CDF_CACHE_MAX = 8


def _exact_cdf(n: int, s: float) -> np.ndarray:
    """The (read-only, memoized) exact Zipf CDF over ``n`` ranks."""
    key = (n, s)
    cdf = _EXACT_CDF_CACHE.get(key)
    if cdf is None:
        pmf = np.arange(1, n + 1, dtype=np.float64) ** -s
        cdf = np.cumsum(pmf)
        cdf /= cdf[-1]
        cdf.setflags(write=False)
        if len(_EXACT_CDF_CACHE) >= _EXACT_CDF_CACHE_MAX:
            _EXACT_CDF_CACHE.pop(next(iter(_EXACT_CDF_CACHE)))
        _EXACT_CDF_CACHE[key] = cdf
    return cdf


@lru_cache(maxsize=32)
def _hybrid_head_cdf(n: int, s: float) -> np.ndarray:
    """Read-only, memoized CDF of the exact head of the hybrid sampler."""
    pmf = np.arange(1, HEAD_RANKS + 1, dtype=np.float64) ** -s / harmonic(n, s)
    cdf = np.cumsum(pmf)
    cdf.setflags(write=False)
    return cdf


def _sample_hybrid(
    n: int, s: float, size: int, rng: np.random.Generator
) -> np.ndarray:
    """Exact head + continuous tail inversion for very large domains."""
    h_n = harmonic(n, s)
    head = HEAD_RANKS
    cdf_head = _hybrid_head_cdf(n, s)
    head_mass = cdf_head[-1]

    u = rng.random(size)
    out = np.empty(size, dtype=np.int64)

    in_head = u < head_mass
    out[in_head] = np.searchsorted(cdf_head, u[in_head], side="left")

    # Invert the continuous tail CDF:  integral_{head+0.5}^{x} t**-s dt.
    residual = (u[~in_head] - head_mass) * h_n
    lo = head + 0.5
    if s == 1.0:
        x = lo * np.exp(residual)
    else:
        x = (lo ** (1.0 - s) + residual * (1.0 - s)) ** (1.0 / (1.0 - s))
    # floor(x + 0.5) recovers the 1-based rank; convert to 0-based.
    ranks = np.clip(np.floor(x + 0.5).astype(np.int64) - 1, head, n - 1)
    out[~in_head] = ranks
    return out
