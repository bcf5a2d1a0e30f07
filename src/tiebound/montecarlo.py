"""Seeded simulation of tie counts and near-order counts.

Everything samples through the inverse cdf, so one code path covers
tabulated, geometric, Gumbel and uniform laws alike.  Streams are keyed by
(seed, stream_id) through numpy's SeedSequence spawning: identical keys
reproduce identical draw sequences on every platform, and distinct stream
ids give statistically independent streams, so parallel workers can each
own stream_id = worker index and merge their counts in any order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .approximants import TruncatedPMF
from .bounds_continuous import NearOrderSpec
from .distributions import DiscreteLaw
from .errors import DomainError
from .maxima import KnSpec, argmax_value_law

__all__ = [
    "RngStream",
    "EmpiricalPMF",
    "sample_tie_count",
    "sample_size_biased_ties",
    "sample_near_order_count",
    "empirical_tv",
    "TV_CONFIDENCE_DELTA",
]

# Confidence level used by the empirical TV radius: the radius bounds the
# empirical-vs-true deviation except with probability at most this, via the
# union bound over the 2^d sign patterns of a d-category discrepancy.
TV_CONFIDENCE_DELTA = 1e-4

_CHUNK_CELLS = 4_000_000


@dataclass(frozen=True)
class RngStream:
    """Reproducible random stream keyed by (seed, stream_id)."""

    seed: int
    stream_id: int = 0

    def generator(self) -> np.random.Generator:
        ss = np.random.SeedSequence(entropy=self.seed, spawn_key=(self.stream_id,))
        return np.random.Generator(np.random.PCG64(ss))

    def split(self, count: int) -> list:
        """Streams (seed, 0..count-1) for independent parallel workers."""
        return [RngStream(seed=self.seed, stream_id=i) for i in range(count)]


@dataclass(frozen=True)
class EmpiricalPMF:
    """Outcome counts from a simulation; counts sum to sample_size."""

    k_min: int
    counts: np.ndarray
    sample_size: int

    def __post_init__(self):
        object.__setattr__(self, "counts", np.asarray(self.counts, dtype=np.int64))
        if int(self.counts.sum()) != self.sample_size:
            raise DomainError("counts must sum to sample_size")

    @classmethod
    def from_samples(cls, samples) -> "EmpiricalPMF":
        samples = np.asarray(samples, dtype=np.int64)
        k_min = int(samples.min())
        counts = np.bincount(samples - k_min)
        return cls(k_min=k_min, counts=counts, sample_size=int(samples.size))

    def frequencies(self) -> np.ndarray:
        return self.counts / self.sample_size


def _discrete_quantile_fn(law: DiscreteLaw):
    """Vectorized inverse cdf, building a lookup table when the law has none.

    The table covers all u below 1 - 2**-53 (certified via the tail bound),
    so a double drawn from [0, 1) escapes it only at the last representable
    value; the escape path walks the cdf directly.
    """
    if law.quantile is not None:
        return law.quantile
    if law.support_max is not None:
        top = law.support_max
    else:
        r, c = law.tail_ratio, law.tail_const
        top = int(math.ceil((math.log(2.0**-53) - math.log(c)) / math.log(r)))
        top = max(top, 1)
    cum = np.asarray(law.cdf(np.arange(1, top + 1)), dtype=float)

    def quantile(u):
        u = np.asarray(u, dtype=float)
        idx = np.searchsorted(cum, u, side="left")
        out = (idx + 1).astype(np.int64)
        overflow = idx >= cum.size
        if np.any(overflow):
            for flat in np.flatnonzero(overflow.ravel()):
                uu = u.ravel()[flat]
                j = top
                while law.cdf(j) < uu:
                    j += 1
                out.ravel()[flat] = j
        return out if out.ndim else int(out)

    return quantile


def _replicate(size, n: int, draw_rows):
    """Fill replications from ``draw_rows(rows)``, in chunks of about _CHUNK_CELLS cells.

    With ``size=None`` returns a single int; otherwise an int64 array of
    that many independent replications.
    """
    scalar = size is None
    size = 1 if scalar else int(size)
    out = np.empty(size, dtype=np.int64)
    step = max(1, _CHUNK_CELLS // max(n, 1))
    for start in range(0, size, step):
        out[start:start + step] = draw_rows(min(step, size - start))
    return int(out[0]) if scalar else out


def sample_tie_count(spec: KnSpec, rng: RngStream, size=None):
    """Number of observations tied with the sample maximum.

    Draws n values through the inverse cdf and counts how many equal the
    largest.  With ``size=None`` returns a single int; otherwise an int64
    array of that many independent replications.
    """
    gen = rng.generator()
    quantile = _discrete_quantile_fn(spec.law)

    def draw_rows(rows):
        x = quantile(gen.random((rows, spec.n)))
        return (x == x.max(axis=1)[:, None]).sum(axis=1)

    return _replicate(size, spec.n, draw_rows)


def sample_size_biased_ties(spec: KnSpec, rng: RngStream, size=None):
    """Draw from the size-biased tie count by explicit construction.

    Samples the argmax value M, then n-1 observations from the base law
    conditioned to be at most M (inverse cdf at u * F(M)), and returns one
    plus the number of conditioned draws equal to M.
    """
    gen = rng.generator()
    n = spec.n
    if n == 1:
        return _replicate(size, n, lambda rows: 1)
    m_quantile = _discrete_quantile_fn(argmax_value_law(spec))
    base_quantile = _discrete_quantile_fn(spec.law)

    def draw_rows(rows):
        m = np.asarray(m_quantile(gen.random(rows)), dtype=np.int64)
        f_at_m = np.asarray(spec.law.cdf(m), dtype=float)
        x = base_quantile(gen.random((rows, n - 1)) * f_at_m[:, None])
        return 1 + (x == m[:, None]).sum(axis=1)

    return _replicate(size, n, draw_rows)


def sample_near_order_count(spec: NearOrderSpec, rng: RngStream, size=None):
    """Count of observations strictly inside (X_(n-ell+1:n) - a, X_(n-ell+1:n)).

    The order statistic itself is not counted (the window is open on both
    sides; with a continuous law ties occur with probability zero).
    """
    if spec.law.quantile is None:
        raise DomainError("continuous law needs a quantile function for sampling")
    gen = rng.generator()
    n, ell, a = spec.n, spec.ell, spec.a

    def draw_rows(rows):
        x = np.asarray(spec.law.quantile(gen.random((rows, n))), dtype=float)
        order = np.sort(x, axis=1)[:, n - ell]
        return ((x > (order - a)[:, None]) & (x < order[:, None])).sum(axis=1)

    return _replicate(size, n, draw_rows)


def empirical_tv(emp: EmpiricalPMF, target: TruncatedPMF):
    """Half-L1 distance between empirical frequencies and a truncated target.

    Returns ``(estimate, radius)``.  The radius combines a conservative
    finite-sample deviation bound at confidence 1 - TV_CONFIDENCE_DELTA,

        radius = 1/2 sqrt(2 (d log 2 + log(1/delta)) / N),

    over d outcome categories (the aligned support plus one overflow cell),
    with half of the target's omitted-mass budget.  Whenever the samples
    really come from the target, |estimate - true distance| <= radius except
    with probability at most delta.
    """
    if emp.sample_size <= 0:
        raise DomainError("sample_size must be positive")
    k_lo = min(emp.k_min, target.k_min)
    k_hi = max(emp.k_min + emp.counts.size - 1, target.k_max)
    span = k_hi - k_lo + 1
    f = np.zeros(span)
    q = np.zeros(span)
    f[emp.k_min - k_lo: emp.k_min - k_lo + emp.counts.size] = emp.frequencies()
    q[target.k_min - k_lo: target.k_min - k_lo + target.probs.size] = target.probs
    estimate = 0.5 * float(np.abs(f - q).sum())
    categories = span + 1
    radius = 0.5 * math.sqrt(
        2.0 * (categories * math.log(2.0) + math.log(1.0 / TV_CONFIDENCE_DELTA))
        / emp.sample_size
    ) + 0.5 * target.tail_mass_bound
    return estimate, radius
