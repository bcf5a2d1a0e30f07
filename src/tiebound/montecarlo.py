"""Seeded simulation of tie counts and near-order counts.

Each replication costs a fixed number of draws, whatever the sample size n:
both counts are binomial mixtures over a sample extreme, so a sampler draws
the extreme (the maximum through the inverse cdf at U**(1/n), or the
ell-th largest through the log quantile at the log of a Beta(n-ell+1, ell)
variate) and then one binomial count given it.  Sampling therefore no longer goes
through the inverse cdf alone: it also uses numpy's ``binomial`` and
``beta`` generators.  One code path still covers tabulated, geometric,
Gumbel and uniform laws alike.

Streams are keyed by (seed, stream_id) through numpy's SeedSequence
spawning: identical keys reproduce identical draws for a fixed numpy
version (numpy does not promise the ``binomial`` and ``beta`` streams
across releases), and distinct stream ids give statistically independent
streams, so parallel workers can each own stream_id = worker index and
merge their counts in any order.

Replications are drawn in blocks of 8192 (``_CHUNK_ROWS``), so each
per-block float64 temporary takes 64 KB whatever the sample size: blocks
of 65536 rows made these temporaries the largest working set of
``verify``.  With a fixed seed the draws depend on the block size, since
the generators are called once per block.

Precision: U**(1/n), computed as exp(log(U)/n), and a Beta variate near 1
are rounded to about eps, which moves the drawn extreme only when the
variate lies within about n*eps (in probability) of a cdf step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import bounds_continuous
from .approximants import TruncatedPMF
from .distributions import DiscreteLaw
from .errors import DomainError
from .maxima import KnSpec, argmax_value_law, tie_given_max_prob

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

# replications per block: 64 KB per float64 temporary.  Blocks of 1 << 16
# rows set the peak RSS of `verify` at 42.0 MB, against 38.3 MB with these;
# a million draws take about 0.1 s with either size
_CHUNK_ROWS = 1 << 13
_BELOW_ONE = 1.0 - 2.0**-53


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
    """Outcome counts from a simulation; counts sum to sample_size >= 1."""

    k_min: int
    counts: np.ndarray
    sample_size: int

    def __post_init__(self):
        object.__setattr__(self, "counts", np.asarray(self.counts, dtype=np.int64))
        if self.sample_size < 1 or int(self.counts.sum()) != self.sample_size:
            raise DomainError("sample_size must be >= 1 and equal the sum of the counts")

    @classmethod
    def from_samples(cls, samples) -> "EmpiricalPMF":
        samples = np.asarray(samples, dtype=np.int64)
        k_min = int(samples.min()) if samples.size else 0
        counts = np.bincount(samples - k_min)
        return cls(k_min=k_min, counts=counts, sample_size=int(samples.size))

    def frequencies(self) -> np.ndarray:
        return self.counts / self.sample_size


def _discrete_quantile_fn(law: DiscreteLaw):
    """Vectorized inverse cdf, building a lookup table when the law has none.

    The table ends at a ``top`` with F(top) >= 1 - 2**-53 by the tail bound,
    and no double drawn from [0, 1) exceeds 1 - 2**-53, so a draw above the
    table's last entry (which may round low) maps to ``top``.
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
        idx = np.searchsorted(cum, np.asarray(u, dtype=float), side="left")
        out = np.minimum(idx + 1, top).astype(np.int64)
        return out if out.ndim else int(out)

    return quantile


def _replicate(size, draw_rows):
    """Fill replications from ``draw_rows(rows)``, at most _CHUNK_ROWS rows at a time.

    With ``size=None`` returns a single int; otherwise an int64 array of
    that many independent replications.
    """
    scalar = size is None
    size = 1 if scalar else int(size)
    out = np.empty(size, dtype=np.int64)
    for start in range(0, size, _CHUNK_ROWS):
        out[start:start + _CHUNK_ROWS] = draw_rows(min(_CHUNK_ROWS, size - start))
    return int(out[0]) if scalar else out


def _positive_binomial(gen: np.random.Generator, n: int, q: np.ndarray) -> np.ndarray:
    """Bin(n, q) conditioned on being at least 1, one draw per entry of q.

    The first success J has P(J <= j | J <= n) = (1 - (1-q)**j) / (1 - (1-q)**n),
    inverted at a uniform V; the n - J later trials are a plain Bin(n - J, q).
    Exact at q = 1 (J = 1, then n - 1 successes), and one draw per entry
    however small n q is, where rejecting zero draws would take about 1/(n q).
    """
    with np.errstate(divide="ignore"):
        log_miss = np.log1p(-q)  # -inf where q == 1
    hit = -np.expm1(n * log_miss)  # P(Bin(n, q) >= 1)
    first = np.ceil(np.log1p(-gen.random(q.size) * hit) / log_miss)
    first = np.clip(first, 1, n).astype(np.int64)
    return 1 + gen.binomial(n - first, q)


def sample_tie_count(spec: KnSpec, rng: RngStream, size=None):
    """Number of observations tied with the sample maximum.

    Each replication draws the maximum M through the inverse cdf at
    U**(1/n) (the maximum has cdf F**n), then the tie count as a
    Bin(n, q(M)) conditioned on at least one tie.  With ``size=None``
    returns a single int; otherwise an int64 array of that many independent
    replications.
    """
    gen = rng.generator()
    law, n = spec.law, spec.n
    quantile = _discrete_quantile_fn(law)

    def draw_rows(rows):
        # F(j)**n >= U exactly when F(j) >= U**(1/n), with U = 1 - random()
        # in (0, 1]; the cap keeps every quantile finite
        v = np.minimum(np.exp(np.log1p(-gen.random(rows)) / n), _BELOW_ONE)
        return _positive_binomial(gen, n, tie_given_max_prob(law, quantile(v)))

    return _replicate(size, draw_rows)


def sample_size_biased_ties(spec: KnSpec, rng: RngStream, size=None):
    """Draw from the size-biased tie count.

    Samples the argmax value M, then returns one plus a Bin(n - 1, q(M))
    count of the other observations tied with it.
    """
    gen = rng.generator()
    law, n = spec.law, spec.n
    m_quantile = _discrete_quantile_fn(argmax_value_law(spec))

    def draw_rows(rows):
        m = m_quantile(gen.random(rows))
        return 1 + gen.binomial(n - 1, tie_given_max_prob(law, m))

    return _replicate(size, draw_rows)


def sample_near_order_count(spec: bounds_continuous.NearOrderSpec, rng: RngStream, size=None):
    """Count of observations strictly inside (X_(n-ell+1:n) - a, X_(n-ell+1:n)).

    The order statistic itself is not counted (the window is open on both
    sides; with a continuous law ties occur with probability zero).  Each
    replication draws u = F(x) of the order statistic x as a Beta(n-ell+1,
    ell) variate and maps it through ``logquantile(log u)``, then draws the
    count as Bin(n - ell, r_a(x)): the n - ell observations below x are
    independent draws conditioned on lying below it.
    """
    gen = rng.generator()
    n, ell, a = spec.n, spec.ell, spec.a

    def draw_rows(rows):
        with np.errstate(divide="ignore"):  # a draw of 0 has log -inf, and r_a = 1 there
            x = spec.law.logquantile(np.log(gen.beta(n - ell + 1, ell, size=rows)))
        return gen.binomial(n - ell, bounds_continuous.gap_ratio(spec.law, a, x))

    return _replicate(size, draw_rows)


def empirical_tv(emp: EmpiricalPMF, target: TruncatedPMF):
    """Half-L1 distance between empirical frequencies and a truncated target.

    The categories are fixed before sampling: the target's support
    k_min..k_max plus one overflow cell, which pools every outcome outside
    that support and holds the target's missing mass 1 - sum(probs).
    Returns ``(estimate, radius)``.  The radius combines a conservative
    finite-sample deviation bound at confidence 1 - TV_CONFIDENCE_DELTA,

        radius = 1/2 sqrt(2 (d log 2 + log(1/delta)) / N),

    over those d categories, with half of the target's omitted-mass budget.
    Whenever the samples really come from the target, |estimate - true
    distance| <= radius except with probability at most delta.
    """
    idx = np.arange(target.k_min, target.k_max + 1) - emp.k_min
    seen = (idx >= 0) & (idx < emp.counts.size)
    counts = np.zeros(target.probs.size, dtype=np.int64)
    counts[seen] = emp.counts[idx[seen]]
    overflow = (emp.sample_size - int(counts.sum())) / emp.sample_size
    missing = max(0.0, 1.0 - math.fsum(target.probs.tolist()))
    estimate = 0.5 * (float(np.abs(counts / emp.sample_size - target.probs).sum())
                      + abs(overflow - missing))
    categories = target.probs.size + 1
    radius = 0.5 * math.sqrt(
        2.0 * (categories * math.log(2.0) + math.log(1.0 / TV_CONFIDENCE_DELTA))
        / emp.sample_size
    ) + 0.5 * target.tail_mass_bound
    return estimate, radius
