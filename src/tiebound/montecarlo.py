"""Seeded simulation of tie counts and near-order counts.

Each replication costs a fixed number of draws, whatever the sample size n:
both counts are binomial mixtures over a sample extreme, so a sampler draws
the extreme (the maximum through the inverse cdf at U**(1/n), or the
ell-th largest through the log quantile at the log of a Beta(n-ell+1, ell)
variate) and then one binomial count given it.

Two generators serve the runs, each keyed by (seed, stream_id):

* A ``ties`` run of a geometric law (one that ``takes_range`` and sets
  ``lattice_rate``) of at most one block whose expected work, size times
  1 + E[K] with E[K] from the closed form's main term, is within
  ``_PYTHON_WORK`` is drawn in plain Python from ``random.Random``
  (``RngStream.python_random``), through the law's own ``quantile``,
  ``pmf`` and ``logcdf`` on Python numbers and a binomial inversion, so it
  never imports numpy.  The Mersenne Twister and its string seeding are
  fixed across Python releases, so such a key reproduces its draws on
  every Python and platform, up to the last bit of ``math``'s functions.
* Every other run, longer ``ties`` runs and every ``size-biased`` and
  ``near-order`` run included, is drawn from numpy's PCG64 through
  SeedSequence spawning (``RngStream.generator``), with numpy's
  ``binomial`` and ``beta`` generators.  Such a key reproduces its draws
  for a fixed numpy version (numpy does not promise the ``binomial`` and
  ``beta`` streams across releases).

The generator is chosen once per run, from the law and the run's size, so
``sample_tie_count`` and ``empirical_law`` draw the same values for the same
spec, key and size.  Distinct stream ids give statistically independent
streams on either path, so parallel workers can each own stream_id = worker
index and merge their counts in any order.

Replications are drawn in blocks of 8192 (``_CHUNK_ROWS``), so each
per-block float64 temporary takes 64 KB whatever the sample size: blocks
of 65536 rows made these temporaries the largest working set of
``verify``.  With a fixed seed the draws depend on the block size, since
the generators are called once per block.  ``empirical_law`` tallies each
block as it is drawn and keeps only the counts, so its memory is
O(support + block) whatever the sample size, where the ``sample_*``
functions return every draw: ``simulate --p 0.2 --n 20`` at 1e7 draws peaks
at 36 MB through the tally, against 189 MB holding the draws.

Precision: U**(1/n), computed as exp(log(U)/n), and a Beta variate near 1
are rounded to about eps, which moves the drawn extreme only when the
variate lies within about n*eps (in probability) of a cdf step.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

from . import bounds_continuous
from ._numpy import np
from .approximants import TruncatedPMF, _dense
from .distributions import DiscreteLaw
from .errors import DomainError, TruncationError
from .maxima import _SERIES_CAP, KnSpec, _tail_end, argmax_value_law, tie_given_max_prob

__all__ = [
    "RngStream",
    "EmpiricalPMF",
    "sample_tie_count",
    "sample_size_biased_ties",
    "sample_near_order_count",
    "empirical_law",
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
# the largest expected work, replications times (1 + E[K]), of a `ties` run drawn
# in plain Python.  Such a run takes at most about 40 ms on a shared 2-vCPU VM (8192
# draws took 19-36 ms at E[K] near 1, 39 ms near 4), where numpy's import took 110-160 ms
_PYTHON_WORK = 1 << 15
# a binomial inversion walks chunks of trials whose P(0) = (1-q)**trials stays above e**-700
_LOG_FLOOR = -700.0


@dataclass(frozen=True)
class RngStream:
    """Reproducible random stream keyed by (seed, stream_id)."""

    seed: int
    stream_id: int = 0

    def generator(self) -> np.random.Generator:
        """numpy's PCG64 stream of this key, through SeedSequence spawning."""
        ss = np.random.SeedSequence(entropy=self.seed, spawn_key=(self.stream_id,))
        return np.random.Generator(np.random.PCG64(ss))

    def python_random(self) -> random.Random:
        """The Mersenne Twister of this key, for runs drawn in plain Python; the key
        string is hashed by SHA-512, so distinct keys seed distinct states."""
        return random.Random(f"{self.seed}:{self.stream_id}")

    def split(self, count: int) -> list:
        """Streams (seed, 0..count-1) for independent parallel workers."""
        return [RngStream(seed=self.seed, stream_id=i) for i in range(count)]


@dataclass(frozen=True)
class EmpiricalPMF:
    """Outcome counts from a simulation, a tuple of ints that sums to sample_size >= 1."""

    k_min: int
    counts: tuple
    sample_size: int

    def __post_init__(self):
        object.__setattr__(self, "counts", tuple(int(c) for c in self.counts))
        if self.sample_size < 1 or sum(self.counts) != self.sample_size:
            raise DomainError("sample_size must be >= 1 and equal the sum of the counts")

    @classmethod
    def from_samples(cls, samples) -> "EmpiricalPMF":
        samples = np.asarray(samples, dtype=np.int64)
        k_min = int(samples.min()) if samples.size else 0
        counts = np.bincount(samples - k_min).tolist()
        return cls(k_min=k_min, counts=counts, sample_size=int(samples.size))

    def frequencies(self) -> tuple:
        return tuple(c / self.sample_size for c in self.counts)


def _discrete_quantile_fn(law: DiscreteLaw):
    """Vectorized inverse cdf, building a lookup table when the law has none.

    The table ends at the first ``top`` with F(top) >= 1 - 2**-53 by the law's
    ``log_tail`` (at m for a law on {1, ..., m}), and no double drawn from
    [0, 1) exceeds 1 - 2**-53, so a draw above the table's last entry (which
    may round low) maps to ``top``.  Raises :class:`TruncationError` before
    building anything when ``top`` exceeds ``maxima._SERIES_CAP``, the cap of
    the series and the mixture laws.
    """
    if law.quantile is not None:
        return law.quantile
    top = _tail_end(law, math.log(2.0**-53))
    if top > _SERIES_CAP:
        raise TruncationError(f"quantile table would exceed {_SERIES_CAP} entries",
                              best_bound=math.exp(law.log_tail(_SERIES_CAP)))
    cum = np.exp(law.logcdf(np.arange(1, top + 1)))

    def quantile(u):
        idx = np.searchsorted(cum, np.asarray(u, dtype=float), side="left")
        out = np.minimum(idx + 1, top).astype(np.int64)
        return out if out.ndim else int(out)

    return quantile


def _blocks(size: int, draw_rows):
    """Yield ``(start, block)`` for ``size`` replications, at most _CHUNK_ROWS at a time."""
    for start in range(0, size, _CHUNK_ROWS):
        yield start, draw_rows(min(_CHUNK_ROWS, size - start))


def _replicate(size, draw_rows):
    """Fill replications from ``draw_rows(rows)``, one block at a time.

    With ``size=None`` returns a single int; otherwise an int64 array of
    that many independent replications.
    """
    if size is None:
        return int(draw_rows(1)[0])
    out = np.empty(int(size), dtype=np.int64)
    for start, block in _blocks(out.size, draw_rows):
        out[start:start + len(block)] = block
    return out


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


def _python_positive_binomial(uniform, n: int, q: float) -> int:
    """One draw of :func:`_positive_binomial` in plain Python, from ``uniform()``
    in [0, 1): the same first-success split, then Bin(n - J, q) by inversion.

    The inversion walks k = 0, 1, ... up the pmf from P(0) = (1-q)**m, by the
    term ratios (m-k)/(k+1) q/(1-q), to the first k whose cdf exceeds a
    uniform.  Where P(0) would fall below e**-700 the m trials are split into
    chunks whose P(0) stays above it, one uniform and one walk per chunk, and
    the chunks' counts are summed, which is again Bin(m, q).  A walk costs 1
    plus its count, so a draw costs about 1 + n q steps.
    """
    if q >= 1.0:  # log1p(-1) = -inf: J = 1, and the n - 1 later trials all succeed
        return n
    log_miss = math.log1p(-q)
    hit = -math.expm1(n * log_miss)
    m = n - min(max(math.ceil(math.log1p(-uniform() * hit) / log_miss), 1), n)
    odds = q / (1.0 - q)
    chunk = m if m * log_miss >= _LOG_FLOOR else max(1, int(_LOG_FLOOR / log_miss))
    count = 1
    while m > 0:
        trials = min(m, chunk)
        m -= trials
        u, k = uniform(), 0
        term = cdf = math.exp(trials * log_miss)
        while cdf <= u and k < trials and term > 0.0:  # a term of 0 lies past the mode
            term *= (trials - k) / (k + 1) * odds
            k += 1
            cdf += term
        count += k
    return count


def _expected_ties(law: DiscreteLaw, n: int) -> float:
    """E[K] of a geometric law by the closed form's main term (p/q) / lambda,
    capped at n: the sampler's cost model, not a certified value."""
    lam = law.lattice_rate
    return min(float(n), math.expm1(lam) / lam)


def _python_tie_rows(law: DiscreteLaw, n: int, gen: random.Random):
    """``draw_rows`` for the tie count in plain Python, for a law that ``takes_range``:
    each replication draws the maximum M by the law's ``quantile`` at U**(1/n),
    q(M) = p(M) / (p(M) + F(M-1)) from its ``pmf`` and ``logcdf`` as
    :func:`~tiebound.maxima.tie_given_max_prob` forms it, and the count by
    :func:`_python_positive_binomial`; a list per block."""
    uniform = gen.random

    def draw_rows(rows):
        out = []
        for _ in range(rows):
            m = law.quantile(min(math.exp(math.log1p(-uniform()) / n), _BELOW_ONE))
            pm = law.pmf(m)
            q = pm / (pm + math.exp(law.logcdf(m - 1)))
            out.append(_python_positive_binomial(uniform, n, q))
        return out

    return draw_rows


def _tie_count_rows(spec: KnSpec, rng: RngStream, size: int):
    """``draw_rows`` for the tie count at the sample maximum, for a run of ``size``.

    A run of at most one block of a geometric law (one that ``takes_range``
    and sets ``lattice_rate``) whose expected work, size (1 + E[K]), stays
    within ``_PYTHON_WORK`` is drawn in plain Python from
    ``rng.python_random()``; every other run from ``rng.generator()``.
    """
    law, n = spec.law, spec.n
    if (law.takes_range and law.lattice_rate is not None and size <= _CHUNK_ROWS
            and size * (1.0 + _expected_ties(law, n)) <= _PYTHON_WORK):
        return _python_tie_rows(law, n, rng.python_random())
    gen = rng.generator()
    quantile = _discrete_quantile_fn(law)

    def draw_rows(rows):
        # F(j)**n >= U exactly when F(j) >= U**(1/n), with U = 1 - random()
        # in (0, 1]; the cap keeps every quantile finite
        v = np.minimum(np.exp(np.log1p(-gen.random(rows)) / n), _BELOW_ONE)
        return _positive_binomial(gen, n, tie_given_max_prob(law, quantile(v)))

    return draw_rows


def sample_tie_count(spec: KnSpec, rng: RngStream, size=None):
    """Number of observations tied with the sample maximum.

    Each replication draws the maximum M through the inverse cdf at
    U**(1/n) (the maximum has cdf F**n), then the tie count as a
    Bin(n, q(M)) conditioned on at least one tie.  With ``size=None``
    returns a single int; otherwise an int64 array of that many independent
    replications.  A short run of a geometric law is drawn in plain Python
    (see the module docstring).
    """
    return _replicate(size, _tie_count_rows(spec, rng, 1 if size is None else int(size)))


def _size_biased_rows(spec: KnSpec, rng: RngStream, size: int):
    """``draw_rows`` for the size-biased tie count, from numpy's stream at every ``size``."""
    gen = rng.generator()
    law, n = spec.law, spec.n
    m_quantile = _discrete_quantile_fn(argmax_value_law(spec))

    def draw_rows(rows):
        m = m_quantile(gen.random(rows))
        return 1 + gen.binomial(n - 1, tie_given_max_prob(law, m))

    return draw_rows


def sample_size_biased_ties(spec: KnSpec, rng: RngStream, size=None):
    """Draw from the size-biased tie count.

    Samples the argmax value M, then returns one plus a Bin(n - 1, q(M))
    count of the other observations tied with it.
    """
    return _replicate(size, _size_biased_rows(spec, rng, size))


def _near_order_rows(spec: bounds_continuous.NearOrderSpec, rng: RngStream, size: int):
    """``draw_rows`` for the near-order count, from numpy's stream at every ``size``."""
    gen = rng.generator()
    n, ell, a = spec.n, spec.ell, spec.a

    def draw_rows(rows):
        with np.errstate(divide="ignore"):  # a draw of 0 has log -inf, and r_a = 1 there
            x = spec.law.logquantile(np.log(gen.beta(n - ell + 1, ell, size=rows)))
        return gen.binomial(n - ell, bounds_continuous.gap_ratio(spec.law, a, x))

    return draw_rows


def sample_near_order_count(spec: bounds_continuous.NearOrderSpec, rng: RngStream, size=None):
    """Count of observations strictly inside (X_(n-ell+1:n) - a, X_(n-ell+1:n)).

    The order statistic itself is not counted (the window is open on both
    sides; with a continuous law ties occur with probability zero).  Each
    replication draws u = F(x) of the order statistic x as a Beta(n-ell+1,
    ell) variate and maps it through ``logquantile(log u)``, then draws the
    count as Bin(n - ell, r_a(x)): the n - ell observations below x are
    independent draws conditioned on lying below it.
    """
    return _replicate(size, _near_order_rows(spec, rng, size))


# the CLI's `simulate --kind` values; each factory takes (spec, rng, size of the run)
_ROWS = {"ties": _tie_count_rows, "size-biased": _size_biased_rows,
         "near-order": _near_order_rows}


def empirical_law(kind: str, spec, rng: RngStream, size: int) -> EmpiricalPMF:
    """Counts of ``size`` replications of a count, tallied block by block.

    ``kind`` is ``"ties"`` (``sample_tie_count``), ``"size-biased"``
    (``sample_size_biased_ties``) or ``"near-order"``
    (``sample_near_order_count``).  The result equals
    ``EmpiricalPMF.from_samples`` of that sampler's draws for the same
    ``spec``, ``rng`` and ``size``, but only the counts and one block are
    held, so memory is O(support + block) however large ``size`` is.
    """
    if kind not in _ROWS:
        raise DomainError(f"kind must be one of {sorted(_ROWS)}, got {kind!r}")
    size = int(size)
    k_min, counts = 0, []
    for _, block in _blocks(size, _ROWS[kind](spec, rng, size)):
        if isinstance(block, list):  # a run drawn in plain Python
            lo = min(block)
            tally = [0] * (max(block) - lo + 1)
            for k in block:
                tally[k - lo] += 1
        else:
            lo = int(block.min())
            tally = np.bincount(block - lo).tolist()
        if counts:  # lay both tallies out on the range seen so far
            first, last = min(lo, k_min), max(lo + len(tally), k_min + len(counts)) - 1
            tally = [a + b for a, b in zip(_dense(lo, tally, first, last, 0),
                                           _dense(k_min, counts, first, last, 0))]
            lo = first
        k_min, counts = lo, tally
    return EmpiricalPMF(k_min=k_min, counts=counts, sample_size=size)


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
    size = emp.sample_size
    counts = _dense(emp.k_min, emp.counts, target.k_min, target.k_max, 0)
    overflow = (size - sum(counts)) / size
    missing = max(0.0, 1.0 - math.fsum(target.probs))
    estimate = 0.5 * (math.fsum(abs(c / size - p) for c, p in zip(counts, target.probs))
                      + abs(overflow - missing))
    categories = len(target.probs) + 1
    radius = 0.5 * math.sqrt(
        2.0 * (categories * math.log(2.0) + math.log(1.0 / TV_CONFIDENCE_DELTA))
        / emp.sample_size
    ) + 0.5 * target.tail_mass_bound
    return estimate, radius
