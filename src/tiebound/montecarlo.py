"""Seeded simulation of tie counts and near-order counts.

The samplers simulate the data-generating model, not the computed laws, so
they stay an independent check of them: the maximum M of n observations has
cdf F**n, and the tie count K given M = j is Bin(n, q(j)) given K >= 1, with
q(j) = P(X = j) / F(j).

Every kind draws the *histogram* of a run, at every size, from one generator,
``random.Random`` keyed by (seed, stream_id) (``RngStream.python_random``).
For ``ties`` and ``size-biased``, a walk takes M down its law one hit at a time.
The ``rest`` maxima still to place lie at or below the value t below the last
hit, each with latent V = F(M)**n uniform on [0, F(t)**n].  The largest latent
is v = F(t)**n U**(1/rest), its maximum is the j with F(j-1)**n < v <= F(j)**n,
and each of the other rest - 1, uniform on [0, v], lands on j with chance
1 - F(j-1)**n / v.  Each hit's count is spread over k by conditional binomials
on the row of K given M = j, and every binomial draw is exact (Beta splitting,
then inversion; Devroye 1986, X.4).  A run costs O(hits + cells drawn), not
O(size): 1e7 draws at geometric (0.01, 1e4) take about 13 ms on a shared
2-vCPU VM.  A ``ties`` run on a law that ``takes_range``, the geometric or
tabulated law, never imports numpy: its ``quantile`` answers a float and its
``logcdf`` an int in plain Python.  ``size-biased`` walks the argmax law
through numpy tables over its support.
The ``near-order`` kind draws each replication on its own, at a cost that does
not grow with n: log F(X) at the ell-th largest X, X through ``logquantile`` at
it, then one exact binomial count given X.  Up to rank ``_SPACINGS``, log F(X)
is a sum of ell exponential spacings, one ``random()`` each (Renyi 1953;
Devroye 1986, ch. V); past it, V = 1 - F(X) is a Beta(ell, n-ell+1) variate and
log F(X) = log1p(-V).  The built-in continuous laws answer a float through
``math``, so a near-order run of them never imports numpy.

The samplers expand the histogram and shuffle it with the same stream, so
``empirical_law`` equals ``EmpiricalPMF.from_samples`` of their draws.  A key
reproduces these draws whatever numpy's version, on every Python release that
keeps the algorithms of ``random``'s string seeding, ``random()``,
``betavariate`` and ``shuffle``, up to the last bit of ``math``'s functions; a
near-order draw takes ``betavariate`` for V only past rank ``_SPACINGS``, and for
its count only where the binomial splits.
Distinct stream ids give independent streams, so parallel workers can each own
stream_id = worker index and merge their counts in any order.
"""

from __future__ import annotations

import itertools
import math
import random
from collections import Counter
from dataclasses import dataclass

from . import _series, bounds_continuous
from ._numpy import np
from .approximants import TruncatedPMF, _dense
from .distributions import DiscreteLaw, _many
from .errors import DomainError, TruncationError
from .maxima import KnSpec, _tail_end, argmax_value_law

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

_BELOW_ONE = 1.0 - 2.0**-53
# a binomial draws by inversion once N p, with p <= 1/2, is below this: the walk
# takes about N p steps, where a Beta split takes two gamma variates
_INVERSION = 16.0
# a row of K given M is held where its terms are at least this share of its mode's
_ROW_FLOOR = 2.0**-60
# a near-order draw sums ell exponential spacings for log F(X) while ell is at most
# this: each spacing takes one random(), about 0.09 us, where a Beta variate takes
# two gamma variates, 1.3-1.8 us; the whole draws break even between ell = 16 and 18
_SPACINGS = 16


@dataclass(frozen=True)
class RngStream:
    """Reproducible random stream keyed by (seed, stream_id)."""

    seed: int
    stream_id: int = 0

    def python_random(self) -> random.Random:
        """The Mersenne Twister of this key, the one generator of every sampler; the
        key string is hashed by SHA-512, so distinct keys seed distinct states."""
        return random.Random(f"{self.seed}:{self.stream_id}")

    def split(self, count: int) -> list:
        """Streams (seed, 0..count-1) for independent parallel workers, whose counts
        merge in any order."""
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


def _table_end(law: DiscreteLaw) -> int:
    """The first ``top`` with F(top) >= 1 - 2**-53 by the law's ``log_tail`` (m for
    a law on {1, ..., m}), where a table over the law's support ends.  Raises
    :class:`TruncationError` when ``top`` exceeds ``_series._SERIES_CAP``, the cap
    of the series and the mixture laws, before any table is built."""
    top, cap = _tail_end(law, math.log(2.0**-53)), _series._SERIES_CAP
    if top > cap:
        raise TruncationError(f"quantile table would exceed {cap} entries",
                              best_bound=math.exp(law.log_tail(cap)))
    return top


def _discrete_quantile_fn(law: DiscreteLaw):
    """Vectorized inverse cdf, building a lookup table up to :func:`_table_end`
    when the law has none.

    No double drawn from [0, 1) exceeds 1 - 2**-53, so a draw above the table's
    last entry (which may round low) maps to its top.
    """
    if law.quantile is not None:
        return law.quantile
    top = _table_end(law)
    cum = np.exp(law.logcdf(np.arange(1, top + 1)))

    def quantile(u):
        return np.minimum(np.searchsorted(cum, u, side="left") + 1, top).astype(np.int64)

    return lambda u: _many(u, None, quantile)


def _binomial(rand: random.Random, trials: int, p: float) -> int:
    """One exact Bin(trials, p) draw from ``rand``.

    While trials * p is at least ``_INVERSION``, the i-th smallest of the
    trials' uniforms, i = floor((trials + 1) p), is drawn as a Beta(i,
    trials + 1 - i) variate X: if X <= p, those i trials succeed and the
    others succeed with chance (p - X) / (1 - X), else only the i - 1 below X
    may, each with chance p / X (Devroye 1986, X.4).  Each split takes
    trials * p to about its square root.  A p above 1/2 is reflected, counting
    failures instead, so that the last step, inversion from P(0) = (1-p)**trials
    up the term ratios, takes about 1 + trials * p steps.
    """
    base, sign = 0, 1  # the draw is base + sign * Bin(trials, p)
    while True:
        if p > 0.5:
            base, sign, p = base + sign * trials, -sign, 1.0 - p
        if trials * p < _INVERSION:
            break
        i = int((trials + 1) * p)
        x = rand.betavariate(i, trials + 1 - i)
        if x <= p:
            base, trials, p = base + sign * i, trials - i, (p - x) / (1.0 - x)
        else:
            trials, p = i - 1, p / x
    u, k = rand.random(), 0
    term = cdf = (1.0 - p) ** trials
    odds = p / (1.0 - p)
    while cdf <= u and k < trials:
        term *= (trials - k) / (k + 1) * odds
        k += 1
        cdf += term
    return base + sign * k


def _spread(rand: random.Random, hist: dict, count: int, trials: int, q: float, low: int,
            shift: int):
    """Add ``count`` draws of shift + Bin(trials, q), conditioned on Bin >= ``low``
    (0 or 1), to ``hist`` (outcome -> count).

    A count below the row's standard deviation is drawn one draw at a time, which
    costs less than the row's window, about 18 deviations wide: with ``low`` = 1,
    the first success J has P(J = i) proportional to (1-q)**(i-1) q on 1..trials,
    drawn by inversion, and the later trials add Bin(trials - J, q).  Otherwise
    the row is held on its window: terms relative to the mode's, by term ratios
    out from the mode, until they fall below ``_ROW_FLOOR``.  The count is split
    along it by conditional binomials, each term's draw Bin(rest, term / suffix sum).
    """
    if q >= 1.0:
        hist[shift + trials] = hist.get(shift + trials, 0) + count
        return
    if count * count < trials * q * (1.0 - q):
        log_miss = math.log1p(-q)
        hit = -math.expm1(trials * log_miss)
        for _ in range(count):
            first = min(max(math.ceil(math.log1p(-rand.random() * hit) / log_miss), 1),
                        trials) if low else 0
            k = shift + low + _binomial(rand, trials - first, q)
            hist[k] = hist.get(k, 0) + 1
        return
    odds = q / (1.0 - q)
    first = last = min(max(int((trials + 1) * q), low), trials)  # the mode
    row, term = [1.0], 1.0
    while first > low and (term := term * first / ((trials - first + 1) * odds)) >= _ROW_FLOOR:
        row.append(term)
        first -= 1
    row.reverse()
    term = 1.0
    while last < trials and (term := term * (trials - last) / (last + 1) * odds) >= _ROW_FLOOR:
        row.append(term)
        last += 1
    suffix = list(itertools.accumulate(reversed(row)))
    for k, term in enumerate(row, shift + first):
        drawn = _binomial(rand, count, term / suffix.pop())
        if drawn:
            hist[k] = hist.get(k, 0) + drawn
            count -= drawn
            if not count:
                return


def _tie_hits(law: DiscreteLaw, n: int, size: int, rand: random.Random):
    """Yield ``(count, q(j))`` for each value j that the maxima of ``size`` replications
    hit, from the top down, by three law calls per hit: ``quantile`` and ``logcdf`` at
    j and j - 1.  The largest latent is u**n, and each other one lands on j with chance
    1 - (F(j-1) / u)**n; q(j) = 1 - F(j-1) / F(j)."""
    quantile = _discrete_quantile_fn(law)
    rest, top, log_top = size, math.inf, 0.0  # every maximum left is at most top
    while rest:
        log_u = log_top + math.log1p(-rand.random()) / (n * rest)
        j = min(quantile(min(math.exp(log_u), _BELOW_ONE)), top)
        log_below = law.logcdf(j - 1)
        count = 1 + _binomial(rand, rest - 1, -math.expm1(min(n * (log_below - log_u), 0.0)))
        yield count, -math.expm1(log_below - law.logcdf(j))
        rest, top, log_top = rest - count, j - 1, log_below


def _size_biased_hits(spec: KnSpec, size: int, rand: random.Random):
    """Yield ``(count, q(j))`` for each value j that the argmax values of ``size``
    replications hit, from the top down, as :func:`_tie_hits` does.

    The walk reads tables over the argmax law's support, up to :func:`_table_end`,
    built by one call of each law function: log w_j = log p(j) F(j)**(n-1) and its
    running log-sum log W(j), both short of the factor 1 / Z.  The latents are
    uniform on [0, W(t)]: the largest of ``rest`` is log v = log W(t) + log(U) / rest,
    and each other one lands on its value j with chance 1 - W(j-1) / v.
    """
    law, n = spec.law, spec.n
    lp, lf0, lf1 = _series._block(law, 1, _table_end(argmax_value_law(spec)))
    log_w = lp + (n - 1) * lf1 if n > 1 else lp
    log_cum = np.logaddexp.accumulate(log_w)
    rest, log_top = size, float(log_cum[-1])
    while rest:
        log_v = log_top + math.log1p(-rand.random()) / rest
        i = int(np.searchsorted(log_cum, log_v))
        log_below = float(log_cum[i - 1]) if i else -math.inf
        count = 1 + _binomial(rand, rest - 1, -math.expm1(min(log_below - log_v, 0.0)))
        yield count, -math.expm1(lf0[i] - lf1[i])
        rest, log_top = rest - count, log_below


def _near_order_counts(spec: bounds_continuous.NearOrderSpec, rand: random.Random, size: int):
    """Yield the near-order counts of ``size`` replications, by two law calls each.

    log u = log F(X) at the ell-th largest X is drawn directly while ell is at most
    ``_SPACINGS``: -log F at the n observations are n Exp(1) variates, and the ell-th
    smallest of them is the sum of E_i / (n - i) over i < ell (Renyi 1953), so log u
    sums log1p(-U_i) / (n - i) over ell uniforms.  Past that rank V = 1 - F(X) is a
    Beta(ell, n - ell + 1) variate and log u = log1p(-V).  Then X = logquantile(log u),
    and the count is Bin(n - ell, r_a) with r_a = 1 - F(X - a) / F(X) =
    -expm1(logcdf(X - a) - log u), taken as 1 where F(X) = 0."""
    n, ell, a = spec.n, spec.ell, spec.a
    logcdf, logquantile, uniform = spec.law.logcdf, spec.law.logquantile, rand.random
    log1p, expm1 = math.log1p, math.expm1
    rates = [1.0 / (n - i) for i in range(ell)] if ell <= _SPACINGS else None
    for _ in range(size):
        if rates is not None:
            log_u = 0.0
            for rate in rates:
                log_u += log1p(-uniform()) * rate
        else:
            log_u = log1p(-rand.betavariate(ell, n - ell + 1))
        r_a = -expm1(logcdf(logquantile(log_u) - a) - log_u) if log_u > -math.inf else 1.0
        yield _binomial(rand, n - ell, r_a)


def _histogram(kind: str, spec, rand: random.Random, size: int) -> dict:
    """Outcome -> count over ``size`` replications of the count ``kind``: for ``ties``
    and ``size-biased``, the hits of the maximum's walk, each spread over its row of K
    given M; for ``near-order``, one count per replication."""
    if size < 0:
        raise DomainError(f"sample_size must be >= 0, got {size}")
    if kind == "near-order":
        return Counter(_near_order_counts(spec, rand, size))
    if kind == "ties":
        hits, trials, low, shift = _tie_hits(spec.law, spec.n, size, rand), spec.n, 1, 0
    else:
        hits, trials, low, shift = _size_biased_hits(spec, size, rand), spec.n - 1, 0, 1
    hist = {}
    for count, q in hits:
        _spread(rand, hist, count, trials, q, low, shift)
    return hist


def _draws(kind: str, spec, rng: RngStream, size):
    """The histogram of ``size`` replications expanded and shuffled with its own
    stream: an int64 array, or one int with ``size=None``."""
    rand = rng.python_random()
    hist = _histogram(kind, spec, rand, 1 if size is None else int(size))
    if size is None:
        return next(iter(hist))
    draws = list(itertools.chain.from_iterable([k] * hist[k] for k in sorted(hist)))
    rand.shuffle(draws)
    return np.array(draws, dtype=np.int64)


def sample_tie_count(spec: KnSpec, rng: RngStream, size=None):
    """Number of observations tied with the sample maximum.

    The maximum M has cdf F**n, and the tie count given it is Bin(n, q(M))
    conditioned on at least one tie; the draws are a histogram of the run,
    shuffled (see the module docstring).  With ``size=None`` returns a single
    int; otherwise an int64 array of that many independent replications.
    """
    return _draws("ties", spec, rng, size)


def sample_size_biased_ties(spec: KnSpec, rng: RngStream, size=None):
    """Draw from the size-biased tie count.

    Samples the argmax value M, then returns one plus a Bin(n - 1, q(M))
    count of the other observations tied with it, as :func:`sample_tie_count`
    does.
    """
    return _draws("size-biased", spec, rng, size)


def sample_near_order_count(spec: bounds_continuous.NearOrderSpec, rng: RngStream, size=None):
    """Count of observations strictly inside (X_(n-ell+1:n) - a, X_(n-ell+1:n)).

    The order statistic itself is not counted (the window is open on both
    sides; with a continuous law ties occur with probability zero).  Each
    replication draws log F(x) of the order statistic x, as a sum of ell
    exponential spacings up to rank ``_SPACINGS`` and as log1p(-v) of a
    Beta(ell, n-ell+1) variate v = 1 - F(x) past it, and maps it through
    ``logquantile``, then draws the count as Bin(n - ell, r_a(x)): the n - ell
    observations below x are independent draws conditioned on lying below
    it.  The draws are a histogram of the run, shuffled, as
    :func:`sample_tie_count`'s are.  With ``size=None`` returns a single int;
    otherwise an int64 array.
    """
    return _draws("near-order", spec, rng, size)


def empirical_law(kind: str, spec, rng: RngStream, size: int) -> EmpiricalPMF:
    """Counts of ``size`` replications of a count.

    ``kind`` is ``"ties"`` (``sample_tie_count``), ``"size-biased"``
    (``sample_size_biased_ties``) or ``"near-order"``
    (``sample_near_order_count``).  The result equals
    ``EmpiricalPMF.from_samples`` of that sampler's draws for the same
    ``spec``, ``rng`` and ``size``, but no draw is held: every kind draws the
    histogram itself, so memory is O(support) however large ``size`` is.
    """
    if kind not in ("ties", "size-biased", "near-order"):
        raise DomainError(f"kind must be one of ['near-order', 'size-biased', 'ties'], "
                          f"got {kind!r}")
    size = int(size)
    if size < 1:
        raise DomainError(f"sample_size must be >= 1, got {size}")
    hist = _histogram(kind, spec, rng.python_random(), size)
    k_min = min(hist, default=0)
    counts = [0] * (max(hist, default=-1) + 1 - k_min)
    for k, c in hist.items():
        counts[k - k_min] = c
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
