"""Approximating target laws and exact total-variation distance.

The exchange format for distance computation is :class:`TruncatedPMF`: a
finite probability vector (a tuple of floats) together with a certified
upper bound on the mass it omits.  Total variation between two truncated
pmfs then has a rigorous upper bound next to its point estimate, so "bound
dominates distance" checks remain meaningful despite truncation.  A bound
comes as a :class:`BoundReport`, the third result type, which both bounds
modules return.

One row walker (:func:`_walk`) makes every law here whose terms have
closed-form ratios: the logarithmic, Poisson and negative binomial targets,
and the near-order laws of ``moments``.  Its certificate counts the omitted
mass, the normalisation and each entry's rounding in units u, with no
log-gamma.  The geometric target keeps its exact entries; the single-entry
pmfs are evaluated in log space.  The module needs no numpy.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass, field
from itertools import accumulate, chain, count, islice, repeat, tee
from operator import add, mul, neg, truediv
from typing import Callable, NamedTuple

from .binomial import _TINY, _U, _gamma
from .errors import DomainError, TruncationError, integer_in, positive_tol, real_in

__all__ = [
    "BoundReport",
    "TruncatedPMF",
    "TVInterval",
    "log_pmf",
    "poisson_pmf",
    "negbin_pmf",
    "truncate_law",
    "truncated_log",
    "truncated_poisson",
    "truncated_negbin",
    "truncated_geometric",
    "tv_distance",
    "positive_part_distance",
]

_MAX_TERMS = 10_000_000


@dataclass(frozen=True)
class TruncatedPMF:
    """A finite probability vector plus a certified omitted-mass bound.

    ``probs`` is a tuple of floats (any sequence given is converted), and
    ``probs[i]`` is the probability of outcome ``k_min + i``.  ``k_min`` is
    the first outcome held, which need not be the first of the support: the
    tie-count laws start where their mass reaches the smallest normal
    double.  ``tail_mass_bound`` bounds the mass outside ``k_min..k_max``,
    on both sides.  Whether it also covers the rounding error of the stored
    entries (their L1 distance from the exact values) depends on the
    producer.  The tie-count laws ``maxima.tie_count_law`` and
    ``maxima.size_biased_tie_law`` include it: each entry comes with a
    certified remainder, rounding included, which bounds both its own error
    and, through 1 - sum(entries) + sum(remainders), the omitted mass, and
    the binomial mixture they fall back to counts its own rounding.  So do
    the four target laws and the near-order laws in closed form, the row
    walker's (:func:`_walk`).  A plain ``truncate_law`` does not, and
    ``near_order_count_pmf`` by quadrature adds an error estimate.
    """

    k_min: int
    probs: tuple
    tail_mass_bound: float

    def __post_init__(self):
        try:  # an array of another rank, or a scalar, holds no 1-d vector
            probs = tuple(map(float, self.probs)) if getattr(self.probs, "ndim", 1) == 1 else ()
        except TypeError:
            probs = ()
        if not probs:
            raise DomainError("probs must be a non-empty 1-d vector")
        object.__setattr__(self, "probs", probs)
        if not (0.0 <= self.tail_mass_bound <= math.inf):
            raise DomainError("tail_mass_bound must be non-negative")

    @property
    def k_max(self) -> int:
        return self.k_min + len(self.probs) - 1

    def prob(self, k: int) -> float:
        if self.k_min <= k <= self.k_max:
            return self.probs[k - self.k_min]
        return 0.0

    def total(self) -> float:
        return math.fsum(self.probs)


class TVInterval(NamedTuple):
    """A total variation distance: ``hi`` a certified upper bound, ``lo`` a point estimate."""

    lo: float
    hi: float


@dataclass(frozen=True)
class BoundReport:
    """A bound value with the parameters and moments behind it.

    ``informative`` is True exactly when the bound is below 1 (a total
    variation bound of 1 or more carries no information).
    """

    bound: float
    params: dict = field(default_factory=dict)
    moments: dict = field(default_factory=dict)
    truncation_error: float = 0.0
    method: str = ""

    @property
    def informative(self) -> bool:
        return self.bound < 1.0

    def as_dict(self) -> dict:
        return {
            "method": self.method,
            "bound": self.bound,
            "informative": self.informative,
            "params": dict(self.params),
            "moments": dict(self.moments),
            "truncation_error": self.truncation_error,
        }


def log_pmf(alpha: float, k: int) -> float:
    """Logarithmic law on {1, 2, ...}: P(k) = -alpha**k / (k * log(1 - alpha))."""
    real_in(alpha, 0.0, 1.0, "logarithmic parameter")
    k = integer_in(k, 1, what="logarithmic outcome")
    norm = -math.log1p(-alpha)
    return math.exp(k * math.log(alpha) - math.log(k) - math.log(norm))


def poisson_pmf(lam: float, k: int) -> float:
    """Poisson law on {0, 1, ...}: P(k) = exp(-lam) * lam**k / k!."""
    real_in(lam, 0.0, math.inf, "Poisson rate")
    k = integer_in(k, 0, what="Poisson outcome")
    if k == 0:
        return math.exp(-lam)
    return math.exp(k * math.log(lam) - lam - math.lgamma(k + 1))


def negbin_pmf(ell: float, beta: float, k: int) -> float:
    """Negative binomial on {0, 1, ...} with shape ell and success odds beta.

    P(k) = Gamma(ell + k) / (Gamma(ell) k!) * (1 - beta)**ell * beta**k.
    For ell = 1 this reduces to (1 - beta) * beta**k, which is returned
    exactly (no log-gamma round trip).
    """
    real_in(ell, 0.0, math.inf, "negative binomial shape")
    real_in(beta, 0.0, 1.0, "negative binomial odds")
    k = integer_in(k, 0, what="negative binomial outcome")
    if ell == 1.0:
        return (1.0 - beta) * beta**k
    lg = math.lgamma(ell + k) - math.lgamma(ell) - math.lgamma(k + 1)
    return math.exp(lg + ell * math.log1p(-beta) + k * math.log(beta))


def truncate_law(pmf: Callable[[int], float],
                 tail_after: Callable[[int], float],
                 tol: float,
                 k_min: int = 0,
                 max_terms: int = _MAX_TERMS) -> TruncatedPMF:
    """Materialize a pmf from ``k_min`` upward until its tail certificate meets ``tol``.

    ``tail_after(k)`` must return a certified upper bound on the total mass
    strictly above ``k`` (it may return ``inf`` while no bound is available
    yet).  Raises :class:`TruncationError` carrying the best achieved bound
    if the certificate cannot reach ``tol`` within ``max_terms`` entries.
    """
    positive_tol(tol)
    probs, best = [], math.inf
    for k in range(k_min, k_min + max_terms):
        probs.append(pmf(k))
        bound = tail_after(k)
        best = min(best, bound)
        if bound <= tol:
            return TruncatedPMF(k_min=k_min, probs=probs, tail_mass_bound=bound)
    raise TruncationError(f"tail certificate did not reach {tol!r} within {max_terms} terms "
                          f"(best achieved: {best!r})", best_bound=best)


def _walk(mode: int, up, down, floor: float, units: int, base: int = 0):
    """A law from its terms relative to the mode's, as a ``TruncatedPMF``
    whose ``tail_mass_bound`` counts the omitted mass and the entries'
    rounding; None past ``_MAX_TERMS`` entries or where rho reaches 1.

    ``up`` and ``down`` yield (t, rho) from the mode outward: t the next
    term, the mode's being 1, and rho a bound on every term ratio from t on
    (see :func:`_products`).  A side ends at its support's edge, or at the
    first t below ``floor`` whose tail bound t / (1 - rho) meets ``floor``
    too, or below tiny.  The row is divided by its ``math.fsum`` plus those
    tail bounds, P, so the omitted mass counts once; entries below tiny at
    its ends are cut.  A term d steps out errs by at most gamma(base +
    units d) relative (pow and expm1 taken to err by 2 ulp), the row by
    E <= u (base + units M) / (1 - 2 u (base + units D)) of its sum, M the
    mean of d and D the longest side; a tiny per side covers subnormal
    rounding.  With out = P over the row's sum, the entries and the omitted
    mass err by at most 2E + out + out (out + E) / (1 - E) in L1, plus
    gamma(4) for the sum, adding P, the division and one more sum (the
    uniform law's fold); the certificate adds the entries cut.
    """
    sides, past, room = [], 0.0, _MAX_TERMS
    for side in (up, down):
        held = []
        for t, rho in islice(side, room):
            if t < floor and (t < _TINY or t <= floor * (1.0 - rho)):
                rho *= 1.0 + _gamma(units + 1)
                if not rho < 1.0:
                    return None
                past += (t * (1.0 + _gamma(base + units * (len(held) + 1))) + _TINY) / (1.0 - rho)
                break
            held.append(t)
        if len(held) == room:  # a break holds fewer
            return None
        room -= len(held)
        sides.append(held)
    row = sides[1][::-1] + [1.0] + sides[0]
    # the sides fall from the mode, and terms below u**2 / _MAX_TERMS add at most u**2 to
    # the row's sum (at least 1) and D u**2 to its moment sum(d t): leave them out
    longest = max(map(len, sides))
    big = [side[:bisect_left(side, -_U * _U / _MAX_TERMS, key=neg)] for side in sides]
    row_sum = math.fsum(chain([1.0], *big))
    moment = sum(sum(map(mul, side, count(1.0))) for side in big) + longest * _U * _U
    probs = list(map(truediv, row, repeat(row_sum + past)))
    first = next(i for i, x in enumerate(probs) if x >= _TINY)  # 1 / sum >= tiny
    last = len(probs) - next(i for i, x in enumerate(reversed(probs)) if x >= _TINY)
    cut = math.fsum(probs[:first]) + math.fsum(probs[last:])
    # E, with the moment's plain sum and E's own rounding counted
    e = (_U * (base + units * moment * (1.0 + _gamma(len(row) + 1)) / row_sum)
         * (1.0 + _gamma(3)) / (1.0 - 2.0 * (base + units * longest) * _U))
    out = past * (1.0 + _gamma(2)) / row_sum
    bound = ((out + cut + (2.0 * e + out * (out + e)) / (1.0 - out - e) + _gamma(4))
             * (1.0 + _gamma(4)))
    return TruncatedPMF(k_min=mode - len(sides[1]) + first, probs=probs[first:last],
                        tail_mass_bound=bound)


def _products(ratios, limit=None):
    """(t, rho) for :func:`_walk`: t the running product of ``ratios``, rho
    ``limit``, a bound on them all, or else the ratio that made t, which
    bounds the later ones where they fall."""
    if limit is not None:
        return zip(accumulate(ratios, mul), repeat(limit))
    ratios, rhos = tee(ratios)
    return zip(accumulate(ratios, mul), rhos)


def _certified(law, tol: float, what: str) -> TruncatedPMF:
    """``law`` where it certifies ``tol``, else :class:`TruncationError`."""
    best = math.inf if law is None else law.tail_mass_bound
    if not best <= tol:
        raise TruncationError(f"the {what} law's certificate, {best!r}, misses {tol!r}",
                              best_bound=best)
    return law


def truncated_log(alpha: float, tol: float) -> TruncatedPMF:
    """Logarithmic law as a TruncatedPMF with certified tail <= tol.

    The term at k + 1 is alpha**k / (k+1) of P(1)'s, formed directly, within
    gamma(5) at every k: a running product's rounding would grow along the
    long rows of alpha near 1.  The ratios alpha k / (k+1) rise to alpha.
    """
    positive_tol(tol)
    real_in(alpha, 0.0, 1.0, "logarithmic parameter")
    # the row's sum is 1 / P(1) = -log1p(-alpha) / alpha: a floor of tol, less 32u for
    # the rounding, in probability
    floor = (tol - 32.0 * _U) * -math.log1p(-alpha) / alpha
    terms = map(truediv, map(pow, repeat(alpha), count(1)), count(2))
    law = _walk(1, zip(terms, repeat(alpha)), (), floor, 0, 5) if floor > 0.0 else None
    return _certified(law, tol, "logarithmic")


def truncated_poisson(lam: float, tol: float) -> TruncatedPMF:
    """Poisson law as a TruncatedPMF with certified tail <= tol.

    From the mode floor(lam), the term ratios are lam / (k+1) up and
    k / lam down, both falling away from the mode; each step rounds twice.
    """
    positive_tol(tol)
    real_in(lam, 0.0, math.inf, "Poisson rate")
    mode = math.floor(lam)
    up = _products(map(truediv, repeat(lam), count(mode + 1)))
    down = _products(map(truediv, range(mode, 0, -1), repeat(lam)))
    return _certified(_walk(mode, up, down, tol / 4.0, 2), tol, "Poisson")


def truncated_negbin(ell: float, beta: float, tol: float) -> TruncatedPMF:
    """Negative binomial law as a TruncatedPMF with certified tail <= tol.

    At ell = 1 entry k is (1 - beta) beta**k, within gamma(6), and the mass
    above k is beta**(k+1), so beta**(k+1) (1 + gamma(4)) + gamma(7) bounds
    it and the entries' rounding; no ``tol`` at or below gamma(7) is
    reached, and such a ``tol`` is refused at once.  Otherwise, from the
    mode, the term ratios are beta (ell+k) / (k+1) up and k / (beta
    (ell+k-1)) down, four roundings a step; for ell < 1 the upward ones
    rise to beta, else they fall.
    """
    positive_tol(tol)
    real_in(ell, 0.0, math.inf, "negative binomial shape")
    real_in(beta, 0.0, 1.0, "negative binomial odds")
    if ell == 1.0:
        if not tol > _gamma(7):
            raise TruncationError(f"the geometric rounding floor, {_gamma(7)!r}, misses {tol!r}",
                                  best_bound=_gamma(7))
        return truncate_law(lambda k: (1.0 - beta) * beta**k,
                            lambda k: beta ** (k + 1) * (1.0 + _gamma(4)) + _gamma(7), tol)
    mode = math.floor((ell - 1.0) * beta / (1.0 - beta)) if ell > 1.0 else 0
    up = _products(map(truediv, map(mul, repeat(beta), map(add, repeat(ell), count(mode))),
                       count(mode + 1)), None if ell > 1.0 else beta)
    down = _products(map(truediv, range(mode, 0, -1),
                         map(mul, repeat(beta), map(add, repeat(ell), range(mode - 1, -1, -1)))))
    return _certified(_walk(mode, up, down, tol / 4.0, 4), tol, "negative binomial")


def truncated_geometric(beta: float, tol: float) -> TruncatedPMF:
    """Geometric law on {1, 2, ...} with failure odds beta: P(k) = (1-beta) beta**(k-1).

    This is the unit-shape negative binomial shifted up by one, so its tail
    bound beyond k is beta**k up to rounding.
    """
    law = truncated_negbin(1.0, beta, tol)
    return TruncatedPMF(k_min=1, probs=law.probs, tail_mass_bound=law.tail_mass_bound)


def _dense(k_min: int, values, lo: int, hi: int, zero=0.0) -> list:
    """``values``, held from outcome ``k_min`` up, as a list on outcomes ``lo..hi``;
    ``zero`` elsewhere (0 for counts)."""
    first, last = max(lo, k_min), min(hi, k_min + len(values) - 1)
    if first > last:
        return [zero] * max(hi - lo + 1, 0)
    return ([zero] * (first - lo) + list(values[first - k_min: last - k_min + 1])
            + [zero] * (hi - last))


def positive_part_distance(p: TruncatedPMF, q: TruncatedPMF) -> TVInterval:
    """Interval for sup_E |P(X in E, X >= 1) - P(X >= 1) P(Y in E)|.

    Here X may place mass at zero while Y lives on {1, 2, ...}.  This is the
    discrepancy a first-order Stein identity controls when the identity only
    holds from k = 1 upward: mass of X at zero is scaled out rather than
    compared, so the value equals P(X >= 1) times the total variation
    distance between X conditioned to be positive and Y.  As in
    :func:`tv_distance`, only ``hi`` is certified.
    """
    scale = 1.0 - p.prob(0)
    k_hi = max(p.k_max, q.k_max)
    diff = zip(_dense(p.k_min, p.probs, 1, k_hi), _dense(q.k_min, q.probs, 1, k_hi))
    lo = min(max(0.5 * math.fsum(abs(a - scale * b) for a, b in diff), 0.0), 1.0)
    slack = p.tail_mass_bound + q.tail_mass_bound
    return TVInterval(lo=lo, hi=min(1.0, lo + slack))


def tv_distance(p: TruncatedPMF, q: TruncatedPMF) -> TVInterval:
    """Interval around the total variation distance of two laws.

    The point estimate ``lo`` is half the L1 distance over the union of the
    explicit supports (half-L1 equals the supremum discrepancy over outcome
    sets).  The true distance is at most ``hi = lo + (tail_p + tail_q) / 2``
    and at least ``lo`` minus the same slack, so ``hi`` is always a rigorous
    upper bound and ``hi - lo`` never exceeds the combined tail budgets.
    """
    k_lo, k_hi = min(p.k_min, q.k_min), max(p.k_max, q.k_max)
    diff = zip(_dense(p.k_min, p.probs, k_lo, k_hi), _dense(q.k_min, q.probs, k_lo, k_hi))
    lo = min(max(0.5 * math.fsum(abs(a - b) for a, b in diff), 0.0), 1.0)
    slack = 0.5 * (p.tail_mass_bound + q.tail_mass_bound)
    return TVInterval(lo=lo, hi=min(1.0, lo + slack))
