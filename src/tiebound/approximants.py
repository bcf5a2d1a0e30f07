"""Approximating target laws and exact total-variation distance.

The exchange format for distance computation is :class:`TruncatedPMF`: a
finite probability vector (a tuple of floats) together with a certified
upper bound on the mass it omits.  Total variation between two truncated
pmfs then has a rigorous upper bound next to its point estimate, so "bound
dominates distance" checks remain meaningful despite truncation.  Every target's tail certificate
comes from one ratio rule (``_truncate_by_ratio``), and counts the rounding
of the entries it holds too.

All pmfs are evaluated in log space (via log-gamma) and exponentiated, so
they stay finite for very large arguments and parameters.  The module needs
no numpy: the targets, the containers and the distances are plain Python.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

from .binomial import _U, _gamma
from .errors import DomainError, TruncationError, integer_in, positive_tol, real_in

__all__ = [
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
    the near-order laws in closed form of the Gumbel and uniform laws, and
    the target laws (``truncated_log``, ``truncated_poisson``,
    ``truncated_negbin``, ``truncated_geometric``; see
    :func:`_truncate_by_ratio`), whose Poisson and negative binomial entries
    take ``math.lgamma`` to err no more than :func:`_lgamma_error`'s model.  A plain ``truncate_law`` does not, and
    ``near_order_count_pmf`` by quadrature adds an error estimate, which is
    not a certificate.
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


def _truncate_by_ratio(pmf: Callable[[int], float], rho: Callable[[int], float],
                       tol: float, k_min: int, rel: Callable[[int], float]) -> TruncatedPMF:
    """``truncate_law`` with the tail certificate of a ratio bound, plus the
    rounding of the entries held.

    The one obligation on ``rho``: ``rho(k)`` bounds every ratio
    P(j+1) / P(j) with j > k.  Then P(k+1+i) <= P(k+1) rho(k)**i, so the mass
    above k is at most P(k+1) / (1 - rho(k)), and no bound is available
    while ``rho(k) >= 1``.  The P(k+1) of a certificate is the entry
    ``truncate_law`` takes next, so each entry and its ``rel`` are evaluated
    once.  ``rel(k)`` bounds the relative error of ``pmf(k)`` as computed, so the
    exact P(k+1) is at most the entry times 1 + rel(k+1), and ``tail_after(k)``
    adds the errors of the entries up to k, rel(j) times entry j, to the
    mass above k: the result bounds the omitted mass plus the L1 error of
    the entries held.  A rounding of ``rho`` and of these sums is counted
    as gamma(3) and gamma(k - k_min + 3).  Where the entries' errors alone
    exceed ``tol``, the certificate cannot meet it, and
    :class:`TruncationError` is raised at once.
    """
    ahead, held = {}, [0.0]  # the entry the last certificate evaluated, and rel; their errors

    def entry(k):
        value, error = ahead.pop(k) if k in ahead else (pmf(k), rel(k))
        held[0] += value * error
        return value

    def tail_after(k):
        errors = held[0] * (1.0 + _gamma(k - k_min + 3))
        if errors > tol:
            raise TruncationError(f"the entries' rounding, {errors!r}, exceeds {tol!r}",
                                  best_bound=errors)
        ratio = rho(k) * (1.0 + _gamma(3))
        if not ratio < 1.0:
            return math.inf
        value, error = ahead[k + 1] = pmf(k + 1), rel(k + 1)
        return (value * (1.0 + error) / (1.0 - ratio) + errors) * (1.0 + _gamma(3))

    return truncate_law(entry, tail_after, tol, k_min=k_min)


def _exp_rounding(exponent_error: float) -> float:
    """A bound on the relative error of an entry exp(E) whose exponent E errs by
    at most ``exponent_error``: that error, exp's own 2 ulp, and one unit u
    for this bound's own rounding."""
    return math.expm1(exponent_error + 5.0 * _U)


def _lgamma_error(x: float, value: float) -> float:
    """A bound on the error of ``math.lgamma(x) = value`` for x > 0: 4u times
    (|value| + x + 8).  This is an error model, not a proof: against
    40-digit values it holds with a factor of at least 1.7 to spare on a grid
    over x from 1e-300 to 1e300, integers and halves among them, and the
    tests check it on the platform at hand; lgamma(1) = lgamma(2) = 0 are
    exact."""
    return 4.0 * _U * (abs(value) + x + 8.0)


def truncated_log(alpha: float, tol: float) -> TruncatedPMF:
    """Logarithmic law as a TruncatedPMF with certified tail <= tol.

    Entry k is exp(k log alpha - log k - log norm), norm = -log1p(-alpha),
    with log and log1p taken to err by at most 2 ulp: k log alpha errs by
    5u k |log alpha|, log k by 4u log k, log norm by 4u |log norm| + 5u, and
    the two subtractions by u times the sum of these magnitudes each.
    """
    la, ln = math.log(alpha), math.log(-math.log1p(-alpha))

    def rel(k):
        return _exp_rounding(_U * (7.0 * k * abs(la) + 6.0 * math.log(k) + 6.0 * abs(ln) + 5.0))

    # the ratios alpha j / (j+1) rise to alpha
    return _truncate_by_ratio(lambda k: log_pmf(alpha, k), lambda k: alpha, tol, 1, rel)


def truncated_poisson(lam: float, tol: float) -> TruncatedPMF:
    """Poisson law as a TruncatedPMF with certified tail <= tol.

    Entry k >= 1 is exp(k log lam - lam - lgamma(k+1)): k log lam errs by
    5u k |log lam|, lgamma by :func:`_lgamma_error`, and the two
    subtractions by u times the sum of the magnitudes each; exp(-lam) errs
    by exp's 2 ulp alone.
    """
    ll = math.log(lam)

    def rel(k):
        g = math.lgamma(k + 1)
        return _exp_rounding(_U * (7.0 * k * abs(ll) + 2.0 * lam + 2.0 * g)
                             + _lgamma_error(k + 1, g) if k else 0.0)

    # the ratios lam / (j+1) fall, so the first one past k bounds the rest
    return _truncate_by_ratio(lambda k: poisson_pmf(lam, k), lambda k: lam / (k + 2), tol, 0, rel)


def truncated_negbin(ell: float, beta: float, tol: float) -> TruncatedPMF:
    """Negative binomial law as a TruncatedPMF with certified tail <= tol.

    At ell = 1 entry k is (1 - beta) beta**k, within gamma(6).  Otherwise it is
    exp(lgamma(ell+k) - lgamma(ell) - lgamma(k+1) + ell log1p(-beta) + k
    log beta): each lgamma errs by :func:`_lgamma_error`, ell + k is rounded
    once, which moves its lgamma by at most u (1 + x (|log x| + 1)) at
    x = ell + k, the two products by 5u of their magnitudes, and the four
    additions by u times the sum of the magnitudes each.
    """
    l1, lb = math.log1p(-beta), math.log(beta)

    def rel(k):
        if ell == 1.0:
            return _gamma(6)
        x = ell + k
        ga, gb, gc = math.lgamma(x), math.lgamma(ell), math.lgamma(k + 1)
        size = abs(ga) + abs(gb) + gc + ell * abs(l1) + k * abs(lb)
        return _exp_rounding(_lgamma_error(x, ga) + _lgamma_error(ell, gb)
                             + _lgamma_error(k + 1, gc) + _U * (
                                 1.0 + x * (abs(math.log(x)) + 1.0) + 4.0 * size
                                 + 5.0 * (ell * abs(l1) + k * abs(lb))))

    # the ratios beta (ell+j) / (j+1) fall to beta for ell >= 1 and rise to it for ell < 1
    return _truncate_by_ratio(lambda k: negbin_pmf(ell, beta, k),
                              lambda k: beta * max(1.0, (ell + k + 1) / (k + 2)), tol, 0, rel)


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
