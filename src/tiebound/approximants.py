"""Approximating target laws and exact total-variation distance.

The exchange format for distance computation is :class:`TruncatedPMF`: a
finite probability vector together with a certified upper bound on the mass
it omits.  Total variation between two truncated pmfs is then a rigorous
interval rather than a point value, so "bound dominates distance" checks
remain meaningful despite truncation.

All pmfs are evaluated in log space (via log-gamma) and exponentiated, so
they stay finite for very large arguments and parameters.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .errors import DomainError, TruncationError

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

    ``probs[i]`` is the probability of outcome ``k_min + i``.  ``k_min`` is
    the first outcome held, which need not be the first of the support: the
    tie-count laws start where their mass reaches the smallest normal
    double.  ``tail_mass_bound`` bounds the mass outside ``k_min..k_max``,
    on both sides, plus the certified rounding error of the stored entries
    (their L1 distance from the exact values).
    """

    k_min: int
    probs: np.ndarray
    tail_mass_bound: float

    def __post_init__(self):
        object.__setattr__(self, "probs", np.asarray(self.probs, dtype=float))
        if self.probs.ndim != 1 or self.probs.size == 0:
            raise DomainError("probs must be a non-empty 1-d vector")
        if self.tail_mass_bound < 0.0:
            raise DomainError("tail_mass_bound must be non-negative")

    @property
    def k_max(self) -> int:
        return self.k_min + self.probs.size - 1

    def prob(self, k: int) -> float:
        if self.k_min <= k <= self.k_max:
            return float(self.probs[k - self.k_min])
        return 0.0

    def total(self) -> float:
        return float(math.fsum(self.probs.tolist()))


class TVInterval(NamedTuple):
    """Certified enclosure of a total variation distance."""

    lo: float
    hi: float


def log_pmf(alpha: float, k: int) -> float:
    """Logarithmic law on {1, 2, ...}: P(k) = -alpha**k / (k * log(1 - alpha))."""
    if not (0.0 < alpha < 1.0):
        raise DomainError(f"logarithmic parameter must lie in (0, 1), got {alpha!r}")
    if k < 1:
        raise DomainError("logarithmic support starts at 1")
    norm = -math.log1p(-alpha)
    return math.exp(k * math.log(alpha) - math.log(k) - math.log(norm))


def poisson_pmf(lam: float, k: int) -> float:
    """Poisson law on {0, 1, ...}: P(k) = exp(-lam) * lam**k / k!."""
    if not (lam > 0.0) or not math.isfinite(lam):
        raise DomainError(f"Poisson rate must be a positive real, got {lam!r}")
    if k < 0:
        raise DomainError("Poisson support starts at 0")
    if k == 0:
        return math.exp(-lam)
    return math.exp(k * math.log(lam) - lam - math.lgamma(k + 1))


def negbin_pmf(ell: float, beta: float, k: int) -> float:
    """Negative binomial on {0, 1, ...} with shape ell and success odds beta.

    P(k) = Gamma(ell + k) / (Gamma(ell) k!) * (1 - beta)**ell * beta**k.
    For ell = 1 this reduces to (1 - beta) * beta**k, which is returned
    exactly (no log-gamma round trip).
    """
    if not (ell > 0.0) or not math.isfinite(ell):
        raise DomainError(f"negative binomial shape must be positive, got {ell!r}")
    if not (0.0 < beta < 1.0):
        raise DomainError(f"negative binomial odds must lie in (0, 1), got {beta!r}")
    if k < 0:
        raise DomainError("negative binomial support starts at 0")
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
    if not (tol > 0.0):
        raise DomainError("tolerance must be positive")
    probs = []
    best = math.inf
    k = k_min
    while k < k_min + max_terms:
        probs.append(pmf(k))
        bound = tail_after(k)
        best = min(best, bound)
        if bound <= tol:
            return TruncatedPMF(k_min=k_min, probs=np.array(probs), tail_mass_bound=bound)
        k += 1
    raise TruncationError(
        f"tail certificate did not reach {tol!r} within {max_terms} terms "
        f"(best achieved: {best!r})",
        best_bound=best,
    )


def truncated_log(alpha: float, tol: float) -> TruncatedPMF:
    """Logarithmic law as a TruncatedPMF with certified tail <= tol."""
    norm = -math.log1p(-alpha)

    def tail_after(k):
        # sum_{j>k} alpha**j / (j * norm) <= alpha**(k+1) / ((k+1)(1-alpha) norm)
        return math.exp((k + 1) * math.log(alpha)) / ((k + 1) * (1.0 - alpha) * norm)

    return truncate_law(lambda k: log_pmf(alpha, k), tail_after, tol, k_min=1)


def truncated_poisson(lam: float, tol: float) -> TruncatedPMF:
    """Poisson law as a TruncatedPMF with certified tail <= tol."""
    if not (lam > 0.0):
        raise DomainError("Poisson rate must be positive")

    def tail_after(k):
        # beyond the mode the term ratio lam/(k+1) is < 1 and decreasing
        ratio = lam / (k + 2)
        if ratio >= 1.0:
            return math.inf
        return poisson_pmf(lam, k + 1) / (1.0 - ratio)

    return truncate_law(lambda k: poisson_pmf(lam, k), tail_after, tol, k_min=0)


def truncated_negbin(ell: float, beta: float, tol: float) -> TruncatedPMF:
    """Negative binomial law as a TruncatedPMF with certified tail <= tol."""
    if not (ell > 0.0) or not (0.0 < beta < 1.0):
        raise DomainError("invalid negative binomial parameters")

    def tail_after(k):
        ratio = beta * (ell + k + 1) / (k + 2)
        if ratio >= 1.0:
            return math.inf
        return negbin_pmf(ell, beta, k + 1) / (1.0 - ratio)

    return truncate_law(lambda k: negbin_pmf(ell, beta, k), tail_after, tol, k_min=0)


def truncated_geometric(beta: float, tol: float) -> TruncatedPMF:
    """Geometric law on {1, 2, ...} with failure odds beta: P(k) = (1-beta) beta**(k-1).

    This is the unit-shape negative binomial shifted up by one.  The tail
    beyond k is exactly beta**k.
    """
    if not (0.0 < beta < 1.0):
        raise DomainError("geometric odds must lie in (0, 1)")
    return truncate_law(
        lambda k: (1.0 - beta) * beta ** (k - 1),
        lambda k: beta**k,
        tol,
        k_min=1,
    )


def positive_part_distance(p: TruncatedPMF, q: TruncatedPMF) -> TVInterval:
    """Certified interval for sup_E |P(X in E, X >= 1) - P(X >= 1) P(Y in E)|.

    Here X may place mass at zero while Y lives on {1, 2, ...}.  This is the
    discrepancy a first-order Stein identity controls when the identity only
    holds from k = 1 upward: mass of X at zero is scaled out rather than
    compared, so the value equals P(X >= 1) times the total variation
    distance between X conditioned to be positive and Y.
    """
    scale = 1.0 - p.prob(0)
    k_hi = max(p.k_max, q.k_max)
    total = math.fsum(abs(p.prob(k) - scale * q.prob(k)) for k in range(1, k_hi + 1))
    lo = min(max(0.5 * total, 0.0), 1.0)
    slack = p.tail_mass_bound + q.tail_mass_bound
    return TVInterval(lo=lo, hi=min(1.0, lo + slack))


def tv_distance(p: TruncatedPMF, q: TruncatedPMF) -> TVInterval:
    """Certified interval around the total variation distance of two laws.

    The point estimate ``lo`` is half the L1 distance over the union of the
    explicit supports (half-L1 equals the supremum discrepancy over outcome
    sets).  The true distance is at most ``hi = lo + (tail_p + tail_q) / 2``
    and at least ``lo`` minus the same slack, so ``hi`` is always a rigorous
    upper bound and ``hi - lo`` never exceeds the combined tail budgets.
    """
    k_lo = min(p.k_min, q.k_min)
    k_hi = max(p.k_max, q.k_max)
    size = k_hi - k_lo + 1
    pv = np.zeros(size)
    qv = np.zeros(size)
    pv[p.k_min - k_lo: p.k_min - k_lo + p.probs.size] = p.probs
    qv[q.k_min - k_lo: q.k_min - k_lo + q.probs.size] = q.probs
    lo = 0.5 * float(np.abs(pv - qv).sum())
    lo = min(max(lo, 0.0), 1.0)
    slack = 0.5 * (p.tail_mass_bound + q.tail_mass_bound)
    return TVInterval(lo=lo, hi=min(1.0, lo + slack))
