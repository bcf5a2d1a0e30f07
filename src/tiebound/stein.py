"""Stein-equation machinery for the logarithmic target law.

A test function is h(k) = 1{k in E} - P(L in E) for a logarithmic random
variable L and an outcome set E, so that sup_h |E h(K)| over all such h is
exactly the total variation distance between K and L.  The companion
function f solves

    h(k) = k f(k-1) - alpha k f(k)          (k = 1, 2, ...)

and admits the series form f(k) = (1/alpha) sum_{j>=1} h(j+k) alpha**j / (j+k)
(the forward recursion seeded at f(0) = 0 produces the same values whenever
E[h(L)] = 0, but amplifies error by 1/alpha per step, so it is kept as a
test oracle only).  The solution is uniformly bounded by
-log(1 - alpha) / alpha.

This module evaluates the series split by the test set.  For E a finite
set M, with P = P(L in M) and S_k = sum_{j>=1} alpha**j / (j+k), the
indicator's part of the series keeps only the terms at j + k = i in M, so

    f(k) = (sum_{i in M, i > k} alpha**(i-k) / i - P S_k) / alpha,

and the complement of M, whose h is -h of M, has the solution -f.  The
member sum is finite and exact up to rounding; S_k is the one series,
summed by ``math.fsum`` of terms each from ``pow``, with no cancellation
inside it.  ``tol`` bounds its truncation: P <= 1, and the terms after J
sum to at most alpha**(J+1) / ((1-alpha) (J+k+1)).  The rounding, a few u
times (|sum_M| + P S_k) / alpha with u the unit roundoff, is stated here
but not certified.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .approximants import log_pmf
from .errors import TruncationError, integer_in, positive_tol, real_in

__all__ = [
    "SteinTestFn",
    "stein_solution",
    "stein_residual",
    "solution_sup_bound",
    "log_vs_negbin_bound",
]

_MAX_TERMS = 20_000_000


@dataclass(frozen=True)
class SteinTestFn:
    """Indicator-minus-mean test function for a logarithmic law.

    ``members`` is a finite outcome set; with ``complement=True`` the test
    set is its complement in {0, 1, 2, ...}.  The members' probability
    P(L in members) under the logarithmic law with parameter ``alpha`` is
    fixed at construction, so that the function integrates to zero.
    """

    members: frozenset
    alpha: float
    complement: bool = False

    def __post_init__(self):
        real_in(self.alpha, 0.0, 1.0, "logarithmic parameter")
        members = frozenset(integer_in(k, 0, what="test-set outcome") for k in self.members)
        object.__setattr__(self, "members", members)
        object.__setattr__(self, "_prob",
                           math.fsum(log_pmf(self.alpha, k) for k in members if k >= 1))

    def __call__(self, k: int) -> float:
        """h(k) = 1{k in members} - P(L in members), negated for a complement; in [-1, 1]."""
        h = (k in self.members) - self._prob
        return -h if self.complement else h


def stein_solution(test: SteinTestFn, k: int, tol: float = 1e-13) -> float:
    """f(k) = (sum_{i in M, i > k} alpha**(i-k) / i - P S_k) / alpha, negated
    for a complement, with S_k's truncation certified within tol.

    The remainder after J terms is at most alpha**J / ((1-alpha) (J+k+1))
    once divided by alpha, since P <= 1.  Past ``_MAX_TERMS`` terms, raises
    :class:`TruncationError` with that remainder at the cap as ``best_bound``.
    """
    k = integer_in(k, 0, what="Stein solution argument")
    positive_tol(tol)
    alpha = test.alpha
    log_a = math.log(alpha)
    # closed-form starting guess for the truncation length, then verify
    target = math.log(tol) + math.log1p(-alpha) + math.log(k + 1)
    terms = max(8, int(math.ceil(target / log_a)))
    while terms * log_a - math.log1p(-alpha) - math.log(terms + k + 1) > math.log(tol):
        terms *= 2
    if terms > _MAX_TERMS:
        best = pow(alpha, _MAX_TERMS) / ((1.0 - alpha) * (_MAX_TERMS + k + 1))
        raise TruncationError(f"series for the Stein solution did not reach {tol!r}",
                              best_bound=best)
    inside = math.fsum(pow(alpha, i - k) / i for i in test.members if i > k)
    series = math.fsum(pow(alpha, j) / (j + k) for j in range(1, terms + 1))
    f = (inside - test._prob * series) / alpha
    return -f if test.complement else f


def stein_residual(test: SteinTestFn, k: int, tol: float = 1e-13) -> float:
    """Defect k f(k-1) - alpha k f(k) - h(k); zero up to series truncation.

    With both solution values certified within ``tol`` the residual is
    bounded by k (1 + alpha) tol plus roundoff.
    """
    k = integer_in(k, 1, what="Stein identity argument")
    f_prev = stein_solution(test, k - 1, tol)
    f_here = stein_solution(test, k, tol)
    return k * f_prev - test.alpha * k * f_here - test(k)


def solution_sup_bound(alpha: float) -> float:
    """Uniform bound -log(1 - alpha) / alpha on |f|; decreases to 1 as alpha -> 0."""
    real_in(alpha, 0.0, 1.0, "logarithmic parameter")
    return -math.log1p(-alpha) / alpha


def log_vs_negbin_bound(alpha: float, beta: float, ell: float) -> float:
    """Total variation bound between NB(ell, 1-beta) and a logarithmic law L(alpha).

        -log(1-alpha) sqrt(beta ell) / (alpha (1-beta))
            * ((1-alpha) sqrt(beta ell) + |alpha - beta|)

    The mean-mismatch term enters through |alpha - beta|: the derivation
    bounds a centered expectation by its absolute value, so the bound stays
    valid on either side of alpha = beta.  At alpha = beta this collapses to
    -log(1-alpha) * ell, returned exactly.
    """
    real_in(alpha, 0.0, 1.0, "logarithmic parameter")
    real_in(beta, 0.0, 1.0, "negative binomial odds")
    real_in(ell, 0.0, math.inf, "negative binomial shape")
    if alpha == beta:
        return -math.log1p(-alpha) * ell
    root = math.sqrt(beta * ell)
    return (-math.log1p(-alpha) * root / (alpha * (1.0 - beta))
            * ((1.0 - alpha) * root + abs(alpha - beta)))
