"""Stein-equation machinery for the logarithmic target law.

A test function is h(k) = 1{k in E} - P(L in E) for a logarithmic random
variable L and an outcome set E, so that sup_h |E h(K)| over all such h is
exactly the total variation distance between K and L.  The companion
function f solves

    h(k) = k f(k-1) - alpha k f(k)          (k = 1, 2, ...)

and admits the series form f(k) = (1/alpha) sum_{j>=1} h(j+k) alpha**j / (j+k),
which is what this module evaluates (the forward recursion seeded at
f(0) = 0 produces the same values whenever E[h(L)] = 0, but amplifies error
by 1/alpha per step, so it is kept as a test oracle only).  The solution is
uniformly bounded by -log(1 - alpha) / alpha.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ._numpy import np
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
    set is its complement in {0, 1, 2, ...}.  The offset P(L in E) is fixed
    at construction so that the function integrates to zero under the
    logarithmic law with parameter ``alpha``.
    """

    members: frozenset
    alpha: float
    complement: bool = False

    def __post_init__(self):
        real_in(self.alpha, 0.0, 1.0, "logarithmic parameter")
        members = frozenset(integer_in(k, 0, what="test-set outcome") for k in self.members)
        object.__setattr__(self, "members", members)
        inside = math.fsum(log_pmf(self.alpha, k) for k in members if k >= 1)
        prob = 1.0 - inside if self.complement else inside
        object.__setattr__(self, "_target_prob", prob)
        object.__setattr__(self, "_member_arr",
                           np.array(sorted(members), dtype=np.int64))

    def __call__(self, k):
        """h(k), always in [-1, 1]; vectorized over integer arrays."""
        k = np.asarray(k)
        ind = np.isin(k, self._member_arr)
        if self.complement:
            ind = ~ind
        out = ind.astype(float) - self._target_prob
        return out if out.ndim else float(out)


def stein_solution(test: SteinTestFn, k: int, tol: float = 1e-13) -> float:
    """f(k) = (1/alpha) sum_{j>=1} h(j+k) alpha**j / (j+k), certified within tol.

    The remainder after J terms is at most alpha**J / ((1-alpha) (J+k+1)) in
    absolute value since |h| <= 1.
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
            raise TruncationError(
                f"series for the Stein solution did not reach {tol!r}",
                best_bound=math.exp(_MAX_TERMS * log_a - math.log1p(-alpha)),
            )
    j = np.arange(1, terms + 1, dtype=np.int64)
    weights = np.exp(j * log_a - np.log(j + k))
    return float(np.dot(test(j + k), weights)) / alpha


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
