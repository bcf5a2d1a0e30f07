"""Negative binomial bounds for counts near order statistics of continuous samples.

Let X_(n-l+1:n) be the l-th largest of n i.i.d. continuous observations and
count the observations strictly inside (X_(n-l+1:n) - a, X_(n-l+1:n)).  That
count is a binomial mixture Bin(n - l, r_a(X_(n-l+1:n))) over the gap ratio

    r_a(x) = 1 - F(x - a) / F(x),

so the general engine here is a negative binomial bound for mixed binomial
random variables (``negbin_bound_mixed``), parameterized by the first two
moments of the mixing variable.

The Gumbel and uniform laws give the thm3 bound its mixing moments in
closed form (``ContinuousLaw.gap_moments``, from ``moments``, whose public
forms this module re-exports), so the bound integrates nothing and needs no
numpy; and they give the near-order law in closed form too
(``ContinuousLaw.near_order_law``: the uniform law at every rank, the
Gumbel law at the maximum), with a certified ``tail_mass_bound``.  For
other laws both come by quadrature over the order statistic's law, whose
errors are estimates (see ``tiebound._quadrature``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from . import _quadrature
from ._numpy import _many
from .approximants import BoundReport, TruncatedPMF
from .binomial import _TINY, _gamma
from .distributions import ContinuousLaw
from .errors import DegenerateParameterError, DomainError, integer_in, positive_tol, real_in
from .moments import (gumbel_gap_moment, gumbel_gap_moment_exact, uniform_gap_moment,
                      uniform_gap_moment_exact)

__all__ = [
    "MixedBinomialSpec",
    "NearOrderSpec",
    "negbin_bound_mixed",
    "negbin_bound_near_order",
    "gap_ratio",
    "gap_ratio_moment",
    "gumbel_gap_moment",
    "gumbel_gap_moment_exact",
    "uniform_gap_moment",
    "uniform_gap_moment_exact",
    "gumbel_max_bound",
    "near_order_count_pmf",
]


@dataclass(frozen=True)
class MixedBinomialSpec:
    """Bin(n - ell, Q) with random success chance Q, known through two moments.

    ``eq`` and ``eq2`` are E[Q] and E[Q**2].  Since Q lives in [0, 1] they
    must satisfy eq**2 <= eq2 <= eq (tiny violations from quadrature noise
    are clamped by the caller, not here).
    """

    n: int
    ell: int
    eq: float
    eq2: float

    def __post_init__(self):
        object.__setattr__(self, "n", integer_in(self.n, 1, what="sample size"))
        object.__setattr__(self, "ell", integer_in(self.ell, 1, self.n, "rank"))
        if not (0.0 <= self.eq <= 1.0):
            raise DomainError(f"E[Q] must lie in [0, 1], got {self.eq!r}")
        if not (max(0.0, self.eq * self.eq - 1e-9) <= self.eq2 <= self.eq + 1e-9):
            raise DomainError(f"E[Q^2] = {self.eq2!r} must lie in [E[Q]^2, E[Q]] within 1e-9, "
                              f"E[Q] = {self.eq!r}")


@dataclass(frozen=True)
class NearOrderSpec:
    """Count of observations within distance ``a`` below the ell-th largest of n."""

    law: ContinuousLaw
    n: int
    ell: int
    a: float

    def __post_init__(self):
        if not isinstance(self.law, ContinuousLaw):
            raise DomainError(f"near-order counts need a continuous law, "
                              f"got {type(self.law).__name__}")
        object.__setattr__(self, "n", integer_in(self.n, 1, what="sample size"))
        object.__setattr__(self, "ell", integer_in(self.ell, 1, self.n, "rank"))
        real_in(self.a, 0.0, math.inf, "distance threshold")


def negbin_bound_mixed(spec: MixedBinomialSpec) -> BoundReport:
    """Negative binomial bound for W ~ Bin(n - ell, Q) mixed over Q.

    The target NB(ell, 1 - beta) matches the mean: beta = E[W] / (E[W] + ell)
    with E[W] = (n - ell) E[Q].  The distance satisfies

        d_TV(W, Z) <= (1 - (1-beta)**ell) / (beta ell) * E[W]
            * (beta + (1-beta) [(n-ell-1) E[Q^2]/E[Q] - (n-ell-2) E[Q]]).
    """
    n, ell = spec.n, spec.ell
    if n - ell < 1:
        raise DomainError(f"need n - ell >= 1, got n = {n}, ell = {ell}")
    if spec.eq <= 0.0:
        raise DegenerateParameterError(
            "E[Q] = 0: the mixed binomial is identically zero and the matched "
            "negative binomial degenerates"
        )
    ew = (n - ell) * spec.eq
    beta = ew / (ew + ell)
    factor = -math.expm1(ell * math.log1p(-beta)) / (beta * ell)
    bracket = beta + (1.0 - beta) * (
        (n - ell - 1) * spec.eq2 / spec.eq - (n - ell - 2) * spec.eq
    )
    bound = factor * ew * bracket
    return BoundReport(
        bound=bound,
        params={"beta": beta, "ell": float(ell)},
        moments={"EW": ew, "EQ": spec.eq, "EQ2": spec.eq2},
        truncation_error=0.0,
        method="thm4",
    )


def gap_ratio(law: ContinuousLaw, a: float, x):
    """r_a(x) = 1 - F(x - a) / F(x), taken as 1 where F(x) = 0.

    Formed as -expm1(log F(x - a) - log F(x)) from the law's ``logcdf``, with
    no subtraction of nearly equal numbers; the value is always in [0, 1].
    A float ``x`` gives a float; an array of them maps that formula over its
    entries (``_many``).
    """
    if type(x) is not float:
        return _many(x, lambda x: gap_ratio(law, a, x))
    log_f = law.logcdf(x)
    r = -math.expm1(law.logcdf(x - a) - log_f) if log_f > -math.inf else 1.0
    return min(max(r, 0.0), 1.0)


def gap_ratio_moment(spec: NearOrderSpec, j: int, tol: float = 1e-10) -> float:
    """E[r_a(X_(n-ell+1:n))**j] for j in {1, 2}, by adaptive quadrature.

    The error control is QUADPACK-style: the Gauss-Kronrod error estimate
    must meet ``tol`` (or 1e-8 relative), but it is an estimate, not a
    certificate.  Raises :class:`IntegrationError` carrying the achieved
    estimate when it does not.
    """
    j = integer_in(j, 1, 2, "moment order")
    positive_tol(tol)
    return float(_quadrature._gap_ratio_moments(spec, [j], tol)[0][0])


def _formula_rounding(report: BoundReport, n: int, ell: int) -> float:
    """A bound on the rounding of :func:`negbin_bound_mixed`'s formula at the
    report's moments, in units u: 8 for the bracket, counted on the sum of
    the magnitudes of its parts, which cancel where the gap ratio varies
    little, and 24 for the factor, E[W] and beta in the product."""
    beta, ew, eq, eq2 = (report.params["beta"], report.moments["EW"], report.moments["EQ"],
                         report.moments["EQ2"])
    factor = -math.expm1(ell * math.log1p(-beta)) / (beta * ell)
    parts = beta + (1.0 - beta) * ((n - ell - 1) * eq2 / eq + abs(n - ell - 2) * eq)
    return _gamma(8) * factor * ew * parts + _gamma(24) * report.bound


def negbin_bound_near_order(spec: NearOrderSpec, tol: float = 1e-10) -> BoundReport:
    """Negative binomial bound for the count near the ell-th largest observation.

    Takes the gap-ratio moments from the law's closed form (``gap_moments``)
    where it has one, else by quadrature, and delegates to
    :func:`negbin_bound_mixed` with E[Q] = M1, E[Q^2] = M2; the shifted mean
    is E[count] = (n - ell) M1.  ``truncation_error`` is the largest change
    of the bound over the corners (M1 +- e1, M2 +- e2) of the moments'
    errors, plus three times a bound on the rounding of the formula (at the
    report and at either end of a change).  It is certified for the Gumbel
    law, whose closed form bounds its own rounding; the uniform law's
    closed form and the quadrature give estimates of their errors, and
    with them an estimate.
    """
    n, ell = spec.n, spec.ell
    if n - ell < 1:
        raise DomainError(f"need n - ell >= 1, got n = {n}, ell = {ell}")
    positive_tol(tol)
    moments = spec.law.gap_moments and spec.law.gap_moments(n, ell, spec.a)
    if moments:
        m1, m2, e1, e2 = moments
    else:
        (m1, m2), (e1, e2) = (map(float, v)
                              for v in _quadrature._gap_ratio_moments(spec, [1, 2], tol))
    if not m1 * m1 > 0.0:  # the bound's bracket needs M2 >= M1**2 > 0
        raise DegenerateParameterError(
            "first gap-ratio moment vanishes, or its square underflows; no negative binomial "
            "target exists"
        )

    def bound_at(m1, m2):
        # clamp noise into the feasible region 0 < M1 <= 1, M1^2 <= M2 <= M1
        m1 = min(max(m1, _TINY), 1.0)
        m2 = min(max(m2, m1 * m1), m1)
        return negbin_bound_mixed(MixedBinomialSpec(n=n, ell=ell, eq=m1, eq2=m2))

    report = bound_at(m1, m2)
    m1, m2 = report.moments["EQ"], report.moments["EQ2"]
    error = max(abs(bound_at(m1 + s1 * e1, m2 + s2 * e2).bound - report.bound)
                for s1 in (-1.0, 1.0) for s2 in (-1.0, 1.0))
    return replace(report, moments={**report.moments, "M1": m1, "M2": m2},
                   truncation_error=error + 3.0 * _formula_rounding(report, n, ell),
                   method="thm3")


def gumbel_max_bound(n: int, a: float) -> float:
    """Closed-form bound for the count near a Gumbel maximum (rank 1).

    With c = e**a - 1:

        (n-1) c**2 / (e**a (n + c)) * (1 + (n-2)/(n + 2c)).

    Vanishes as a -> 0 (the a = 0 limit is returned exactly) and matches the
    generic quadrature pipeline at rank 1.
    """
    n = integer_in(n, 2, what="sample size")
    if not 0.0 <= a < math.inf:
        raise DomainError(f"distance threshold must be a non-negative real, got {a!r}")
    if a == 0.0:
        return 0.0
    c = math.expm1(a)
    return ((n - 1) * c * c / (math.exp(a) * (n + c))
            * (1.0 + (n - 2) / (n + 2.0 * c)))


def near_order_count_pmf(spec: NearOrderSpec, tol: float = 1e-10) -> TruncatedPMF:
    """Exact law of the near-order count: the law's closed form where it has
    one (``ContinuousLaw.near_order_law``), else the binomial mixture by
    quadrature (:func:`_quadrature._mixture_pmf`).

    The closed form's ``tail_mass_bound`` is certified: it bounds the mass
    outside the entries held plus their rounding.  The quadrature's is in
    part an estimate.
    """
    positive_tol(tol)
    law = spec.law.near_order_law and spec.law.near_order_law(spec.n, spec.ell, spec.a, tol)
    return law or _quadrature._mixture_pmf(spec, tol)
