"""Negative binomial bounds for counts near order statistics of continuous samples.

Let X_(n-l+1:n) be the l-th largest of n i.i.d. continuous observations and
count the observations strictly inside (X_(n-l+1:n) - a, X_(n-l+1:n)).  That
count is a binomial mixture Bin(n - l, r_a(X_(n-l+1:n))) over the gap ratio

    r_a(x) = 1 - F(x - a) / F(x),

so the general engine here is a negative binomial bound for mixed binomial
random variables (``negbin_bound_mixed``), parameterized by the first two
moments of the mixing variable.  For the count near an order statistic the
mixing moments and the law of the count are integrals of vectors of
functions of r_a against the order-statistic density, one ``quad_vec`` pass
each, with closed forms for the Gumbel and uniform laws as cross-checks.  The
errors of these passes are QUADPACK-style estimates, not certificates.

The uniform closed forms come in two flavours: the idealized forms that
treat r_a(x) as a/x across the whole interval (accurate when a is small
relative to the interval width) and exact incomplete-beta forms that account
for r_a = 1 on (0, a).  The Gumbel closed forms are exact as stated, since
the Gumbel cdf is positive on all of R and nothing clamps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .approximants import TruncatedPMF
from .bounds_discrete import BoundReport
from .distributions import ContinuousLaw
from .errors import DegenerateParameterError, DomainError, IntegrationError

__all__ = [
    "MixedBinomialSpec",
    "NearOrderSpec",
    "negbin_bound_mixed",
    "negbin_bound_near_order",
    "order_stat_density",
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
        if not isinstance(self.n, int) or self.n < 1:
            raise DomainError(f"sample size must be a positive integer, got {self.n!r}")
        if not isinstance(self.ell, int) or not (1 <= self.ell <= self.n):
            raise DomainError(f"rank must be an integer in [1, {self.n}], got {self.ell!r}")
        if not (0.0 <= self.eq <= 1.0):
            raise DomainError(f"E[Q] must lie in [0, 1], got {self.eq!r}")
        if self.eq2 < 0.0 or self.eq2 > self.eq + 1e-9:
            raise DomainError(f"E[Q^2] = {self.eq2!r} incompatible with E[Q] = {self.eq!r}")
        if self.eq2 < self.eq * self.eq - 1e-9:
            raise DomainError(
                f"E[Q^2] = {self.eq2!r} below E[Q]^2 = {self.eq * self.eq!r}"
            )


@dataclass(frozen=True)
class NearOrderSpec:
    """Count of observations within distance ``a`` below the ell-th largest of n."""

    law: ContinuousLaw
    n: int
    ell: int
    a: float

    def __post_init__(self):
        if not isinstance(self.n, int) or self.n < 1:
            raise DomainError(f"sample size must be a positive integer, got {self.n!r}")
        if not isinstance(self.ell, int) or not (1 <= self.ell <= self.n):
            raise DomainError(f"rank must be an integer in [1, {self.n}], got {self.ell!r}")
        if not (self.a > 0.0):
            raise DomainError(f"distance threshold must be positive, got {self.a!r}")


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


def gap_ratio(law: ContinuousLaw, a: float, x: float) -> float:
    """r_a(x) = 1 - F(x - a) / F(x), taken as 1 where F(x) = 0.

    The clamped cdf makes this well defined below the support; the value is
    always in [0, 1].
    """
    fx = law.cdf(x)
    if fx <= 0.0:
        return 1.0
    r = 1.0 - law.cdf(x - a) / fx
    return min(max(r, 0.0), 1.0)


def _log_order_const(n: int, ell: int) -> float:
    """log(n * C(n-1, ell-1)), the order-statistic density normalizer."""
    if n <= 10_000:
        return math.log(n) + math.log(math.comb(n - 1, ell - 1))
    return (math.log(n) + math.lgamma(n) - math.lgamma(ell)
            - math.lgamma(n - ell + 1))


def order_stat_density(spec: NearOrderSpec, x: float) -> float:
    """Density of the ell-th largest of n observations at x.

    f_ell(x) = n C(n-1, ell-1) (1 - F(x))**(ell-1) F(x)**(n-ell) f(x);
    integrates to 1 over the support.
    """
    n, ell = spec.n, spec.ell
    fx = spec.law.pdf(x)
    if fx <= 0.0:
        return 0.0
    F = spec.law.cdf(x)
    return (math.exp(_log_order_const(n, ell))
            * (1.0 - F) ** (ell - 1) * F ** (n - ell) * fx)


def _integration_points(spec: NearOrderSpec):
    """Finite breakpoints: the gap-ratio kink plus order-statistic quantiles."""
    from scipy import stats

    lo, hi = spec.law.support
    pts = {lo + spec.a}
    if spec.law.quantile is not None:
        # bulk of the order statistic: F(X_(n-ell+1:n)) ~ Beta(n-ell+1, ell)
        u = stats.beta.ppf([1e-9, 0.05, 0.5, 0.95, 1.0 - 1e-9], spec.n - spec.ell + 1, spec.ell)
        x = spec.law.quantile(u[(0.0 < u) & (u < 1.0)])
        pts.update(x.tolist() + (x - spec.a).tolist())
    return sorted(p for p in pts if math.isfinite(p) and lo < p < hi)


def _adaptive_integral(spec: NearOrderSpec, values, tol: float):
    """Integral of the vector ``values(r_a(x))`` against the order-statistic density.

    One ``quad_vec`` pass over the support, split at the breakpoints, gives
    the vector and the Gauss-Kronrod estimate of its error in the Euclidean
    norm.  At large n the integrand is only accurate to about n * eps
    relative (F**(n-ell) amplifies the rounding of F) and the estimate can
    stall; the interval cap ends the pass there (the mixture pmf took at most
    27 intervals in cases up to n = 5000), and the callers judge the estimate.
    """
    from scipy import integrate

    def integrand(x):
        return order_stat_density(spec, x) * values(gap_ratio(spec.law, spec.a, x))

    return integrate.quad_vec(integrand, *spec.law.support, epsabs=min(tol / 4.0, 1e-11),
                              epsrel=1e-11, norm="2", limit=50,
                              points=_integration_points(spec))


def _gap_ratio_moments(spec: NearOrderSpec, powers, tol: float) -> np.ndarray:
    """E[r_a(X_(n-ell+1:n))**j] for each j in ``powers``, from one pass.

    The pass integrates (r_a / r_mid)**j, with r_mid the gap ratio at the
    order statistic's median (at least eps), so that one error norm holds
    every moment to a similar relative accuracy however small r_a is.
    """
    from scipy import stats

    powers = np.asarray(powers)
    r_mid = 1.0
    if spec.law.quantile is not None:
        x_mid = spec.law.quantile(stats.beta.ppf(0.5, spec.n - spec.ell + 1, spec.ell))
        r_mid = max(gap_ratio(spec.law, spec.a, x_mid), np.finfo(float).eps)
    scaled, err = _adaptive_integral(spec, lambda r: (r / r_mid) ** powers, tol)
    moments, errs = scaled * r_mid**powers, err * r_mid**powers
    if np.any(errs > np.maximum(tol, 1e-8 * np.abs(moments))):
        raise IntegrationError(
            f"gap-ratio moment quadrature error estimate {errs.max()!r} exceeds {tol!r}",
            value=float(moments[errs.argmax()]), error_estimate=float(errs.max()),
        )
    return moments


def gap_ratio_moment(spec: NearOrderSpec, j: int, tol: float = 1e-10) -> float:
    """E[r_a(X_(n-ell+1:n))**j] for j in {1, 2}, by adaptive quadrature.

    The error control is QUADPACK-style: the Gauss-Kronrod error estimate
    must meet ``tol`` (or 1e-8 relative), but it is an estimate, not a
    certificate.  Raises :class:`IntegrationError` carrying the achieved
    estimate when it does not.
    """
    if j not in (1, 2):
        raise DomainError(f"moment order must be 1 or 2, got {j!r}")
    if not (tol > 0.0):
        raise DomainError("tolerance must be positive")
    return float(_gap_ratio_moments(spec, [j], tol)[0])


def gumbel_gap_moment(n: int, a: float, j: int) -> float:
    """Closed-form E[r_a**j] at the Gumbel maximum (rank ell = 1).

    With c = e**a - 1:  j=1 gives c / (n + c); j=2 gives
    2 c**2 / ((n + c)(n + 2c)).  Exact for every a > 0.
    """
    if n < 1:
        raise DomainError(f"sample size must be positive, got {n!r}")
    if not (a > 0.0):
        raise DomainError(f"distance threshold must be positive, got {a!r}")
    c = math.expm1(a)
    if j == 1:
        return c / (n + c)
    if j == 2:
        return 2.0 * c * c / ((n + c) * (n + 2.0 * c))
    raise DomainError(f"moment order must be 1 or 2, got {j!r}")


def gumbel_gap_moment_exact(n: int, ell: int, a: float, j: int) -> float:
    """Exact E[r_a**j] at the ell-th largest Gumbel order statistic.

    Substituting t = e**(-x) turns the moment into a finite alternating sum:

        n C(n-1, ell-1) sum_{i<ell} sum_{s<=j} (-1)**(i+s) C(ell-1, i) C(j, s)
                                        / (n - ell + 1 + i + s c),

    with c = e**a - 1.  Reduces to :func:`gumbel_gap_moment` at ell = 1.
    """
    if not (1 <= ell <= n):
        raise DomainError(f"rank must lie in [1, {n}], got {ell!r}")
    if not (a > 0.0):
        raise DomainError(f"distance threshold must be positive, got {a!r}")
    if j not in (1, 2):
        raise DomainError(f"moment order must be 1 or 2, got {j!r}")
    c = math.expm1(a)
    norm = n * math.comb(n - 1, ell - 1)
    total = 0.0
    for i in range(ell):
        for s in range(j + 1):
            sign = -1.0 if (i + s) % 2 else 1.0
            total += (sign * math.comb(ell - 1, i) * math.comb(j, s)
                      / (n - ell + 1 + i + s * c))
    return norm * total


def uniform_gap_moment(n: int, ell: int, a: float, b: float, j: int) -> float:
    """Idealized closed-form E[r_a**j] for the uniform law on (0, b).

    j=1: a n / (b (n - ell));  j=2: a**2 n (n-1) / (b**2 (n-ell)(n-ell-1)).
    These treat the gap ratio as a/x on the whole interval, ignoring that it
    saturates at 1 on (0, a); they are accurate when a/b is small relative
    to the (n - ell)-th power decay of the order-statistic density, and they
    are the forms whose bound specializes nicely (see
    :func:`uniform_gap_moment_exact` for the exact expectation).
    """
    if not (1 <= ell <= n):
        raise DomainError(f"rank must lie in [1, {n}], got {ell!r}")
    if not (a > 0.0) or not (b > 0.0):
        raise DomainError("threshold and width must be positive")
    if j == 1:
        if n - ell < 1:
            raise DomainError("need n - ell >= 1 for the first moment form")
        return a * n / (b * (n - ell))
    if j == 2:
        if n - ell < 2:
            raise DomainError("need n - ell >= 2 for the second moment form")
        return a * a * n * (n - 1) / (b * b * (n - ell) * (n - ell - 1))
    raise DomainError(f"moment order must be 1 or 2, got {j!r}")


def uniform_gap_moment_exact(n: int, ell: int, a: float, b: float, j: int) -> float:
    """Exact E[r_a**j] for the uniform law on (0, b), via incomplete betas.

    Splitting at x = a (where r_a saturates at 1) gives, with u = min(a/b, 1),

        n C(n-1, ell-1) [ B(n-ell+1, ell) I_u(n-ell+1, ell)
            + (a/b)**j B(n-ell-j+1, ell) (1 - I_u(n-ell-j+1, ell)) ],

    where I is the regularized incomplete beta function.  For a >= b the
    ratio saturates everywhere and the moment is exactly 1.  Requires
    n - ell >= j so the second beta parameter stays positive.
    """
    if not (1 <= ell <= n):
        raise DomainError(f"rank must lie in [1, {n}], got {ell!r}")
    if not (a > 0.0) or not (b > 0.0):
        raise DomainError("threshold and width must be positive")
    if j not in (1, 2):
        raise DomainError(f"moment order must be 1 or 2, got {j!r}")
    if a >= b:
        return 1.0
    if n - ell < j:
        raise DomainError(f"need n - ell >= {j} for the exact moment form")
    from scipy import special

    u = a / b
    norm = n * math.comb(n - 1, ell - 1)
    head = (math.exp(special.betaln(n - ell + 1, ell))
            * special.betainc(n - ell + 1, ell, u))
    tail = (u**j * math.exp(special.betaln(n - ell - j + 1, ell))
            * (1.0 - special.betainc(n - ell - j + 1, ell, u)))
    return norm * (head + tail)


def negbin_bound_near_order(spec: NearOrderSpec, tol: float = 1e-10) -> BoundReport:
    """Negative binomial bound for the count near the ell-th largest observation.

    Computes the gap-ratio moments by quadrature and delegates to
    :func:`negbin_bound_mixed` with E[Q] = M1, E[Q^2] = M2; the shifted mean
    is E[count] = (n - ell) M1.
    """
    n, ell = spec.n, spec.ell
    if n - ell < 1:
        raise DomainError(f"need n - ell >= 1, got n = {n}, ell = {ell}")
    m1, m2 = (float(v) for v in _gap_ratio_moments(spec, [1, 2], tol))
    if m1 <= 0.0:
        raise DegenerateParameterError(
            "first gap-ratio moment vanishes; no negative binomial target exists"
        )
    # clamp quadrature noise into the feasible moment region [M1^2, M1]
    m2 = min(max(m2, m1 * m1), m1)
    report = negbin_bound_mixed(MixedBinomialSpec(n=n, ell=ell, eq=m1, eq2=m2))
    return replace(report, moments={**report.moments, "M1": m1, "M2": m2},
                   truncation_error=2.0 * tol, method="thm3")


def gumbel_max_bound(n: int, a: float) -> float:
    """Closed-form bound for the count near a Gumbel maximum (rank 1).

    With c = e**a - 1:

        (n-1) c**2 / (e**a (n + c)) * (1 + (n-2)/(n + 2c)).

    Vanishes as a -> 0 (the a = 0 limit is returned exactly) and matches the
    generic quadrature pipeline at rank 1.
    """
    if n < 2:
        raise DomainError(f"need at least two observations, got {n!r}")
    if a < 0.0:
        raise DomainError(f"distance threshold must be non-negative, got {a!r}")
    if a == 0.0:
        return 0.0
    c = math.expm1(a)
    return ((n - 1) * c * c / (math.exp(a) * (n + c))
            * (1.0 + (n - 2) / (n + 2.0 * c)))


def near_order_count_pmf(spec: NearOrderSpec, tol: float = 1e-10) -> TruncatedPMF:
    """Exact law of the near-order count, as a binomial mixture by quadrature.

    P(count = k) = integral of Bin(n - ell, r_a(x)).pmf(k) against the
    order-statistic density, for k = 0, ..., n - ell, all from one pass over
    the pmf vector.  The support is complete, so the tail budget of the
    result is the quadrature error alone: the Euclidean-norm estimate times
    sqrt(n - ell + 1), which bounds the L1 norm of the same error vector.
    Like every QUADPACK-style error estimate it is not a certificate.
    """
    from scipy import stats

    m = spec.n - spec.ell
    k = np.arange(m + 1)
    probs, err = _adaptive_integral(spec, lambda r: stats.binom.pmf(k, m, r), tol)
    l1_err = math.sqrt(m + 1) * err
    if l1_err > max(tol, 1e-7):
        raise IntegrationError(
            f"mixture pmf quadrature error {l1_err!r} exceeds {tol!r}",
            value=float("nan"), error_estimate=l1_err,
        )
    return TruncatedPMF(k_min=0, probs=probs, tail_mass_bound=l1_err)
