"""Negative binomial bounds for counts near order statistics of continuous samples.

Let X_(n-l+1:n) be the l-th largest of n i.i.d. continuous observations and
count the observations strictly inside (X_(n-l+1:n) - a, X_(n-l+1:n)).  That
count is a binomial mixture Bin(n - l, r_a(X_(n-l+1:n))) over the gap ratio

    r_a(x) = 1 - F(x - a) / F(x),

so the general engine here is a negative binomial bound for mixed binomial
random variables (``negbin_bound_mixed``), parameterized by the first two
moments of the mixing variable.  For the count near an order statistic the
mixing moments and the law of the count are integrals of vectors of
functions of r_a over the order statistic's probability scale
V = 1 - F(X_(n-l+1:n)), which is Beta(l, n-l+1) for every law: one adaptive
Gauss-Kronrod pass each (``_gk21_pass``) over v in (0, 1), with the law
entering only through ``logcdf`` and ``logquantile``, and closed forms for
the Gumbel and uniform laws as cross-checks.  The errors of these passes
are QUADPACK-style estimates, not certificates.  No scipy is used: with
integer shapes the Beta cdf is a binomial tail (``_log_binom_tail``), and
the quantiles of V that place the panel edges are roots of that tail
(``_beta_quantile``).

The uniform closed forms come in two flavours: the idealized forms that
treat r_a(x) as a/x across the whole interval (accurate when a is small
relative to the interval width) and exact forms, as binomial tails, that
account for r_a = 1 on (0, a).  The Gumbel closed forms are exact as stated, since
the Gumbel cdf is positive on all of R and nothing clamps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .approximants import TruncatedPMF
from .binomial import _EPS, _log_binom_tail, _log_binom_term, _log_choose, binom_rows
from .bounds_discrete import BoundReport
from .distributions import ContinuousLaw
from .errors import DegenerateParameterError, DomainError, IntegrationError, integer_in

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
        object.__setattr__(self, "n", integer_in(self.n, 1, what="sample size"))
        object.__setattr__(self, "ell", integer_in(self.ell, 1, self.n, "rank"))
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


def gap_ratio(law: ContinuousLaw, a: float, x):
    """r_a(x) = 1 - F(x - a) / F(x), taken as 1 where F(x) = 0.

    Formed as -expm1(log F(x - a) - log F(x)) from the law's ``logcdf``, with
    no subtraction of nearly equal numbers; the value is always in [0, 1].
    ``x`` may be an array; a scalar gives a float.
    """
    x = np.asarray(x, dtype=float)
    log_f = law.logcdf(x)
    with np.errstate(invalid="ignore"):  # -inf - (-inf) where F(x) = 0
        r = np.where(log_f > -np.inf, np.clip(-np.expm1(law.logcdf(x - a) - log_f), 0.0, 1.0), 1.0)
    return r if r.ndim else float(r)


def _log_beta_root(a: int, b: int, log_p: float) -> float:
    """x = log u with log I_u(a, b) = log_p, for integers a, b >= 2 and p <= 1/2.

    I_u(a, b) = P(Bin(a+b-1, u) >= a), whose log is concave in x (the law
    of log U is log-concave), so Newton's iterates that start left of the
    root rise to it; one from the right lands left of it.  The start is
    the normal approximation, inside the bracket from I_u <= C(a+b-1, a) u**a
    on the left and x = 0 on the right; a step leaving the bracket bisects.
    """
    from statistics import NormalDist  # here, so that other commands skip its import

    m = a + b - 1
    lo, hi = (log_p - math.lgamma(m + 1) + math.lgamma(a + 1) + math.lgamma(b)) / a, 0.0
    mean, var = a / (m + 1.0), a * b / ((m + 1.0) ** 2 * (m + 2.0))
    guess = mean + NormalDist().inv_cdf(math.exp(log_p)) * math.sqrt(var)
    x = max(math.log(guess), lo) if 0.0 < guess < 1.0 else lo
    for _ in range(200):
        u = math.exp(x)
        log_tail = _log_binom_tail(m, a - 1, u, upper=True)
        if log_tail == log_p:
            return x
        lo, hi = (x, hi) if log_tail < log_p else (lo, x)
        # d log I / dx = u f(u) / I, and u f(u) = a P(Bin(m, u) = a)
        slope = a * math.exp(_log_binom_term(m, a, u) - log_tail)
        x_new = x - (log_tail - log_p) / slope if slope > 0.0 else math.nan
        if abs(x_new - x) <= 2.0 * _EPS * max(1.0, abs(x)):  # a relative step in u
            return x_new
        x = x_new if lo < x_new < hi else 0.5 * (lo + hi)
    return x


def _beta_quantile(n: int, ell: int, probs, upper: bool = False) -> np.ndarray:
    """The v with P(V <= v) = p, or P(V > v) = p if ``upper``, for each p in
    ``probs``, where V = 1 - F(X_(n-ell+1:n)) ~ Beta(ell, n-ell+1).

    With integer shapes the Beta cdf is a binomial tail (DLMF 8.17.5);
    rank 1 and rank n have closed forms.  A p > 1/2 moves to the other tail
    as 1 - p (exact in floats).  A lower tail solves for log v on the cdf of
    V, so that a small v keeps its relative accuracy, and an upper one for
    log(1 - v) on the cdf of 1 - V ~ Beta(n-ell+1, ell).
    """
    out = []
    for p in probs:
        p, side = (p, upper) if p <= 0.5 else (1.0 - p, not upper)
        if ell == 1:  # P(V > v) = (1 - v)**n
            v = -math.expm1((math.log(p) if side else math.log1p(-p)) / n)
        elif ell == n:  # P(V <= v) = v**n
            v = math.exp((math.log1p(-p) if side else math.log(p)) / n)
        elif side:
            v = -math.expm1(_log_beta_root(n - ell + 1, ell, math.log(p)))
        else:
            v = math.exp(_log_beta_root(ell, n - ell + 1, math.log(p)))
        out.append(v)
    return np.array(out)


# panel edges: quantiles of V at these probabilities, the tail ones on both sides
_TAIL_PROBS = (1e-40, 1e-20, 1e-9)
_BULK_PROBS = (0.05, 0.5, 0.95)


def _panel_edges(spec: NearOrderSpec):
    """Edges in v of the panels of the near-order integrals, and V's median.

    The edges are 0, 1, the quantiles of V at ``_BULK_PROBS`` and, on both
    sides, at ``_TAIL_PROBS``, so that each panel holds a known share of the
    density down to 1e-40 in either tail, and for a support bounded below
    the kink of r_a at v = 1 - F(lo + a), below which r_a is 1.
    """
    n, ell = spec.n, spec.ell
    lower = _beta_quantile(n, ell, _TAIL_PROBS + _BULK_PROBS)
    edges = {0.0, 1.0, *lower.tolist(), *_beta_quantile(n, ell, _TAIL_PROBS, upper=True).tolist()}
    lo = spec.law.support[0]
    if math.isfinite(lo):
        edges.add(-math.expm1(spec.law.logcdf(lo + spec.a)))
    return np.array(sorted(edges)), float(lower[len(_TAIL_PROBS) + _BULK_PROBS.index(0.5)])


def _mirror(half, sign=1.0):
    """A 21-entry table of the rule from its first 11 entries, centre last."""
    return np.array(half + [sign * value for value in half[-2::-1]])


# QUADPACK's 21-point Gauss-Kronrod rule (Piessens et al., 1983): the nodes,
# the Kronrod weights, and the Gauss weight of each node (0 off the Gauss nodes)
_GK21 = (
    _mirror([0.995657163025808080735527280689003, 0.973906528517171720077964012084452,
             0.930157491355708226001207180059508, 0.865063366688984510732096688423493,
             0.780817726586416897063717578345042, 0.679409568299024406234327365114874,
             0.562757134668604683339000099272694, 0.433395394129247190799265943165784,
             0.294392862701460198131126603103866, 0.148874338981631210884826001129720, 0.0], -1.0),
    _mirror([0.011694638867371874278064396062192, 0.032558162307964727478818972459390,
             0.054755896574351996031381300244580, 0.075039674810919952767043140916190,
             0.093125454583697605535065465083366, 0.109387158802297641899210590325805,
             0.123491976262065851077958109831074, 0.134709217311473325928054001771707,
             0.142775938577060080797094273138717, 0.147739104901338491374841515972068,
             0.149445554002916905664936468389821]),
    _mirror([0.0, 0.066671344308688137593568809893332, 0.0, 0.149451349150580593145776339657697,
             0.0, 0.219086362515982043995534934228163, 0.0, 0.269266719309996355091226921569469,
             0.0, 0.295524224714752870173892994651338, 0.0]),
)
_TINY = np.finfo(float).tiny
_MAX_PANELS = 50


def _gk_panels(f, lo: np.ndarray, hi: np.ndarray):
    """GK21 integrals of ``f`` over the panels (lo[i], hi[i]), and their errors.

    All nodes go to ``f`` in one call.  The error of a panel is QUADPACK's
    estimate in the Euclidean norm: the gap |K - G| between the Kronrod and
    Gauss sums, scaled by the rule (200 |K - G| / D)**1.5 with D the
    integral of |f - mean f|, and at least 50 eps times the integral of
    |f|, the rounding term.
    """
    x, v, w = _GK21
    c, h = 0.5 * (lo + hi), 0.5 * (hi - lo)
    fv = f((c[:, None] + h[:, None] * x).ravel()).reshape(lo.size, x.size, -1)
    kronrod = np.einsum("n,pnd->pd", v, fv)
    err = h * np.linalg.norm(kronrod - np.einsum("n,pnd->pd", w, fv), axis=1)
    rnd = 50.0 * _EPS * h * np.linalg.norm(np.einsum("n,pnd->pd", v, np.abs(fv)), axis=1)
    fv -= kronrod[:, None] / 2.0  # in place: fv can hold whole binomial rows
    dabs = h * np.linalg.norm(np.einsum("n,pnd->pd", v, np.abs(fv, out=fv)), axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        scaled = dabs * np.minimum(1.0, (200.0 * err / dabs) ** 1.5)
    err = np.where((dabs != 0.0) & (err != 0.0), scaled, err)
    return h[:, None] * kronrod, np.maximum(err, rnd)


def _gk21_pass(f, edges: np.ndarray, epsabs: float, epsrel: float):
    """Integral of a vector-valued ``f`` over (edges[0], edges[-1]), and its error.

    One GK21 pass over the panels between the edges; while the summed error
    estimate misses max(epsabs, epsrel |integral|), each panel whose error
    is above its share of that tolerance is bisected (the largest first),
    up to ``_MAX_PANELS`` panels.  ``f`` maps an array of N points to an
    (N, d) array.  The error is a QUADPACK-style estimate, not a bound.
    """
    lo, hi = edges[:-1], edges[1:]
    ig, err = _gk_panels(f, lo, hi)
    while True:
        tol = max(epsabs, epsrel * float(np.linalg.norm(ig.sum(axis=0))))
        if not err.sum() > tol or lo.size >= _MAX_PANELS:  # a nan estimate ends it too
            return ig.sum(axis=0), float(err.sum())
        split = np.argsort(-err)[:_MAX_PANELS - lo.size]
        split = split[err[split] > tol / lo.size]
        mid = 0.5 * (lo[split] + hi[split])
        lo = np.concatenate([np.delete(lo, split), lo[split], mid])
        hi = np.concatenate([np.delete(hi, split), mid, hi[split]])
        new_ig, new_err = _gk_panels(f, lo[-2 * split.size:], hi[-2 * split.size:])
        ig = np.vstack([np.delete(ig, split, 0), new_ig])
        err = np.append(np.delete(err, split), new_err)


def _log_order_density(n: int, ell: int, v: np.ndarray) -> np.ndarray:
    """log n C(n-1, ell-1) v**(ell-1) (1-v)**(n-ell), the log density of
    V = 1 - F(X_(n-ell+1:n)) ~ Beta(ell, n-ell+1), at v in [0, 1]."""
    out = np.full(v.shape, math.log(n) + _log_choose(n - 1, ell - 1))
    with np.errstate(divide="ignore"):  # v = 0 or 1 gives -inf, never 0 * inf
        if ell > 1:
            out += (ell - 1) * np.log(v)
        if ell < n:
            out += (n - ell) * np.log1p(-v)
    return out


def _mixture_integral(spec: NearOrderSpec, values, tol: float, edges):
    """Integral of the vector ``values(r_a)`` over the law of the order statistic.

    The integral runs over v = 1 - F(X_(n-ell+1:n)) ~ Beta(ell, n-ell+1)
    for every law alike, with the order statistic at x =
    logquantile(log1p(-v)), so no power of F is formed.  The density's own
    integral is a column of the same pass, and the vector is divided by it,
    which cancels the rounding of log C(n-1, ell-1) (about n eps at
    ell = n/2).  ``values`` maps an array of N gap ratios to an (N, d)
    array.  Returns the vector and its Gauss-Kronrod error estimate in the
    Euclidean norm, an estimate, not a certificate.
    """
    def integrand(v):
        with np.errstate(divide="ignore"):  # a node next to v = 1 can round onto it
            r = gap_ratio(spec.law, spec.a, spec.law.logquantile(np.log1p(-v)))
        out = np.column_stack([np.ones_like(r), values(r)])
        out *= np.exp(_log_order_density(spec.n, spec.ell, v))[:, None]
        return out

    total, err = _gk21_pass(integrand, edges, epsabs=min(tol / 4.0, 1e-11), epsrel=1e-11)
    return total[1:] / total[0], err / total[0]


def _gap_ratio_moments(spec: NearOrderSpec, powers, tol: float):
    """E[r_a(X_(n-ell+1:n))**j] for each j in ``powers``, from one pass.

    Returns the moments and their quadrature error estimates.  The pass
    integrates (r_a / r_mid)**j, with r_mid the gap ratio at the order
    statistic's median (at least eps), so that one error norm holds every
    moment to a similar relative accuracy however small r_a is.
    """
    powers = np.asarray(powers)
    edges, v_mid = _panel_edges(spec)
    r_mid = max(gap_ratio(spec.law, spec.a, spec.law.logquantile(math.log1p(-v_mid))), _EPS)
    scaled, err = _mixture_integral(spec, lambda r: (r[:, None] / r_mid) ** powers, tol,
                                    edges)
    moments, errs = scaled * r_mid**powers, err * r_mid**powers
    if not np.all(errs <= np.maximum(tol, 1e-8 * np.abs(moments))):
        raise IntegrationError(
            f"gap-ratio moment quadrature error estimate {errs.max()!r} exceeds {tol!r}",
            value=float(moments[errs.argmax()]), error_estimate=float(errs.max()),
        )
    return moments, errs


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
    return float(_gap_ratio_moments(spec, [j], tol)[0][0])


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

    Here r_a = 1 - U**c with c = e**a - 1 and U = F(X_(n-ell+1:n)) ~
    Beta(n-ell+1, ell), whose moments are E[U**s] = prod_i m_i / (m_i + s)
    over m_i = n - ell + 1 + i, i < ell.  So, with every sum taken in logs,

        E[r]    = A = 1 - P1,   P1 = prod_i m_i / (m_i + c),
        E[r**2] = 1 - 2 P1 + P2 = A**2 + P1**2 (prod_i (m_i + c)**2 / (m_i (m_i + 2c)) - 1),

    two positive terms, free of the cancellation of the alternating sum
    that expands the same moments.  Reduces to :func:`gumbel_gap_moment`
    at ell = 1.
    """
    if not (1 <= ell <= n):
        raise DomainError(f"rank must lie in [1, {n}], got {ell!r}")
    if not (a > 0.0):
        raise DomainError(f"distance threshold must be positive, got {a!r}")
    if j not in (1, 2):
        raise DomainError(f"moment order must be 1 or 2, got {j!r}")
    c = math.expm1(a)
    ms = range(n - ell + 1, n + 1)
    log_p1 = math.fsum(math.log1p(-c / (m + c)) for m in ms)
    mean = -math.expm1(log_p1)
    if j == 1:
        return mean
    log_ratio = math.fsum(math.log1p(c / m * (c / (m + 2.0 * c))) for m in ms)
    return mean * mean + math.exp(2.0 * log_p1) * math.expm1(log_ratio)


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
    """Exact E[r_a**j] for the uniform law on (0, b), as two binomial tails.

    With u = a/b, U = F(X_(n-ell+1:n)) ~ Beta(n-ell+1, ell) and r_a = 1 on
    U <= u, r_a = (u/U)**j above it:

        E[r_a**j] = P(Bin(n, 1-u) <= ell-1)
                    + uniform_gap_moment(n, ell, a, b, j) * P(Bin(n-j, 1-u) >= ell).

    The first term is P(U <= u) = I_u(n-ell+1, ell); the second follows from
    n C(n-1, ell-1) B(n-ell+1, ell) = 1 applied at n and at n - j, which
    turns u**j E[U**-j; U > u] into the idealized moment times the tail.
    Both tails are summed over their own terms (:func:`_log_binom_tail`).
    For a >= b the ratio saturates everywhere and the moment is exactly 1.
    Requires n - ell >= j so the second tail is defined.
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
    u = a / b
    # in terms of Bin(., u): P(Bin(n, u) > n-ell) and P(Bin(n-j, u) <= n-j-ell)
    head = math.exp(_log_binom_tail(n, n - ell, u, upper=True))
    tail = math.exp(_log_binom_tail(n - j, n - j - ell, u, upper=False))
    return head + uniform_gap_moment(n, ell, a, b, j) * tail


def negbin_bound_near_order(spec: NearOrderSpec, tol: float = 1e-10) -> BoundReport:
    """Negative binomial bound for the count near the ell-th largest observation.

    Computes the gap-ratio moments by quadrature and delegates to
    :func:`negbin_bound_mixed` with E[Q] = M1, E[Q^2] = M2; the shifted mean
    is E[count] = (n - ell) M1.  ``truncation_error`` is the largest change
    of the bound over the corners (M1 +- e1, M2 +- e2) of the quadrature's
    error estimates: an estimate, not a certified error.
    """
    n, ell = spec.n, spec.ell
    if n - ell < 1:
        raise DomainError(f"need n - ell >= 1, got n = {n}, ell = {ell}")
    (m1, m2), (e1, e2) = (map(float, v) for v in _gap_ratio_moments(spec, [1, 2], tol))
    if m1 <= 0.0:
        raise DegenerateParameterError(
            "first gap-ratio moment vanishes; no negative binomial target exists"
        )

    def bound_at(m1, m2):
        # clamp quadrature noise into the feasible region 0 < M1 <= 1, M1^2 <= M2 <= M1
        m1 = min(max(m1, _TINY), 1.0)
        m2 = min(max(m2, m1 * m1), m1)
        return negbin_bound_mixed(MixedBinomialSpec(n=n, ell=ell, eq=m1, eq2=m2))

    report = bound_at(m1, m2)
    m1, m2 = report.moments["EQ"], report.moments["EQ2"]
    error = max(abs(bound_at(m1 + s1 * e1, m2 + s2 * e2).bound - report.bound)
                for s1 in (-1.0, 1.0) for s2 in (-1.0, 1.0))
    return replace(report, moments={**report.moments, "M1": m1, "M2": m2},
                   truncation_error=error, method="thm3")


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
    m = spec.n - spec.ell
    def row(r):
        with np.errstate(divide="ignore"):
            return binom_rows(m, r / (1.0 - r), 0, m)[0]

    probs, err = _mixture_integral(spec, row, tol, _panel_edges(spec)[0])
    l1_err = math.sqrt(m + 1) * err
    if not l1_err <= max(tol, 1e-7):
        raise IntegrationError(
            f"mixture pmf quadrature error {l1_err!r} exceeds {tol!r}",
            value=float("nan"), error_estimate=l1_err,
        )
    return TruncatedPMF(k_min=0, probs=probs, tail_mass_bound=l1_err)
