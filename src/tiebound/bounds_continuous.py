"""Negative binomial bounds for counts near order statistics of continuous samples.

Let X_(n-l+1:n) be the l-th largest of n i.i.d. continuous observations and
count the observations strictly inside (X_(n-l+1:n) - a, X_(n-l+1:n)).  That
count is a binomial mixture Bin(n - l, r_a(X_(n-l+1:n))) over the gap ratio

    r_a(x) = 1 - F(x - a) / F(x),

so the general engine here is a negative binomial bound for mixed binomial
random variables (``negbin_bound_mixed``), parameterized by the first two
moments of the mixing variable.  For the count near an order statistic the
mixing moments and the law of the count are integrals of vectors of
functions of r_a against the order-statistic density, one adaptive
Gauss-Kronrod pass each (``_quad_vec``, a vectorised port of scipy's
``quad_vec``), with closed forms for the Gumbel and uniform laws as
cross-checks.  The errors of these passes are QUADPACK-style estimates, not
certificates.  No scipy is used: F(X_(n-l+1:n)) is Beta(n-l+1, l) with
integer shapes, so its cdf is a binomial tail (``_log_binom_tail``), and the
quantiles that place the breakpoints are roots of that tail
(``_beta_quantile``).

The uniform closed forms come in two flavours: the idealized forms that
treat r_a(x) as a/x across the whole interval (accurate when a is small
relative to the interval width) and exact forms, as binomial tails, that
account for r_a = 1 on (0, a).  The Gumbel closed forms are exact as stated, since
the Gumbel cdf is positive on all of R and nothing clamps.
"""

from __future__ import annotations

import heapq
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

    The clamped cdf makes this well defined below the support; the value is
    always in [0, 1].  ``x`` may be an array; a scalar gives a float.
    """
    x = np.asarray(x, dtype=float)
    fx = np.asarray(law.cdf(x))
    with np.errstate(divide="ignore", invalid="ignore"):
        r = np.where(fx > 0.0, np.clip(1.0 - law.cdf(x - a) / fx, 0.0, 1.0), 1.0)
    return r if r.ndim else float(r)


def order_stat_density(spec: NearOrderSpec, x):
    """Density of the ell-th largest of n observations at x.

    f_ell(x) = n C(n-1, ell-1) (1 - F(x))**(ell-1) F(x)**(n-ell) f(x);
    integrates to 1 over the support.  ``x`` may be an array; a scalar gives
    a float.
    """
    n, ell = spec.n, spec.ell
    x = np.asarray(x, dtype=float)
    fx = np.asarray(spec.law.pdf(x))
    F = np.asarray(spec.law.cdf(x))
    out = np.where(fx > 0.0, math.exp(math.log(n) + _log_choose(n - 1, ell - 1))
                   * (1.0 - F) ** (ell - 1) * F ** (n - ell) * fx, 0.0)
    return out if out.ndim else float(out)


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


def _beta_quantile(n: int, ell: int, probs) -> np.ndarray:
    """Quantiles at ``probs`` of Beta(n-ell+1, ell), the law of F(X_(n-ell+1:n)).

    With integer shapes the Beta cdf is a binomial tail (DLMF 8.17.5), so no
    special function is needed.  Rank 1 and rank n have closed forms.
    Otherwise a p <= 1/2 solves for log u on the cdf; a p > 1/2 solves for
    log(1 - u) on the survival function, the cdf of 1 - U ~ Beta(ell, n-ell+1),
    at 1 - p, so that each root is taken on the tail nearer to p.
    """
    out = []
    for p in probs:
        if ell == 1:
            u = math.exp(math.log(p) / n)
        elif ell == n:
            u = -math.expm1(math.log1p(-p) / n)
        elif p <= 0.5:
            u = math.exp(_log_beta_root(n - ell + 1, ell, math.log(p)))
        else:
            u = -math.expm1(_log_beta_root(ell, n - ell + 1, math.log1p(-p)))
        out.append(u)
    return np.array(out)


_BULK_PROBS = (1e-9, 0.05, 0.5, 0.95, 1.0 - 1e-9)


def _integration_points(spec: NearOrderSpec):
    """Finite breakpoints of the order-statistic integrals, and the median.

    The breakpoints are the gap-ratio kink lo + a and the quantiles of
    X_(n-ell+1:n) at ``_BULK_PROBS``, each also shifted by -a.  Those
    quantiles come from :func:`_beta_quantile`, since F(X_(n-ell+1:n)) is
    Beta(n-ell+1, ell); the median is the one at 1/2 (None for a law
    without a quantile function).
    """
    lo, hi = spec.law.support
    pts, x_mid = {lo + spec.a}, None
    if spec.law.quantile is not None:
        u = _beta_quantile(spec.n, spec.ell, _BULK_PROBS)
        x_mid = spec.law.quantile(u[_BULK_PROBS.index(0.5)])
        x = spec.law.quantile(u[(0.0 < u) & (u < 1.0)])
        pts.update(x.tolist() + (x - spec.a).tolist())
    return sorted(p for p in pts if math.isfinite(p) and lo < p < hi), x_mid


def _gk_rule(nodes, kronrod, gauss):
    """A Gauss-Kronrod rule on [-1, 1] from its halves, centre value last.

    ``gauss`` holds the Gauss weight of each Kronrod node, 0 where the node
    is not a Gauss node.
    """
    def mirror(half, sign=1.0):
        return np.array(half + [sign * value for value in half[-2::-1]])

    x, v, w = mirror(nodes, -1.0), mirror(kronrod), mirror(gauss)
    return x, v, w, np.flatnonzero(w)


# QUADPACK's rules (Piessens et al., 1983), as in scipy.integrate.quad_vec
_GK21 = _gk_rule(
    [0.995657163025808080735527280689003, 0.973906528517171720077964012084452,
     0.930157491355708226001207180059508, 0.865063366688984510732096688423493,
     0.780817726586416897063717578345042, 0.679409568299024406234327365114874,
     0.562757134668604683339000099272694, 0.433395394129247190799265943165784,
     0.294392862701460198131126603103866, 0.148874338981631210884826001129720, 0.0],
    [0.011694638867371874278064396062192, 0.032558162307964727478818972459390,
     0.054755896574351996031381300244580, 0.075039674810919952767043140916190,
     0.093125454583697605535065465083366, 0.109387158802297641899210590325805,
     0.123491976262065851077958109831074, 0.134709217311473325928054001771707,
     0.142775938577060080797094273138717, 0.147739104901338491374841515972068,
     0.149445554002916905664936468389821],
    [0.0, 0.066671344308688137593568809893332, 0.0, 0.149451349150580593145776339657697,
     0.0, 0.219086362515982043995534934228163, 0.0, 0.269266719309996355091226921569469,
     0.0, 0.295524224714752870173892994651338, 0.0],
)
_GK15 = _gk_rule(
    [0.991455371120812639206854697526329, 0.949107912342758524526189684047851,
     0.864864423359769072789712788640926, 0.741531185599394439863864773280788,
     0.586087235467691130294144838258730, 0.405845151377397166906606412076961,
     0.207784955007898467600689403773245, 0.0],
    [0.022935322010529224963732008058970, 0.063092092629978553290700663189204,
     0.104790010322250183839876322541518, 0.140653259715525918745189590510238,
     0.169004726639267902826583426598550, 0.190350578064785409913256402421014,
     0.204432940075298892414161999234649, 0.209482141084727828012999174891714],
    [0.0, 0.129484966168869693270611432679082, 0.0, 0.279705391489276667901467771423780,
     0.0, 0.381830050505118944950369775488975, 0.0, 0.417959183673469387755102040816327],
)
_TINY = np.finfo(float).tiny


def _norm2(rows: np.ndarray) -> np.ndarray:
    """Euclidean norm of each row, as ``np.linalg.norm`` takes it of a vector."""
    return np.sqrt([row @ row for row in rows])


def _gk_panels(f, rule, lo: np.ndarray, hi: np.ndarray):
    """Gauss-Kronrod integrals of ``f`` over the intervals (lo[i], hi[i]).

    All nodes go to ``f`` in one call.  Returns the integrals, the QUADPACK
    error estimates and the rounding terms, in the Euclidean norm.
    """
    x, v, w, gauss = rule
    c, h = 0.5 * (lo + hi), 0.5 * (hi - lo)
    fv = f((c[:, None] + h[:, None] * x).ravel()).reshape(lo.size, x.size, -1)
    # node by node, in quad_vec's order, so that the sums round as there
    s_k = s_k_abs = s_g = s_k_dabs = 0.0
    for i in range(x.size):
        s_k = s_k + v[i] * fv[:, i]
        s_k_abs = s_k_abs + v[i] * abs(fv[:, i])
    for i in gauss:
        s_g = s_g + w[i] * fv[:, i]
    y0 = s_k / 2.0
    for i in range(x.size):
        s_k_dabs = s_k_dabs + v[i] * abs(fv[:, i] - y0)
    err = _norm2((s_k - s_g) * h[:, None])
    dabs = _norm2(s_k_dabs * h[:, None])
    with np.errstate(divide="ignore", invalid="ignore"):
        scaled = dabs * np.minimum(1.0, (200.0 * err / dabs) ** 1.5)
    err = np.where((dabs != 0.0) & (err != 0.0), scaled, err)
    rnd = _norm2((50.0 * _EPS * h)[:, None] * s_k_abs)
    err = np.where(rnd > _TINY, np.maximum(err, rnd), err)
    return h[:, None] * s_k, err, rnd


def _quad_vec(f, a: float, b: float, points, epsabs: float, epsrel: float):
    """Global adaptive Gauss-Kronrod integral of a vector-valued ``f`` over (a, b).

    A vectorised port of ``scipy.integrate.quad_vec`` with ``norm="2"``:
    GK21 on finite intervals, GK15 after its maps of infinite ends onto
    (-1, 1) or (0, 1), the QUADPACK error heuristic and its 50 eps rounding
    term.  Each round bisects the intervals of largest error, at most 128 and
    only until their errors cover all but tol/8 of the total; it stops when
    the total error is below tol/8 or below the rounding term, or at 50
    intervals.  ``f`` maps an array of N points to an (N, d) array, and each
    round evaluates all its nodes in one call.  Returns the integral and the
    error estimate (total error plus rounding term), an estimate, not a bound.
    """
    rule, lo, hi = _GK21, a, b
    tmin = math.sqrt(_TINY)  # below it the 1/t**2 factor overflows
    if math.isinf(a) or math.isinf(b):
        if math.isinf(a) and math.isinf(b):
            def to_x(t):
                return (1.0 - abs(t)) / t

            lo, hi = -1.0, 1.0
            points = [0.0] + [(-1.0 if p < 0 else 1.0) / (abs(p) + 1.0) for p in points]
        else:
            start, sgn = (a, 1.0) if math.isfinite(a) else (b, -1.0)

            def to_x(t):
                return start + sgn * (1.0 - t) / t

            lo, hi = 0.0, 1.0
            points = [1.0 / (sgn * (p - start) + 1.0) for p in points]
        rule, g = _GK15, f

        def f(t):
            keep = abs(t) >= tmin
            t = np.where(keep, t, 1.0)
            return np.where(keep[:, None], g(to_x(t)) / t[:, None] / t[:, None], 0.0)

    edges = [lo]
    for p in sorted(points):
        if lo < p < hi and p != edges[-1]:
            edges.append(p)
    edges.append(hi)
    left, right = np.array(edges[:-1]), np.array(edges[1:])
    ig, err, rnd = _gk_panels(f, rule, left, right)
    total, total_err, total_rnd = ig[0].copy(), sum(err.tolist()), sum(rnd.tolist())
    for row in ig[1:]:
        total += row
    cache = {(x1, x2): ig[i] for i, (x1, x2) in enumerate(zip(edges[:-1], edges[1:]))}
    heap = [(-float(e), x1, x2) for e, x1, x2 in zip(err, edges[:-1], edges[1:])]
    heapq.heapify(heap)

    while heap and len(heap) < 50:
        tol = max(epsabs, epsrel * float(np.linalg.norm(total)))
        batch, err_sum = [], 0.0
        while heap and len(batch) < 128 and not (batch and err_sum > total_err - tol / 8):
            neg_err, x1, x2 = heapq.heappop(heap)
            batch.append((-neg_err, x1, x2, cache.pop((x1, x2))))
            err_sum += -neg_err
        x1 = np.array([item[1] for item in batch])
        x2 = np.array([item[2] for item in batch])
        mid = 0.5 * (x1 + x2)
        ig, err, rnd = _gk_panels(f, rule, np.concatenate([x1, mid]),
                                  np.concatenate([mid, x2]))
        nb = len(batch)
        for i, (old_err, a1, b1, old_int) in enumerate(batch):
            j = i + nb
            total += ig[i] + ig[j] - old_int
            total_err += float(err[i]) + float(err[j]) - old_err
            total_rnd += float(rnd[i]) + float(rnd[j])
            c1 = float(mid[i])
            cache[(a1, c1)], cache[(c1, b1)] = ig[i], ig[j]
            heapq.heappush(heap, (-float(err[i]), a1, c1))
            heapq.heappush(heap, (-float(err[j]), c1, b1))
        if len(heap) >= 2:
            tol = max(epsabs, epsrel * float(np.linalg.norm(total)))
            if total_err < tol / 8 or total_err < total_rnd:
                break
        if not (math.isfinite(total_err) and math.isfinite(total_rnd)):
            break
    return total, total_err + total_rnd


def _adaptive_integral(spec: NearOrderSpec, values, tol: float, points):
    """Integral of the vector ``values(r_a(x))`` against the order-statistic density.

    One :func:`_quad_vec` pass over the support, split at ``points`` (from
    :func:`_integration_points`),
    gives the vector and the Gauss-Kronrod estimate of its error in the
    Euclidean norm, a QUADPACK-style estimate, not a certificate.
    ``values`` maps an array of N gap ratios to an (N, d) array.  At large n
    the integrand is only accurate to about n * eps relative (F**(n-ell)
    amplifies the rounding of F) and the estimate can stall; the interval cap
    ends the pass there (the mixture pmf took at most 27 intervals in cases
    up to n = 5000), and the callers judge the estimate.
    """
    def integrand(x):
        return order_stat_density(spec, x)[:, None] * values(gap_ratio(spec.law, spec.a, x))

    return _quad_vec(integrand, *spec.law.support, points=points,
                     epsabs=min(tol / 4.0, 1e-11), epsrel=1e-11)


def _gap_ratio_moments(spec: NearOrderSpec, powers, tol: float):
    """E[r_a(X_(n-ell+1:n))**j] for each j in ``powers``, from one pass.

    Returns the moments and their quadrature error estimates.  The pass
    integrates (r_a / r_mid)**j, with r_mid the gap ratio at the order
    statistic's median (at least eps), so that one error norm holds every
    moment to a similar relative accuracy however small r_a is.
    """
    powers = np.asarray(powers)
    points, x_mid = _integration_points(spec)
    r_mid = 1.0 if x_mid is None else max(gap_ratio(spec.law, spec.a, x_mid), _EPS)
    scaled, err = _adaptive_integral(spec, lambda r: (r[:, None] / r_mid) ** powers, tol,
                                     points)
    moments, errs = scaled * r_mid**powers, err * r_mid**powers
    if np.any(errs > np.maximum(tol, 1e-8 * np.abs(moments))):
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

    probs, err = _adaptive_integral(spec, row, tol, _integration_points(spec)[0])
    l1_err = math.sqrt(m + 1) * err
    if l1_err > max(tol, 1e-7):
        raise IntegrationError(
            f"mixture pmf quadrature error {l1_err!r} exceeds {tol!r}",
            value=float("nan"), error_estimate=l1_err,
        )
    return TruncatedPMF(k_min=0, probs=probs, tail_mass_bound=l1_err)
