"""The near-order quadrature: laws and gap-ratio moments by Gauss-Kronrod passes.

For a law without closed forms, the law of the count near an order
statistic and the mixing moments of its negative binomial bound (see
``bounds_continuous``) are integrals of vectors of functions of the gap
ratio r_a over the order statistic's probability scale V = 1 -
F(X_(n-l+1:n)), which is Beta(l, n-l+1) for every law: one adaptive
Gauss-Kronrod pass each (``_gk21_pass``) over v in (0, 1), with the law
entering only through ``logcdf`` and ``logquantile``.  The errors of these
passes are QUADPACK-style estimates, not certificates.  No scipy is used:
with integer shapes the Beta cdf is a binomial tail (``_log_binom_tail``),
and the quantiles of V that place the panel edges are roots of that tail
(``_beta_quantile``).

The package loads this module on the first call that integrates, so a
command whose laws all have closed forms never runs it.
"""

from __future__ import annotations

import math

from ._numpy import np
from .approximants import TruncatedPMF
from .binomial import (_EPS, _LOG_TINY, _TINY, _log_binom_tail, _log_binom_term, _log_choose,
                       _mode, binom_rows, binom_window)
from .bounds_continuous import NearOrderSpec, gap_ratio
from .errors import IntegrationError

__all__ = ["_gap_ratio_moments", "_mixture_pmf"]


def _normal_quantile(log_p: float) -> float:
    """The standard normal quantile z at p = exp(log_p) <= 1/2: Abramowitz
    and Stegun 26.2.23, good to 4.5e-4, then one Newton step on log Phi(z)
    by ``math.erfc``, for about 1e-7.  A start for Newton, not a value."""
    t = math.sqrt(-2.0 * log_p)
    z = (2.515517 + t * (0.802853 + t * 0.010328)) / (
        1.0 + t * (1.432788 + t * (0.189269 + t * 0.001308))) - t
    cdf = 0.5 * math.erfc(-z / math.sqrt(2.0))
    return z - (math.log(cdf) - log_p) * cdf * math.sqrt(2.0 * math.pi) * math.exp(0.5 * z * z)


def _log_beta_root(a: int, b: int, log_p: float) -> float:
    """x = log u with log I_u(a, b) = log_p, for integers a, b >= 2 and p <= 1/2.

    I_u(a, b) = P(Bin(a+b-1, u) >= a), whose log is concave in x (the law
    of log U is log-concave), so Newton's iterates that start left of the
    root rise to it; one from the right lands left of it.  The start is
    the normal approximation, inside the bracket from I_u <= C(a+b-1, a) u**a
    on the left, with log C from Loader's form (:func:`_log_choose`; an
    lgamma difference at a+b = 1e9 puts this end past the root), and x = 0
    on the right; a step leaving the bracket bisects.  The search stops
    once |log I_u - log_p| is within the tail's own rounding, 4 eps
    max(1, |log_p|), or a Newton step within x's own, 2 eps |x|.
    """
    m = a + b - 1
    lo, hi = (log_p - _log_choose(m, a)) / a, 0.0
    mean, var = a / (m + 1.0), a * b / ((m + 1.0) ** 2 * (m + 2.0))
    guess = mean + _normal_quantile(log_p) * math.sqrt(var)
    x = max(math.log(guess), lo) if 0.0 < guess < 1.0 else lo
    rounding = 4.0 * _EPS * max(1.0, abs(log_p))
    for _ in range(200):
        # I_u = P(Bin(m, u) >= a) = P(Bin(m, 1-u) <= b-1), in 1 - u = -expm1(x)
        # past u = 1/2, so that the tail never sees a u rounded next to 1
        u = math.exp(x)
        upper = u < 0.5
        q, k = (u, a - 1) if upper else (-math.expm1(x), b - 1)
        log_tail = _log_binom_tail(m, k, q, upper)
        if abs(log_tail - log_p) <= rounding:
            return x
        lo, hi = (x, hi) if log_tail < log_p else (lo, x)
        # d log I / dx = u f(u) / I, and u f(u) = a P(Bin(m, u) = a) = a P(Bin(m, 1-u) = b-1)
        slope = a * math.exp(_log_binom_term(m, k + upper, q) - log_tail)
        x_new = x - (log_tail - log_p) / slope if slope > 0.0 else math.nan
        if abs(x_new - x) <= 2.0 * _EPS * abs(x):
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


# panel edges: quantiles of V at these probabilities, the tail ones on both sides;
# 1e-300 puts nodes where the near-order law's entries near tiny get their mass
_TAIL_PROBS = (1e-300, 1e-40, 1e-20, 1e-9)
_BULK_PROBS = (0.05, 0.5, 0.95)


def _panel_edges(spec: NearOrderSpec):
    """Edges in v of the panels of the near-order integrals, and V's median.

    The edges are 0, 1, the quantiles of V at ``_BULK_PROBS`` and, on both
    sides, at ``_TAIL_PROBS``, so that each panel holds a known share of the
    density down to 1e-300 in either tail, and for a support bounded below
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


# QUADPACK's 21-point Gauss-Kronrod rule (Piessens et al., 1983): the nodes, the
# Kronrod weights, and the Gauss weight of each node (0 off the Gauss nodes)
_GK21 = (
    _mirror([0.995657163025808080735527280689003, 0.973906528517171720077964012084452,
             0.930157491355708226001207180059508, 0.865063366688984510732096688423493,
             0.780817726586416897063717578345042, 0.679409568299024406234327365114874,
             0.562757134668604683339000099272694, 0.433395394129247190799265943165784,
             0.294392862701460198131126603103866, 0.148874338981631210884826001129720,
             0.0], -1.0),
    _mirror([0.011694638867371874278064396062192, 0.032558162307964727478818972459390,
             0.054755896574351996031381300244580, 0.075039674810919952767043140916190,
             0.093125454583697605535065465083366, 0.109387158802297641899210590325805,
             0.123491976262065851077958109831074, 0.134709217311473325928054001771707,
             0.142775938577060080797094273138717, 0.147739104901338491374841515972068,
             0.149445554002916905664936468389821]),
    _mirror([0.0, 0.066671344308688137593568809893332, 0.0,
             0.149451349150580593145776339657697, 0.0, 0.219086362515982043995534934228163,
             0.0, 0.269266719309996355091226921569469, 0.0,
             0.295524224714752870173892994651338, 0.0]),
)


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
    """log n + log P(Bin(n-1, v) = ell-1), the log density of
    V = 1 - F(X_(n-ell+1:n)) ~ Beta(ell, n-ell+1), at v in [0, 1].

    Loader's form keeps every term small: at n = 1e9, ell = n/2 the two
    terms (ell-1) log v and (n-ell) log(1-v) would each be about 3.5e8, and
    their rounding about 4e-8 relative to the density.
    """
    if n == 1:  # V is uniform; the form below would give 0 * log 0 at v = 1
        return np.zeros(np.shape(v))
    return math.log(n) + _log_binom_term(n - 1, ell - 1, v)


def _mixture_integral(spec: NearOrderSpec, values, tol: float, edges):
    """Integral of the vector ``values(r_a, log density)`` over the law of the order statistic.

    The integral runs over v = 1 - F(X_(n-ell+1:n)) ~ Beta(ell, n-ell+1)
    for every law alike, with the order statistic at x =
    logquantile(log1p(-v)), so no power of F is formed.  The density's own
    integral is a column of the same pass, and the vector is divided by it,
    which cancels the rounding of the density's normaliser.  ``values`` maps
    N gap ratios and the log densities at their nodes to an (N, d) array.
    Returns the vector and its Gauss-Kronrod error estimate in the
    Euclidean norm, an estimate, not a certificate.
    """
    def integrand(v):
        with np.errstate(divide="ignore"):  # a node next to v = 1 can round onto it
            r = gap_ratio(spec.law, spec.a, spec.law.logquantile(np.log1p(-v)))
        log_density = _log_order_density(spec.n, spec.ell, v)
        out = np.column_stack([np.ones_like(r), values(r, log_density)])
        out *= np.exp(log_density)[:, None]
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
    scaled, err = _mixture_integral(spec, lambda r, _: (r[:, None] / r_mid) ** powers, tol,
                                    edges)
    moments, errs = scaled * r_mid**powers, err * r_mid**powers
    if not np.all(errs <= np.maximum(tol, 1e-8 * np.abs(moments))):
        raise IntegrationError(
            f"gap-ratio moment quadrature error estimate {errs.max()!r} exceeds {tol!r}",
            value=float(moments[errs.argmax()]), error_estimate=float(errs.max()),
        )
    return moments, errs


def _mixture_pmf(spec: NearOrderSpec, tol: float) -> TruncatedPMF:
    """The law of the near-order count as a binomial mixture by quadrature.

    P(count = k) = integral of Bin(n - ell, r_a(v)).pmf(k) against the
    density of V, from one pass over a vector of pmf rows.  The rows span
    only the union of the nodes' windows: each node of the first panels,
    which the pass evaluates in its first call, windows its row where the
    density times the row's Chernoff bound reaches tiny, the smallest
    normal double (:func:`binom_window`), and that union then holds for
    every later node, so the work grows with the count's support rather
    than with n.  The law holds the outcomes from the first to the last
    computed entry at or above tiny.

    ``tail_mass_bound`` has two parts.  The first is the integral, in a
    column of the same pass, of each row's distance from its exact pmf:
    twice the row's certified mass past the union (:func:`binom_rows`), or
    the whole row where the density is below tiny or the row's mode lies
    outside the union; plus the entries cut below tiny.  The second is an
    estimate: the quadrature's Euclidean-norm error estimate times the
    square root of the union's width, which bounds the L1 norm of the same
    error vector.  Like every QUADPACK-style error estimate it is not a
    certificate.
    """
    m, union = spec.n - spec.ell, []

    def rows(r, log_density):
        with np.errstate(divide="ignore"):
            odds = r / (1.0 - r)
        if not union:
            seen = log_density > _LOG_TINY
            w_lo, w_hi = binom_window(m, odds[seen], log_density[seen] - _LOG_TINY)
            union.extend((int(w_lo.min()), int(w_hi.max())))
        k_lo, k_hi = union
        probs, outside = binom_rows(m, odds, k_lo, k_hi)
        mode = _mode(m, odds)[0]
        lost = (log_density < _LOG_TINY) | (mode < k_lo) | (mode > k_hi)
        probs[lost] = 0.0
        return np.column_stack([np.where(lost, 1.0, 2.0 * outside), probs])

    total, err = _mixture_integral(spec, rows, tol, _panel_edges(spec)[0])
    (k_lo, k_hi), probs = union, total[1:]
    big = np.flatnonzero(probs >= _TINY)
    cut = math.fsum(probs[: big[0]].tolist()) + math.fsum(probs[big[-1] + 1:].tolist())
    l1_err = float(total[0] + cut + math.sqrt(k_hi - k_lo + 1) * err)
    if not l1_err <= max(tol, 1e-7):
        raise IntegrationError(
            f"mixture pmf quadrature error {l1_err!r} exceeds {tol!r}",
            value=float("nan"), error_estimate=l1_err,
        )
    return TruncatedPMF(k_min=k_lo + int(big[0]), probs=probs[big[0]: big[-1] + 1].tolist(),
                        tail_mass_bound=l1_err)
