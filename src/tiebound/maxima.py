"""Exact law of the number of sample maxima, and its size-biased companions.

For n i.i.d. draws from a discrete law with mass function p and distribution
function F, the number K of observations tied with the sample maximum has

    P(K = k)            = C(n, k) * sum_j p(j)**k * F(j-1)**(n-k)
    E[(K)_ell]          = (n)_ell * sum_j p(j)**ell * F(j)**(n-ell)

where (k)_ell is the falling factorial.  Both are instances of one series,
sum_j p(j)**power * F(j or j-1)**expo, as are E[q(M)**j] and the argmax
normaliser Z below.  One engine (``_sums``) walks the maximum j for all the
series a call asks for: it evaluates the law once per block of j
(``_block``: log p(j), log F(j-1) and log F(j)), merges the block into each
series' running log-sum-exp, and checks the law's geometric tail certificate
at each block end.  Working in log space keeps n as large as 1e9 meaningful.

The full laws of K and of the size-biased count K* are binomial mixtures
over the maximum M, with the conditional tie probability q(j) = p(j) / F(j):

    P(K = k)  = sum_j F(j)**n P(Bin(n, q(j)) = k),                 k >= 1,
    P(K* = k) = sum_j p(j) F(j)**(n-1) / Z P(1 + Bin(n-1, q(j)) = k),

and one blocked pass of binomial rows over j (``_mixture_law``), reading its
blocks from ``_block`` too, gives each.
The module also exposes the law of the argmax value M (P(M = m) = p(m)
F(m)**(n-1) / Z).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .approximants import TruncatedPMF
from .binomial import _U, _gamma, _log_choose, _pairwise_sum, binom_rows, binom_window
from .distributions import DiscreteLaw
from .errors import DomainError, TruncationError, integer_in

__all__ = [
    "KnSpec",
    "tie_count_pmf",
    "tie_count_factorial_moment",
    "tie_count_law",
    "size_biased_tie_law",
    "size_biased_tie_pmf",
    "argmax_value_law",
    "tie_given_max_prob",
    "tie_given_max_moment",
]

DEFAULT_TOL = 1e-12

_SERIES_CAP = 2_000_000
# series blocks double from _FIRST_BLOCK terms, so short series stay cheap; the
# mixture laws, whose last maximum is known, take blocks of _MAX_BLOCK at once
_FIRST_BLOCK = 64
_MAX_BLOCK = 1 << 15
# mixture rows at or below the smallest normal double are dropped
_FLOOR = np.finfo(float).tiny
_LOG_FLOOR = math.log(_FLOOR)
# cells (rows x window) of one mixture chunk; a single row may exceed it
_CHUNK_CELLS = 1 << 15


@dataclass(frozen=True)
class KnSpec:
    """Sample description: a discrete law and the number of observations."""

    law: DiscreteLaw
    n: int

    def __post_init__(self):
        object.__setattr__(self, "n", integer_in(self.n, 1, what="sample size"))


def _log_falling(n: int, ell: int) -> float:
    """log of the falling factorial n (n-1) ... (n-ell+1)."""
    return math.fsum(math.log(n - i) for i in range(ell))


def _log_cdf(law: DiscreteLaw, j):
    """log F(j), through the law's ``logcdf`` where it has one."""
    if law.logcdf is not None:
        return law.logcdf(j)
    with np.errstate(divide="ignore"):
        return np.log(law.cdf(j))


def _block(law: DiscreteLaw, lo: int, hi: int):
    """log p(j), log F(j-1) and log F(j) for j = lo..hi, from one call of each function."""
    with np.errstate(divide="ignore"):
        lp = np.log(law.pmf(np.arange(lo, hi + 1)))
        lf = _log_cdf(law, np.arange(lo - 1, hi + 1))
    return lp, lf[:-1], lf[1:]


def _sums(law: DiscreteLaw, terms) -> list:
    """Certified sums_{j>=1} p(j)**power * F(j - 1 or j)**expo, all in one pass.

    Each term is ``(power, expo, shifted, log_tol, relative)`` with power >= 1
    and expo >= 0; returns one ``(log_sum, log_remainder)`` per term, where
    ``log_remainder`` bounds the omitted mass of its series.  The law is
    evaluated once per block of j (64, 128, ... values, at most
    ``_MAX_BLOCK``, by :func:`_block`), and each term merges the block into
    its own running log-sum-exp, so a result is meaningful even when every
    term underflows a plain double.  A finitely supported law is one block
    with zero remainder.  Otherwise the remainder certificate, checked at
    each block end, uses p(j) <= C * r**(j-1) and F <= 1:

        sum_{j>J} p(j)**power <= C**power * r**(power*J) / (1 - r**power).

    A term stops adding blocks at the first block end where its remainder
    meets ``log_tol`` (plus its log sum if ``relative``), so its value does
    not depend on the other terms.  Raises :class:`TruncationError` with the
    largest open remainder if a term has not stopped by ``_SERIES_CAP`` terms.
    """
    finite = law.support_max is not None
    cap = law.support_max if finite else _SERIES_CAP
    log_r, log_c = math.log(law.tail_ratio), math.log(law.tail_const)
    runs = [[-math.inf, 0.0, None] for _ in terms]  # log-sum-exp scale, scaled sum, result
    lo, size = 1, _FIRST_BLOCK
    while True:
        hi = cap if finite else min(cap, lo + size - 1)
        lp, lf0, lf1 = _block(law, lo, hi)
        worst = -math.inf
        for (power, expo, shifted, log_tol, relative), run in zip(terms, runs):
            if run[2] is not None:
                continue
            lt = power * lp
            if expo > 0:  # F**0 = 1, even where F vanishes
                lt += expo * (lf0 if shifted else lf1)
            m, s, _ = run
            top = float(lt.max())
            if top > m:
                s, m = s * math.exp(m - top), top
            if m > -math.inf:
                s += float(np.exp(lt - m).sum())
            log_sum = m + math.log(s) if s > 0.0 else -math.inf
            rp = law.tail_ratio**power
            log_rem = (-math.inf if finite else power * (log_c + hi * log_r)
                       - (math.log1p(-rp) if rp < 1.0 else -math.inf))
            run[:2] = m, s
            if log_rem <= log_tol + (log_sum if relative else 0.0):
                run[2] = log_sum, log_rem
            else:
                worst = max(worst, log_rem)
        if all(run[2] is not None for run in runs):
            return [run[2] for run in runs]
        if hi == cap:
            raise TruncationError(f"tie-count series did not certify its tolerance within {cap} "
                                  "terms", best_bound=math.exp(worst))
        lo, size = hi + 1, min(2 * size, _MAX_BLOCK)


def _tie_values(spec: KnSpec, pmfs, moments, tol: float) -> list:
    """``(value, certified remainder)`` of P(K = k) for each k in ``pmfs``, within
    ``tol`` absolutely, then of E[(K)_ell] for each ell in ``moments``, within
    ``tol`` relatively, from one pass of :func:`_sums`."""
    n = spec.n
    logs = [_log_choose(n, k) for k in pmfs] + [_log_falling(n, ell) for ell in moments]
    terms = ([(k, n - k, True, math.log(tol) - log, False) for k, log in zip(pmfs, logs)]
             + [(ell, n - ell, False, math.log(tol), True) for ell in moments])
    return [(math.exp(log + log_sum), math.exp(log + log_rem))
            for log, (log_sum, log_rem) in zip(logs, _sums(spec.law, terms))]


def _values(spec: KnSpec, orders, tol: float, pmf: bool):
    """The public pmf (or moment) values at an order or a sequence of orders."""
    many = np.ndim(orders) > 0
    orders = [integer_in(v, 1, spec.n, "tie count" if pmf else "moment order")
              for v in (orders if many else (orders,))]
    if not (tol > 0.0):
        raise DomainError("tolerance must be positive")
    pairs = _tie_values(spec, orders, (), tol) if pmf else _tie_values(spec, (), orders, tol)
    values = tuple(value for value, _ in pairs)
    return values if many else values[0]


def tie_count_pmf(spec: KnSpec, k, tol: float = DEFAULT_TOL):
    """P(K = k), certified within ``tol`` absolutely.

    A sequence of k gives a tuple, from one pass over the maximum."""
    return _values(spec, k, tol, pmf=True)


def tie_count_factorial_moment(spec: KnSpec, ell, tol: float = DEFAULT_TOL):
    """E[(K)_ell] = E[K (K-1) ... (K-ell+1)], certified within ``tol`` relatively.

    A sequence of ell gives a tuple, from one pass over the maximum."""
    return _values(spec, ell, tol, pmf=False)


def _mixture_law(spec: KnSpec, tol: float, biased: bool) -> TruncatedPMF:
    """The law of K, or of K*, from one blocked pass of binomial rows over j.

    Given M = j, K is Bin(n, q(j)) on k >= 1, so P(K = k) = sum_j w_j
    P(Bin(n, q(j)) = k) with w_j = F(j)**n; for K* the weights are p(j)
    F(j)**(n-1) / Z and the rows 1 + Bin(n-1, q(j)).  The odds of q(j) are
    p(j) / F(j-1), formed in logs.  Rows with w_j below tiny, the smallest
    normal double, are skipped; the others span the window where w_j times
    their Chernoff bound reaches tiny (:func:`binom_window`), and each chunk
    of rows is summed pairwise.  The pass ends at the J where P(M > J) <=
    n C r**J (for K*, C r**J / Z) meets tol / 2.

    The certificate b of K adds: tiny per skipped row; the suffix beyond J;
    twice the mass past each row's window (omitted, and moved by the row's
    normalisation onto its terms); 2 tiny per cell, for subnormal results
    and for entries below tiny dropped at either end; and rounding.  For
    rounding the law's p(j) and S(j) = 1 - F(j) are taken to err by at most
    4u (1 + |log p|) and 4u (1 + |log S|) relative, plus gamma_m for a law
    that sums m weights, and S by 2u more absolutely for a law without
    ``logcdf``: the geometric law forms both by one exp of j log(1-p).
    Then log F = log1p(-S) errs by S/F times that, plus 2u |log F|, and
    that error e_w of log w_j and e_o of the log odds follow.
    A term d steps from its row's mode takes 4d roundings, the row sum over
    G terms ceil(log2 G), the division and the weight 2 more, and an odds
    error e moves the normalised term at k by |k - m q| e.  So row j adds
    w_j [A (expm1(e_w) + gamma(ceil(log2 G) + 3) + 4u (sigma + 2)) +
    min(sigma, 2 m q) (e_o + 4u)], with A the row's kept mass and sigma**2 =
    m q (1-q); min(sigma, 2 m q) bounds the kept terms' sum of |k - m q|
    times them.  Summing the rows of a chunk pairwise and then the chunks in
    turn adds gamma(ceil(log2 rows) + chunks) of the total T.  K* is
    normalised by T rather than Z, so its certificate is 2 b / (T - b) plus
    the rounding of that division.
    """
    if not (tol > 0.0):
        raise DomainError("tolerance must be positive")
    law, n = spec.law, spec.n
    m = n - 1 if biased else n
    log_z = _sums(law, [(1, n - 1, False, math.log(1e-14), True)])[0][0] if biased else 0.0
    last, suffix = law.support_max, 0.0
    if last is None:
        log_scale = math.log(law.tail_const) - (log_z if biased else -math.log(n))
        log_r = math.log(law.tail_ratio)
        last = max(1, math.ceil((math.log(tol / 2.0) - log_scale) / log_r))
        suffix = min(1.0, math.exp(log_scale + min(last, _SERIES_CAP) * log_r))
        if last > _SERIES_CAP:
            raise TruncationError(
                f"tie-count law did not certify its tolerance within {_SERIES_CAP} maxima",
                best_bound=suffix,
            )
    extra = _gamma(law.support_max or 0)
    rounded_cdf = 0.0 if law.logcdf is not None else 2.0 * _U  # log of a cdf near 1

    def log_cdf_error(lf):
        s = -np.expm1(lf)  # S = 1 - F, whose error log F = log1p(-S) scales by S/F
        return ((np.where(s > 0.0, s * (4.0 * _U * (1.0 - np.log(s)) + extra), 0.0) + rounded_cdf)
                / np.exp(lf) + 2.0 * _U * np.abs(lf))

    parts, bounds, k_lo, k_hi, held, depth = [], [suffix], math.inf, -math.inf, 0.0, 0
    for lo in range(1, last + 1, _MAX_BLOCK):  # last is known, so the blocks need not grow
        lp, lf0, lf1 = _block(law, lo, min(last, lo + _MAX_BLOCK - 1))
        with np.errstate(divide="ignore", invalid="ignore"):
            lw = lp + (n - 1) * lf1 - log_z if biased else n * lf1
            keep = lw >= _LOG_FLOOR
            bounds.append((lp.size - np.count_nonzero(keep)) * _FLOOR)
            if not keep.any():
                continue
            lp, lf0, lf1, lw = lp[keep], lf0[keep], lf1[keep], lw[keep]
            odds = np.where(lp > -np.inf, np.exp(lp - lf0), 0.0)
            q = 1.0 / (1.0 + 1.0 / odds)
            d_lp = 4.0 * _U * (1.0 + np.abs(lp)) + extra + 2.0 * _U * np.abs(lp)
            e_w = m * (log_cdf_error(lf1) + 3.0 * _U * np.abs(lf1))
            if biased:
                e_w += d_lp + 3.0 * _U * (np.abs(lp) + abs(log_z))
            e_odds = np.where((odds > 0.0) & (odds < np.inf),
                              d_lp + log_cdf_error(lf0) + _U * (np.abs(lp - lf0) + 2.0), 0.0)
        w_lo, w_hi = binom_window(m, odds, lw - _LOG_FLOOR)
        per_chunk = max(1, _CHUNK_CELLS // int(w_hi.max() - w_lo.min() + 1))
        for s in range(0, odds.size, per_chunk):
            c = slice(s, s + per_chunk)
            g_lo, g_hi = int(w_lo[c].min()), int(w_hi[c].max())
            first = int(g_lo == 0 and not biased)  # K drops k = 0; K* is 1 + the count
            start = g_lo + first + biased
            k_lo, k_hi = min(k_lo, start), max(k_hi, g_hi + biased)
            if k_hi - k_lo >= _SERIES_CAP:
                raise TruncationError(f"tie-count law spans more than {_SERIES_CAP} outcomes",
                                      best_bound=max(0.0, 1.0 - held))
            rows, outside = binom_rows(m, odds[c], g_lo, g_hi)
            w, sigma = np.exp(lw[c]), np.sqrt(m * q[c] * (1.0 - q[c]))
            mass = 1.0 - rows[:, 0] if first else 1.0
            norm = _gamma(math.ceil(math.log2(g_hi - g_lo + 1)) + 3)
            bounds.append(w @ (mass * (np.expm1(e_w[c]) + norm + 4.0 * _U * (sigma + 2.0))
                               + np.minimum(sigma, 2.0 * m * q[c]) * (e_odds[c] + 4.0 * _U)
                               + 2.0 * outside) + 2.0 * rows.size * _FLOOR)
            parts.append((start, _pairwise_sum(w[:, None] * rows[:, first:])))
            held += float(parts[-1][1].sum())
            depth = max(depth, math.ceil(math.log2(w.size)))
    if not parts:
        raise TruncationError("no tie count carries mass above the floor", best_bound=1.0)

    probs = np.zeros(k_hi - k_lo + 1)
    for start, summed in parts:
        probs[start - k_lo: start - k_lo + summed.size] += summed
    big = np.flatnonzero(probs >= _FLOOR)
    probs = probs[big[0]: big[-1] + 1]
    total = math.fsum(probs.tolist())
    b = math.fsum(bounds) + _gamma(depth + len(parts)) * total
    if biased:
        probs, b = probs / total, 2.0 * b / (total - b) + _gamma(2)
    return TruncatedPMF(k_min=k_lo + int(big[0]), probs=probs, tail_mass_bound=b)


def tie_count_law(spec: KnSpec, tol: float = DEFAULT_TOL) -> TruncatedPMF:
    """The law of K, from one binomial-mixture pass over the maximum.

    It holds the outcomes where the mixture reaches the smallest normal
    double, so ``k_min`` may exceed 1.  ``tail_mass_bound`` covers the mass
    omitted on both sides, at most ``tol / 2`` past the last maximum, plus
    the rounding of the entries (see :func:`_mixture_law`), about 1e-14 at
    n = 1e9.  Raises :class:`TruncationError` when those outcomes span more
    than ``_SERIES_CAP`` values, as when mass sits near both k = n and 1.
    """
    return _mixture_law(spec, tol, biased=False)


def size_biased_tie_law(spec: KnSpec, tol: float = DEFAULT_TOL) -> TruncatedPMF:
    """The law of K*, P(K* = k) = k P(K = k) / E[K], by the pass of :func:`tie_count_law`."""
    return _mixture_law(spec, tol, biased=True)


def size_biased_tie_pmf(spec: KnSpec, k: int, tol: float = DEFAULT_TOL) -> float:
    """P(K* = k) = k P(K = k) / E[K] for the size-biased tie count."""
    k = integer_in(k, 1, spec.n, "tie count")
    e1 = tie_count_factorial_moment(spec, 1, tol / 4.0)
    v = tie_count_pmf(spec, k, tol * e1 / (4.0 * k))
    return k * v / e1


def argmax_value_law(spec: KnSpec) -> DiscreteLaw:
    """Law of the value M at which the maximum is attained, size-bias weighted.

    P(M = m) = p(m) F(m)**(n-1) / Z with Z = sum_j p(j) F(j)**(n-1); Z equals
    E[K] / n.  The returned law inherits a valid geometric tail certificate
    from the base law (constant scaled by 1/Z) and memoizes its cdf.
    """
    n = spec.n
    base = spec.law
    if n == 1:
        return base
    log_z = _sums(base, [(1, n - 1, False, math.log(1e-14), True)])[0][0]
    z = math.exp(log_z)

    def pmf(m):
        scalar = np.ndim(m) == 0
        m = np.atleast_1d(np.asarray(m))
        pm = np.asarray(base.pmf(m), dtype=float)
        log_fm = np.asarray(_log_cdf(base, m), dtype=float)
        out = np.zeros_like(pm)
        ok = (pm > 0.0) & (log_fm > -np.inf)
        out[ok] = np.exp(np.log(pm[ok]) + (n - 1) * log_fm[ok] - log_z)
        return float(out[0]) if scalar else out

    cum = np.zeros(1)  # cum[j] = P(M <= j), extended on demand

    def cdf(m):
        nonlocal cum
        scalar = np.ndim(m) == 0
        marr = np.atleast_1d(np.asarray(m)).astype(np.int64)
        top = int(marr.max(initial=0))
        if base.support_max is not None:
            top = min(top, base.support_max)
        if cum.size <= top:
            # summed on from the last stored value, one term at a time
            more = np.cumsum(np.append(cum[-1], pmf(np.arange(cum.size, top + 1))))
            cum = np.append(cum, np.minimum(1.0, more[1:]))
        out = cum[np.clip(marr, 0, cum.size - 1)]
        if base.support_max is not None:
            out = np.where(marr >= base.support_max, 1.0, out)
        return float(out[0]) if scalar else out

    return DiscreteLaw(
        pmf=pmf,
        cdf=cdf,
        tail_ratio=base.tail_ratio,
        tail_const=base.tail_const / z,
        support_max=base.support_max,
        quantile=None,
        descriptor=None,
    )


def tie_given_max_prob(law: DiscreteLaw, m):
    """q(m) = P(X = m) / P(X <= m), the tie chance given the maximum sits at m.

    ``m`` may be an integer array; a scalar gives a float.
    """
    F = np.asarray(law.cdf(m))
    if np.any(F <= 0.0):
        raise DomainError(f"cdf vanishes at {m!r}; conditional tie probability undefined")
    q = np.minimum(1.0, law.pmf(m) / F)
    return q if q.ndim else float(q)


def tie_given_max_moment(spec: KnSpec, j: int, tol: float = DEFAULT_TOL) -> float:
    """E[q(M)**j] for j in {1, 2}, certified within ``tol`` relatively.

    Computed directly as sum_m P(M = m) q(m)**j, which collapses to the
    tie-count series with mass exponent 1 + j:

        E[q(M)**j] = sum_m p(m)**(1+j) F(m)**(n-1-j) / Z.

    Requires n >= 2 for j = 1 and n >= 3 for j = 2 (the cdf exponent must
    stay non-negative, and the matching factorial-moment identities divide
    by n - 1 and n - 2).
    """
    if j not in (1, 2):
        raise DomainError(f"moment order must be 1 or 2, got {j!r}")
    if spec.n < j + 1:
        raise DomainError(f"need at least {j + 1} observations for moment order {j}")
    (log_num, _), (log_z, _) = _sums(spec.law, [
        (1 + j, spec.n - 1 - j, False, math.log(tol / 2.0), True),
        (1, spec.n - 1, False, math.log(min(tol / 2.0, 1e-14)), True),
    ])
    if log_num == -math.inf:
        return 0.0
    return math.exp(log_num - log_z)
