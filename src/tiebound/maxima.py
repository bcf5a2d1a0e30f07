"""Exact law of the number of sample maxima, and its size-biased companions.

For n i.i.d. draws from a discrete law with mass function p and distribution
function F, the number K of observations tied with the sample maximum has

    P(K = k)            = C(n, k) * sum_j p(j)**k * F(j-1)**(n-k)
    E[(K)_ell]          = (n)_ell * sum_j p(j)**ell * F(j)**(n-ell)

where (k)_ell is the falling factorial.  Every tie-count value goes through
``_tie_values``, as do the argmax normaliser Z = E[K] / n and E[q(M)**j] =
E[(K)_{1+j}] / ((n-1)_j E[K]) below: it takes the closed form at the end of
this docstring where that certifies, and otherwise one pass of the engine
``_sums``, which walks the maximum j for all the series sum_j p(j)**power *
F(j or j-1)**expo of a call: it evaluates the law once per block of j
(``_block``: log p(j), log F(j-1) and log F(j)), merges the block into each
series' running log-sum-exp, and checks the law's tail certificate
(``log_tail``) at each block end.  Working in log space keeps n as large as
1e9 meaningful.  A pass whose series can all certify within the first two
blocks, of a law that takes a ``range`` (``DiscreteLaw.takes_range``), sums
those in plain Python, with no numpy.

The full laws of K and of the size-biased count K* are binomial mixtures
over the maximum M, with the conditional tie probability q(j) = p(j) / F(j):

    P(K = k)  = sum_j F(j)**n P(Bin(n, q(j)) = k),                 k >= 1,
    P(K* = k) = sum_j p(j) F(j)**(n-1) / Z P(1 + Bin(n-1, q(j)) = k),

and one blocked pass of binomial rows over j (``_mixture_law``), reading its
blocks from ``_block`` too, gives each.
The module also exposes the law of the argmax value M (P(M = m) = p(m)
F(m)**(n-1) / Z).

A geometric law (``DiscreteLaw.lattice_rate`` = lambda, q = e**-lambda,
p = 1 - q) has closed forms whose cost does not grow with 1/p or n.  Below
k = n both series are C * sum_{i>=0} q**(k i) (1 - q**i)**(n-k), and
Poisson summation over i turns that sum into B(k, n-k+1) / lambda times
1 + eps_k, so

    P(K = k) = p**k / (k lambda) (1 + eps_k),               1 <= k < n,
    E[(K)_r] = (r-1)! (p/q)**r / lambda (1 + eps_r),         1 <= r < n,
    P(K = n) = p**n / (1 - q**n),   E[(K)_n] = n! P(K = n),  exactly,

with eps_k = sum_{m != 0} prod_{j=k..n} j / (j + i m omega), omega =
2 pi / lambda: the log-periodic terms of Bruss and O'Cinneide (1990) and
Kirschenhofer and Prodinger (1996).  Term m has modulus T_m = prod_j
(1 + m**2 omega**2 / j**2)**(-1/2).  As phi(x) = log(1 + omega**2 / x**2)
is convex and falls, the trapezoid rule bounds sum_j phi(j) below by
G(n) - G(k) + (phi(k) + phi(n)) / 2, with G(x) = x phi(x) + 2 omega
atan(x / omega) its antiderivative, and that bounds T_1; and 1 + m**2 a >=
(1 + a) m**(2a / (1+a)) gives T_m <= T_1 m**-S, with S = omega (atan((n+1)
/ omega) - atan(k / omega)) at most sum_j omega**2 / (j**2 + omega**2).
So, where S > 1,

    |eps_k| <= 2 T_1 (1 + 2**-S (S+1) / (S-1)).

``_tie_values`` takes the closed form for a value where this bound plus the
rounding of the formula meets the tolerance, absolutely for P(K = k) and
relatively for E[(K)_r], and runs the series for the others.  The rounding
is counted in units u, taking exp, expm1, log1p, pow and atan to err by at
most 2 ulp.  No array is needed there, so such a call never imports numpy.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass
from typing import NamedTuple, Optional

from ._numpy import np
from .approximants import TruncatedPMF
from .binomial import (_LOG_TINY, _TINY, _U, _gamma, _log_choose, _pairwise_sum, binom_rows,
                       binom_window)
from .distributions import DiscreteLaw
from .errors import DomainError, TruncationError, integer_in, positive_tol

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
# the first two blocks: a pass whose every series can certify its tolerance by here
# sums them in plain Python, where numpy's import would cost more than the sums
_SHORT = 3 * _FIRST_BLOCK
# cells (rows x window) of one mixture chunk; a single row may exceed it
_CHUNK_CELLS = 1 << 15
# the closed form's omega = 2 pi / lambda is capped here, so that omega**2 stays
# finite; a smaller omega only loosens the eps bound, since every T_m falls as it grows
_OMEGA_CAP = 1e100
# the largest order whose (order-1)! or n! the closed form forms as a double
_MAX_FACTORIAL = 170


@dataclass(frozen=True)
class KnSpec:
    """Sample description: a discrete law and the number of observations."""

    law: DiscreteLaw
    n: int

    def __post_init__(self):
        if not isinstance(self.law, DiscreteLaw):
            raise DomainError(f"tie counts need a discrete law, got {type(self.law).__name__}")
        object.__setattr__(self, "n", integer_in(self.n, 1, what="sample size"))


def _log_falling(n: int, ell: int) -> float:
    """log of the falling factorial n (n-1) ... (n-ell+1)."""
    return math.fsum(math.log(n - i) for i in range(ell))


def _block(law: DiscreteLaw, lo: int, hi: int, python: bool = False):
    """log p(j), log F(j-1) and log F(j) for j = lo..hi, from one call of each
    function: arrays from a numpy ``arange``, or lists from a ``range`` if
    ``python`` (for a law that ``takes_range``)."""
    if python:
        lp = [math.log(x) if x > 0.0 else -math.inf for x in law.pmf(range(lo, hi + 1))]
        lf = law.logcdf(range(lo - 1, hi + 1))
        return lp, lf[:-1], lf[1:]
    with np.errstate(divide="ignore"):
        lp = np.log(law.pmf(np.arange(lo, hi + 1)))
        lf = law.logcdf(np.arange(lo - 1, hi + 1))
    return lp, lf[:-1], lf[1:]


def _sums(law: DiscreteLaw, terms) -> list:
    """Certified sums_{j>=1} p(j)**power * F(j - 1 or j)**expo, all in one pass.

    Each term is ``(power, expo, shifted, log_tol, relative)`` with power >= 1
    and expo >= 0; returns one ``(log_sum, log_remainder)`` per term, where
    ``log_remainder`` bounds the omitted mass of its series.  The law is
    evaluated once per block of j (64, 128, ... values, at most
    ``_MAX_BLOCK``, by :func:`_block`), and each term merges the block into
    its own running log-sum-exp, so a result is meaningful even when every
    term underflows a plain double.  A finitely supported law is one block.
    At each block end J, F <= 1 and power >= 1 certify the remainder:

        sum_{j>J} p(j)**power <= P(X > J)**power <= exp(power * law.log_tail(J)).

    A term stops adding blocks at the first block end where its remainder
    meets ``log_tol`` (plus its log sum if ``relative``), so where it stops
    does not depend on the other terms (up to the rounding of a relative
    term's log sum at its border).  Raises :class:`TruncationError`
    with the largest open remainder if a term has not stopped by
    ``_SERIES_CAP`` terms.

    A short pass, of a law that ``takes_range`` and with
    ``power * law.log_tail(_SHORT) <= log_tol`` for every term, evaluates
    its blocks up to ``_SHORT`` from a ``range`` and sums them in plain
    Python, a block's log-sum-exp by ``math.fsum``; any other pass, and any
    block past ``_SHORT``, is summed by numpy.  The two kinds differ only in
    rounding, so a term's value can depend on the other terms of its pass,
    through the pass's kind, in its last bits.  (Summing the first blocks
    of every pass in Python would keep the terms apart, but costs a long
    pass more than numpy's blocks do.)
    """
    cap = law.support_max or _SERIES_CAP
    tail = law.log_tail(_SHORT)
    short = law.takes_range and all(power * tail <= log_tol for power, _, _, log_tol, _ in terms)
    runs = [[-math.inf, 0.0, None] for _ in terms]  # log-sum-exp scale, scaled sum, result
    lo, size = 1, _FIRST_BLOCK
    while True:
        hi = law.support_max or min(cap, lo + size - 1)
        python = short and hi <= _SHORT
        lp, lf0, lf1 = _block(law, lo, hi, python)
        log_tail, worst = law.log_tail(hi), -math.inf
        for (power, expo, shifted, log_tol, relative), run in zip(terms, runs):
            if run[2] is not None:
                continue
            lf = lf0 if shifted else lf1
            if python:  # float factors, as numpy takes them, multiply faster than int ones
                pw, ex = float(power), float(expo)
                lt = [pw * a + ex * b for a, b in zip(lp, lf)] if expo > 0 else [pw * a for a in lp]
                top = max(lt)
            else:
                lt = power * lp
                if expo > 0:  # F**0 = 1, even where F vanishes
                    lt += expo * lf
                top = float(lt.max())
            m, s, _ = run
            if top > m:
                s, m = s * math.exp(m - top), top
            if m > -math.inf:
                s += (math.fsum([math.exp(x - m) for x in lt]) if python
                      else float(np.exp(lt - m).sum()))
            log_sum = m + math.log(s) if s > 0.0 else -math.inf
            log_rem = power * log_tail
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


class _TieValue(NamedTuple):
    """A tie-count value and a certified bound on its distance from the exact value.

    ``eps`` is the bound on |eps_k| when ``value`` is the closed form's main
    term, p**k / (k lambda) or (k-1)! (p/q)**k / lambda, else None.
    """

    value: float
    remainder: float
    eps: Optional[float] = None


def _lattice_eps(lam: float, k: int, n: int) -> float:
    """The bound on |eps_k| of the module docstring for 1 <= k < n, inf where S <= 1.

    omega is taken a little below 2 pi / lam, which only loosens the bound;
    S is lowered, and the bound on T_1 raised, by their own rounding.
    """
    w = min(2.0 * math.pi / lam, _OMEGA_CAP) * (1.0 - _gamma(8))
    s = w * math.atan((n + 1 - k) * w / (w * w + k * (n + 1))) * (1.0 - _gamma(10))
    if not s > 1.0:
        return math.inf
    phi_k, phi_n = math.log1p((w / k) ** 2), math.log1p((w / n) ** 2)
    # G(n) - G(k) + (phi(k) + phi(n)) / 2 as four non-negative parts, atan(n/w) -
    # atan(k/w) formed as one atan so that close k and n do not cancel
    parts = (n * phi_n, 2.0 * w * math.atan((n - k) * w / (w * w + n * k)),
             0.5 * (phi_k + phi_n), k * phi_k)
    log_t1 = -0.5 * (parts[0] + parts[1] + parts[2] - parts[3]) + _gamma(12) * sum(parts)
    return 2.0 * math.exp(log_t1) * (1.0 + 2.0**-s * (s + 1.0) / (s - 1.0)) * (1.0 + _gamma(8))


def _closed_form(lam: float, n: int, k: int, moment: bool, tol: float):
    """P(K = k), or E[(K)_k] if ``moment``, for the geometric law of rate ``lam``
    in closed form, as a :class:`_TieValue`; None where the certificate misses
    ``tol`` (absolute for P(K = k), relative for E[(K)_k]).

    ``count`` bounds the roundings of the formula in units u: p = -expm1(-lam)
    errs by 8u, p/q = expm1(lam) by (8 + 4 lam) u, and a power multiplies its
    base's error by the exponent.  An entry below the smallest normal double
    adds that double to a pmf remainder; a moment needs its power normal.
    """
    p = -math.expm1(-lam)
    eps = None
    if k == n:
        power = p ** (n - 1)
        value, count = power * p / -math.expm1(-n * lam), 8 * n + 16
        if moment:
            if n > _MAX_FACTORIAL:
                return None
            value, count = math.factorial(n) * value, count + 2
    else:
        eps = _lattice_eps(lam, k, n)
        if eps == math.inf:
            return None
        if moment:
            if k > _MAX_FACTORIAL:
                return None
            rho = math.expm1(lam)
            power = rho ** (k - 1)
            value, count = math.factorial(k - 1) * power * (rho / lam), k * (8 + 4 * lam) + 12
        else:
            value, count = p ** (k - 1) * (p / lam) / k, 8 * k + 12
    g = _gamma(count + 2)
    rel = ((eps or 0.0) + g) / (1.0 - g)
    if moment:
        if power >= _TINY and rel <= tol:
            return _TieValue(value, value * rel, eps)
        return None
    remainder = value * rel + _TINY
    return _TieValue(value, remainder, eps) if remainder <= tol else None


def _tie_values(spec: KnSpec, pmfs, moments, tol: float) -> list:
    """A :class:`_TieValue` of P(K = k) for each k in ``pmfs``, within ``tol``
    absolutely, then of E[(K)_ell] for each ell in ``moments``, within ``tol``
    relatively: in closed form where a geometric law's certificate allows
    (see the module docstring), the others from one pass of :func:`_sums`."""
    n, lam = spec.n, spec.law.lattice_rate
    wanted = [(k, False) for k in pmfs] + [(ell, True) for ell in moments]
    values = [None if lam is None else _closed_form(lam, n, order, moment, tol)
              for order, moment in wanted]
    rest = [(i, order, moment) for i, ((order, moment), value) in enumerate(zip(wanted, values))
            if value is None]
    if rest:
        logs = [_log_falling(n, order) if moment else _log_choose(n, order)
                for _, order, moment in rest]
        terms = [(order, n - order, not moment, math.log(tol) - (0.0 if moment else log), moment)
                 for (_, order, moment), log in zip(rest, logs)]
        for (i, _, _), log, (log_sum, log_rem) in zip(rest, logs, _sums(spec.law, terms)):
            values[i] = _TieValue(math.exp(log + log_sum), math.exp(log + log_rem))
    return values


def _values(spec: KnSpec, orders, tol: float, pmf: bool):
    """The public pmf (or moment) values at an order or a sequence of orders.

    A sequence is what ``numpy.ndim`` gives a positive rank: an array of rank
    1 or more, or a list, tuple or other sequence that is not a string.
    """
    many = (orders.ndim > 0 if hasattr(orders, "ndim")
            else isinstance(orders, Sequence) and not isinstance(orders, (str, bytes)))
    orders = [integer_in(v, 1, spec.n, "tie count" if pmf else "moment order")
              for v in (orders if many else (orders,))]
    positive_tol(tol)
    pairs = _tie_values(spec, orders, (), tol) if pmf else _tie_values(spec, (), orders, tol)
    values = tuple(pair.value for pair in pairs)
    return values if many else values[0]


def tie_count_pmf(spec: KnSpec, k, tol: float = DEFAULT_TOL):
    """P(K = k), certified within ``tol`` absolutely.

    A sequence of k gives a tuple, from one pass over the maximum."""
    return _values(spec, k, tol, pmf=True)


def tie_count_factorial_moment(spec: KnSpec, ell, tol: float = DEFAULT_TOL):
    """E[(K)_ell] = E[K (K-1) ... (K-ell+1)], certified within ``tol`` relatively.

    A sequence of ell gives a tuple, from one pass over the maximum."""
    return _values(spec, ell, tol, pmf=False)


def _log_z(spec: KnSpec) -> float:
    """log Z, Z = sum_j p(j) F(j)**(n-1) = E[K] / n, with E[K] within 1e-14 relatively."""
    return math.log(_tie_values(spec, (), (1,), 1e-14)[0].value / spec.n)


def _tail_end(law: DiscreteLaw, log_bound: float) -> int:
    """The least j >= 1 with ``law.log_tail(j) <= log_bound``, which must exist: j
    doubles until it gets there, then bisection narrows the last step."""
    lo, hi = 0, 1
    while law.log_tail(hi) > log_bound:
        lo, hi = hi, 2 * hi
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (mid, hi) if law.log_tail(mid) > log_bound else (lo, mid)
    return hi


def _mixture_law(spec: KnSpec, tol: float, biased: bool) -> TruncatedPMF:
    """The law of K, or of K*, from one blocked pass of binomial rows over j.

    Given M = j, K is Bin(n, q(j)) on k >= 1, so P(K = k) = sum_j w_j
    P(Bin(n, q(j)) = k) with w_j = F(j)**n; for K* the weights are p(j)
    F(j)**(n-1) / Z and the rows 1 + Bin(n-1, q(j)).  The odds of q(j) are
    p(j) / F(j-1), formed in logs.  Rows with w_j below tiny, the smallest
    normal double, are skipped; the others span the window where w_j times
    their Chernoff bound reaches tiny (:func:`binom_window`), and each chunk
    of rows is summed pairwise.  The pass ends at the first J where P(M > J)
    <= n P(X > J) (for K*, P(X > J) / Z) meets tol / 2 by ``law.log_tail``.

    The certificate b of K adds: tiny per skipped row; the suffix beyond J;
    twice the mass past each row's window (omitted, and moved by the row's
    normalisation onto its terms); 2 tiny per cell, for subnormal results
    and for entries below tiny dropped at either end; and rounding.  For
    rounding the law's p(j) and S(j) = 1 - F(j) are taken to err by at most
    4u (1 + |log p|) and 4u (1 + |log S|) relative, plus gamma_m for a law
    that sums m weights: the geometric law forms both by one exp of j log(1-p).
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
    positive_tol(tol)
    law, n = spec.law, spec.n
    m = n - 1 if biased else n
    log_z = _log_z(spec) if biased else 0.0
    log_scale = -log_z if biased else math.log(n)
    last = _tail_end(law, math.log(tol / 2.0) - log_scale)
    suffix = math.exp(min(0.0, log_scale + law.log_tail(min(last, _SERIES_CAP))))
    if last > _SERIES_CAP:
        raise TruncationError(
            f"tie-count law did not certify its tolerance within {_SERIES_CAP} maxima",
            best_bound=suffix,
        )
    extra = _gamma(law.support_max or 0)

    def log_cdf_error(lf):
        s = -np.expm1(lf)  # S = 1 - F, whose error log F = log1p(-S) scales by S/F
        return (np.where(s > 0.0, s * (4.0 * _U * (1.0 - np.log(s)) + extra), 0.0)
                / np.exp(lf) + 2.0 * _U * np.abs(lf))

    parts, bounds, k_lo, k_hi, held, depth = [], [suffix], math.inf, -math.inf, 0.0, 0
    for lo in range(1, last + 1, _MAX_BLOCK):  # last is known, so the blocks need not grow
        lp, lf0, lf1 = _block(law, lo, min(last, lo + _MAX_BLOCK - 1))
        with np.errstate(divide="ignore", invalid="ignore"):
            lw = lp + (n - 1) * lf1 - log_z if biased else n * lf1
            keep = lw >= _LOG_TINY
            bounds.append((lp.size - np.count_nonzero(keep)) * _TINY)
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
        w_lo, w_hi = binom_window(m, odds, lw - _LOG_TINY)
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
                               + 2.0 * outside) + 2.0 * rows.size * _TINY)
            parts.append((start, _pairwise_sum(w[:, None] * rows[:, first:])))
            held += float(parts[-1][1].sum())
            depth = max(depth, math.ceil(math.log2(w.size)))
    if not parts:
        raise TruncationError("no tie count carries mass above the floor", best_bound=1.0)

    probs = np.zeros(k_hi - k_lo + 1)
    for start, summed in parts:
        probs[start - k_lo: start - k_lo + summed.size] += summed
    big = np.flatnonzero(probs >= _TINY)
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
    """P(K* = k) = k P(K = k) / E[K] for the size-biased tie count, within ``tol``.

    One pass gives P(K = k) within d = tol / (4k) absolutely and E[K] within
    e = d relatively.  As E[K] >= 1 and k P(K = k) <= E[K], the quotient then
    errs by at most (k d + e) / (1 - e) <= 2 tol / 3 for tol <= 1.
    """
    k = integer_in(k, 1, spec.n, "tie count")
    positive_tol(tol)
    v, e1 = _tie_values(spec, (k,), (1,), tol / (4 * k))
    return k * v.value / e1.value


def argmax_value_law(spec: KnSpec) -> DiscreteLaw:
    """Law of the value M at which the maximum is attained, size-bias weighted.

    P(M = m) = p(m) F(m)**(n-1) / Z with Z = sum_j p(j) F(j)**(n-1); Z equals
    E[K] / n.  As F <= 1, P(M > j) <= P(X > j) / Z, so the returned law's
    ``log_tail`` is the base law's less log Z, capped at 0; its ``logcdf`` sums
    the mass on the log scale from one :func:`_block` of the base law.
    """
    n = spec.n
    base = spec.law
    if n == 1:
        return base
    log_z = _log_z(spec)

    def pmf(m):
        scalar = np.ndim(m) == 0
        m = np.atleast_1d(np.asarray(m))
        pm = np.asarray(base.pmf(m), dtype=float)
        log_fm = np.asarray(base.logcdf(m), dtype=float)
        out = np.zeros_like(pm)
        ok = (pm > 0.0) & (log_fm > -np.inf)
        out[ok] = np.exp(np.log(pm[ok]) + (n - 1) * log_fm[ok] - log_z)
        return float(out[0]) if scalar else out

    def logcdf(m):
        scalar = np.ndim(m) == 0
        m = np.atleast_1d(np.asarray(m)).astype(np.int64)
        top = int(m.max(initial=0))
        if base.support_max is not None:
            top = min(top, base.support_max)
        lp, _, lf1 = _block(base, 1, top)
        cum = np.minimum(0.0, np.logaddexp.accumulate(lp + (n - 1) * lf1) - log_z)
        out = np.append(-np.inf, cum)[np.clip(m, 0, top)]  # log F(0) = -inf
        if base.support_max is not None:
            out = np.where(m >= base.support_max, 0.0, out)
        return float(out[0]) if scalar else out

    return DiscreteLaw(
        pmf=pmf,
        logcdf=logcdf,
        log_tail=lambda j: min(0.0, base.log_tail(j) - log_z),
        support_max=base.support_max,
        quantile=None,
        descriptor=None,
    )


def tie_given_max_prob(law: DiscreteLaw, m):
    """q(m) = P(X = m) / P(X <= m), the tie chance given the maximum sits at m.

    Formed from the odds p(m) / F(m-1) as p(m) / (p(m) + exp(log F(m-1))),
    which is exactly 1 at the bottom of the support.  ``m`` may be an integer
    array; a scalar gives a float.
    """
    pm = law.pmf(m)
    with np.errstate(invalid="ignore"):
        q = pm / (pm + np.exp(law.logcdf(np.asarray(m) - 1)))
    if np.isnan(q).any():  # 0 / 0 where F(m) = 0
        raise DomainError(f"cdf vanishes at {m!r}; conditional tie probability undefined")
    return q if q.ndim else float(q)


def tie_given_max_moment(spec: KnSpec, j: int, tol: float = DEFAULT_TOL) -> float:
    """E[q(M)**j] for j in {1, 2}, certified within ``tol`` relatively, as

        E[q(M)**j] = sum_m p(m)**(1+j) F(m)**(n-1-j) / Z = E[(K)_{1+j}] / ((n-1)_j E[K])

    from one :func:`_tie_values` call that gives both moments within tol / 3
    relatively: the quotient then errs by at most (2 tol / 3) / (1 - tol / 3)
    <= tol for tol <= 1.  Requires n >= 2 for j = 1 and n >= 3 for j = 2.
    """
    j = integer_in(j, 1, 2, "moment order")
    if spec.n < j + 1:
        raise DomainError(f"need at least {j + 1} observations for moment order {j}")
    positive_tol(tol)
    e1, e_top = _tie_values(spec, (), (1, 1 + j), tol / 3.0)
    return e_top.value / (math.perm(spec.n - 1, j) * e1.value)
