"""Binomial terms, tails, coefficients and rows: the package's binomial code.

Single terms and log C(m, k) use Loader's saddle-point form, accurate at
m = 1e9 where lgamma differences lose about 1e-6.  :func:`binom_rows` is the
row kernel that the near-order count and the tie-count laws both use, on
the windows of :func:`binom_window`.
"""

from __future__ import annotations

import math
import sys

from ._numpy import np

__all__ = ["binom_window", "binom_rows"]

_EPS = sys.float_info.epsilon
# unit roundoff, the u of Higham's gamma_k = k u / (1 - k u)
_U = _EPS / 2.0
# the smallest normal double: the tie-count laws stop their entries, and the mixture skips
# rows and trims entries, below it
_TINY = sys.float_info.min
_LOG_TINY = math.log(_TINY)
# terms of a binomial tail summed in plain Python before numpy blocks take over
_SHORT_RUN = 128

# _stirlerr(k) for k = 1, ..., 15, where the series below is not yet accurate
# and lgamma(k + 1) - (k + 1/2) log k + ... cancels to about 5e-15
_STIRLERR_SMALL = (
    0.08106146679532726, 0.0413406959554093, 0.02767792568499834, 0.020790672103765093,
    0.016644691189821193, 0.013876128823070748, 0.01189670994589177, 0.010411265261972096,
    0.009255462182712733, 0.00833056343336287, 0.007573675487951841, 0.00694284010720953,
    0.006408994188004207, 0.0059513701127588475, 0.005554733551962801,
)


def _gamma(k) -> float:
    """Higham's gamma_k = k u / (1 - k u), the relative error of k roundings."""
    return k * _U / (1.0 - k * _U)


def _stirlerr(k: int) -> float:
    """log(k!) - log(sqrt(2 pi k) (k/e)**k), the error of Stirling's formula, k >= 1."""
    if k <= 15:
        return _STIRLERR_SMALL[k - 1]
    kk = float(k) * k
    return (1 / 12 - (1 / 360 - (1 / 1260 - (1 / 1680 - 1 / 1188 / kk) / kk) / kk) / kk) / k


def _bd0(x: float, mu):
    """x log(x/mu) + mu - x, elementwise over ``mu``, by a series free of
    cancellation where |x - mu| < 0.1 (x + mu).

    There v = (x - mu) / (x + mu) and the odd series in v has terms of power
    j at most 2 (x + mu) |v|**j / j against a sum above 0.9 (x + mu) v**2,
    so every term past j = 19 is below 2e-20 of the sum and rounds away.
    A float ``mu`` is answered through ``math``, without numpy.
    """
    scalar = isinstance(mu, float)
    if not scalar:
        mu = np.asarray(mu, dtype=float)
    v = (x - mu) / (x + mu)
    s, term, v2 = (x - mu) * v, 2.0 * x * v, v * v
    for j in range(3, 21, 2):
        term = term * v2
        s = s + term / j
    if scalar:
        if abs(v) < 0.1:
            return s
        return x * math.log(x / mu) + mu - x if mu > 0.0 else math.inf
    with np.errstate(divide="ignore"):
        return np.where(np.abs(v) < 0.1, s, x * np.log(x / mu) + mu - x)


def _log_binom_term(m: int, k: int, q):
    """log P(Bin(m, q) = k), elementwise over ``q`` in [0, 1], by Loader's
    saddle-point form.

    Stirling errors and the deviance terms ``_bd0`` replace the lgamma
    differences, which at m = 1e9 would cost about 1e-6 absolute (C. Loader,
    "Fast and accurate computation of binomial probabilities", 2000).  A
    float ``q`` is answered through ``math``, without numpy.
    """
    if k == 0 or k == m:
        if isinstance(q, float):  # log 0 = -inf at q = 1 or 0
            rest = 1.0 - q if k == 0 else q
            return m * (math.log1p(-q) if k == 0 else math.log(q)) if rest > 0.0 else -math.inf
        with np.errstate(divide="ignore"):
            return m * (np.log1p(-q) if k == 0 else np.log(q))
    return (_stirlerr(m) - _stirlerr(k) - _stirlerr(m - k) - _bd0(k, m * q)
            - _bd0(m - k, m * (1.0 - q)) + 0.5 * math.log(m / (2.0 * math.pi * k * (m - k))))


def _log_choose(m: int, k: int) -> float:
    """log C(m, k) for 0 <= k <= m: Loader's term at q = k/m, where both
    deviance terms vanish, less log(q**k (1-q)**(m-k))."""
    if k == 0 or k == m:
        return 0.0
    return (_stirlerr(m) - _stirlerr(k) - _stirlerr(m - k)
            + 0.5 * math.log(m / (2.0 * math.pi * k * (m - k)))
            - k * math.log(k / m) - (m - k) * math.log1p(-k / m))


def _log_binom_tail(m: int, k: int, q: float, upper: bool) -> float:
    """log P(Bin(m, q) > k) if ``upper``, else log P(Bin(m, q) <= k).

    The side that holds the mode floor((m+1) q) is log(-expm1(other side)),
    never above 0.  The other side is a direct sum over its terms from its
    end nearest the mode, whose log is :func:`_log_binom_term`, outward by
    the term ratios, which fall below 1 there.  Its first ``_SHORT_RUN``
    terms are formed and summed (``math.fsum``) in plain Python, so a short
    tail never needs numpy; a longer run goes on in numpy blocks of 4096
    terms, then of doubling size, until the geometric bound on what is left,
    last term * rho / (1 - rho) with rho the next ratio, is below eps of the
    sum.
    """
    lo, hi = (k + 1, m) if upper else (0, k)
    if lo > hi or (q <= 0.0 and lo > 0) or (q >= 1.0 and hi < m):
        return -math.inf
    if q <= 0.0 or q >= 1.0:
        return 0.0
    if lo <= math.floor((m + 1) * q) <= hi:
        return math.log(-math.expm1(_log_binom_tail(m, k, q, not upper)))
    anchor, step, end = (lo, 1, hi) if upper else (hi, -1, lo)
    odds, inv_odds = q / (1.0 - q), (1.0 - q) / q
    total, i, term, size = 1.0, anchor, 1.0, _SHORT_RUN  # the sum relative to the anchor term
    while i != end:
        count = min(size, abs(end - i))
        if size == _SHORT_RUN:  # the first run, in plain Python; its first term is 1
            terms = []
            for idx in range(i, i + step * count, step):
                term *= ((m - idx) / (idx + 1.0) * odds if step > 0
                         else idx / (m - idx + 1.0) * inv_odds)
                terms.append(term)
            total += math.fsum(terms)
            size = 4096
        else:
            idx = i + step * np.arange(count, dtype=float)
            # the ratio of the term after each index to the term at it
            ratios = ((m - idx) / (idx + 1.0) * odds if step > 0
                      else idx / (m - idx + 1.0) * inv_odds)
            terms = term * np.cumprod(ratios)
            total += float(terms.sum())
            term, size = float(terms[-1]), 2 * size
        i += step * count
        rho = (m - i) / (i + 1.0) * odds if step > 0 else i / (m - i + 1.0) * inv_odds
        if term == 0.0 or (rho < 1.0 and term * rho / (1.0 - rho) <= _EPS * total):
            break
    return _log_binom_term(m, anchor, q) + math.log(total)


def _pairwise_sum(a: np.ndarray) -> np.ndarray:
    """Sum over the first axis by halving: each sum takes ceil(log2 len) roundings."""
    while a.shape[0] > 1:
        half = a.shape[0] // 2
        top = a[:half] + a[half:2 * half]
        a = np.concatenate([top, a[2 * half:]]) if a.shape[0] % 2 else top
    return a[0]


def _mode(m: int, odds: np.ndarray):
    """floor((m+1) q) and q = odds / (1 + odds); odds 0 (or subnormal) and inf
    give q = 0 and 1."""
    with np.errstate(divide="ignore", over="ignore"):
        q = 1.0 / (1.0 + 1.0 / odds)
    return np.minimum(np.floor((m + 1) * q), m), q


def binom_window(m: int, odds: np.ndarray, depth: np.ndarray):
    """Per-row windows [lo, hi] outside which P(Bin(m, q) = k) < exp(-depth).

    By Chernoff, P(Bin(m, q) = k) <= exp(-m KL(k/m || q)) on either side of
    m q, so each edge is the first k past the mode, found by bisection, where
    m KL reaches ``depth``.  The window holds the mode's neighbours too.
    """
    mode, q = _mode(m, odds)
    edges = []
    for step, near in ((1, np.minimum(mode + 1, m)), (-1, np.maximum(mode - 1, 0))):
        far = np.full_like(near, m if step > 0 else 0)  # always a valid edge
        while np.any(near != far):
            mid = np.floor((near + far) / 2.0) if step > 0 else np.ceil((near + far) / 2.0)
            x = mid / m
            with np.errstate(divide="ignore", invalid="ignore"):
                kl = (np.where(x > 0.0, x * np.log(x / q), 0.0)
                      + np.where(x < 1.0, (1.0 - x) * np.log1p((q - x) / (1.0 - q)), 0.0))
            reached = m * kl >= depth
            far = np.where(reached, mid, far)
            near = np.where(reached | (near == far), near, mid + step)
        edges.append(far.astype(np.int64))
    return edges[1], edges[0]


def binom_rows(m: int, odds, lo: int, hi: int):
    """Bin(m, q_i) on k = lo, ..., hi for each q_i = odds_i / (1 + odds_i).

    Each row starts at 1 at its mode floor((m+1) q), which must lie in the
    window, multiplies the term ratios P(k+1)/P(k) = (m-k)/(k+1) * odds
    outward from it and is divided by its sum, so no binomial coefficient or
    power is formed and nothing overflows.  Odds 0 and inf give the point
    masses at 0 and m.  Returns ``(rows, outside)``: ``outside[i]`` bounds
    the mass of row i past the window, relative to its sum, by edge term *
    rho / (1 - rho), rho the first ratio past the edge (the ratios keep
    falling there); inf where rho is not below 1.
    """
    odds = np.asarray(odds, dtype=float)[:, None]
    mode = _mode(m, odds)[0]
    k = np.arange(lo, hi, dtype=float)
    rows = np.ones((odds.shape[0], hi - lo + 1))
    outside = np.zeros(odds.shape[0])
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        rows[:, 1:] = np.cumprod(np.where(k >= mode, (m - k) / (k + 1.0) * odds, 1.0), axis=1)
        down = np.where(k < mode, (k + 1.0) / (m - k) / odds, 1.0)
        rows[:, :-1] *= np.cumprod(down[:, ::-1], axis=1)[:, ::-1]
        rows /= _pairwise_sum(rows.T)[:, None]
        for past, term, rho in ((hi < m, rows[:, -1], (m - hi) / (hi + 1.0) * odds[:, 0]),
                                (lo > 0, rows[:, 0], lo / (m - lo + 1.0) / odds[:, 0])):
            if past:
                outside += np.where(rho < 1.0, term * rho / (1.0 - rho), np.inf)
    return rows, outside
