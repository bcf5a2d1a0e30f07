"""The tie-count series engine and the binomial-mixture laws behind ``maxima``.

``maxima`` takes each tie-count value that its closed form does not certify
from one pass of ``_sums``, which walks the maximum j for all the series
sum_j p(j)**power * F(j or j-1)**expo of a call: it evaluates the law once
per block of j (``_block``: log p(j), log F(j-1) and log F(j);
``_block_errors``: bounds on their errors), merges the block into each
series' running log-sum-exp and its rounding bound, and checks the law's
tail certificate (``log_tail``) at each block end.  Working in log space
keeps n as large as 1e9 meaningful.  A pass whose series can all certify
within the first four blocks (960 terms), of a law that takes a ``range``
(``DiscreteLaw.takes_range``), sums those in plain Python, with no numpy.

Where the entries of a tie-count law do not certify its tolerance, as where
mass sits far from k = 1, the laws of K and of the size-biased count K* are
binomial mixtures over the maximum M instead, with the conditional tie
probability q(j) = p(j) / F(j):

    P(K = k)  = sum_j F(j)**n P(Bin(n, q(j)) = k),                 k >= 1,
    P(K* = k) = sum_j p(j) F(j)**(n-1) / Z P(1 + Bin(n-1, q(j)) = k),

and one blocked pass of binomial rows over j (``_mixture_law``), reading its
blocks from ``_block`` too, gives each.

The package loads this module on the first call that needs it, so a command
whose tie-count values all come in closed form never runs it.
"""

from __future__ import annotations

import bisect
import math
import operator

from ._numpy import np
from .approximants import TruncatedPMF
from .binomial import _LOG_TINY, _TINY, _U, _gamma, _pairwise_sum, binom_rows, binom_window
from .distributions import DiscreteLaw
from .errors import TruncationError, positive_tol
from .maxima import KnSpec, _log_z, _tail_end

__all__ = ["_block", "_sums", "_mixture_law"]

# the most terms a series, and the most maxima or outcomes a mixture law, may take
_SERIES_CAP = 2_000_000
# series blocks double from _FIRST_BLOCK terms, so short series stay cheap; the
# mixture laws, whose last maximum is known, take blocks of _MAX_BLOCK at once
_FIRST_BLOCK = 64
_MAX_BLOCK = 1 << 15
# the first four blocks, 64 + 128 + 256 + 512 terms: a pass whose every series can
# certify its tolerance by here sums them in plain Python, where numpy's import would
# cost more than the sums (about 90 ms, against at most a few ms for these blocks)
_SHORT = 15 * _FIRST_BLOCK
# cells (rows x window) of one mixture chunk; a single row may exceed it
_CHUNK_CELLS = 1 << 15


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


def _block_errors(law: DiscreteLaw, lp, lf0, lf1):
    """Bounds on the errors of the three parts of a :func:`_block`, in its kind.

    The law's p(j) and S(j) = 1 - F(j) are taken to err by at most
    4u (1 + |log p|) and 4u (1 + |log S|) relative, plus gamma_m for a law
    that sums m weights: the geometric law forms both by one exp of j log(1-p).
    So log p errs by that plus 2u |log p|, and log F = log1p(-S) by S/F
    times S's error plus 2u |log F|.  Each bound also holds 3u |log p| or
    3u |log F|, for forming a term power log p + expo log F (whose two parts
    have one sign) and taking its exp.  A p or an F of 0 is taken as exact.
    """
    extra = _gamma(law.support_max or 0)
    if isinstance(lp, list):
        ep = [extra + 4.0 * _U + 9.0 * _U * -x if x > -math.inf else 0.0 for x in lp]
        ef = [(s * math.exp(min(-x, 709.0)) * (4.0 * _U * (1.0 - math.log(s)) + extra)
               if s > 0.0 else 0.0) + 5.0 * _U * -x if x > -math.inf else 0.0
              for x, s in ((x, -math.expm1(x)) for x in lf0 + lf1[-1:])]
        return ep, ef[:-1], ef[1:]
    lf = np.append(lf0, lf1[-1:])
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        s = -np.expm1(lf)  # S = 1 - F, whose error log F = log1p(-S) scales by S/F
        ep = np.where(lp > -np.inf, extra + 4.0 * _U + 9.0 * _U * np.abs(lp), 0.0)
        ef = np.where(lf > -np.inf, np.where(
            s > 0.0, s * (4.0 * _U * (1.0 - np.log(s)) + extra), 0.0) / np.exp(lf)
            + 5.0 * _U * np.abs(lf), 0.0)
    return ep, ef[:-1], ef[1:]


def _block_error(w, lt, m: float, power: int, expo: int, lp, ep, ef, python: bool) -> float:
    """A bound on the error of a term's block sum sum_j w_j, w_j = exp(lt_j - m)
    with lt_j = power log p(j) + expo log F(j), under the law model of
    :func:`_block_errors`, whose bounds for log p and log F are ``ep`` and ``ef``.

    The log of term j errs by at most d_j = power e_p + expo e_F + 3u, so
    w_j errs by at most w_j expm1(d_j); and as F <= 1, by at most exp(power
    (log p + e_p) - m + 3u (1 + expo |log F|)) too, which bounds the terms
    where a tiny F makes e_F useless.  A numpy block adds the smaller of the
    two for each term.  A Python block, whose d_j are all small on a
    geometric law, adds exp(max d) sum_j w_j d_j, as expm1(d) <= d exp(d),
    while max d is below 1; past it, as where a tabulated law's F(j) is
    tiny, it adds the smaller of the two for each term too.  A term that
    underflows to 0 in a Python block, below 2**-1000 of the top one, is
    left out.  A term that is 0, where p or F is, is exact.
    """
    if python:
        d = power * max(ep) + expo * max(ef) + 3.0 * _U
        if d < 1.0:
            grow = math.expm1(d)
            return (1.0 + grow) * (power * math.fsum(map(operator.mul, w, ep)) + 3.0 * _U
                                   * math.fsum(w) + expo * math.fsum(map(operator.mul, w, ef)))
        bounds = []
        for wj, x, a, b, c in zip(w, lt, lp, ep, ef):
            if x > -math.inf:  # F <= 1's bound first, as w_j expm1(d_j) is nan at 0 * inf
                y, dj = (power * (a + b) - m + 3.0 * _U * (1.0 - x + power * a),
                         power * b + expo * c + 3.0 * _U)
                bounds.append(min(math.exp(y) if y < 709.0 else math.inf,
                                  wj * (math.expm1(dj) if dj < 709.0 else math.inf)))
        return sum(bounds)  # inf past the largest double, where fsum would raise
    with np.errstate(invalid="ignore", over="ignore"):
        return float(np.where(lt > -np.inf, np.fmin(
            np.exp(power * (lp + ep) - m + 3.0 * _U * (1.0 - lt + power * lp)),
            w * np.expm1(power * ep + (expo * ef if expo > 0 else 0.0) + 3.0 * _U)), 0.0).sum())


def _sums(law: DiscreteLaw, terms) -> list:
    """Certified sums_{j>=1} p(j)**power * F(j - 1 or j)**expo, all in one pass.

    Each term is ``(power, expo, shifted, log_tol, relative)`` with power >= 1
    and expo >= 0; returns one ``(log_sum, log_remainder, rel)`` per term,
    where ``log_remainder`` bounds the omitted mass of its series.  The law is
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

    ``rel`` bounds the relative error of the scaled sum s = sum_j exp(log
    term j - m) under the law model of :func:`_block_errors`: the blocks'
    errors (:func:`_block_error`), plus gamma(4 blocks + 16) for the sums and
    the rescaling of s at each new top (the pairwise sum of a numpy block of
    at most 2**15 terms errs by gamma_15).

    A short pass, of a law that ``takes_range`` and with
    ``power * law.log_tail(_SHORT) <= log_tol`` for every term, evaluates
    its blocks up to ``_SHORT`` from a ``range`` and sums them in plain
    Python, a block's log-sum-exp by ``math.fsum``; any other pass, and any
    block past ``_SHORT``, is summed by numpy.  The two kinds differ only in
    rounding, so a term's value can depend on the other terms of its pass,
    through the pass's kind, in its last bits.  (Summing the first blocks
    of every pass in Python would keep the terms apart, but costs a long
    pass more than numpy's blocks do.)  A Python block takes j by decreasing
    log p, sorting them where they are out of order; where power times the
    block's spread of log p passes 746, each term stops where power log
    p(j), a bound on its log term, falls 746 below its top so far (which its
    first 8 terms bound from below): exp is 0 past there, so the sums are
    those of the whole block, at a cost of the j that count, few for a high
    power.
    """
    cap = law.support_max or _SERIES_CAP
    tail = law.log_tail(_SHORT)
    short = law.takes_range and all(power * tail <= log_tol for power, _, _, log_tol, _ in terms)
    runs = [[-math.inf, 0.0, 0.0, None] for _ in terms]  # scale, scaled sum and error, result
    lo, size, blocks = 1, _FIRST_BLOCK, 0
    while True:
        hi = law.support_max or min(cap, lo + size - 1)
        python = short and hi <= _SHORT
        lp, lf0, lf1 = _block(law, lo, hi, python)
        errors = _block_errors(law, lp, lf0, lf1)
        falls = [-x for x in lp] if python else None  # power log p(j) bounds term j's log
        if python and any(map(operator.gt, falls, falls[1:])):  # take j by decreasing log p
            order = sorted(range(len(lp)), key=falls.__getitem__)
            lp, lf0, lf1, falls, *errors = ([x[i] for i in order]
                                            for x in (lp, lf0, lf1, falls, *errors))
        zeros = [0.0] * len(lp) if python else np.zeros_like(lp)
        log_tail, worst, blocks = law.log_tail(hi), -math.inf, blocks + 1
        for (power, expo, shifted, log_tol, relative), run in zip(terms, runs):
            if run[3] is not None:
                continue
            lf = (lf0 if shifted else lf1) if expo > 0 else zeros  # F**0 = 1, even where F is 0
            if python:  # float factors, as numpy takes them, multiply faster than int ones
                pw, ex, cut = float(power), float(expo), len(lp)
                if power * (falls[-1] - falls[0]) > 746.0:  # a term 746 below the top is exp's 0
                    head = [pw * a + ex * b for a, b in zip(lp[:8], lf)]  # these bound the top
                    cut = max(8, bisect.bisect_right(falls, (746.0 - max(run[0], *head)) / power))
                lt = [pw * a + ex * b for a, b in zip(lp[:cut], lf)]
                top = max(lt)
            else:
                lt = power * lp + expo * lf
                top = float(lt.max())
            m, s, e, _ = run
            if top > m:
                s, e, m = s * math.exp(m - top), e * math.exp(m - top), top
            if m > -math.inf:
                w = [math.exp(x - m) for x in lt] if python else np.exp(lt - m)
                s += math.fsum(w) if python else float(w.sum())
                e += _block_error(w, lt, m, power, expo, lp, errors[0],
                                  errors[1] if shifted else errors[2], python)
            log_sum = m + math.log(s) if s > 0.0 else -math.inf
            log_rem = power * log_tail
            run[:3] = m, s, e
            if log_rem <= log_tol + (log_sum if relative else 0.0):
                run[3] = log_sum, log_rem, (e / s if s > 0.0 else 0.0) + _gamma(4 * blocks + 16)
            else:
                worst = max(worst, log_rem)
        if all(run[3] is not None for run in runs):
            return [run[3] for run in runs]
        if hi == cap:
            raise TruncationError(f"tie-count series did not certify its tolerance within {cap} "
                                  "terms", best_bound=math.exp(worst))
        lo, size = hi + 1, min(2 * size, _MAX_BLOCK)


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
    rounding, :func:`_block_errors` bounds the errors of log p and log F under
    its law model, and the error e_w of log w_j and e_o of the log odds follow.
    A term d steps from its row's mode takes 4d roundings, the row sum over
    G terms ceil(log2 G), the division and the weight 2 more, and an odds
    error e moves the normalised term at k by |k - m q| e.  So row j adds
    w_j [A (expm1(e_w) + gamma(ceil(log2 G) + 3) + 4u (sigma + 2)) +
    min(sigma, 2 m q) (e_o + 4u)], with A the row's kept mass and sigma**2 =
    m q (1-q); min(sigma, 2 m q) bounds the kept terms' sum of |k - m q|
    times them.  Summing the rows of a chunk pairwise and then the chunks in
    turn adds gamma(ceil(log2 rows) + chunks) of the total T.  K* is
    normalised by T rather than Z, so its certificate is 2 b / (T - b) plus
    the rounding of that division.  Where that certificate is not finite
    (or T <= b), as where a law's tiny F(j) makes its error bound overflow,
    :class:`TruncationError` is raised with the trivial L1 bound 2.
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
    parts, bounds, k_lo, k_hi, held, depth = [], [suffix], math.inf, -math.inf, 0.0, 0
    for lo in range(1, last + 1, _MAX_BLOCK):  # last is known, so the blocks need not grow
        lp, lf0, lf1 = _block(law, lo, min(last, lo + _MAX_BLOCK - 1))
        d_lp, e_lf0, e_lf1 = _block_errors(law, lp, lf0, lf1)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            lw = lp + (n - 1) * lf1 - log_z if biased else n * lf1
            keep = lw >= _LOG_TINY
            bounds.append((lp.size - np.count_nonzero(keep)) * _TINY)
            if not keep.any():
                continue
            lp, lf0, lf1, lw, d_lp, e_lf0, e_lf1 = (x[keep] for x in (lp, lf0, lf1, lw, d_lp,
                                                                      e_lf0, e_lf1))
            odds = np.where(lp > -np.inf, np.exp(lp - lf0), 0.0)
            q = 1.0 / (1.0 + 1.0 / odds)
            e_w = m * e_lf1
            if biased:
                e_w += d_lp + 3.0 * _U * abs(log_z)
            e_w = np.expm1(e_w)  # inf where the law's error bound is too coarse to use
            # the odds are one difference, formed without the 3u |log p| + 3u |log F| that
            # the bounds from _block_errors hold for forming a term
            e_odds = np.where((odds > 0.0) & (odds < np.inf), d_lp + e_lf0 + _U * (
                np.abs(lp - lf0) + 2.0 - 3.0 * (np.abs(lp) + np.abs(lf0))), 0.0)
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
            bounds.append(w @ (mass * (e_w[c] + norm + 4.0 * _U * (sigma + 2.0))
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
    if not 0.0 <= b < math.inf:
        raise TruncationError("the tie-count law's rounding bound is not finite",
                              best_bound=2.0)
    return TruncatedPMF(k_min=k_lo + int(big[0]), probs=probs.tolist(), tail_mass_bound=b)
