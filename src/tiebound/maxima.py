"""Exact law of the number of sample maxima, and its size-biased companions.

For n i.i.d. draws from a discrete law with mass function p and distribution
function F, the number K of observations tied with the sample maximum has

    P(K = k)            = C(n, k) * sum_j p(j)**k * F(j-1)**(n-k)
    E[(K)_ell]          = (n)_ell * sum_j p(j)**ell * F(j)**(n-ell)

where (k)_ell is the falling factorial.  Both are instances of one series,
sum_j p(j)**power * F(j or j-1)**expo, which a single engine (``_series``)
evaluates: it takes log p(j) and log F over blocks of j, merges each block
into a running log-sum-exp, and checks the law's geometric tail certificate
at each block end.  Working in log space keeps n as large as 1e9 meaningful.

It also exposes the law of the argmax value M (P(M = m) proportional to
p(m) * F(m)**(n-1)), the conditional tie probability q(m) = p(m) / F(m),
and the size-biased tie count, which is a binomial mixture over q(M).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .approximants import TruncatedPMF
from .distributions import DiscreteLaw
from .errors import DomainError, TruncationError

__all__ = [
    "KnSpec",
    "tie_count_pmf",
    "tie_count_factorial_moment",
    "tie_count_law",
    "size_biased_tie_pmf",
    "argmax_value_law",
    "tie_given_max_prob",
    "tie_given_max_moment",
]

DEFAULT_TOL = 1e-12

_SERIES_CAP = 2_000_000
# series blocks double from _FIRST_BLOCK terms, so short series stay cheap
_FIRST_BLOCK = 64
_MAX_BLOCK = 1 << 15


@dataclass(frozen=True)
class KnSpec:
    """Sample description: a discrete law and the number of observations."""

    law: DiscreteLaw
    n: int

    def __post_init__(self):
        if not isinstance(self.n, int) or self.n < 1:
            raise DomainError(f"sample size must be a positive integer, got {self.n!r}")


def _log_comb(n: int, k: int) -> float:
    """log C(n, k); accurate for huge n as long as k stays moderate."""
    if k < 0 or k > n:
        return -math.inf
    k = min(k, n - k)
    if k <= 100_000:
        return math.fsum(math.log((n - k + i) / i) for i in range(1, k + 1))
    return math.lgamma(n + 1) - math.lgamma(k + 1) - math.lgamma(n - k + 1)


def _log_falling(n: int, ell: int) -> float:
    """log of the falling factorial n (n-1) ... (n-ell+1)."""
    return math.fsum(math.log(n - i) for i in range(ell))


def _log_cdf(law: DiscreteLaw, j):
    """log F(j), through the law's ``logcdf`` where it has one."""
    if law.logcdf is not None:
        return law.logcdf(j)
    with np.errstate(divide="ignore"):
        return np.log(law.cdf(j))


def _series(law: DiscreteLaw, power: int, expo: int, shifted: bool,
            rel_tol: Optional[float] = None,
            log_abs_tol: Optional[float] = None) -> tuple[float, float]:
    """Certified sum_{j>=1} p(j)**power * F(j - 1 or j)**expo, for power >= 1.

    Returns ``(log_sum, log_remainder)`` where ``log_remainder`` bounds the
    omitted mass of the series.  Terms are evaluated in log space over blocks
    of j (64, 128, ... terms, at most ``_MAX_BLOCK``), each merged into a
    running log-sum-exp, so the result is meaningful even when every term
    underflows a plain double.  A finitely supported law is one block with
    zero remainder.  Otherwise the remainder certificate, checked at each
    block end, uses p(j) <= C * r**(j-1) and F <= 1:

        sum_{j>J} p(j)**power <= C**power * r**(power*J) / (1 - r**power).

    Stops at the first block end where the remainder meets ``rel_tol``
    relative to the partial sum and/or ``log_abs_tol`` absolutely (at least
    one must be given); raises :class:`TruncationError` past ``_SERIES_CAP``
    terms.
    """
    if expo < 0:
        raise DomainError("series exponent must be non-negative")
    if rel_tol is None and log_abs_tol is None:
        raise ValueError("need a stopping tolerance")
    finite = law.support_max is not None
    cap = law.support_max if finite else _SERIES_CAP
    log_r, log_c = math.log(law.tail_ratio), math.log(law.tail_const)
    rp = law.tail_ratio**power
    log_one_minus_rp = math.log1p(-rp) if rp < 1.0 else -math.inf
    m, s = -math.inf, 0.0  # running log-sum-exp: scale and scaled sum
    lo, size = 1, _FIRST_BLOCK
    while True:
        hi = cap if finite else min(cap, lo + size - 1)
        j = np.arange(lo, hi + 1)
        with np.errstate(divide="ignore"):
            lt = power * np.log(law.pmf(j))
            if expo > 0:  # F**0 = 1, even where F vanishes
                lt += expo * _log_cdf(law, j - 1 if shifted else j)
        top = float(lt.max())
        if top > m:
            s, m = s * math.exp(m - top), top
        if m > -math.inf:
            s += float(np.exp(lt - m).sum())
        log_sum = m + math.log(s) if s > 0.0 else -math.inf
        log_rem = -math.inf if finite else power * (log_c + hi * log_r) - log_one_minus_rp
        if ((log_abs_tol is not None and log_rem <= log_abs_tol)
                or (rel_tol is not None and log_rem <= math.log(rel_tol) + log_sum)):
            return log_sum, log_rem
        if hi == cap:
            raise TruncationError(
                f"tie-count series did not certify its tolerance within {cap} terms",
                best_bound=math.exp(log_rem),
            )
        lo, size = hi + 1, min(2 * size, _MAX_BLOCK)


def _tie_pmf_with_error(spec: KnSpec, k: int, tol: float) -> tuple[float, float]:
    log_binom = _log_comb(spec.n, k)
    log_sum, log_rem = _series(spec.law, power=k, expo=spec.n - k, shifted=True,
                               log_abs_tol=math.log(tol) - log_binom)
    return math.exp(log_binom + log_sum), math.exp(log_binom + log_rem)


def _factorial_moment_with_error(spec: KnSpec, ell: int, tol: float) -> tuple[float, float]:
    log_falling = _log_falling(spec.n, ell)
    log_sum, log_rem = _series(spec.law, power=ell, expo=spec.n - ell, shifted=False,
                               rel_tol=tol)
    return math.exp(log_falling + log_sum), math.exp(log_falling + log_rem)


def tie_count_pmf(spec: KnSpec, k: int, tol: float = DEFAULT_TOL) -> float:
    """P(K = k), certified within ``tol`` absolutely."""
    if not isinstance(k, int) or not (1 <= k <= spec.n):
        raise DomainError(f"tie count must be an integer in [1, {spec.n}], got {k!r}")
    if not (tol > 0.0):
        raise DomainError("tolerance must be positive")
    return _tie_pmf_with_error(spec, k, tol)[0]


def tie_count_factorial_moment(spec: KnSpec, ell: int, tol: float = DEFAULT_TOL) -> float:
    """E[(K)_ell] = E[K (K-1) ... (K-ell+1)], certified within ``tol`` relatively."""
    if not isinstance(ell, int) or not (1 <= ell <= spec.n):
        raise DomainError(f"moment order must be an integer in [1, {spec.n}], got {ell!r}")
    if not (tol > 0.0):
        raise DomainError("tolerance must be positive")
    return _factorial_moment_with_error(spec, ell, tol)[0]


def tie_count_law(spec: KnSpec, tol: float = DEFAULT_TOL) -> TruncatedPMF:
    """The full law of K as a TruncatedPMF whose tail certificate meets ``tol``.

    For moderate n the entire support {1, ..., n} is materialized and the
    tail budget consists purely of accumulated per-entry certificates.  For
    large n the support is cut once the certified unaccounted mass
    (1 - partial sum, plus per-entry errors) drops below ``tol``.
    """
    if not (tol > 0.0):
        raise DomainError("tolerance must be positive")
    n = spec.n
    e1 = tie_count_factorial_moment(spec, 1, min(tol, 1e-9))
    if n >= 2:
        e2 = tie_count_factorial_moment(spec, 2, min(tol, 1e-9))
        lam = e2 / e1
    else:
        lam = 1.0
    k_hint = min(n, int(lam + 12.0 * math.sqrt(lam) + 30.0))
    per_tol = tol / (8.0 * k_hint)

    probs = []
    errs = 0.0
    running = 0.0
    k_cap = min(n, 200_000)
    for k in range(1, k_cap + 1):
        v, e = _tie_pmf_with_error(spec, k, per_tol)
        probs.append(v)
        errs += e
        running += v
        if k == n:
            return TruncatedPMF(k_min=1, probs=np.array(probs), tail_mass_bound=errs)
        if k >= k_hint:
            # omitted mass <= (1 - certified partial sum); the budget also
            # covers the per-entry errors of the stored probabilities
            deficit = max(0.0, 1.0 - running) + 2.0 * errs
            if deficit <= tol:
                return TruncatedPMF(k_min=1, probs=np.array(probs), tail_mass_bound=deficit)
    raise TruncationError(
        f"tie-count law did not certify tail {tol!r} within {k_cap} outcomes",
        best_bound=max(0.0, 1.0 - running) + 2.0 * errs,
    )


def size_biased_tie_pmf(spec: KnSpec, k: int, tol: float = DEFAULT_TOL) -> float:
    """P(K* = k) = k P(K = k) / E[K] for the size-biased tie count."""
    if not isinstance(k, int) or not (1 <= k <= spec.n):
        raise DomainError(f"tie count must be an integer in [1, {spec.n}], got {k!r}")
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
    log_z, _ = _series(base, power=1, expo=n - 1, shifted=False, rel_tol=1e-14)
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
    log_num, _ = _series(spec.law, power=1 + j, expo=spec.n - 1 - j, shifted=False,
                         rel_tol=tol / 2.0)
    log_z, _ = _series(spec.law, power=1, expo=spec.n - 1, shifted=False,
                       rel_tol=min(tol / 2.0, 1e-14))
    if log_num == -math.inf:
        return 0.0
    return math.exp(log_num - log_z)
