"""Exact law of the number of sample maxima, and its size-biased companions.

For n i.i.d. draws from a discrete law with mass function p and distribution
function F, the number K of observations tied with the sample maximum has

    P(K = k)            = C(n, k) * sum_j p(j)**k * F(j-1)**(n-k)
    E[(K)_ell]          = (n)_ell * sum_j p(j)**ell * F(j)**(n-ell)

where (k)_ell is the falling factorial.  Every tie-count value goes through
``_tie_values``, as do the argmax normaliser Z = E[K] / n and E[q(M)**j] =
E[(K)_{1+j}] / ((n-1)_j E[K]) below: it takes the closed form at the end of
this docstring where that certifies, and otherwise one pass of the series
engine ``_series._sums`` over the maximum j (see ``tiebound._series``).

The full laws of K and of the size-biased count K*, P(K* = k) = k P(K = k)
/ E[K], come from one producer, ``_law``: it takes P(K = k) for k = 1, 2,
... from ``_tie_values`` in batches, each entry in closed form where that
certifies and otherwise from the series, and E[K] for K* from the first
batch's call.  Its certificate adds the entries' remainders and rounding to
the mass they leave out.  Where that misses the tolerance, as where mass
sits far from k = 1, the laws are binomial mixtures over the maximum M
instead (``_series._mixture_law``).
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

from . import _series
from ._numpy import np
from .approximants import TruncatedPMF
from .binomial import _TINY, _gamma, _log_choose
from .distributions import DiscreteLaw, _many
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

# the entries of a tie-count law come from _tie_values in batches of this many
_BATCH = 64
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


class _TieValue(NamedTuple):
    """A tie-count value and a certified bound on its distance from the exact value.

    ``eps`` is the bound on |eps_k| when ``value`` is the closed form's main
    term, p**k / (k lambda) or (k-1)! (p/q)**k / lambda, else None.
    ``remainder`` bounds |value - exact| with both the truncation and the
    rounding counted, for a closed-form value and a series value alike.
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


def _closed_form(lam: float, n: int, k: int, moment: bool, tol: float, fourier_tol: float):
    """P(K = k), or E[(K)_k] if ``moment``, for the geometric law of rate ``lam``
    in closed form, as a :class:`_TieValue`; None where the certificate misses
    ``tol``, or where the Fourier part eps alone misses ``fourier_tol`` (both
    absolute for P(K = k), relative for E[(K)_k]).

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
    if (eps or 0.0) * (1.0 if moment else value) > fourier_tol:
        return None
    if moment:
        if power >= _TINY and rel <= tol:
            return _TieValue(value, value * rel, eps)
        return None
    remainder = value * rel + _TINY
    return _TieValue(value, remainder, eps) if remainder <= tol else None


def _tie_values(spec: KnSpec, pmfs, moments, tol: float, share=None) -> list:
    """A :class:`_TieValue` of P(K = k) for each k in ``pmfs``, within ``tol``
    absolutely, then of E[(K)_ell] for each ell in ``moments``, within ``tol``
    relatively: in closed form where a geometric law's certificate allows
    (see the module docstring), the others from one pass of :func:`_series._sums`.

    ``share(order)``, if given, is the tolerance of that order's series, and
    a closed-form value's Fourier part must meet it too: the series can beat
    the closed form on that part only, not on its rounding.  A series value's
    remainder, which may exceed the tolerance, adds to its truncation the
    rounding of its log sum (:func:`_series._sums`), of log C(n, k) or log (n)_ell
    (Loader's parts, each formed in at most 3 roundings, add up to at most
    |log| + log 2n + 1), of the log of the scaled sum and the additions, and
    of the last exp, and tiny for an exp below the normal doubles."""
    n, lam = spec.n, spec.law.lattice_rate
    share_of = share or (lambda order: tol)
    wanted = [(k, False) for k in pmfs] + [(ell, True) for ell in moments]
    values = [None if lam is None else _closed_form(lam, n, order, moment, tol, share_of(order))
              for order, moment in wanted]
    rest = [(i, order, moment) for i, ((order, moment), value) in enumerate(zip(wanted, values))
            if value is None]
    if rest:
        logs = [_log_falling(n, order) if moment else _log_choose(n, order)
                for _, order, moment in rest]
        terms = [(order, n - order, not moment,
                  math.log(share_of(order)) - (0.0 if moment else log), moment)
                 for (_, order, moment), log in zip(rest, logs)]
        sums = _series._sums(spec.law, terms)
        for (i, _, _), log, (log_sum, log_rem, rel) in zip(rest, logs, sums):
            value, remainder = math.exp(log + log_sum), math.exp(log + log_rem) + _TINY
            if value > 0.0:  # the log sum's rounding, then the rest
                log_err = -math.log1p(-rel) if rel < 1.0 else math.inf
                remainder += value * math.expm1(log_err + _gamma(2) * (16.0 - log_sum)
                                                + _gamma(9) * (log + math.log(2 * n) + 1.0))
            values[i] = _TieValue(value, remainder)
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


def _law(spec: KnSpec, tol: float, biased: bool) -> TruncatedPMF:
    """The law of K, or of K* if ``biased``, entry by entry from :func:`_tie_values`,
    or from :func:`_series._mixture_law` where those entries do not certify ``tol``.

    The entries v_k of P(K = k) come in batches of k = 1..64, 65..128, ...,
    each from one :func:`_tie_values` call, up to the first entry below the
    smallest normal double, which is left out, or to k = n.  Entry k's share
    of the tolerance is tol / (16 k**3): its series certifies that, and a
    closed-form entry, which must still certify ``tol`` as for any other
    caller, gives way to the series where its Fourier part alone misses the
    share, as near the closed form's border, where the series is short.  The
    shares add up to under tol / 8, with weights k too.  Each entry comes
    with a remainder, of its truncation and rounding, r_k >= |v_k - P(K = k)|.

    With weights w_k = 1 and mass U = 1 for K, or w_k = k and U = E + e for K*,
    where E[K] = E within e is taken from the first batch's call, the held
    entries err by at most sum w r (L1), and the omitted mass, U less the held
    w_k P(K = k), by at most U - T + sum w r with T = sum w v.  So B = |U - T|
    + 2 sum w r, plus the rounding of those sums and of the additions, bounds
    the distance of K's entries from its law.  K*'s entries k v_k / T are
    normalised by T, which is within B of E[K] >= E - e, so they err by at
    most 2 B / (E - e - B), plus the rounding of the division.  The entries
    stand where that certificate meets ``tol``; otherwise (mass far from
    k = 1, as for p = 1 - 2/n), or where an entry's series does not meet its
    share within ``_series._SERIES_CAP`` maxima, the mixture runs.
    """
    positive_tol(tol)
    n, held, moments = spec.n, [], (1,) if biased else ()
    try:
        for lo in range(1, n + 1, _BATCH):
            batch = _tie_values(spec, range(lo, min(n + 1, lo + _BATCH)), moments, tol,
                                lambda k: tol / (16 * k**3))
            if moments:
                mean, moments = batch.pop(), ()
            cut = next((i for i, entry in enumerate(batch) if entry.value < _TINY), len(batch))
            held += batch[:cut]
            if cut < len(batch):
                break
    except TruncationError:  # an entry's series missed its share within the cap
        return _series._mixture_law(spec, tol, biased)
    weights = range(1, len(held) + 1) if biased else [1] * len(held)
    values = [w * entry.value for w, entry in zip(weights, held)]
    total = math.fsum(values)
    rem = math.fsum(w * entry.remainder for w, entry in zip(weights, held))
    mass = mean.value + mean.remainder if biased else 1.0
    bound = abs(mass - total) + 2.0 * rem + _gamma(4) * (mass + total + 2.0 * rem)
    if biased:
        low = mean.value - mean.remainder - bound
        bound = 2.0 * bound / low * (1.0 + _gamma(3)) + _gamma(2) if low > 0.0 else math.inf
        values = [v / total for v in values]
    if held and bound <= tol:
        return TruncatedPMF(k_min=1, probs=values, tail_mass_bound=bound)
    return _series._mixture_law(spec, tol, biased)


def tie_count_law(spec: KnSpec, tol: float = DEFAULT_TOL) -> TruncatedPMF:
    """The law of K from its entries P(K = k), k = 1, 2, ..., each in closed form
    where that certifies and otherwise from the series, or from one
    binomial-mixture pass over the maximum where those entries do not
    certify ``tol`` (see :func:`_law`).

    Either law holds the outcomes where it reaches the smallest normal
    double, so the mixture's ``k_min`` may exceed 1.  ``tail_mass_bound``
    covers the mass omitted on both sides plus the entries' errors: their
    certified remainders, or for the mixture at most ``tol / 2`` past the last
    maximum plus the rounding (see :func:`_series._mixture_law`), about 1e-14 at
    n = 1e9.  The mixture raises :class:`TruncationError` when those
    outcomes span more than ``_series._SERIES_CAP`` values, as when mass sits near
    both k = n and 1, or when its rounding bound is not finite.
    """
    return _law(spec, tol, biased=False)


def size_biased_tie_law(spec: KnSpec, tol: float = DEFAULT_TOL) -> TruncatedPMF:
    """The law of K*, P(K* = k) = k P(K = k) / E[K], from the entries of
    :func:`tie_count_law` and E[K] in one call, or from the mixture where those
    do not certify ``tol`` (see :func:`_law`)."""
    return _law(spec, tol, biased=True)


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
    the mass on the log scale from one :func:`_series._block` of the base law.
    """
    n = spec.n
    base = spec.law
    if n == 1:
        return base
    log_z = _log_z(spec)

    def pmf(m):  # of an array m, as logcdf below
        pm = np.asarray(base.pmf(m), dtype=float)
        log_fm = np.asarray(base.logcdf(m), dtype=float)
        out = np.zeros_like(pm)
        ok = (pm > 0.0) & (log_fm > -np.inf)
        out[ok] = np.exp(np.log(pm[ok]) + (n - 1) * log_fm[ok] - log_z)
        return out

    def logcdf(m):
        m = m.astype(np.int64)
        top = int(m.max(initial=0))
        if base.support_max is not None:
            top = min(top, base.support_max)
        lp, _, lf1 = _series._block(base, 1, top)
        cum = np.minimum(0.0, np.logaddexp.accumulate(lp + (n - 1) * lf1) - log_z)
        out = np.append(-np.inf, cum)[np.clip(m, 0, top)]  # log F(0) = -inf
        if base.support_max is not None:
            out = np.where(m >= base.support_max, 0.0, out)
        return out

    return DiscreteLaw(
        pmf=lambda m: _many(m, None, pmf),
        logcdf=lambda m: _many(m, None, logcdf),
        log_tail=lambda j: min(0.0, base.log_tail(j) - log_z),
        support_max=base.support_max,
        quantile=None,
        descriptor=None,
    )


def tie_given_max_prob(law: DiscreteLaw, m):
    """q(m) = P(X = m) / P(X <= m), the tie chance given the maximum sits at m.

    Formed from the odds p(m) / F(m-1) as p(m) / (p(m) + exp(log F(m-1))),
    which is exactly 1 at the bottom of the support.  ``m`` may be an integer
    array; a scalar gives a float, by numpy's route too, so that it matches an
    array's entry.
    """
    def odds(j):
        pm = law.pmf(j)
        return pm / (pm + np.exp(law.logcdf(j - 1)))

    with np.errstate(invalid="ignore"):
        q = _many(m, None, odds)
    if np.isnan(q).any():  # 0 / 0 where F(m) = 0
        raise DomainError(f"cdf vanishes at {m!r}; conditional tie probability undefined")
    return q


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
