"""Probability laws for the sampled observations.

Every law works on the log scale of its distribution function F, since
the tie and near-order counts raise F to powers n as large as 1e9.  A
discrete law lives on {1, 2, ...}: its mass function ``pmf``, its
``logcdf`` and ``log_tail``, the log of a certified bound on 1 - F(j) from
which the series over j certify their truncation remainders.  A
continuous law has ``logcdf`` on all of R (-inf below the support and 0
above it), which keeps expressions such as ``logcdf(x - a)`` well defined
at and below the support edge, its inverse ``logquantile`` and, for the
Gumbel and uniform laws, its gap-ratio moments and its near-order laws in
closed form (``gap_moments``, ``near_order_law``).

All laws are immutable after construction and safe for concurrent reads.
"""

from __future__ import annotations

import bisect
import itertools
import math
from dataclasses import dataclass
from typing import Callable, Optional

from ._numpy import _many, np
from .binomial import _U
from .errors import DomainError, real_in

__all__ = [
    "DiscreteLaw",
    "ContinuousLaw",
    "geometric_law",
    "tabulated_law",
    "gumbel_law",
    "uniform_law",
    "law_from_descriptor",
]


@dataclass(frozen=True)
class DiscreteLaw:
    """A probability law on the positive integers.

    Attributes:
        pmf: mass function p(j), defined for integer j >= 1.
        logcdf: log F(j) for integer j >= 0, with logcdf(0) = -inf; accurate
            where F(j) rounds to 1.  A law gives log F rather than F because
            the series raise F to a power n, which grows the rounding of F
            n-fold.  Both accept integer arrays as well as scalars: the
            tie-count series evaluates them over blocks of j.
        log_tail: j -> log of a certified bound on P(X > j), for a scalar integer
            j >= 0; it never rises as j grows, and is -inf where the tail is
            exactly 0.  The series over j end and bound what they omit by it.
        support_max: largest support point for finitely supported laws, else None.
            When set, all mass beyond it is exactly zero.
        quantile: u -> smallest j with F(j) >= u, for u in [0, 1); accepts floats
            or numpy arrays.  The built-in laws write it once, for a float,
            and map that over an array's entries into int64 (``_many``); they
            raise :class:`DomainError` for a level outside [0, 1), NaN
            included.  None means callers must fall back to generic
            inversion.
        descriptor: JSON-style dict this law can be rebuilt from, if any.
        lattice_rate: lambda > 0 when the law is geometric, p(j) = (1 - e**-lambda)
            e**(-lambda (j-1)), else None.  Only :func:`geometric_law` sets it;
            the tie-count values of such a law have closed forms
            (``maxima._tie_values``), which the series replaces where they
            certify the tolerance.
        takes_range: True when ``pmf`` and ``logcdf`` also take a ``range``
            and answer it with a list of floats, and answer a Python ``int``
            (``quantile`` a Python ``float``) with a Python number, all
            without numpy.  :func:`geometric_law` and :func:`tabulated_law`
            set it; the tie-count series then sum their first blocks in plain
            Python (``_series._sums``) and ``ties`` runs draw their histograms
            without numpy (``montecarlo``).  Every other law, such as one
            written for numpy arrays, is given numpy arrays.
    """

    pmf: Callable
    logcdf: Callable
    log_tail: Callable
    support_max: Optional[int] = None
    quantile: Optional[Callable] = None
    descriptor: Optional[dict] = None
    lattice_rate: Optional[float] = None
    takes_range: bool = False


@dataclass(frozen=True)
class ContinuousLaw:
    """An absolutely continuous law on an interval of the reals, on the log scale.

    The built-in laws write ``logcdf`` and ``logquantile`` once, as a
    ``math`` formula for a Python float, and answer an array by mapping that
    formula over its entries (``_many``), so an array's entries equal the
    floats' answers exactly; the quadrature's nodes, at most 1050 per pass,
    are the only arrays the package gives them.

    Attributes:
        logcdf: x -> log F(x) on all of R, -inf below the support and 0
            above it; accepts arrays.  Accurate where F(x) rounds to 1.
        logquantile: log u -> x with F(x) = u, for log u in [-inf, 0];
            accepts arrays.  Exact in the upper tail, log u = log1p(-v).
        support: (lower, upper) endpoints; may be infinite.
        descriptor: JSON-style dict this law can be rebuilt from, if any.
        gap_moments: (n, ell, a) -> (M1, M2, e1, e2), the first two moments
            of the gap ratio r_a at the ell-th largest of n observations in
            closed form, with e1, e2 bounds on their errors (the Gumbel
            law's) or estimates of them (the uniform law's); or None where
            the form does not apply.  :func:`gumbel_law` and
            :func:`uniform_law` set it, and the thm3 bound then needs no
            quadrature and no numpy; without it the bound integrates the
            moments from ``logcdf`` and ``logquantile``.
        near_order_law: (n, ell, a, tol) -> the law of the count within a
            below the ell-th largest of n observations, as a ``TruncatedPMF``
            in closed form whose ``tail_mass_bound`` is certified within
            ``tol``, or None where the form does not apply or its certificate
            misses ``tol``.  :func:`gumbel_law` (at the maximum) and
            :func:`uniform_law` (at every rank) set it, and
            ``near_order_count_pmf`` then needs no quadrature and no numpy;
            without it, it integrates the binomial mixture.
    """

    logcdf: Callable
    logquantile: Callable
    support: tuple
    descriptor: Optional[dict] = None
    gap_moments: Optional[Callable] = None
    near_order_law: Optional[Callable] = None


def _closed_form(name: str, *args) -> Callable:
    """A closed-form field of a built-in law: ``moments.<name>(*call,
    *args)``, with the module imported at the first call, so that a command
    that never calls the field never loads it."""
    def field(*call):
        from . import moments

        return getattr(moments, name)(*call, *args)

    return field


def geometric_law(p: float) -> DiscreteLaw:
    """Geometric law with pmf p*(1-p)**(j-1) on {1, 2, ...}.

    log F(j) = log1p(-(1-p)**j) is evaluated in closed form via exp/log1p so
    it stays accurate both for p near 0 and for p near 1 (e.g. p = 1 - mu/n
    with n up to 1e9).  Its ``lattice_rate`` is lambda = -log1p(-p), and its
    tail P(X > j) = (1-p)**j gives ``log_tail(j) = j log1p(-p) (1 - 6u)``:
    log1p errs by at most 4u and each product by u, so raising the value by
    6u keeps it at or above the true log tail.  Building the law imports
    nothing.  ``pmf`` and ``logcdf`` answer a ``range`` with a list, and a
    Python ``int`` with a float, formed by ``math`` (``takes_range``), so the
    first blocks of a tie-count series need no numpy; numpy loads when they
    are first called with a numpy number or an array, whose blocks keep a
    numpy formula for speed.  The two formulas are the same, but numpy's
    ``exp`` and ``log1p`` may differ from ``math``'s in the last bit, which
    ``logcdf`` magnifies by t / (1 - t), t = (1-p)**j, where F(j) is small.
    ``quantile`` has one formula, for a Python ``float``, so a ``ties`` run
    needs no numpy either; an array maps it.  It raises
    :class:`DomainError` for a level outside [0, 1).
    """
    real_in(p, 0.0, 1.0, "geometric parameter")
    log_q = math.log1p(-p)

    def pmf(j):
        if type(j) is int:
            return p * math.exp((j - 1) * log_q) if j >= 1 else 0.0
        return _many(j, pmf, lambda j: np.where(j >= 1, p * np.exp((j - 1) * log_q), 0.0))

    def logcdf(j):
        if type(j) is int:  # log1p(-(1-p)**j), -inf where (1-p)**j >= 1, as at j <= 0
            t = math.exp(j * log_q)
            return math.log1p(-t) if t < 1.0 else -math.inf
        return _many(j, logcdf, lambda j: np.where(
            j >= 1, np.log1p(-np.exp(np.maximum(j, 1) * log_q)), -np.inf))

    def quantile(u):
        if type(u) is not float:
            return _many(u, quantile, dtype="int64")
        if not 0.0 <= u < 1.0:
            raise DomainError(f"quantile level must lie in [0, 1), got {u!r}")
        j = max(math.ceil(math.log1p(-u) / log_q), 1)
        # float-edge fixups so that j is the smallest index with F(j) >= u
        if j > 1 and -math.expm1((j - 1) * log_q) >= u:
            j -= 1
        return j + 1 if -math.expm1(j * log_q) < u else j

    return DiscreteLaw(
        pmf=pmf,
        logcdf=logcdf,
        log_tail=lambda j: j * log_q * (1.0 - 6.0 * _U),
        support_max=None,
        quantile=quantile,
        descriptor={"kind": "geometric", "p": p},
        lattice_rate=-log_q,
        takes_range=True,
    )


def tabulated_law(weights) -> DiscreteLaw:
    """Finitely supported law with P(X = j) = weights[j-1] on {1, ..., m}.

    Weights must be real numbers in a non-empty 1-d sequence, non-negative
    and summing to 1 within 1e-12.  The law keeps Python lists: the weights,
    the head sums P(X <= j) and log F(j) = log1p(-P(X > j)), with the tail
    P(X > j) summed from the top so that log F stays accurate where F(j)
    rounds to 1; both sums run in the order of numpy's ``cumsum``.  Where the
    tail sum reaches 1, as it may for weights that sum to a little over 1,
    log F(j) is the log of the head sum instead (-inf where that is 0).  The
    tail beyond m is exactly 0, and ``log_tail`` bounds it by 1 below m.
    ``pmf`` and ``logcdf`` answer an ``int`` and a ``range`` from the lists,
    and ``quantile`` a ``float`` by ``bisect`` (``takes_range``), so building
    the law, its short series and ``ties`` runs need no numpy.  An array
    given to ``pmf`` or ``logcdf`` reads the same lists, so both routes give
    the same values; one given to ``quantile`` maps its float formula, which
    raises :class:`DomainError` for a level outside [0, 1).
    """
    import numbers  # here, as no other law needs it: about 0.5 ms of a command's start

    w = list(weights) if hasattr(weights, "__iter__") and getattr(weights, "ndim", 1) == 1 else []
    if not w or not all(issubclass(t, numbers.Real) for t in set(map(type, w))):  # no str, no row
        raise DomainError("weights must be a non-empty 1-d sequence")
    w = [float(x) for x in w]
    if min(w) < 0.0:
        raise DomainError("weights must be non-negative")
    total = math.fsum(w)
    if not abs(total - 1.0) <= 1e-12:  # a NaN weight fails it too
        raise DomainError(f"weights must sum to 1 within 1e-12, got {total!r}")
    m = len(w)
    cum = list(itertools.accumulate(w))
    tail = list(itertools.accumulate(reversed(w)))[-2::-1] + [0.0]  # tail[j-1] = P(X > j)
    log_f = [-math.inf] + [math.log1p(-t) if t < 1.0 else math.log(c) if c > 0.0 else -math.inf
                           for t, c in zip(tail, cum)]
    masses = [0.0, *w, 0.0]

    def pmf(j):
        if type(j) is int:
            return masses[min(max(j, 0), m + 1)]
        return _many(j, pmf, lambda j: np.asarray(masses)[np.clip(j, 0, m + 1)])

    def logcdf(j):
        if type(j) is int:
            return log_f[min(max(j, 0), m)]
        return _many(j, logcdf, lambda j: np.asarray(log_f)[np.clip(j, 0, m)])

    def quantile(u):
        if type(u) is not float:
            return _many(u, quantile, dtype="int64")
        if not 0.0 <= u < 1.0:
            raise DomainError(f"quantile level must lie in [0, 1), got {u!r}")
        return min(bisect.bisect_left(cum, u) + 1, m)

    return DiscreteLaw(
        pmf=pmf,
        logcdf=logcdf,
        log_tail=lambda j: 0.0 if j < m else -math.inf,
        support_max=m,
        quantile=quantile,
        descriptor={"kind": "tabulated", "weights": w},
        takes_range=True,
    )


def gumbel_law() -> ContinuousLaw:
    """Standard Gumbel law: cdf exp(-exp(-x)) on all of R, log F(x) = -exp(-x).

    The density is exp(-x - exp(-x)), the derivative of the cdf.  (A plus
    sign in front of the inner exponential, sometimes seen in print, is a
    slip: that expression is not integrable.)  The mean is the
    Euler-Mascheroni constant 0.5772...  Its gap-ratio moments have a closed
    form with a certified error (``moments._gumbel_moments``), and so has
    the near-order law at the maximum (``moments._gumbel_near_order_law``).
    ``logcdf`` and ``logquantile`` are ``math`` formulas for a Python
    ``float``, so that near-order draws (``montecarlo``) need no numpy; an
    array maps them.  ``logcdf`` is -inf where exp(-x) overflows, and NaN at
    NaN.
    """

    def logcdf(x):
        if type(x) is not float:
            return _many(x, logcdf)
        return -math.inf if x < -709.782712893384 else -math.exp(-x)  # exp(-x) = inf; NaN: NaN

    def logquantile(log_u):
        if type(log_u) is not float:
            return _many(log_u, logquantile)
        return -math.log(-log_u) if log_u else math.inf  # u = 1 maps to +inf

    return ContinuousLaw(
        logcdf=logcdf,
        logquantile=logquantile,
        support=(-math.inf, math.inf),
        descriptor={"kind": "gumbel"},
        gap_moments=_closed_form("_gumbel_moments"),
        near_order_law=_closed_form("_gumbel_near_order_law"),
    )


def uniform_law(b: float) -> ContinuousLaw:
    """Uniform law on (0, b): log F(x) = log(clamp(x/b, 0, 1)), x = b u.

    Its gap-ratio moments have a closed form as binomial tails, with
    estimated errors (``moments._uniform_moments``), and its near-order
    count is a binomial law cut at n - ell, with a certified error
    (``moments._uniform_near_order_law``).  ``logcdf`` and ``logquantile``
    are ``math`` formulas for a Python ``float``, mapped over an array, as
    :func:`gumbel_law`'s are.
    """
    real_in(b, 0.0, math.inf, "uniform width")

    def logcdf(x):
        if type(x) is not float:
            return _many(x, logcdf)
        u = min(max(x / b, 0.0), 1.0)
        return math.log(u) if u else -math.inf  # log 0 = -inf at and below 0

    def logquantile(log_u):
        return b * math.exp(log_u) if type(log_u) is float else _many(log_u, logquantile)

    return ContinuousLaw(
        logcdf=logcdf,
        logquantile=logquantile,
        support=(0.0, b),
        descriptor={"kind": "uniform", "b": float(b)},
        gap_moments=_closed_form("_uniform_moments", b),
        near_order_law=_closed_form("_uniform_near_order_law", b),
    )


def law_from_descriptor(descriptor: dict):
    """Build a law from a JSON-style descriptor.

    Accepted forms::

        {"kind": "geometric", "p": 0.3}
        {"kind": "tabulated", "weights": [0.2, 0.3, 0.5]}
        {"kind": "gumbel"}
        {"kind": "uniform", "b": 2.0}
    """
    if not isinstance(descriptor, dict) or "kind" not in descriptor:
        raise DomainError("law descriptor must be a dict with a 'kind' field")
    kind = descriptor["kind"]
    if kind == "geometric":
        return geometric_law(float(descriptor["p"]))
    if kind == "tabulated":
        return tabulated_law(descriptor["weights"])
    if kind == "gumbel":
        return gumbel_law()
    if kind == "uniform":
        return uniform_law(float(descriptor["b"]))
    raise DomainError(f"unknown law kind {kind!r}")
