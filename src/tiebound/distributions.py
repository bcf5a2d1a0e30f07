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

import math
from dataclasses import dataclass
from typing import Callable, Optional

from ._numpy import np
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
            or numpy arrays.  None means callers must fall back to generic inversion.
        descriptor: JSON-style dict this law can be rebuilt from, if any.
        lattice_rate: lambda > 0 when the law is geometric, p(j) = (1 - e**-lambda)
            e**(-lambda (j-1)), else None.  Only :func:`geometric_law` sets it;
            the tie-count values of such a law have closed forms
            (``maxima._tie_values``), which the series replaces where they
            certify the tolerance.
        takes_range: True when ``pmf`` and ``logcdf`` also take a ``range``
            and answer it with a list of floats, and answer a Python ``int``
            (``quantile`` a Python ``float``) with a Python number, all
            without numpy.  Only :func:`geometric_law` sets it; the tie-count
            series then sum their first blocks in plain Python
            (``_series._sums``), ``ties`` runs draw their histograms without
            numpy (``montecarlo``), and every other law is given numpy arrays.
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
    Python ``int`` with a float, formed by ``math``, as ``quantile`` answers
    a Python ``float`` (``takes_range``), so the first blocks of a tie-count
    series and a ``ties`` run need no numpy; numpy loads when they are
    first called with a numpy number or an array.  The two routes apply the
    same formulas, but numpy's ``exp`` and ``log1p`` may differ from
    ``math``'s in the last bit.  Both raise :class:`DomainError` for a
    ``quantile`` level outside [0, 1).
    """
    real_in(p, 0.0, 1.0, "geometric parameter")
    log_q = math.log1p(-p)

    def pmf1(i):
        return p * math.exp((i - 1) * log_q) if i >= 1 else 0.0

    def logcdf1(i):  # log1p(-(1-p)**i), -inf where (1-p)**i >= 1, as at i <= 0
        t = math.exp(i * log_q)
        return math.log1p(-t) if t < 1.0 else -math.inf

    def pmf(j):
        if isinstance(j, range):
            return [pmf1(i) for i in j]
        if type(j) is int:
            return pmf1(j)
        j = np.asarray(j)
        out = np.where(j >= 1, p * np.exp((j - 1) * log_q), 0.0)
        return out if out.ndim else float(out)

    def logcdf(j):
        if isinstance(j, range):
            return [logcdf1(i) for i in j]
        if type(j) is int:
            return logcdf1(j)
        j = np.asarray(j)
        out = np.where(j >= 1, np.log1p(-np.exp(np.maximum(j, 1) * log_q)), -np.inf)
        return out if out.ndim else float(out)

    def quantile(u):
        if type(u) is float:  # the same steps as for an array
            if not 0.0 <= u < 1.0:
                raise DomainError(f"quantile level must lie in [0, 1), got {u!r}")
            j = max(math.ceil(math.log1p(-u) / log_q), 1)
            if j > 1 and -math.expm1((j - 1) * log_q) >= u:
                j -= 1
            return j + 1 if -math.expm1(j * log_q) < u else j
        u = np.asarray(u, dtype=float)
        if not np.all((u >= 0.0) & (u < 1.0)):
            raise DomainError("quantile levels must lie in [0, 1)")
        j = np.maximum(np.ceil(np.log1p(-u) / log_q), 1.0).astype(np.int64)
        # float-edge fixups so that j is the smallest index with F(j) >= u
        j = np.where((j > 1) & (-np.expm1((j - 1) * log_q) >= u), j - 1, j)
        j = np.where(-np.expm1(j * log_q) < u, j + 1, j)
        return j if j.ndim else int(j)

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

    Weights must be non-negative and sum to 1 within 1e-12.  pmf reads the
    weights, and log F(j) = log1p(-P(X > j)) takes the tail summed from the
    top; the tail beyond m is exactly 0, and ``log_tail`` bounds it by 1 below m.
    """
    w = np.asarray(weights, dtype=float)
    if w.ndim != 1 or w.size == 0:
        raise DomainError("weights must be a non-empty 1-d sequence")
    if np.any(w < 0.0):
        raise DomainError("weights must be non-negative")
    total = math.fsum(w.tolist())
    if not abs(total - 1.0) <= 1e-12:  # a NaN weight fails it too
        raise DomainError(f"weights must sum to 1 within 1e-12, got {total!r}")
    m = int(w.size)
    cum = np.cumsum(w)
    # tail[j-1] = P(X > j), summed from the top so that it stays accurate
    # where F(j) rounds to 1
    tail = np.append(np.cumsum(w[::-1])[::-1][1:], 0.0)

    def pmf(j):
        j = np.asarray(j)
        idx = np.clip(j - 1, 0, m - 1)
        out = np.where((j >= 1) & (j <= m), w[idx], 0.0)
        return out if out.ndim else float(out)

    def logcdf(j):
        j = np.asarray(j)
        idx = np.clip(j - 1, 0, m - 1)
        with np.errstate(divide="ignore"):
            out = np.where(j >= 1, np.log1p(-tail[idx]), -np.inf)
        return out if out.ndim else float(out)

    def quantile(u):
        u = np.asarray(u, dtype=float)
        j = np.searchsorted(cum, u, side="left") + 1
        j = np.minimum(j, m).astype(np.int64)
        return j if j.ndim else int(j)

    return DiscreteLaw(
        pmf=pmf,
        logcdf=logcdf,
        log_tail=lambda j: 0.0 if j < m else -math.inf,
        support_max=m,
        quantile=quantile,
        descriptor={"kind": "tabulated", "weights": [float(x) for x in w]},
    )


def gumbel_law() -> ContinuousLaw:
    """Standard Gumbel law: cdf exp(-exp(-x)) on all of R, log F(x) = -exp(-x).

    The density is exp(-x - exp(-x)), the derivative of the cdf.  (A plus
    sign in front of the inner exponential, sometimes seen in print, is a
    slip: that expression is not integrable.)  The mean is the
    Euler-Mascheroni constant 0.5772...  Its gap-ratio moments have a closed
    form with a certified error (``moments._gumbel_moments``), and so has
    the near-order law at the maximum (``moments._gumbel_near_order_law``).
    ``logcdf`` and ``logquantile`` answer a Python ``float`` with a float
    formed by ``math`` through the same formulas, so that near-order draws
    (``montecarlo``) need no numpy; numpy's ``exp`` and ``log`` may differ
    from ``math``'s in the last bit.
    """

    def logcdf(x):
        if type(x) is float:
            return -math.exp(-x) if x >= -709.782712893384 else -math.inf  # exp(-x) = inf
        with np.errstate(over="ignore"):  # exp(-x) = inf below x = -709.8: log F = -inf
            out = -np.exp(-np.asarray(x, dtype=float))
        return out if out.ndim else float(out)

    def logquantile(log_u):
        if type(log_u) is float:
            return -math.log(-log_u) if log_u else math.inf
        with np.errstate(divide="ignore"):  # u = 1 maps to +inf
            out = -np.log(-np.asarray(log_u, dtype=float))
        return out if out.ndim else float(out)

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
    answer a Python ``float`` through ``math``, as :func:`gumbel_law`'s do.
    """
    real_in(b, 0.0, math.inf, "uniform width")

    def logcdf(x):
        if type(x) is float:
            u = min(max(x / b, 0.0), 1.0)
            return math.log(u) if u else -math.inf
        with np.errstate(divide="ignore"):  # log 0 = -inf at and below 0
            out = np.log(np.clip(np.asarray(x, dtype=float) / b, 0.0, 1.0))
        return out if out.ndim else float(out)

    def logquantile(log_u):
        if type(log_u) is float:
            return b * math.exp(log_u)
        out = b * np.exp(np.asarray(log_u, dtype=float))
        return out if out.ndim else float(out)

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
