"""Probability laws for the sampled observations.

Discrete laws live on {1, 2, ...} and carry a certified geometric tail
bound ``1 - cdf(j) <= tail_const * tail_ratio**j`` that downstream series
evaluations use to certify truncation remainders.  Continuous laws expose
the log of their cdf, defined on all of R (-inf below the support and 0
above it), which keeps expressions such as ``logcdf(x - a)`` well defined
at and below the support edge, and its inverse ``logquantile``.

All laws are immutable after construction and safe for concurrent reads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import DomainError

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
        pmf: mass function, defined for integer j >= 1.
        cdf: distribution function, defined for integer j >= 0 with cdf(0) = 0.
            Closed form where available; never derived by open-ended summation.
            Both accept integer arrays as well as scalars: the tie-count
            series evaluates them over blocks of j.
        tail_ratio: r in (0, 1) with 1 - cdf(j) <= tail_const * r**j for all j >= 0.
        tail_const: the constant C in the tail certificate.
        support_max: largest support point for finitely supported laws, else None.
            When set, all mass beyond it is exactly zero.
        quantile: u -> smallest j with cdf(j) >= u; accepts floats or numpy
            arrays.  None means callers must fall back to generic inversion.
        descriptor: JSON-style dict this law can be rebuilt from, if any.
        logcdf: log cdf(j) from the survival function, accurate where cdf(j)
            rounds to 1; accepts arrays.  None means log(cdf(j)), which loses
            that accuracy: raised to a power n, the cdf's rounding grows n-fold.
    """

    pmf: Callable
    cdf: Callable
    tail_ratio: float
    tail_const: float = 1.0
    support_max: Optional[int] = None
    quantile: Optional[Callable] = None
    descriptor: Optional[dict] = None
    logcdf: Optional[Callable] = None

    def tail_bound(self, j: int) -> float:
        """Certified upper bound on P(X > j)."""
        if self.support_max is not None and j >= self.support_max:
            return 0.0
        return min(1.0, self.tail_const * self.tail_ratio**j)


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
    """

    logcdf: Callable
    logquantile: Callable
    support: tuple
    descriptor: Optional[dict] = None


def geometric_law(p: float) -> DiscreteLaw:
    """Geometric law with pmf p*(1-p)**(j-1) on {1, 2, ...}.

    The cdf 1 - (1-p)**j is evaluated in closed form via expm1/log1p so it
    stays accurate both for p near 0 and for p near 1 (e.g. p = 1 - mu/n
    with n up to 1e9).
    """
    if not (0.0 < p < 1.0):
        raise DomainError(f"geometric parameter must lie in (0, 1), got {p!r}")
    q = 1.0 - p
    log_q = math.log1p(-p)

    def pmf(j):
        j = np.asarray(j)
        out = np.where(j >= 1, p * np.exp((j - 1) * log_q), 0.0)
        return out if out.ndim else float(out)

    def cdf(j):
        j = np.asarray(j)
        out = np.where(j >= 1, -np.expm1(j * log_q), 0.0)
        return out if out.ndim else float(out)

    def logcdf(j):
        j = np.asarray(j)
        out = np.where(j >= 1, np.log1p(-np.exp(np.maximum(j, 1) * log_q)), -np.inf)
        return out if out.ndim else float(out)

    def quantile(u):
        u = np.asarray(u, dtype=float)
        with np.errstate(divide="ignore"):
            j = np.ceil(np.log1p(-u) / log_q)
        j = np.maximum(j, 1.0).astype(np.int64)
        # float-edge fixups so that j is the smallest index with cdf(j) >= u
        j = np.where((j > 1) & (-np.expm1((j - 1) * log_q) >= u), j - 1, j)
        j = np.where(-np.expm1(j * log_q) < u, j + 1, j)
        return j if j.ndim else int(j)

    return DiscreteLaw(
        pmf=pmf,
        cdf=cdf,
        tail_ratio=q,
        tail_const=1.0,
        support_max=None,
        quantile=quantile,
        descriptor={"kind": "geometric", "p": p},
        logcdf=logcdf,
    )


def tabulated_law(weights) -> DiscreteLaw:
    """Finitely supported law with P(X = j) = weights[j-1] on {1, ..., m}.

    Weights must be non-negative and sum to 1 within 1e-12.  pmf and cdf are
    exact partial sums of the given weights; the tail beyond m is exactly 0.
    """
    w = np.asarray(weights, dtype=float)
    if w.ndim != 1 or w.size == 0:
        raise DomainError("weights must be a non-empty 1-d sequence")
    if np.any(w < 0.0):
        raise DomainError("weights must be non-negative")
    total = math.fsum(w.tolist())
    if abs(total - 1.0) > 1e-12:
        raise DomainError(f"weights must sum to 1 within 1e-12, got {total!r}")
    m = int(w.size)
    cum = np.cumsum(w)
    # tail[j-1] = P(X > j), summed from the top so that it stays accurate
    # where cum rounds to 1
    tail = np.append(np.cumsum(w[::-1])[::-1][1:], 0.0)

    def pmf(j):
        j = np.asarray(j)
        idx = np.clip(j - 1, 0, m - 1)
        out = np.where((j >= 1) & (j <= m), w[idx], 0.0)
        return out if out.ndim else float(out)

    def cdf(j):
        j = np.asarray(j)
        idx = np.clip(j - 1, 0, m - 1)
        out = np.where(j >= 1, np.where(j <= m, cum[idx], 1.0), 0.0)
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

    # Valid but never exercised: series code short-circuits on support_max.
    tail_const = 2.0 ** min(m, 1023)
    return DiscreteLaw(
        pmf=pmf,
        cdf=cdf,
        tail_ratio=0.5,
        tail_const=tail_const,
        support_max=m,
        quantile=quantile,
        descriptor={"kind": "tabulated", "weights": [float(x) for x in w]},
        logcdf=logcdf,
    )


def gumbel_law() -> ContinuousLaw:
    """Standard Gumbel law: cdf exp(-exp(-x)) on all of R, log F(x) = -exp(-x).

    The density is exp(-x - exp(-x)), the derivative of the cdf.  (A plus
    sign in front of the inner exponential, sometimes seen in print, is a
    slip: that expression is not integrable.)  The mean is the
    Euler-Mascheroni constant 0.5772...
    """

    def logcdf(x):
        with np.errstate(over="ignore"):  # exp(-x) = inf below x = -709.8: log F = -inf
            out = -np.exp(-np.asarray(x, dtype=float))
        return out if out.ndim else float(out)

    def logquantile(log_u):
        with np.errstate(divide="ignore"):  # u = 1 maps to +inf
            out = -np.log(-np.asarray(log_u, dtype=float))
        return out if out.ndim else float(out)

    return ContinuousLaw(
        logcdf=logcdf,
        logquantile=logquantile,
        support=(-math.inf, math.inf),
        descriptor={"kind": "gumbel"},
    )


def uniform_law(b: float) -> ContinuousLaw:
    """Uniform law on (0, b): log F(x) = log(clamp(x/b, 0, 1)), x = b u."""
    if not (b > 0.0) or not math.isfinite(b):
        raise DomainError(f"uniform width must be a positive real, got {b!r}")

    def logcdf(x):
        with np.errstate(divide="ignore"):  # log 0 = -inf at and below 0
            out = np.log(np.clip(np.asarray(x, dtype=float) / b, 0.0, 1.0))
        return out if out.ndim else float(out)

    def logquantile(log_u):
        out = b * np.exp(np.asarray(log_u, dtype=float))
        return out if out.ndim else float(out)

    return ContinuousLaw(
        logcdf=logcdf,
        logquantile=logquantile,
        support=(0.0, b),
        descriptor={"kind": "uniform", "b": float(b)},
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
