"""Gap-ratio moments of the Gumbel and uniform laws in closed form, in plain ``math``.

At the ell-th largest of n observations, X = X_(n-ell+1:n), the gap ratio
r_a(X) = 1 - F(X - a) / F(X) has E[r_a**j] in closed form for these two
laws, through U = F(X) ~ Beta(n-ell+1, ell).  The thm3 bound takes its
moments from here (``ContinuousLaw.gap_moments``), so it integrates nothing
and needs no numpy.  The Gumbel form is exact as stated, since the Gumbel
cdf is positive on all of R and nothing clamps; its log-sums cost the same
at every rank and bound their own rounding, so its error is certified.
The uniform closed forms come in two flavours: the idealized forms that
treat r_a(x) as a/x across the whole interval (accurate when a is small
relative to the interval width) and exact forms, as binomial tails, that
account for r_a = 1 on (0, a), whose error is an estimate.

The same two laws give the near-order count itself in closed form
(``ContinuousLaw.near_order_law``): :func:`_uniform_near_order_law` at every
rank and :func:`_gumbel_near_order_law` at the maximum.  Each states its
term ratios and leaves the row to ``approximants._walk``, the walker of the
target laws, whose ``TruncatedPMF`` counts the omitted mass and the rounding
of its entries.  ``bounds_continuous`` re-exports the public names.
"""

from __future__ import annotations

import math

from itertools import accumulate, repeat
from operator import add, mul, truediv

from .approximants import TruncatedPMF, _products, _walk
from .binomial import _EPS, _TINY, _U, _gamma, _log_binom_tail
from .errors import DomainError, integer_in, real_in

__all__ = [
    "gumbel_gap_moment",
    "gumbel_gap_moment_exact",
    "uniform_gap_moment",
    "uniform_gap_moment_exact",
]


def _closed_form_args(n, ell, a, j) -> tuple:
    """``(n, ell, j)`` of a closed-form gap-ratio moment as ints, once they and ``a`` pass."""
    n = integer_in(n, 1, what="sample size")
    real_in(a, 0.0, math.inf, "distance threshold")
    return n, integer_in(ell, 1, n, "rank"), integer_in(j, 1, 2, "moment order")


def gumbel_gap_moment(n: int, a: float, j: int) -> float:
    """Closed-form E[r_a**j] at the Gumbel maximum (rank ell = 1).

    With c = e**a - 1:  j=1 gives c / (n + c); j=2 gives
    2 c**2 / ((n + c)(n + 2c)).  Exact for every a > 0; this is
    :func:`gumbel_gap_moment_exact` at ell = 1.
    """
    return gumbel_gap_moment_exact(n, 1, a, j)


# Euler-Maclaurin's coefficients B_2s / (2s (2s-1)), s = 1..5, and the one of its
# remainder after them, (2 - 2**-11) |B_12| / (12 * 11), rounded up
_EM_COEFFS = (1 / 12, -1 / 360, 1 / 1260, -1 / 1680, 1 / 1188)
_EM_REMAINDER = 0.0039
# terms of a Gumbel moment's sums added one by one before Euler-Maclaurin takes the rest
_DIRECT = 32


def _gumbel_brackets(t: float, j: int):
    """(1 - (1+t)**-j, 1 - 2 (1+t)**-j + (1+2t)**-j) for t > 0 and j >= 1, both
    positive and formed without cancellation: the second is the square of
    the first plus (1+2t)**-j (1 - (1-w)**j), w = (t / (1+t))**2."""
    z = j * math.log1p(t)
    first = -math.expm1(-z)
    w = (t / (1.0 + t)) ** 2
    rest = -math.expm1(j * math.log1p(-w)) if w < 1.0 else 1.0
    return first, first * first + math.exp(-j * math.log1p(2.0 * t)) * rest


def _gumbel_sums(n: int, ell: int, c: float):
    """The sums over m = n-ell+1..n of f1(m) = log1p(c/m) and
    f2(m) = log1p(c**2 / (m (m + 2c))), each with a bound on its error.

    The first ``_DIRECT`` terms are added one by one, and the rest, from A
    to B = n, by Euler-Maclaurin with five correction terms.  The j-th
    derivatives are (-1)**j (j-1)! x**-j b_j(c/x), with b_j the first and
    the second bracket of :func:`_gumbel_brackets`, both positive, so each
    derivative has one sign on x > 0 and the remainder is at most
    (2 - 2**-11) |B_12| / 12! |f^(11)(A)| (DLMF 2.10.2).
    The integral over (A, B) runs over panels (lo, 2 lo), each a Taylor
    series about its midpoint M in the even derivatives, whose k-th term is
    h (h / 2M)**2k b_2k / (2k (2k+1)) > 0 for a panel of width h: past k = 1
    each term is at most (h / 2M)**2 <= 1/9 of the one before, so the
    series stops where that geometric bound on the rest is below u/8 of the
    panel, and the bound joins the error.  Every other part of the error is
    rounding, counted in units u per term, with exp, expm1, log1p and pow
    taken to err by at most 2 ulp.  Cost is flat in ``ell``: at most
    ceil(log2(n / 33)) panels.
    """
    parts1, parts2, err1, err2 = [], [], [], []

    def add(x1, x2, count1, count2):
        parts1.append(x1)
        parts2.append(x2)
        err1.append(abs(x1) * _gamma(count1))
        err2.append(abs(x2) * _gamma(count2))

    first = n - ell + 1
    for m in range(first, min(n, first + _DIRECT - 1) + 1):
        add(math.log1p(c / m), math.log1p(c / m * (c / (m + 2.0 * c))), 10, 24)
    lo, hi = first + _DIRECT, n
    if lo <= hi:
        for x, sign in ((lo, -1.0), (hi, 1.0)):  # (f(B) + f(A)) / 2 and the corrections
            add(0.5 * math.log1p(c / x), 0.5 * math.log1p(c / x * (c / (x + 2.0 * c))), 11, 25)
            for s, coeff in enumerate(_EM_COEFFS, start=1):
                b1, b2 = _gumbel_brackets(c / x, 2 * s - 1)
                scale = -sign * coeff * x ** (1 - 2 * s)
                add(scale * b1, scale * b2, 30 + 2 * s, 90 + 2 * s)
        b1, b2 = _gumbel_brackets(c / lo, 11)
        tail = _EM_REMAINDER * float(lo) ** -11
        err1.append(tail * b1)
        err2.append(tail * b2)
        edge = lo
        while edge < hi:
            left, edge = edge, min(2 * edge, hi)
            h, mid = edge - left, 0.5 * (left + edge)
            ratio = h / (2.0 * mid)
            q = ratio * ratio
            t = c / mid
            term1, term2 = h * math.log1p(t), h * math.log1p(t * (c / (mid + 2.0 * c)))
            add(term1, term2, 12, 26)
            sum1, sum2, k = term1, term2, 0
            while True:
                k += 1
                b1, b2 = _gumbel_brackets(t, 2 * k)
                scale = h * ratio ** (2 * k) / (2 * k * (2 * k + 1))
                term1, term2 = scale * b1, scale * b2
                add(term1, term2, 30 + 4 * k, 90 + 4 * k)
                sum1, sum2 = sum1 + term1, sum2 + term2
                rest = q / (1.0 - q)
                if term1 * rest <= _U / 8.0 * sum1 and term2 * rest <= _U / 8.0 * sum2:
                    break
            err1.append(term1 * rest)
            err2.append(term2 * rest)
    l1, l2 = math.fsum(parts1), math.fsum(parts2)
    return l1, l2, math.fsum(err1) + _gamma(2) * l1, math.fsum(err2) + _gamma(2) * l2


def _gumbel_moments(n: int, ell: int, a: float):
    """E[r_a] and E[r_a**2] at the ell-th largest of n Gumbel observations,
    with certified bounds on their errors: ``(M1, M2, e1, e2)``.

    r_a = 1 - U**c with c = e**a - 1 and U = F(X_(n-ell+1:n)) ~
    Beta(n-ell+1, ell), whose moments are E[U**s] = prod m / (m + s) over
    m = n-ell+1..n.  So, with L1 and L2 the sums of :func:`_gumbel_sums`,
    P1 = E[U**c] = exp(-L1) and

        M1 = 1 - P1 = -expm1(-L1),
        M2 = 1 - 2 P1 + E[U**2c] = M1**2 + exp(L2 - 2 L1) (1 - exp(-L2)),

    two positive terms, free of the cancellation of the alternating sum
    that expands the same moments.  The errors carry those of L1 and L2
    to first order, plus the rounding of these formulas in units u.
    """
    if a >= 709.0:  # 2c would overflow; P1 <= n / c, and |M2 - 1| <= 2 P1
        e = 2.0 * n * math.exp(-a) + _TINY
        return 1.0, 1.0, e, e
    c = math.expm1(a)
    l1, l2, e_l1, e_l2 = _gumbel_sums(n, ell, c)
    p1, p2 = math.exp(-l1), math.exp(l2 - 2.0 * l1)
    m1, var = -math.expm1(-l1), p2 * -math.expm1(-l2)
    m2 = m1 * m1 + var
    e1 = p1 * e_l1 + _gamma(5) * m1
    e_var = p2 * e_l2 + var * (2.0 * e_l1 + _gamma(12) + _U * (2.0 * l1 + l2))
    return m1, m2, e1, 2.0 * m1 * e1 + e_var + _gamma(3) * m2


def gumbel_gap_moment_exact(n: int, ell: int, a: float, j: int) -> float:
    """Exact E[r_a**j] at the ell-th largest Gumbel order statistic.

    Here r_a = 1 - U**c with c = e**a - 1 and U = F(X_(n-ell+1:n)) ~
    Beta(n-ell+1, ell), whose moments are E[U**s] = prod_i m_i / (m_i + s)
    over m_i = n - ell + 1 + i, i < ell.  So, with every sum taken in logs,

        E[r]    = A = 1 - P1,   P1 = prod_i m_i / (m_i + c),
        E[r**2] = 1 - 2 P1 + P2 = A**2 + P1**2 (prod_i (m_i + c)**2 / (m_i (m_i + 2c)) - 1),

    two positive terms, free of the cancellation of the alternating sum
    that expands the same moments.  The log-sums cost the same at every
    rank (:func:`_gumbel_sums`).  Reduces to :func:`gumbel_gap_moment` at
    ell = 1.
    """
    n, ell, j = _closed_form_args(n, ell, a, j)
    return _gumbel_moments(n, ell, a)[j - 1]


def uniform_gap_moment(n: int, ell: int, a: float, b: float, j: int) -> float:
    """Idealized closed-form E[r_a**j] for the uniform law on (0, b).

    j=1: a n / (b (n - ell));  j=2: a**2 n (n-1) / (b**2 (n-ell)(n-ell-1)).
    These treat the gap ratio as a/x on the whole interval, ignoring that it
    saturates at 1 on (0, a); they are accurate when a/b is small relative
    to the (n - ell)-th power decay of the order-statistic density, and they
    are the forms whose bound specializes nicely (see
    :func:`uniform_gap_moment_exact` for the exact expectation).
    """
    n, ell, j = _closed_form_args(n, ell, a, j)
    real_in(b, 0.0, math.inf, "uniform width")
    if n - ell < j:
        raise DomainError(f"need n - ell >= {j} for the moment form of order {j}")
    if j == 1:
        return a * n / (b * (n - ell))
    return a * a * n * (n - 1) / (b * b * (n - ell) * (n - ell - 1))


def uniform_gap_moment_exact(n: int, ell: int, a: float, b: float, j: int) -> float:
    """Exact E[r_a**j] for the uniform law on (0, b), as two binomial tails.

    With u = a/b, U = F(X_(n-ell+1:n)) ~ Beta(n-ell+1, ell) and r_a = 1 on
    U <= u, r_a = (u/U)**j above it:

        E[r_a**j] = P(Bin(n, 1-u) <= ell-1)
                    + uniform_gap_moment(n, ell, a, b, j) * P(Bin(n-j, 1-u) >= ell).

    The first term is P(U <= u) = I_u(n-ell+1, ell); the second follows from
    n C(n-1, ell-1) B(n-ell+1, ell) = 1 applied at n and at n - j, which
    turns u**j E[U**-j; U > u] into the idealized moment times the tail.
    Each tail comes from :func:`_log_binom_tail`, a sum over the terms of the
    side without the mode.  For a >= b the ratio saturates everywhere and
    the moment is exactly 1.  Requires n - ell >= j so the second tail is
    defined.
    """
    n, ell, j = _closed_form_args(n, ell, a, j)
    real_in(b, 0.0, math.inf, "uniform width")
    if a >= b:
        return 1.0
    if n - ell < j:
        raise DomainError(f"need n - ell >= {j} for the exact moment form")
    u = a / b
    # in terms of Bin(., u): P(Bin(n, u) > n-ell) and P(Bin(n-j, u) <= n-j-ell)
    head = math.exp(_log_binom_tail(n, n - ell, u, upper=True))
    tail = math.exp(_log_binom_tail(n - j, n - j - ell, u, upper=False))
    return head + uniform_gap_moment(n, ell, a, b, j) * tail


def _uniform_moments(n: int, ell: int, a: float, b: float):
    """E[r_a] and E[r_a**2] for the uniform law on (0, b) and estimates of
    their errors, ``(M1, M2, e1, e2)``, from :func:`uniform_gap_moment_exact`;
    None where n - ell < 2 leaves the second moment without that form.

    Each estimate is 32 eps of its moment, about 15 times the largest error
    seen against exact rational values; a certificate needs a rounding
    bound for :func:`_log_binom_tail`.
    """
    if a >= b:
        return 1.0, 1.0, 0.0, 0.0
    if n - ell < 2:
        return None
    m1, m2 = (uniform_gap_moment_exact(n, ell, a, b, j) for j in (1, 2))
    return m1, m2, 32.0 * _EPS * m1, 32.0 * _EPS * m2


def _uniform_near_order_law(n: int, ell: int, a: float, tol: float, b: float):
    """The law of the count within ``a`` below the ell-th largest of n uniform
    observations on (0, b), as a ``TruncatedPMF`` within ``tol``; None where
    its certificate misses ``tol`` or its row would pass the walker's cap.

    Given the order statistic at x, the count is Bin(n - ell, min(1, a/x)),
    and x/b ~ Beta(n-ell+1, ell); on x > a the density's x**(n-ell) cancels
    the binomial's x**-(n-ell), which leaves a Beta integral, and

        count = min(Bin(n, a/b), n - ell)

    exactly for a < b, and n - ell for a >= b.  ``approximants._walk`` takes
    the row of Bin(n, q) from its mode floor((n+1) q) by the term ratios
    (n-k)/(k+1) * odds and k/(n-k+1) / odds, odds = a / (b - a), 3 roundings
    a step and the odds' 2, to tiny; the entries past n - ell then fold.
    Its certificate is at least 2E, about 10u E|K - mode|, and a binomial's
    mean absolute deviation is at least sigma / sqrt(2), sigma**2 = n q (1-q)
    (Berend and Kontorovich, 2013), with its median within 1 of its mean:
    a ``tol`` below 10u (sigma / sqrt(2) - 1) gives None at once.
    """
    top = n - ell
    if a >= b:
        return TruncatedPMF(k_min=top, probs=[1.0], tail_mass_bound=0.0)
    odds = a / (b - a)
    if not (_TINY <= odds < math.inf and n < 2**53):
        return None
    q = a / b
    if not 10.0 * _U * (math.sqrt(n * q * (1.0 - q) / 2.0) - 1.0) <= tol:
        return None
    start = min(math.floor((n + 1) * q), n)
    up = _products(map(mul, map(truediv, range(n - start, 0, -1), range(start + 1, n + 1)),
                       repeat(odds)))
    down = _products(map(truediv, map(truediv, range(start, 0, -1), range(n - start + 1, n + 1)),
                         repeat(odds)))
    law = _walk(start, up, down, _TINY, 5)
    if law is not None and law.k_max > top:
        fold = max(top - law.k_min, 0)
        law = TruncatedPMF(k_min=min(law.k_min, top), tail_mass_bound=law.tail_mass_bound,
                           probs=law.probs[:fold] + (math.fsum(law.probs[fold:]),))
    return law if law is not None and law.tail_mass_bound <= tol else None


def _gumbel_near_order_law(n: int, ell: int, a: float, tol: float):
    """The law of the count within ``a`` below the largest of n Gumbel
    observations, as a ``TruncatedPMF`` within ``tol``; None at ranks ell >= 2,
    where the form is an alternating sum over j < ell whose cancellation is
    not counted, where s <= 1 below, where its certificate misses ``tol``,
    or where its row would pass the walker's cap.

    With U = F(X_(n:n)) ~ Beta(n, 1), the gap ratio is 1 - U**c, c = e**a - 1,
    and the count given U is Bin(m, 1 - U**c), m = n - 1.  Substituting
    w = U**c leaves Beta integrals, and with s = n / c

        P(0) = s / (m + s),   P(k+1) / P(k) = (m - k) / (m - k - 1 + s).

    For s > 1 the ratios are below 1 and fall, and ``approximants._walk``
    takes the row from the mode 0 to tiny; s errs by 5u (expm1 by 2 ulp),
    so a step takes 8 roundings.  The certificate is at least 2E, about
    16u E[K] = 16u m c / (n + c): a ``tol`` below that gives None at once.
    """
    if ell > 1 or n >= 2**53 or a >= 709.0:
        return None
    m, c = n - 1, math.expm1(a)
    s = n / c
    if not 1.0 < s < math.inf:  # s <= 1: the mass rises to k = m, across the whole support
        return None
    if not 16.0 * _U * m * c / (n + c) <= tol:
        return None
    # the ratios for k < m from float counts, exact below 2**53; the first bounds them all
    ratios = map(truediv, accumulate(repeat(-1.0, m - 1), initial=float(m)),
                 map(add, accumulate(repeat(-1.0, m - 1), initial=m - 1.0), repeat(s)))
    law = _walk(0, _products(ratios, m / (m - 1 + s)), (), _TINY, 8)
    return law if law is not None and law.tail_mass_bound <= tol else None
