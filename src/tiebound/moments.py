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
rank and :func:`_gumbel_near_order_law` at the maximum, each a
``TruncatedPMF`` whose ``tail_mass_bound`` counts the omitted mass and the
rounding of its entries.  ``bounds_continuous`` re-exports the public names.
"""

from __future__ import annotations

import math

from .approximants import TruncatedPMF
from .binomial import _EPS, _TINY, _U, _gamma, _log_binom_tail
from .errors import DomainError, integer_in, real_in
from .maxima import _SERIES_CAP

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
    its certificate misses ``tol`` or its row would pass ``_SERIES_CAP``
    outcomes.

    Given the order statistic at x, the count is Bin(n - ell, min(1, a/x)),
    and x/b ~ Beta(n-ell+1, ell); on x > a the density's x**(n-ell) cancels
    the binomial's x**-(n-ell), which leaves a Beta integral, and

        count = min(Bin(n, a/b), n - ell)

    exactly for a < b, and n - ell for a >= b.  The row of Bin(n, q) starts
    at 1 at the mode floor((n+1) q) and steps outward by the term ratios
    (n-k)/(k+1) * odds and k/(n-k+1) / odds, odds = a / (b - a), to the
    first term below tiny on each side; it is divided by its ``fsum``, and
    the entries past n - ell fold into that one.  Entries below tiny at the
    ends are cut.

    Each step takes 3 roundings and the odds' 2, so a term d steps from the
    start errs by at most gamma(5d) relative, and over the law by E <= 5u
    (sigma + 2) / (1 - 5 D u), sigma**2 = n q (1-q) and D the longest side,
    as E|K - start| <= sigma + 2.  Past either end the ratios keep falling,
    so the mass there is at most 2 tiny / (1 - rho) of the start term's,
    with rho the next ratio; their sum ``out`` bounds the mass outside the
    row, whose true sum is at least the start term's.  Then the normalised
    row errs by at most (2E + out) / (1 - out - E) in L1, plus gamma(3) for
    the sum, the division and the fold, and the certificate adds ``out``
    and the entries cut.  It is at least 2E >= 10u (sigma + 2), so a ``tol``
    below that gives None before the row is walked.
    """
    top = n - ell
    if a >= b:
        return TruncatedPMF(k_min=top, probs=[1.0], tail_mass_bound=0.0)
    odds = a / (b - a)
    if not (_TINY <= odds < math.inf and n < 2**53):
        return None
    q = a / b
    sigma = math.sqrt(n * q * (1.0 - q)) * (1.0 + _gamma(4))
    if not 10.0 * _U * (sigma + 2.0) <= tol:  # 2E alone, before the row is walked
        return None
    start = min(math.floor((n + 1) * q), n)
    down, up, t = [], [], 1.0
    for k in range(start, max(start - _SERIES_CAP, 0), -1):  # t is the term at k - 1
        t *= k / (n - k + 1) / odds
        if t < _TINY:
            break
        down.append(t)
    else:
        if start > _SERIES_CAP:
            return None
    rho_down = (start - len(down) - 1) / (n - start + len(down) + 2) / odds
    t = 1.0
    for k in range(start, min(start + _SERIES_CAP, n)):  # t is the term at k + 1
        t *= (n - k) / (k + 1) * odds
        if t < _TINY:
            break
        up.append(t)
    else:
        if n - start > _SERIES_CAP:
            return None
    k_lo, k_hi = start - len(down), start + len(up)
    rho_up = (n - k_hi - 1) / (k_hi + 2) * odds
    out = 0.0
    for end, rho in ((k_lo > 0, rho_down), (k_hi < n, rho_up)):
        rho *= 1.0 + _gamma(5)
        if end:
            if not rho < 1.0:
                return None
            out += 2.0 * _TINY / (1.0 - rho)
    down.reverse()
    row = down + [1.0] + up
    total = math.fsum(row)
    probs = [x / total for x in row]
    if k_hi > top:
        fold = max(top - k_lo, 0)
        probs[fold:] = [math.fsum(probs[fold:])]
        k_lo = min(k_lo, top)
    first = next((i for i, x in enumerate(probs) if x >= _TINY), None)
    if first is None:
        return None
    last = len(probs) - next(i for i, x in enumerate(reversed(probs)) if x >= _TINY)
    cut = math.fsum(probs[:first]) + math.fsum(probs[last:])
    e = 5.0 * _U * (sigma + 2.0) / (1.0 - 5.0 * (max(len(down), len(up)) + 1) * _U)
    bound = (out + cut + (2.0 * e + out) / (1.0 - out - e) + _gamma(3)) * (1.0 + _gamma(4))
    if not bound <= tol:
        return None
    return TruncatedPMF(k_min=k_lo + first, probs=probs[first:last], tail_mass_bound=bound)


def _gumbel_near_order_law(n: int, ell: int, a: float, tol: float):
    """The law of the count within ``a`` below the largest of n Gumbel
    observations, as a ``TruncatedPMF`` within ``tol``; None at ranks ell >= 2,
    where the form is an alternating sum over j < ell whose cancellation is
    not counted, where s <= 1 below, where its certificate misses ``tol``,
    or where it would hold more than ``_SERIES_CAP`` outcomes.

    With U = F(X_(n:n)) ~ Beta(n, 1), the gap ratio is 1 - U**c, c = e**a - 1,
    and the count given U is Bin(m, 1 - U**c), m = n - 1.  Substituting
    w = U**c leaves Beta integrals, and with s = n / c

        P(0) = s / (m + s),   P(k+1) / P(k) = (m - k) / (m - k - 1 + s).

    For s > 1 the ratios are below 1 and fall, so the law falls from k = 0;
    its entries are taken from k = 0 up to the first below tiny, and the
    mass past the last is at most 2 tiny / (1 - rho), rho the last ratio.
    Rounding is counted in units u, with expm1 taken to err by at most
    2 ulp: s errs by 5u, P(0) by 12u and each ratio step adds 8u, so entry
    k errs by at most gamma(12 + 8k) relative.  Their sum, u times the
    running sum of (12 + 8k) P(k) over the N entries held, within
    gamma(N + 1), only grows along the row, so the walk gives None as soon
    as it passes ``tol``.
    """
    if ell > 1 or n >= 2**53 or a >= 709.0:
        return None
    m, c = n - 1, math.expm1(a)
    s = n / c
    if not 1.0 < s < math.inf:  # s <= 1: the mass rises to k = m, across the whole support
        return None
    probs, t, past, units = [], s / (m + s), 0.0, 0.0
    for k in range(min(m, _SERIES_CAP)):  # t is P(k)
        probs.append(t)
        units += (12 + 8 * k) * t
        if not _U * units <= tol:
            return None
        ratio = (m - k) / (m - k - 1 + s)
        t *= ratio
        if t < _TINY:
            rho = ratio * (1.0 + _gamma(8))
            if not rho < 1.0:
                return None
            past = 2.0 * _TINY / (1.0 - rho)
            break
    else:
        if m > _SERIES_CAP:
            return None
        probs.append(t)  # P(m), the last outcome
        units += (12 + 8 * m) * t
    worst = 2.0 * (12 + 8 * len(probs)) * _U
    err = _U * units * (1.0 + _gamma(len(probs) + 1)) / (1.0 - worst)
    bound = (err + past) * (1.0 + _gamma(4))
    if not bound <= tol:
        return None
    return TruncatedPMF(k_min=0, probs=probs, tail_mass_bound=bound)
