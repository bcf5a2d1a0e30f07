"""Continuous-case bounds: quadrature vs closed forms, delegation, dominance."""

import itertools
import math
import time
import tracemalloc
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest
from scipy import integrate, stats

from tiebound.approximants import truncated_negbin, tv_distance
from tiebound.binomial import _log_binom_tail, _log_choose, binom_rows, binom_window
from tiebound.bounds_continuous import (
    MixedBinomialSpec,
    NearOrderSpec,
    _TAIL_PROBS,
    _beta_quantile,
    _gap_ratio_moments,
    _log_order_density,
    _panel_edges,
    gap_ratio,
    gap_ratio_moment,
    gumbel_gap_moment,
    gumbel_gap_moment_exact,
    gumbel_max_bound,
    near_order_count_pmf,
    negbin_bound_mixed,
    negbin_bound_near_order,
    uniform_gap_moment,
    uniform_gap_moment_exact,
)
from tiebound.distributions import ContinuousLaw, gumbel_law, uniform_law
from tiebound.errors import DegenerateParameterError, DomainError

GRID_A = (0.1, 0.5, 1.0, 2.0)
GRID_N = (5, 20, 100)
GRID_ELL = (1, 2, 3)


def _uniform_mixture_pmf(n, ell, a):
    """Exact near-order law on the uniform (0, 1) law, for rational a < 1.

    On (0, a) the gap ratio is 1, so that part puts the mass
    P(X_(n-ell+1:n) <= a) on k = m = n - ell.  On (a, 1) it is a/x, and
    with the density n C(n-1, ell-1) (1-x)**(ell-1) x**m the integrand of
    outcome k is the polynomial n C(n-1, ell-1) C(m, k) a**k (x-a)**(m-k)
    (1-x)**(ell-1), whose integral over (a, 1) is a beta function.
    """
    m = n - ell
    norm = n * math.comb(n - 1, ell - 1)
    probs = []
    for k in range(m + 1):
        j = m - k
        beta = Fraction(math.factorial(j) * math.factorial(ell - 1), math.factorial(j + ell))
        probs.append(norm * math.comb(m, k) * a**k * (1 - a) ** (j + ell) * beta)
    probs[m] += sum(math.comb(n, i) * (1 - a) ** i * a ** (n - i) for i in range(ell))
    assert sum(probs) == 1
    return probs


def _gumbel_moment_mp(n, ell, a, j):
    """gumbel_gap_moment_exact's alternating sum at 50 digits.

    In floats the sum cancels to nothing once n is large (at n = 1e6,
    ell = 3 it has the wrong sign).
    """
    with mp.workdps(50):
        c = mp.expm1(mp.mpf(a))
        total = mp.fsum((-1) ** (i + s) * mp.binomial(ell - 1, i) * mp.binomial(j, s)
                        / (n - ell + 1 + i + s * c)
                        for i in range(ell) for s in range(j + 1))
        return float(n * mp.binomial(n - 1, ell - 1) * total)


def _uniform_moment_fraction(n, ell, a, j):
    """Exact E[r_a**j] on the uniform (0, 1) law, for rational a < 1.

    r_a = 1 below a and a/x above it; with the density n C(n-1, ell-1)
    (1-x)**(ell-1) x**(n-ell) expanded in powers of x, both parts are sums
    of monomial integrals.
    """
    total = 0
    for i in range(ell):
        coef = (-1) ** i * math.comb(ell - 1, i)
        below, above = n - ell + i + 1, n - ell - j + i + 1
        total += coef * (a**below / below + a**j * (1 - a**above) / above)
    return n * math.comb(n - 1, ell - 1) * total


def _beta_cdf_mp(a, b, u):
    """The Beta(a, b) cdf at u, at 50 digits.

    mpmath's betainc, except for shapes near 5e8, where its hypergeometric
    series does not converge: there a tanh-sinh quadrature of the density
    over one-standard-deviation panels from 15 deviations below the mean
    (the mass below is under 1e-50).
    """
    with mp.workdps(50):
        u = mp.mpf(u)
        if u <= 0 or u >= 1:
            return mp.mpf(u >= 1)
        if min(a, b) < 10**6:
            return mp.betainc(a, b, 0, u, regularized=True)
        mean = mp.mpf(a) / (a + b)
        sd = mp.sqrt(mean * (1 - mean) / (a + b + 1))
        log_norm = mp.loggamma(a + b) - mp.loggamma(a) - mp.loggamma(b)

        def density(t):
            return mp.exp(log_norm + (a - 1) * mp.log(t) + (b - 1) * mp.log1p(-t))

        return mp.quad(density, [mean + k * sd for k in range(-15, 16) if mean + k * sd < u]
                       + [u])


def _exponential_law(sign):
    """Exponential law on (0, inf) for sign = 1, its mirror image on (-inf, 0) for -1."""
    def logcdf(x):
        x = np.asarray(x, dtype=float)
        if sign < 0:
            return np.minimum(x, 0.0)
        with np.errstate(divide="ignore"):
            return np.where(x > 0.0, np.log(-np.expm1(-np.maximum(x, 0.0))), -np.inf)

    def logquantile(log_u):
        log_u = np.asarray(log_u, dtype=float)
        if sign < 0:
            return log_u
        with np.errstate(divide="ignore"):
            return -np.log(-np.expm1(log_u))

    support = (0.0, math.inf) if sign > 0 else (-math.inf, 0.0)
    return ContinuousLaw(logcdf=logcdf, logquantile=logquantile, support=support)


def _mixture_mp(n, ell, r_of_v, breaks, values):
    """The integrals of values(r) against V ~ Beta(ell, n-ell+1), at 30 digits.

    ``r_of_v`` gives the gap ratio at v as an mpmath number, and ``breaks``
    are its kinks in (0, 1); mpmath's tanh-sinh rule runs on the panels
    between them and V's mean plus or minus up to 40 standard deviations.
    """
    with mp.workdps(30):
        mean = mp.mpf(ell) / (n + 1)
        sd = mp.sqrt(mean * (1 - mean) / (n + 2))
        around = (mean + k * sd for k in (-40, -10, -3, 0, 3, 10, 40))
        pts = sorted({mp.mpf(0), mp.mpf(1), *map(mp.mpf, breaks),
                      *(p for p in around if 0 < p < 1)})
        log_norm = mp.log(n) + mp.log(mp.binomial(n - 1, ell - 1))

        def density(v):
            return mp.exp(log_norm + (ell - 1) * mp.log(v) + (n - ell) * mp.log1p(-v))

        return [float(mp.quad(lambda v, f=f: density(v) * f(r_of_v(v)), pts)) for f in values]


class TestMixedBinomialBound:
    def test_degenerate_mixing_law_algebra(self):
        # with Q identically q the bracket collapses to q
        n, ell, q = 10, 2, 0.1
        report = negbin_bound_mixed(MixedBinomialSpec(n=n, ell=ell, eq=q, eq2=q * q))
        ew = (n - ell) * q
        beta = ew / (ew + ell)
        factor = (1.0 - (1.0 - beta) ** ell) / (beta * ell)
        expected = factor * ew * (beta + (1.0 - beta) * q)
        assert report.bound == pytest.approx(expected, rel=1e-13)
        assert report.params["beta"] == pytest.approx(beta, rel=1e-14)

    def test_single_trial_bracket(self):
        # n = ell + 1: bracket = 0 * q/q - (-1) * q = q
        n, ell, q = 5, 4, 0.3
        report = negbin_bound_mixed(MixedBinomialSpec(n=n, ell=ell, eq=q, eq2=q * q))
        ew = q
        beta = ew / (ew + ell)
        factor = (1.0 - (1.0 - beta) ** ell) / (beta * ell)
        assert report.bound == pytest.approx(factor * ew * (beta + (1 - beta) * q), rel=1e-13)

    def test_point_mixture_dominates_exact_tv(self):
        n, ell, q = 10, 2, 0.1
        report = negbin_bound_mixed(MixedBinomialSpec(n=n, ell=ell, eq=q, eq2=q * q))
        m = n - ell
        w = np.append(stats.binom.pmf(np.arange(m + 1), m, q), 0.0)
        from tiebound.approximants import TruncatedPMF

        wlaw = TruncatedPMF(k_min=0, probs=w, tail_mass_bound=0.0)
        target = truncated_negbin(ell, report.params["beta"], 1e-12)
        assert report.bound >= tv_distance(wlaw, target).hi

    def test_two_point_mixture_dominance_sweep(self):
        rng = np.random.default_rng(17)
        from tiebound.approximants import TruncatedPMF

        for _ in range(25):
            n = int(rng.integers(3, 11))
            ell = int(rng.integers(1, n))
            q1, q2 = rng.uniform(0.02, 0.98, size=2)
            w = float(rng.uniform(0.05, 0.95))
            eq = w * q1 + (1 - w) * q2
            eq2 = w * q1**2 + (1 - w) * q2**2
            report = negbin_bound_mixed(MixedBinomialSpec(n=n, ell=ell, eq=eq, eq2=eq2))
            m = n - ell
            ks = np.arange(m + 1)
            probs = w * stats.binom.pmf(ks, m, q1) + (1 - w) * stats.binom.pmf(ks, m, q2)
            wlaw = TruncatedPMF(k_min=0, probs=probs, tail_mass_bound=0.0)
            target = truncated_negbin(ell, report.params["beta"], 1e-12)
            assert report.bound >= tv_distance(wlaw, target).hi - 1e-11

    def test_degenerate_and_domain(self):
        with pytest.raises(DegenerateParameterError):
            negbin_bound_mixed(MixedBinomialSpec(n=5, ell=2, eq=0.0, eq2=0.0))
        with pytest.raises(DomainError):
            negbin_bound_mixed(MixedBinomialSpec(n=5, ell=5, eq=0.2, eq2=0.05))
        with pytest.raises(DomainError):
            MixedBinomialSpec(n=5, ell=2, eq=0.2, eq2=0.5)  # E[Q^2] > E[Q]
        with pytest.raises(DomainError):
            MixedBinomialSpec(n=5, ell=2, eq=0.5, eq2=0.1)  # below Jensen floor


class TestOrderStatDensity:
    """The density of V = 1 - F(X_(n-ell+1:n)) ~ Beta(ell, n-ell+1), in logs."""

    V = np.array([0.1, 0.5, 0.9])

    def test_rank_one_is_maximum_density(self):
        # F(max) ~ Beta(n, 1), so 1 - F(max) has density n (1-v)**(n-1)
        np.testing.assert_allclose(np.exp(_log_order_density(7, 1, self.V)),
                                   7 * (1 - self.V) ** 6, rtol=1e-14)

    def test_rank_n_is_minimum_density(self):
        np.testing.assert_allclose(np.exp(_log_order_density(7, 7, self.V)),
                                   7 * self.V**6, rtol=1e-14)

    def test_uniform_hand_value(self):
        density = math.exp(_log_order_density(2, 1, np.array([0.5]))[0])
        assert density == pytest.approx(1.0, rel=1e-14)

    @pytest.mark.parametrize("n,ell", [(10**6, 3), (10**7, 2), (10**9, 1)])
    def test_normaliser_matches_high_precision(self, n, ell):
        with mp.workdps(50):
            exact = mp.log(n * mp.binomial(n - 1, ell - 1))
            assert abs(math.log(n) + _log_choose(n - 1, ell - 1) - exact) <= 1e-14 * abs(exact)

    @pytest.mark.parametrize("law", [gumbel_law(), uniform_law(1.0)])
    def test_arrays_match_scalar_calls(self, law):
        x = np.linspace(-1.0, 3.0, 41)
        ratio = gap_ratio(law, 0.2, x)
        assert isinstance(gap_ratio(law, 0.2, 0.5), float)
        assert ratio.tolist() == [gap_ratio(law, 0.2, float(v)) for v in x]

    @pytest.mark.parametrize("law_fn,lo,hi", [(gumbel_law, -30, 60), (lambda: uniform_law(2.0), 0, 2)])
    @pytest.mark.parametrize("n,ell", [(5, 1), (20, 2), (100, 3)])
    def test_integrates_to_one(self, law_fn, lo, hi, n, ell):
        # P(lo < X_(n-ell+1:n) < hi) = P(1 - F(hi) < V < 1 - F(lo))
        law = law_fn()
        v_lo, v_hi = (-math.expm1(law.logcdf(x)) for x in (hi, lo))
        def density(v):
            return math.exp(_log_order_density(n, ell, np.array([v]))[0])

        total, err = integrate.quad(density, v_lo, v_hi, epsabs=1e-11, epsrel=1e-11, limit=300)
        assert err < 1e-9
        assert total == pytest.approx(1.0, abs=1e-9)


class TestGapRatio:
    def test_saturates_below_support(self):
        law = uniform_law(1.0)
        assert gap_ratio(law, 0.3, 0.2) == 1.0  # F(x - a) = 0
        assert gap_ratio(law, 0.3, 0.5) == pytest.approx(0.3 / 0.5 * 1.0, rel=1e-13)

    def test_range(self):
        law = gumbel_law()
        for x in np.linspace(-5, 10, 50):
            r = gap_ratio(law, 0.7, float(x))
            assert 0.0 <= r <= 1.0


class TestGapMomentClosedForms:
    def test_gumbel_hand_values(self):
        a = math.log(2.0)
        assert gumbel_gap_moment(10, a, 1) == pytest.approx(1.0 / 11.0, rel=1e-13)
        assert gumbel_gap_moment(10, a, 2) == pytest.approx(1.0 / 66.0, rel=1e-12)

    def test_gumbel_exact_reduces_at_rank_one(self):
        for n in GRID_N:
            for a in GRID_A:
                for j in (1, 2):
                    assert gumbel_gap_moment_exact(n, 1, a, j) == pytest.approx(
                        gumbel_gap_moment(n, a, j), rel=1e-12
                    )

    def test_uniform_idealized_hand_values(self):
        assert uniform_gap_moment(10, 1, 0.1, 1.0, 1) == pytest.approx(1.0 / 9.0, rel=1e-14)
        assert uniform_gap_moment(10, 1, 0.1, 1.0, 2) == pytest.approx(
            0.01 * 90 / (9 * 8), rel=1e-13
        )

    def test_uniform_idealized_matches_exact_for_small_thresholds(self):
        # saturation correction is provably below 1e-10 here
        for n, ell in ((20, 1), (50, 2), (100, 3)):
            for j in (1, 2):
                ideal = uniform_gap_moment(n, ell, 0.01, 1.0, j)
                exact = uniform_gap_moment_exact(n, ell, 0.01, 1.0, j)
                assert ideal == pytest.approx(exact, abs=1e-10)

    def test_uniform_exact_saturates_at_full_width(self):
        assert uniform_gap_moment_exact(10, 2, 1.0, 1.0, 1) == 1.0
        assert uniform_gap_moment_exact(10, 2, 2.5, 1.0, 2) == 1.0

    def test_uniform_idealized_full_width_value(self):
        # a = b: the idealized form gives n/(n-ell), past its validity edge
        assert uniform_gap_moment(8, 2, 1.0, 1.0, 1) == pytest.approx(8.0 / 6.0, rel=1e-14)

    @pytest.mark.parametrize("n,ell,a", [(10**6, 3, 0.3), (10**6, 2, 0.3), (10**7, 1, 0.01),
                                         (10**9, 1, 0.01), (20, 2, 1e-12)])
    def test_gumbel_exact_matches_high_precision(self, n, ell, a):
        for j in (1, 2):
            exact = _gumbel_moment_mp(n, ell, a, j)
            assert abs(gumbel_gap_moment_exact(n, ell, a, j) - exact) <= 1e-14 * exact

    @pytest.mark.parametrize("n", GRID_N)
    @pytest.mark.parametrize("ell", GRID_ELL)
    @pytest.mark.parametrize("a", GRID_A)
    def test_uniform_exact_matches_fractions(self, n, ell, a):
        for j in (1, 2):
            if n - ell < j:
                continue
            got = uniform_gap_moment_exact(n, ell, a, 1.0, j)
            if a >= 1.0:
                assert got == 1.0
                continue
            exact = _uniform_moment_fraction(n, ell, Fraction(a), j)
            assert abs(Fraction(got) - exact) <= Fraction(1e-14) * exact

    def test_vanishing_threshold(self):
        for j in (1, 2):
            assert gumbel_gap_moment_exact(20, 2, 1e-12, j) < 1e-10
            assert uniform_gap_moment_exact(20, 2, 1e-12, 1.0, j) < 1e-10

    def test_domain(self):
        with pytest.raises(DomainError):
            uniform_gap_moment(5, 4, 0.1, 1.0, 2)  # n - ell < 2
        with pytest.raises(DomainError):
            gumbel_gap_moment(10, 0.0, 1)
        with pytest.raises(DomainError):
            uniform_gap_moment_exact(5, 4, 0.1, 1.0, 2)


class TestGapMomentQuadrature:
    @pytest.mark.parametrize("n", GRID_N)
    @pytest.mark.parametrize("ell", GRID_ELL)
    @pytest.mark.parametrize("a", GRID_A)
    @pytest.mark.parametrize("j", (1, 2))
    def test_gumbel_grid(self, n, ell, a, j):
        spec = NearOrderSpec(law=gumbel_law(), n=n, ell=ell, a=a)
        quad_value = gap_ratio_moment(spec, j, 1e-10)
        assert abs(quad_value - gumbel_gap_moment_exact(n, ell, a, j)) <= 1e-8

    @pytest.mark.parametrize("n", GRID_N)
    @pytest.mark.parametrize("ell", GRID_ELL)
    @pytest.mark.parametrize("a", GRID_A)
    @pytest.mark.parametrize("j", (1, 2))
    def test_uniform_grid(self, n, ell, a, j):
        if j == 2 and n - ell < 2:
            pytest.skip("second moment needs n - ell >= 2")
        spec = NearOrderSpec(law=uniform_law(1.0), n=n, ell=ell, a=a)
        quad_value = gap_ratio_moment(spec, j, 1e-10)
        assert abs(quad_value - uniform_gap_moment_exact(n, ell, a, 1.0, j)) <= 1e-8

    def test_gumbel_large_sample_moments(self):
        # the order-statistic normaliser must not lose digits to lgamma cancellation
        n, ell, a = 10**6, 3, 0.3
        report = negbin_bound_near_order(NearOrderSpec(law=gumbel_law(), n=n, ell=ell, a=a))
        for j, key in ((1, "M1"), (2, "M2")):
            exact = _gumbel_moment_mp(n, ell, a, j)
            assert abs(report.moments[key] - exact) <= 1e-10 * exact

    @pytest.mark.parametrize("n,ell,a", [(10**7, 1, 0.01), (10**9, 1, 0.01), (10**6, 3, 0.3),
                                         (10**6, 5 * 10**5, 0.3), (10**6, 999000, 0.3)])
    def test_gumbel_moments_at_large_n_and_rank(self, n, ell, a):
        # at ell = 5e5 the order-statistic normaliser n C(n-1, ell-1) overflows a
        # float, and its log carries 4e-11 relative rounding unless the pass
        # divides by the integrated density
        spec = NearOrderSpec(law=gumbel_law(), n=n, ell=ell, a=a)
        moments, _ = _gap_ratio_moments(spec, [1, 2], 1e-10)
        for j, got in zip((1, 2), moments.tolist()):
            exact = gumbel_gap_moment_exact(n, ell, a, j)
            assert abs(got - exact) <= 1e-12 * exact

    def test_jensen_ordering(self):
        for law in (gumbel_law(), uniform_law(1.0)):
            for n, ell, a in ((5, 1, 0.3), (20, 2, 0.8), (12, 3, 0.1)):
                spec = NearOrderSpec(law=law, n=n, ell=ell, a=a)
                m1 = gap_ratio_moment(spec, 1, 1e-10)
                m2 = gap_ratio_moment(spec, 2, 1e-10)
                assert m1 * m1 <= m2 + 1e-12
                assert m2 <= m1 + 1e-12


class TestNearOrderBound:
    def test_uniform_hand_value(self):
        spec = NearOrderSpec(law=uniform_law(1.0), n=10, ell=1, a=0.1)
        report = negbin_bound_near_order(spec, 1e-10)
        assert report.params["beta"] == pytest.approx(0.5, abs=1e-9)
        assert report.bound == pytest.approx(0.05 * (10 + 11.0 / 9.0), abs=1e-6)
        assert report.bound == pytest.approx(0.5611111111, abs=1e-6)

    def test_uniform_closed_form_identity(self):
        """The generic pipeline matches the specialised uniform expression."""
        for n, ell, a in ((10, 1, 0.05), (30, 2, 0.02), (50, 3, 0.01)):
            b = 1.0
            spec = NearOrderSpec(law=uniform_law(b), n=n, ell=ell, a=a)
            report = negbin_bound_near_order(spec, 1e-10)
            beta = a * n / (a * n + b * ell)
            closed = (a / (b * ell)) * (1.0 - (1.0 - beta) ** ell) * (
                n + ell * (n + ell) / (n - ell)
            )
            assert report.bound == pytest.approx(closed, rel=1e-6)

    def test_matches_mixed_binomial_delegation(self):
        spec = NearOrderSpec(law=gumbel_law(), n=15, ell=2, a=0.4)
        report = negbin_bound_near_order(spec, 1e-10)
        m1 = report.moments["M1"]
        m2 = report.moments["M2"]
        direct = negbin_bound_mixed(MixedBinomialSpec(n=15, ell=2, eq=m1, eq2=m2))
        assert report.bound == direct.bound
        assert report.params == direct.params

    @pytest.mark.parametrize("kind,n,ell,a", [("gumbel", 100, 1, 0.3), ("uniform", 200, 3, 0.05),
                                              ("gumbel", 10**6, 1, 0.3),
                                              ("gumbel", 10**7, 1, 0.01)])
    def test_truncation_error_covers_closed_form_bound(self, kind, n, ell, a):
        law = gumbel_law() if kind == "gumbel" else uniform_law(1.0)
        report = negbin_bound_near_order(NearOrderSpec(law=law, n=n, ell=ell, a=a), 1e-10)
        if kind == "gumbel":
            eq, eq2 = (_gumbel_moment_mp(n, ell, a, j) for j in (1, 2))
        else:
            eq, eq2 = (uniform_gap_moment_exact(n, ell, a, 1.0, j) for j in (1, 2))
        closed = negbin_bound_mixed(MixedBinomialSpec(n=n, ell=ell, eq=eq, eq2=eq2)).bound
        assert 0.0 < report.truncation_error < 1e-10
        assert abs(report.bound - closed) <= report.truncation_error

    @pytest.mark.parametrize(
        "law_fn,n,ell,a",
        [
            (lambda: uniform_law(1.0), 8, 1, 0.05),
            (lambda: uniform_law(1.0), 10, 2, 0.1),
            (lambda: uniform_law(1.0), 12, 3, 0.2),
            (gumbel_law, 10, 1, 0.3),
            (gumbel_law, 12, 2, 0.5),
        ],
    )
    def test_dominates_exact_mixture_tv(self, law_fn, n, ell, a):
        spec = NearOrderSpec(law=law_fn(), n=n, ell=ell, a=a)
        report = negbin_bound_near_order(spec, 1e-10)
        mixture = near_order_count_pmf(spec, 1e-10)
        target = truncated_negbin(ell, report.params["beta"], 1e-12)
        assert report.bound >= tv_distance(mixture, target).hi

    @pytest.mark.parametrize(
        "kind,n,ell,a",
        [
            ("uniform", 9, 2, 0.15),
            ("uniform", 8, 1, 0.05),
            ("uniform", 10, 2, 0.1),
            ("uniform", 200, 3, 0.05),
            ("gumbel", 100, 1, 0.3),
            ("gumbel", 2000, 1, 0.3),  # C(n - ell, k) overflows a float here
            ("gumbel", 50, 3, 0.5),
        ],
    )
    def test_mixture_pmf_is_proper(self, kind, n, ell, a):
        law = uniform_law(1.0) if kind == "uniform" else gumbel_law()
        spec = NearOrderSpec(law=law, n=n, ell=ell, a=a)
        mixture = near_order_count_pmf(spec, 1e-10)
        assert mixture.k_min == 0
        assert mixture.k_max == spec.n - spec.ell
        assert mixture.total() == pytest.approx(1.0, abs=1e-9)
        m = n - ell
        if kind == "uniform":
            exact = _uniform_mixture_pmf(n, ell, Fraction(a))
            l1 = sum(abs(Fraction(float(p)) - e) for p, e in zip(mixture.probs, exact))
            assert l1 <= mixture.tail_mass_bound
        else:
            k = np.arange(m + 1)
            assert math.fsum(k * mixture.probs) == pytest.approx(
                m * gumbel_gap_moment_exact(n, ell, a, 1), rel=1e-8)
            assert math.fsum(k * (k - 1) * mixture.probs) == pytest.approx(
                m * (m - 1) * gumbel_gap_moment_exact(n, ell, a, 2), rel=1e-8)


def _binom_pmf(m, r):
    """Full Bin(m, r) rows from the kernel, one for each entry of ``r``."""
    with np.errstate(divide="ignore"):
        return binom_rows(m, r / (1.0 - r), 0, m)[0]


def _binom_pmf_mp(m, r):
    """Bin(m, r) pmf at 40 digits, by the term recurrence from k = 0."""
    with mp.workdps(40):
        if r == 1.0:
            return [mp.mpf(0)] * m + [mp.mpf(1)]
        r = mp.mpf(r)
        terms = [(1 - r) ** m]
        for k in range(m):
            terms.append(terms[-1] * (m - k) * r / ((k + 1) * (1 - r)))
        return terms


class TestBinomialTails:
    @pytest.mark.parametrize("m", (1, 2, 7, 30, 120))
    @pytest.mark.parametrize("q", (1e-9, 0.01, 0.3, 0.5, 0.77, 1.0 - 1e-6))
    def test_tails_match_fractions(self, m, q):
        exact_q = Fraction(q)
        terms = [math.comb(m, i) * exact_q**i * (1 - exact_q) ** (m - i) for i in range(m + 1)]
        lower = [Fraction(0)] + list(itertools.accumulate(terms))
        with mp.workdps(40):
            for k in range(-1, m + 1):
                for upper, exact in ((False, lower[k + 1]), (True, 1 - lower[k + 1])):
                    got = _log_binom_tail(m, k, q, upper)
                    if exact == 0:
                        assert got == -math.inf
                        continue
                    log_exact = mp.log(exact.numerator) - mp.log(exact.denominator)
                    # relative error of the tail; the log of a tail near 1e-2000
                    # cannot be closer than its own rounding
                    assert abs(got - log_exact) <= 1e-14 * max(1.0, abs(log_exact)), (k, upper)

    def test_degenerate_chances(self):
        assert _log_binom_tail(5, 2, 0.0, False) == 0.0
        assert _log_binom_tail(5, 2, 0.0, True) == -math.inf
        assert _log_binom_tail(5, 2, 1.0, False) == -math.inf
        assert _log_binom_tail(5, 2, 1.0, True) == 0.0
        assert _log_binom_tail(5, 5, 1.0, False) == 0.0


BETA_PROBS = (1e-9, 0.05, 0.5, 0.95, 1.0 - 1e-9)


class TestBetaQuantile:
    @pytest.mark.parametrize("n,ell", [(8, 1), (10, 2), (50, 3), (200, 3), (10**6, 1), (10**6, 3),
                                       (10**9, 1), (10, 10), (1000, 500), (10**9, 5 * 10**8)])
    def test_matches_high_precision_inversion(self, n, ell):
        lower = _beta_quantile(n, ell, BETA_PROBS)
        upper = _beta_quantile(n, ell, _TAIL_PROBS, upper=True)
        assert np.all(np.diff(lower) >= 0.0) and np.all(np.diff(upper) <= 0.0)

        def below(x):  # P(V <= x) for V ~ Beta(ell, n-ell+1)
            return _beta_cdf_mp(ell, n - ell + 1, x)

        def above(x):  # P(V > x), the cdf of 1 - V ~ Beta(n-ell+1, ell) at 1 - x
            return _beta_cdf_mp(n - ell + 1, ell, 1 - x)

        # |x - v*| <= tol, with v* the exact quantile, iff the exact cdf
        # brackets p on [x - tol, x + tol]
        with mp.workdps(50):
            for p, x in zip(BETA_PROBS, lower.tolist()):
                tol = 1e-11 * min(x, 1.0 - x) + 4.0 * np.finfo(float).eps
                assert below(mp.mpf(x) - tol) <= p <= below(mp.mpf(x) + tol), (p, x)
            for p, x in zip(_TAIL_PROBS, upper.tolist()):
                tol = 1e-11 * min(x, 1.0 - x) + 4.0 * np.finfo(float).eps
                assert above(mp.mpf(x) + tol) <= p <= above(mp.mpf(x) - tol), (p, x)

    def test_huge_symmetric_shapes_are_fast_and_small(self):
        elapsed = []
        for _ in range(3):
            tracemalloc.start()
            start = time.perf_counter()
            _beta_quantile(10**9, 5 * 10**8, BETA_PROBS)
            elapsed.append(time.perf_counter() - start)
            peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.stop()
            assert peak < 50e6
        assert min(elapsed) < 0.1


class TestPanelEdges:
    @pytest.mark.parametrize("law_fn,kink", [(lambda: uniform_law(2.0), 0.9),
                                             (lambda: _exponential_law(1.0), math.exp(-0.2))],
                             ids=["uniform", "exponential"])
    def test_edges_hold_the_kink(self, law_fn, kink):
        # below v = 1 - F(lo + a) the gap ratio is 1
        edges, median = _panel_edges(NearOrderSpec(law=law_fn(), n=30, ell=2, a=0.2))
        assert edges[0] == 0.0 and edges[-1] == 1.0 and np.all(np.diff(edges) > 0.0)
        assert np.min(np.abs(edges - kink)) <= 1e-15
        assert median == pytest.approx(float(_beta_quantile(30, 2, [0.5])[0]), rel=1e-15)


class TestQuadratureKernels:
    RATIOS = (0.0, 1e-6, 0.05, 0.5, 0.999, 1.0 - 1e-7, 1.0)

    @pytest.mark.parametrize("m", (7, 50, 197, 1999, 5000))
    def test_binomial_pmf_matches_high_precision(self, m):
        rows = _binom_pmf(m, np.array(self.RATIOS))
        assert rows.shape == (len(self.RATIOS), m + 1)
        assert rows[0, 0] == 1.0 and rows[-1, -1] == 1.0  # point masses at r = 0, 1
        for r, row in zip(self.RATIOS, rows):
            with mp.workdps(40):
                l1 = mp.fsum(abs(mp.mpf(p) - e) for p, e in zip(row.tolist(), _binom_pmf_mp(m, r)))
            assert l1 <= 1e-14, (m, r, float(l1))

    @pytest.mark.parametrize("m, q", [(10**9, 1e-9), (10**9, 5e-9), (2000, 0.3), (30, 1e-3)])
    def test_windowed_rows_certify_their_edges(self, m, q):
        """A window cut where the terms reach e**-10 leaves mass within its bound."""
        odds = np.array([q / (1.0 - q)])
        lo, hi = (int(v[0]) for v in binom_window(m, odds, np.array([10.0])))
        rows, outside = binom_rows(m, odds, lo, hi)
        with mp.workdps(40):
            exact = [mp.binomial(m, k) * mp.mpf(q) ** k * (1 - mp.mpf(q)) ** (m - k)
                     for k in range(lo, hi + 1)]
            missing = 1 - mp.fsum(exact)
            l1 = mp.fsum(abs(mp.mpf(v) - e) for v, e in zip(rows[0].tolist(), exact)) + missing
        assert 0 < missing / (1 - missing) <= outside[0] < 1e-3
        assert l1 <= 2.0 * outside[0] + 1e-14

    @pytest.mark.parametrize(
        "kind,n,ell,a",
        [
            ("gumbel", 100, 1, 0.3),
            ("gumbel", 2000, 1, 0.3),
            ("gumbel", 10**6, 1, 0.3),
            ("gumbel", 10**7, 1, 0.01),
            ("gumbel", 50, 3, 0.5),
            ("uniform", 8, 1, 0.05),
            ("uniform", 200, 3, 0.05),
            ("uniform", 10, 10, 0.1),
            ("exponential", 30, 2, 0.2),
            ("mirrored-exponential", 30, 2, 0.2),
        ],
    )
    def test_pass_matches_oracle(self, kind, n, ell, a):
        """Moments to 1e-12 relative, and the pmf within its own error budget in L1."""
        m, pmf = n - ell, None
        if kind == "gumbel":
            law, moments = gumbel_law(), [_gumbel_moment_mp(n, ell, a, j) for j in (1, 2)]
        elif kind == "mirrored-exponential":
            # F(x - a) / F(x) = e**-a on all of (-inf, 0): r_a is constant
            law, r = _exponential_law(-1.0), -math.expm1(-a)
            moments, pmf = [r, r * r], _binom_pmf_mp(m, r)
        elif kind == "uniform" and m >= 2:
            with mp.workdps(40):
                pmf = [mp.mpf(e.numerator) / e.denominator
                       for e in _uniform_mixture_pmf(n, ell, Fraction(a))]
            law = uniform_law(1.0)
            moments = [uniform_gap_moment_exact(n, ell, a, 1.0, j) for j in (1, 2)]
        else:
            # in v = 1 - F(x), r_a is a / (1 - v) (uniform) or v (e**a - 1) / (1 - v)
            # (exponential), up to 1 at its kink
            law, kink = ((uniform_law(1.0), 1 - mp.mpf(a)) if kind == "uniform"
                         else (_exponential_law(1.0), mp.exp(-a)))

            def r_of_v(v):
                return min(1, a / (1 - v) if kind == "uniform" else v * mp.expm1(a) / (1 - v))

            funcs = [lambda r: r, lambda r: r**2]
            funcs += [lambda r, k=k: mp.binomial(m, k) * r**k * (1 - r) ** (m - k)
                      for k in range(m + 1)]
            values = _mixture_mp(n, ell, r_of_v, [kink], funcs)
            moments, pmf = values[:2], values[2:]
        spec = NearOrderSpec(law=law, n=n, ell=ell, a=a)
        got, _ = _gap_ratio_moments(spec, [1, 2], 1e-10)
        for value, exact in zip(got.tolist(), moments):
            assert abs(value - exact) <= 1e-12 * exact
        if pmf is not None:
            mixture = near_order_count_pmf(spec, 1e-10)
            with mp.workdps(40):
                l1 = mp.fsum(abs(mp.mpf(p) - mp.mpf(e))
                             for p, e in zip(mixture.probs.tolist(), pmf))
            assert l1 <= mixture.tail_mass_bound


class TestGumbelMaxBound:
    def test_hand_value(self):
        assert gumbel_max_bound(2, math.log(2.0)) == pytest.approx(1.0 / 6.0, rel=1e-13)

    def test_vanishes_at_zero_threshold(self):
        assert gumbel_max_bound(20, 0.0) == 0.0
        assert gumbel_max_bound(20, 1e-9) < 1e-8

    @pytest.mark.parametrize("n", (20, 100))
    def test_matches_generic_pipeline(self, n):
        for a in (0.05, 0.1, 0.3, 0.6, 1.0):
            spec = NearOrderSpec(law=gumbel_law(), n=n, ell=1, a=a)
            report = negbin_bound_near_order(spec, 1e-10)
            assert abs(gumbel_max_bound(n, a) - report.bound) <= 1e-6

    def test_monotone_in_threshold(self):
        for n in (20, 100):
            values = [gumbel_max_bound(n, a) for a in np.linspace(0.0, 2.0, 40)]
            assert all(v1 <= v2 + 1e-15 for v1, v2 in zip(values, values[1:]))

    def test_domain(self):
        with pytest.raises(DomainError):
            gumbel_max_bound(1, 0.5)
        with pytest.raises(DomainError):
            gumbel_max_bound(10, -0.1)
