"""Law constructors: exact values, certificates, and descriptor round trips."""

import math

import mpmath as mp
import numpy as np
import pytest

from tiebound.distributions import (
    geometric_law,
    gumbel_law,
    law_from_descriptor,
    tabulated_law,
    uniform_law,
)
from tiebound.errors import DomainError

EULER_GAMMA = 0.5772156649015329


class TestGeometric:
    def test_point_values(self):
        law = geometric_law(0.5)
        assert law.pmf(1) == pytest.approx(0.5, abs=0)
        assert np.exp(law.logcdf(3)) == pytest.approx(0.875, abs=1e-15)
        # substitution p (1-p)^(j-1); full mass sums to 1 within 1e-12
        law = geometric_law(0.25)
        assert law.pmf(2) == pytest.approx(0.1875, abs=1e-15)
        total = math.fsum(law.pmf(j) for j in range(1, 200))
        assert abs(total - 1.0) < 1e-12

    def test_cdf_closed_form_is_exact(self):
        # 1-ulp slack: numpy and libm expm1 may round the last bit differently
        law = geometric_law(0.3)
        for j in range(0, 60):
            expected = -math.expm1(j * math.log1p(-0.3))
            assert np.exp(law.logcdf(j)) == pytest.approx(expected, rel=5e-16)

    def test_cdf_pmf_consistency_and_tail(self):
        law = geometric_law(0.2)
        for j in range(1, 80):
            assert abs((np.exp(law.logcdf(j)) - np.exp(law.logcdf(j - 1))) - law.pmf(j)) < 1e-14
            assert 1.0 - np.exp(law.logcdf(j)) <= math.exp(law.log_tail(j)) + 1e-15

    @pytest.mark.parametrize("p", [1e-3, 0.3, 1.0 - 2e-9])
    def test_a_range_gives_lists_of_the_array_values(self, p):
        # math answers a range and numpy an array, and the two may round exp apart
        law = geometric_law(p)
        pmf, logcdf = law.pmf(range(-2, 70)), law.logcdf(range(-2, 70))
        assert type(pmf) is list and type(logcdf) is list
        j = np.arange(-2, 70)
        np.testing.assert_allclose(pmf, law.pmf(j), rtol=1e-13, atol=0)
        np.testing.assert_allclose(logcdf, law.logcdf(j), rtol=1e-13, atol=0)

    def test_a_range_gives_minus_inf_where_the_tail_rounds_to_one(self):
        # (1-p)**1 rounds to 1 at p = 1e-17: F(1) is then 0 on the log scale, not an error
        law = geometric_law(1e-17)
        assert law.logcdf(range(0, 2)) == [-math.inf, -math.inf]
        assert law.pmf(range(0, 2)) == [0.0, 1e-17]

    def test_quantile_is_smallest_index(self):
        law = geometric_law(0.35)
        rng = np.random.default_rng(7)
        for u in rng.random(300):
            j = law.quantile(u)
            assert np.exp(law.logcdf(j)) >= u
            assert j == 1 or np.exp(law.logcdf(j - 1)) < u

    @pytest.mark.parametrize("u", [1.0, 1.5, -0.1, math.nan])
    def test_quantile_refuses_a_level_outside_the_unit_interval(self, u):
        # the float route once raised a bare ValueError at u = 1, and the array
        # route returned -9223372036854775807
        law = geometric_law(0.3)
        with pytest.raises(DomainError, match=r"\[0, 1\)"):
            law.quantile(u)
        with pytest.raises(DomainError, match=r"\[0, 1\)"):
            law.quantile(np.array([0.5, u]))
        assert law.quantile(0.0) == 1 and law.quantile(np.array([0.0])).tolist() == [1]

    def test_domain(self):
        for bad in (0.0, 1.0, -0.3, 1.5):
            with pytest.raises(DomainError):
                geometric_law(bad)


class TestTabulated:
    def test_point_values(self):
        law = tabulated_law([0.5, 0.5])
        assert law.pmf(2) == 0.5
        assert np.exp(law.logcdf(1)) == 0.5
        assert np.exp(tabulated_law([1.0]).logcdf(1)) == 1.0
        assert np.exp(tabulated_law([0.2, 0.3, 0.5]).logcdf(2)) == 0.5

    def test_tail_is_exactly_zero(self):
        law = tabulated_law([0.2, 0.8])
        assert law.support_max == 2
        assert law.log_tail(2) == -math.inf
        assert law.pmf(3) == 0.0
        assert np.exp(law.logcdf(5)) == 1.0

    def test_declared_certificate_holds_inside_support(self):
        law = tabulated_law([0.25, 0.25, 0.25, 0.25])
        for j in range(0, 6):
            assert 1.0 - np.exp(law.logcdf(j)) <= math.exp(law.log_tail(j))

    @pytest.mark.parametrize("m", [1, 2, 2000])
    def test_tail_certificate_holds_at_every_support_size(self, m):
        w = [1.0 / m] * m
        law = tabulated_law(w)
        for j in range(0, m + 2):
            assert math.exp(law.log_tail(j)) >= math.fsum(w[j:])

    def test_domain(self):
        with pytest.raises(DomainError):
            tabulated_law([0.5, 0.6])
        with pytest.raises(DomainError):
            tabulated_law([0.5, -0.5, 1.0])
        with pytest.raises(DomainError):
            tabulated_law([])

    def test_quantile(self):
        law = tabulated_law([0.2, 0.3, 0.5])
        assert law.quantile(0.1) == 1
        assert law.quantile(0.2) == 1
        assert law.quantile(0.21) == 2
        assert law.quantile(0.9999) == 3


class TestGumbel:
    def test_cdf_values(self):
        law = gumbel_law()
        assert law.logcdf(0.0) == -1.0
        assert law.logcdf(60.0) == pytest.approx(-math.exp(-60.0), rel=1e-15)  # F rounds to 1
        assert law.logcdf(-800.0) == -math.inf
        np.testing.assert_array_equal(law.logcdf(np.array([0.0, -800.0])), [-1.0, -math.inf])

    def test_mean_is_euler_gamma(self):
        from scipy import integrate

        # E[X] = int_0^inf (1 - F) - int_-inf^0 F; 1 - F(40) < 1e-17 and F(-5) < 1e-64
        law = gumbel_law()
        upper, err_u = integrate.quad(lambda x: -math.expm1(law.logcdf(x)), 0, 40,
                                      epsabs=1e-12, limit=300)
        lower, err_l = integrate.quad(lambda x: math.exp(law.logcdf(x)), -5, 0,
                                      epsabs=1e-12, limit=300)
        assert err_u + err_l < 1e-10
        assert upper - lower == pytest.approx(EULER_GAMMA, abs=1e-9)

    def test_quantile_inverts_cdf(self):
        law = gumbel_law()
        log_u = np.concatenate([-np.logspace(-300, 2, 40), [-700.0]])
        x = law.logquantile(log_u)
        # x = -log(-log u) carries eps |x| absolute, which exp(-x) turns relative
        rel = np.abs(law.logcdf(x) / log_u - 1.0)
        assert np.all(rel <= 4.0 * np.finfo(float).eps * (1.0 + np.abs(x)))
        assert law.logquantile(0.0) == math.inf and law.logquantile(-math.inf) == -math.inf


class TestUniform:
    def test_cdf_clamps(self):
        law = uniform_law(2.0)
        assert law.logcdf(-1.0) == -math.inf
        assert law.logcdf(0.0) == -math.inf
        assert law.logcdf(3.0) == 0.0
        assert uniform_law(1.0).logcdf(0.3) == math.log(0.3)
        assert law.logquantile(math.log(0.25)) == pytest.approx(0.5, rel=1e-15)
        assert law.logquantile(-math.inf) == 0.0

    def test_domain(self):
        for bad in (0.0, -1.0, math.inf):
            with pytest.raises(DomainError):
                uniform_law(bad)


@pytest.mark.parametrize("law_fn,exact", [
    (gumbel_law, lambda x: -mp.exp(-x)),
    (lambda: uniform_law(2.0), lambda x: mp.log(x / 2)),
], ids=["gumbel", "uniform"])
def test_logcdf_matches_high_precision(law_fn, exact):
    """logcdf and logquantile against 50-digit mpmath values at interior points."""
    law = law_fn()
    rng = np.random.default_rng(42)
    lo, hi = law.support
    xs = rng.uniform(max(lo, -5.0) + 0.05, min(hi, 8.0) - 0.05, size=100)
    with mp.workdps(50):
        for x in xs.tolist():
            log_f = exact(mp.mpf(x))
            assert law.logcdf(x) == pytest.approx(float(log_f), rel=4e-16, abs=1e-300)
            assert law.logquantile(float(log_f)) == pytest.approx(x, rel=1e-14, abs=1e-14)


EXP_OVERFLOW = 709.782712893384  # the largest x whose exp(x) is finite


@pytest.mark.parametrize("law", [gumbel_law(), uniform_law(2.0)], ids=["gumbel", "uniform"])
@pytest.mark.parametrize("name,grid", [
    ("logcdf", [-math.inf, -800.0, math.nextafter(-EXP_OVERFLOW, -math.inf), -EXP_OVERFLOW,
                -3.0, -0.0, 0.0, 1e-300, 0.5, 1.0, 2.0, 3.0, 40.0, 800.0, math.inf]),
    ("logquantile", [-math.inf, -800.0, -40.0, -1.0, -0.5, -1e-10, -1e-300, -0.0, 0.0]),
])
def test_a_float_gets_the_array_value(law, name, grid):
    """A Python float takes the ``math`` path, and gets the array path's value within
    2 ulp, also where exp overflows, at log u = +-0, outside the uniform support and
    at +-inf."""
    fn = getattr(law, name)
    for x, want in zip(grid, fn(np.array(grid)).tolist()):
        got = fn(x)
        assert type(got) is float
        assert got == want or abs(got - want) <= 2.0 * math.ulp(want), (x, got, want)


def test_discrete_tail_covers_unit_mass():
    """Partial pmf sums plus the declared tail bound cover 1 within 1e-10."""
    for p in (0.1, 0.4, 0.7):
        law = geometric_law(p)
        target = int(math.ceil(math.log(1e-12) / math.log1p(-p)))
        partial = math.fsum(law.pmf(j) for j in range(1, target + 1))
        assert partial + math.exp(law.log_tail(target)) >= 1.0 - 1e-10
        assert partial <= 1.0 + 1e-12


class TestLogCdf:
    """logcdf comes from the survival function, so it stays accurate where
    the cdf rounds to 1; the oracle is mpmath at 40 digits."""

    def test_geometric_matches_high_precision(self):
        mpmath = pytest.importorskip("mpmath")
        mpmath.mp.dps = 40
        for p in (1e-3, 0.3, 1.0 - 2e-9):
            law = geometric_law(p)
            q = 1 - mpmath.mpf(p)
            for j in (1, 2, 10, 10_000, 50_000):
                exact = mpmath.log(1 - q**j)
                if exact == 0:
                    continue
                assert law.logcdf(j) == pytest.approx(float(exact), rel=1e-13, abs=1e-300)
        assert law.logcdf(0) == -math.inf

    def test_tabulated_tail_near_one(self):
        law = tabulated_law([1.0 - 1e-20, 1e-20])
        assert law.logcdf(1) == pytest.approx(-1e-20, rel=1e-12)
        assert law.logcdf(2) == 0.0 and law.logcdf(5) == 0.0
        assert law.logcdf(0) == -math.inf

    def test_tabulated_matches_log_cdf_away_from_one(self):
        law = tabulated_law([0.0, 0.2, 0.3, 0.5])
        j = np.arange(0, 6)
        with np.errstate(divide="ignore"):
            np.testing.assert_allclose(law.logcdf(j), np.log([0.0, 0.0, 0.2, 0.5, 1.0, 1.0]),
                                       rtol=1e-15)


def test_descriptor_round_trip():
    for desc in (
        {"kind": "geometric", "p": 0.4},
        {"kind": "tabulated", "weights": [0.25, 0.75]},
        {"kind": "gumbel"},
        {"kind": "uniform", "b": 3.0},
    ):
        law = law_from_descriptor(desc)
        assert law.descriptor == desc


def test_descriptor_rejects_unknown_kind():
    with pytest.raises(DomainError):
        law_from_descriptor({"kind": "zipf", "s": 2.0})
    with pytest.raises(DomainError):
        law_from_descriptor({"p": 0.5})


@pytest.mark.parametrize("weights", [[math.nan], [0.5, math.nan, 0.5], [math.inf, 0.5]])
def test_tabulated_rejects_weights_that_are_not_finite(weights):
    with pytest.raises(DomainError):
        tabulated_law(weights)
