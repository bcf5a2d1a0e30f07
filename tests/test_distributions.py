"""Law constructors: exact values, certificates, and descriptor round trips."""

import math

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

EULER_GAMMA = 0.5772156649015329  # oracle: quadrature of x * pdf(x), error < 1e-9


class TestGeometric:
    def test_point_values(self):
        law = geometric_law(0.5)
        assert law.pmf(1) == pytest.approx(0.5, abs=0)
        assert law.cdf(3) == pytest.approx(0.875, abs=1e-15)
        # substitution p (1-p)^(j-1); full mass sums to 1 within 1e-12
        law = geometric_law(0.25)
        assert law.pmf(2) == pytest.approx(0.1875, abs=1e-15)
        total = math.fsum(law.pmf(j) for j in range(1, 200))
        assert abs(total - 1.0) < 1e-12

    def test_cdf_closed_form_is_exact(self):
        # 1-ulp slack: numpy and libm expm1 may round the last bit differently
        law = geometric_law(0.3)
        for j in range(0, 60):
            assert law.cdf(j) == pytest.approx(-math.expm1(j * math.log1p(-0.3)), rel=5e-16)

    def test_cdf_pmf_consistency_and_tail(self):
        law = geometric_law(0.2)
        for j in range(1, 80):
            assert abs((law.cdf(j) - law.cdf(j - 1)) - law.pmf(j)) < 1e-14
            assert 1.0 - law.cdf(j) <= law.tail_const * law.tail_ratio**j + 1e-15

    def test_quantile_is_smallest_index(self):
        law = geometric_law(0.35)
        rng = np.random.default_rng(7)
        for u in rng.random(300):
            j = law.quantile(u)
            assert law.cdf(j) >= u
            assert j == 1 or law.cdf(j - 1) < u

    def test_domain(self):
        for bad in (0.0, 1.0, -0.3, 1.5):
            with pytest.raises(DomainError):
                geometric_law(bad)


class TestTabulated:
    def test_point_values(self):
        law = tabulated_law([0.5, 0.5])
        assert law.pmf(2) == 0.5
        assert law.cdf(1) == 0.5
        assert tabulated_law([1.0]).cdf(1) == 1.0
        assert tabulated_law([0.2, 0.3, 0.5]).cdf(2) == 0.5

    def test_tail_is_exactly_zero(self):
        law = tabulated_law([0.2, 0.8])
        assert law.support_max == 2
        assert law.tail_bound(2) == 0.0
        assert law.pmf(3) == 0.0
        assert law.cdf(5) == 1.0

    def test_declared_certificate_holds_inside_support(self):
        law = tabulated_law([0.25, 0.25, 0.25, 0.25])
        for j in range(0, 6):
            assert 1.0 - law.cdf(j) <= law.tail_const * law.tail_ratio**j

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
        assert law.cdf(0.0) == pytest.approx(math.exp(-1.0), abs=1e-15)
        assert law.cdf(60.0) == pytest.approx(1.0, abs=1e-12)
        assert law.cdf(-800.0) == 0.0

    def test_mean_is_euler_gamma(self):
        from scipy import integrate

        law = gumbel_law()
        mean, err = integrate.quad(lambda x: x * law.pdf(x), -30, 60, limit=300)
        assert err < 1e-8
        assert mean == pytest.approx(EULER_GAMMA, abs=1e-9)

    def test_quantile_inverts_cdf(self):
        law = gumbel_law()
        u = np.linspace(0.01, 0.99, 25)
        np.testing.assert_allclose(law.cdf(law.quantile(u)), u, atol=1e-12)


class TestUniform:
    def test_cdf_clamps(self):
        law = uniform_law(2.0)
        assert law.cdf(-1.0) == 0.0
        assert law.cdf(3.0) == 1.0
        assert uniform_law(1.0).cdf(0.3) == pytest.approx(0.3, abs=0)

    def test_domain(self):
        for bad in (0.0, -1.0, math.inf):
            with pytest.raises(DomainError):
                uniform_law(bad)


@pytest.mark.parametrize("law_fn", [gumbel_law, lambda: uniform_law(2.0)])
def test_pdf_matches_cdf_derivative(law_fn):
    """Central differences of the cdf reproduce the density at interior points."""
    law = law_fn()
    rng = np.random.default_rng(42)
    lo, hi = law.support
    lo = max(lo, -5.0) + 0.05
    hi = min(hi, 8.0) - 0.05
    xs = rng.uniform(lo, hi, size=100)
    h = 1e-6
    for x in xs:
        num = (law.cdf(x + h) - law.cdf(x - h)) / (2 * h)
        assert num == pytest.approx(law.pdf(x), abs=1e-6)


def test_discrete_tail_covers_unit_mass():
    """Partial pmf sums plus the declared tail bound cover 1 within 1e-10."""
    for p in (0.1, 0.4, 0.7):
        law = geometric_law(p)
        target = int(math.ceil(math.log(1e-12) / math.log(law.tail_ratio)))
        partial = math.fsum(law.pmf(j) for j in range(1, target + 1))
        assert partial + law.tail_bound(target) >= 1.0 - 1e-10
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
        assert law.cdf(1) == 1.0  # rounded, so log(cdf) would read 0
        assert law.logcdf(1) == pytest.approx(-1e-20, rel=1e-12)
        assert law.logcdf(2) == 0.0 and law.logcdf(5) == 0.0
        assert law.logcdf(0) == -math.inf

    def test_tabulated_matches_log_cdf_away_from_one(self):
        law = tabulated_law([0.0, 0.2, 0.3, 0.5])
        j = np.arange(0, 6)
        with np.errstate(divide="ignore"):
            np.testing.assert_allclose(law.logcdf(j), np.log(law.cdf(j)), rtol=1e-15)


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
