"""Discrete-case bounds: frozen hand values, parameter identities, dominance."""

import dataclasses
import math
from collections import Counter

import mpmath
import numpy as np
import pytest

from tiebound.approximants import (
    TruncatedPMF,
    truncated_geometric,
    truncated_log,
    truncated_poisson,
    tv_distance,
)
from tiebound.bounds_discrete import (
    geometric_link_bound,
    log_bound_from_moments,
    log_bound_second_moment,
    log_bound_singleton,
    poisson_bound,
)
from tiebound.distributions import geometric_law, tabulated_law
from tiebound.errors import DegenerateParameterError, DomainError
from tiebound.maxima import (
    KnSpec,
    size_biased_tie_law,
    size_biased_tie_pmf,
    tie_count_factorial_moment,
    tie_count_law,
    tie_count_pmf,
    tie_given_max_moment,
)

TOL = 1e-12


def _mp_geometric(p, n):
    """pmf, cdf and shifted cdf of Geometric(p) as 40-digit lists, long enough
    that the omitted terms of every oracle series stay below 1e-45."""
    q = 1 - mpmath.mpf(p)
    # the mass of p F**(n-1) sits near log(n)/p; past it terms decay like q**j
    top = int((math.log(n) + 110.0) / -math.log1p(-p))
    cdf = [1 - q**j for j in range(0, top + 1)]
    return [mpmath.mpf(p) * q**(j - 1) for j in range(1, top + 1)], cdf[1:], cdf[:-1]


def _mp_tabulated(weights):
    pmf = [mpmath.mpf(w) for w in weights]
    cdf = [mpmath.fsum(pmf[:j]) for j in range(0, len(pmf) + 1)]
    return pmf, cdf[1:], cdf[:-1]


# (law, n, 40-digit oracle tables of the same law)
ORACLE_POINTS = [
    (geometric_law(0.3), 12, lambda: _mp_geometric(0.3, 12)),
    (tabulated_law([0.2, 0.3, 0.5]), 7, lambda: _mp_tabulated([0.2, 0.3, 0.5])),
    (geometric_law(0.01), 10_000, lambda: _mp_geometric(0.01, 10_000)),
]


class TestLogBoundSingleton:
    def test_geometric_parameter_identity(self):
        for p in (0.05, 0.2, 0.5):
            for n in (5, 20, 50):
                report = log_bound_singleton(KnSpec(law=geometric_law(p), n=n), TOL)
                assert abs(report.params["alpha"] - p) <= 1e-10

    def test_two_point_hand_value(self):
        # alpha = 1 - 0.5/1.5 = 2/3; two-term sum gives -2 log(1/3)
        report = log_bound_singleton(KnSpec(law=tabulated_law([0.5, 0.5]), n=2), TOL)
        assert report.params["alpha"] == pytest.approx(2.0 / 3.0, rel=1e-12)
        assert report.bound == pytest.approx(-2.0 * math.log(1.0 / 3.0), rel=1e-12)

    def test_four_point_frozen_value(self):
        # oracle: exact fractions for the uniform four-point law, n = 4
        report = log_bound_singleton(KnSpec(law=tabulated_law([0.25] * 4), n=4), TOL)
        assert report.params["alpha"] == pytest.approx(0.64, rel=1e-13)
        assert report.bound == pytest.approx(2.4383941884454714, rel=1e-12)

    def test_agreement_with_moment_form(self):
        """The moment-form evaluation equals the paper's explicit series,
        summed in 40 digits, within its certified truncation error."""
        for law, n, oracle_law in ORACLE_POINTS:
            report = log_bound_singleton(KnSpec(law=law, n=n), TOL)
            alpha = report.params["alpha"]
            with mpmath.workdps(40):
                pmf, cdf, cdf_prev = oracle_law()
                c = (1 - mpmath.mpf(alpha)) * (n - 1) / alpha
                oracle = float(-2 * n * mpmath.log1p(-alpha) * mpmath.fsum(
                    pj * (Fj**(n - 1) - c * pj * Fp**(n - 2))
                    for pj, Fj, Fp in zip(pmf, cdf, cdf_prev)))
            assert abs(report.bound - oracle) <= (report.truncation_error
                                                  + 1e-13 * max(1.0, oracle))

    @pytest.mark.parametrize("p,tol", [(0.38, 1e-6), (0.32, 1e-9), (0.38, TOL)])
    def test_series_certificate_covers_the_40_digit_bound(self, p, tol):
        """At n = 20 the three values come from the series; the truncation error
        covers the distance to the bound at the exact alpha, which P(K=1)'s
        remainder moves too.  The 1e-13 is for rounding."""
        n = 20
        report = log_bound_singleton(KnSpec(law=geometric_law(p), n=n), tol)
        with mpmath.workdps(40):
            pmf, cdf, cdf_prev = _mp_geometric(p, n)
            pk1 = n * mpmath.fsum(pj * Fp**(n - 1) for pj, Fp in zip(pmf, cdf_prev))
            pk2 = mpmath.binomial(n, 2) * mpmath.fsum(pj**2 * Fp**(n - 2)
                                                      for pj, Fp in zip(pmf, cdf_prev))
            ek = n * mpmath.fsum(pj * Fj**(n - 1) for pj, Fj in zip(pmf, cdf))
            alpha = 1 - pk1 / ek
            exact = -2 * mpmath.log1p(-alpha) * (ek - 2 * (1 - alpha) / alpha * pk2)
            assert abs(report.bound - exact) <= report.truncation_error + 1e-13

    def test_series_values_match_high_precision_oracle(self):
        """E[(K)_ell] and P(K = k) agree with their series summed in 40 digits,
        within the requested tolerance (relative for moments, absolute for
        masses)."""
        for law, n, oracle_law in ORACLE_POINTS:
            spec = KnSpec(law=law, n=n)
            with mpmath.workdps(40):
                pmf, cdf, cdf_prev = oracle_law()
                moments = [float(mpmath.ff(n, ell) * mpmath.fsum(
                    pj**ell * Fj**(n - ell) for pj, Fj in zip(pmf, cdf)))
                    for ell in (1, 2, 3)]
                masses = [float(mpmath.binomial(n, k) * mpmath.fsum(
                    pj**k * Fp**(n - k) for pj, Fp in zip(pmf, cdf_prev)))
                    for k in (1, 2)]
            for ell, oracle in zip((1, 2, 3), moments):
                value = tie_count_factorial_moment(spec, ell, TOL)
                assert abs(value - oracle) <= TOL * oracle + 1e-13 * max(1.0, oracle)
            for k, oracle in zip((1, 2), masses):
                value = tie_count_pmf(spec, k, TOL)
                assert abs(value - oracle) <= TOL + 1e-13 * max(1.0, oracle)

    def test_dominates_exact_tv(self):
        # one spot check here; the full grid runs in the acceptance suite
        spec = KnSpec(law=geometric_law(0.2), n=20)
        report = log_bound_singleton(spec, TOL)
        exact = tie_count_law(spec, 1e-11)
        target = truncated_log(report.params["alpha"], 1e-12)
        assert report.bound >= tv_distance(exact, target).hi

    def test_degenerate_cases(self):
        with pytest.raises(DegenerateParameterError):
            log_bound_singleton(KnSpec(law=geometric_law(0.5), n=1))
        with pytest.raises(DegenerateParameterError):
            # all observations always tie, so P(K = 1) = 0 and alpha = 1
            log_bound_singleton(KnSpec(law=tabulated_law([1.0]), n=3))


class TestLogBoundFromMoments:
    def test_no_pair_mass(self):
        alpha = 0.4
        assert log_bound_from_moments(1.3, 0.0, alpha) == pytest.approx(
            -2.0 * math.log1p(-alpha) * 1.3, rel=1e-14
        )

    def test_two_point_hand_value(self):
        value = log_bound_from_moments(1.5, 0.5, 2.0 / 3.0)
        assert value == pytest.approx(-2.0 * math.log(1.0 / 3.0), rel=1e-14)
        assert value == pytest.approx(2.1972245773362196, rel=1e-12)

    def test_domain(self):
        with pytest.raises(DomainError):
            log_bound_from_moments(1.0, 0.1, 1.0)
        with pytest.raises(DomainError):
            log_bound_from_moments(0.0, 0.1, 0.5)


class TestLogBoundSecondMoment:
    def test_four_point_frozen_value(self):
        # oracle: exact fractions give beta = 9/19 and this bound value
        report = log_bound_second_moment(KnSpec(law=tabulated_law([0.25] * 4), n=4), TOL)
        assert report.params["beta"] == pytest.approx(9.0 / 19.0, rel=1e-12)
        assert report.bound == pytest.approx(3.7441476693389686, rel=1e-11)

    def test_dominates_exact_tv(self):
        spec = KnSpec(law=geometric_law(0.3), n=20)
        report = log_bound_second_moment(spec, TOL)
        exact = tie_count_law(spec, 1e-11)
        target = truncated_log(report.params["beta"], 1e-12)
        assert report.bound >= tv_distance(exact, target).hi

    def test_singleton_variant_is_tighter_for_geometric(self):
        spec = KnSpec(law=geometric_law(0.2), n=20)
        a = log_bound_singleton(spec, TOL).bound
        b = log_bound_second_moment(spec, TOL).bound
        assert a < b

    def test_small_samples_rejected(self):
        for n in (1, 2, 3):
            with pytest.raises(DomainError):
                log_bound_second_moment(KnSpec(law=geometric_law(0.4), n=n))


class TestGeometricLinkBound:
    def test_zero_distance_gives_zero(self):
        assert geometric_link_bound(2.0, 0.5, 0.0) == 0.0

    def test_hand_value(self):
        value = geometric_link_bound(2.0, 0.5, 0.1)
        assert value == pytest.approx(1.2 * math.log(2), rel=1e-13)
        assert value == pytest.approx(0.8317766166719343, rel=1e-12)

    def test_consistency_with_exact_distances(self):
        """Feeding the exact size-biased-vs-geometric distance through the link
        dominates the exact count-vs-logarithmic distance."""
        spec = KnSpec(law=geometric_law(0.3), n=10)
        e1 = tie_count_factorial_moment(spec, 1, TOL)
        e2 = tie_count_factorial_moment(spec, 2, TOL)
        beta = e2 / (e2 + e1)
        star = TruncatedPMF(
            k_min=1,
            probs=[size_biased_tie_pmf(spec, k, TOL) for k in range(1, spec.n + 1)],
            tail_mass_bound=spec.n * 8 * TOL,
        )
        geom = truncated_geometric(beta, 1e-12)
        tv_star = tv_distance(star, geom).hi
        linked = geometric_link_bound(e1, beta, tv_star)
        exact = tie_count_law(spec, 1e-11)
        target = truncated_log(beta, 1e-12)
        assert linked >= tv_distance(exact, target).lo - 1e-9

    def test_domain(self):
        with pytest.raises(DomainError):
            geometric_link_bound(1.0, 0.5, 1.5)
        with pytest.raises(DomainError):
            geometric_link_bound(1.0, 0.0, 0.1)


class TestPoissonBound:
    @pytest.mark.parametrize(
        "mu,n,expected",
        [(100, 10**5, 0.330), (500, 10**8, 0.058), (900, 10**9, 0.039)],
    )
    def test_large_sample_spot_cells(self, mu, n, expected):
        law = geometric_law(1.0 - mu / n)
        report = poisson_bound(KnSpec(law=law, n=n), TOL)
        assert abs(report.bound - expected) <= 5e-4
        assert report.informative

    def test_uninformative_cell(self):
        law = geometric_law(1.0 - 300.0 / 10**5)
        report = poisson_bound(KnSpec(law=law, n=10**5), TOL)
        assert report.bound > 1.0
        assert not report.informative

    def test_variance_identity_nonnegative(self):
        for p in (0.05, 0.2, 0.5):
            for n in (5, 10, 50):
                spec = KnSpec(law=geometric_law(p), n=n)
                e1 = tie_count_factorial_moment(spec, 1, TOL)
                e2 = tie_count_factorial_moment(spec, 2, TOL)
                assert e2 - e1 * (e1 - 1.0) >= -1e-9

    def test_dominates_exact_tv(self):
        spec = KnSpec(law=geometric_law(0.3), n=10)
        report = poisson_bound(spec, TOL)
        exact = tie_count_law(spec, 1e-11)
        target = truncated_poisson(report.params["lambda"], 1e-12)
        assert report.bound >= tv_distance(exact, target).hi

    def test_small_samples_rejected(self):
        with pytest.raises(DomainError):
            poisson_bound(KnSpec(law=geometric_law(0.4), n=2))


def test_reports_expose_moments_and_flags():
    spec = KnSpec(law=geometric_law(0.2), n=20)
    report = poisson_bound(spec, TOL)
    assert set(report.moments) >= {"EK", "EK2_factorial", "EK3_factorial"}
    assert report.method == "thm2"
    doc = report.as_dict()
    assert doc["bound"] == report.bound
    assert doc["informative"] == (report.bound < 1.0)
    assert all(v >= 0.0 for v in report.moments.values())


def test_bounds_finite_and_nonnegative_on_grid():
    for p in (0.05, 0.2, 0.5):
        for n in (5, 10, 20):
            spec = KnSpec(law=geometric_law(p), n=n)
            values = [log_bound_singleton(spec, TOL).bound, poisson_bound(spec, TOL).bound]
            if n >= 4:
                values.append(log_bound_second_moment(spec, TOL).bound)
            for v in values:
                assert math.isfinite(v) and v >= 0.0


def _recording_law(law):
    """The law with pmf and logcdf wrapped to count their calls, and every j
    passed to pmf recorded.  It has no lattice rate, so that a geometric law
    runs the series these counts are about rather than its closed form."""
    calls, seen = Counter(), []

    def recorded(name, fn):
        def wrapper(x):
            calls[name] += 1
            if name == "pmf":
                seen.append(np.atleast_1d(x))
            return fn(x)
        return wrapper

    wrapped = dataclasses.replace(law, pmf=recorded("pmf", law.pmf),
                                  logcdf=recorded("logcdf", law.logcdf), lattice_rate=None)
    return wrapped, calls, seen


@pytest.mark.parametrize("compute", [
    log_bound_singleton, log_bound_second_moment, poisson_bound,
    lambda spec: tie_given_max_moment(spec, 2),
], ids=["thm1a", "thm1b", "thm2", "tie_given_max_moment"])
def test_bounds_evaluate_the_law_once_per_maximum(compute):
    """All the series a bound needs share one pass: no j reaches pmf twice, and
    each block takes one pmf and one logcdf call.  The series run to
    J = 65,472, ten doubling blocks from 64 terms."""
    law, calls, seen = _recording_law(geometric_law(1e-3))
    compute(KnSpec(law=law, n=10**5))
    points = np.concatenate(seen)
    assert np.unique(points).size == points.size
    assert calls["pmf"] == calls["logcdf"] <= 10


@pytest.mark.parametrize("law_fn", [tie_count_law, size_biased_tie_law])
def test_laws_make_one_logcdf_call_per_pmf_call(law_fn):
    law, calls, _ = _recording_law(geometric_law(1e-3))
    law_fn(KnSpec(law=law, n=10**5), TOL)
    assert calls["pmf"] == calls["logcdf"] > 0
