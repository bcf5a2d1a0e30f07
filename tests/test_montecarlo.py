"""Seeded samplers against exact laws, and the empirical distance radius.

The samplers draw a sample extreme and then one binomial count.  The direct
constructions, which draw all n observations per replication, are kept here
as oracles: each sampler must agree with its oracle in a two-sample check
and with the exact law within standard errors.
"""

import dataclasses
import math
import os
import subprocess
import sys
from collections import Counter

import numpy as np
import pytest
from scipy import stats

import tiebound
from tiebound.approximants import TruncatedPMF, truncated_poisson
from tiebound.bounds_continuous import NearOrderSpec, near_order_count_pmf
from tiebound.distributions import geometric_law, gumbel_law, tabulated_law, uniform_law
from tiebound.maxima import (
    KnSpec,
    argmax_value_law,
    size_biased_tie_pmf,
    tie_count_factorial_moment,
    tie_count_law,
)
from tiebound.montecarlo import (
    TV_CONFIDENCE_DELTA,
    EmpiricalPMF,
    RngStream,
    _discrete_quantile_fn,
    empirical_tv,
    sample_near_order_count,
    sample_size_biased_ties,
    sample_tie_count,
)

N_UNIT = 100_000  # moderate sample size keeps the unit suite fast


def _assert_within_standard_errors(emp: EmpiricalPMF, exact: TruncatedPMF, z=4.0):
    freqs = emp.frequencies()
    n = emp.sample_size
    for k in range(exact.k_min, exact.k_max + 1):
        p = exact.prob(k)
        idx = k - emp.k_min
        f = freqs[idx] if 0 <= idx < freqs.size else 0.0
        se = max(np.sqrt(p * (1 - p) / n), 1.0 / n)
        assert abs(f - p) <= z * se + 5.0 / n, f"k={k}: {f} vs {p}"


def _direct_tie_count(spec: KnSpec, gen, size):
    """Oracle: draw n values, count how many equal the largest."""
    x = _discrete_quantile_fn(spec.law)(gen.random((size, spec.n)))
    return (x == x.max(axis=1)[:, None]).sum(axis=1)


def _direct_size_biased(spec: KnSpec, gen, size):
    """Oracle: the argmax value M, then n-1 draws conditioned to be at most M
    (inverse cdf at u F(M)); one plus those equal to M."""
    m = _discrete_quantile_fn(argmax_value_law(spec))(gen.random(size))
    f_at_m = spec.law.cdf(m)
    x = _discrete_quantile_fn(spec.law)(gen.random((size, spec.n - 1)) * f_at_m[:, None])
    return 1 + (x == m[:, None]).sum(axis=1)


def _direct_near_order(spec: NearOrderSpec, gen, size):
    """Oracle: draw n values, sort, count those inside (x - a, x) at the
    ell-th largest x."""
    x = spec.law.logquantile(np.log(gen.random((size, spec.n))))
    order = np.sort(x, axis=1)[:, spec.n - spec.ell]
    return ((x > (order - spec.a)[:, None]) & (x < order[:, None])).sum(axis=1)


def _assert_same_law(a, b, k_min, k_max):
    """Two samples of one law on k_min..k_max: their half-L1 distance lies
    within the sum of their Bretagnolle-Huber-Carol radii, over that support
    plus one overflow cell (fixed before sampling)."""
    assert a.min() >= k_min and a.max() <= k_max
    assert b.min() >= k_min and b.max() <= k_max
    fa = np.bincount(a - k_min, minlength=k_max - k_min + 1) / a.size
    fb = np.bincount(b - k_min, minlength=k_max - k_min + 1) / b.size
    d = k_max - k_min + 2
    log_terms = d * math.log(2.0) + math.log(1.0 / TV_CONFIDENCE_DELTA)
    radius = sum(0.5 * math.sqrt(2.0 * log_terms / x.size) for x in (a, b))
    assert 0.5 * float(np.abs(fa - fb).sum()) <= radius


def _size_biased_law(spec: KnSpec) -> TruncatedPMF:
    law = tie_count_law(spec, 1e-12)
    weighted = law.probs * np.arange(1, law.probs.size + 1)
    return TruncatedPMF(k_min=1, probs=weighted / weighted.sum(), tail_mass_bound=1e-10)


DISCRETE_POINTS = [
    pytest.param(geometric_law(0.4), 6, id="geometric-0.4-6"),
    pytest.param(tabulated_law([0.2, 0.3, 0.5]), 7, id="tabulated-7"),
]
NEAR_ORDER_POINTS = [
    pytest.param(gumbel_law(), 20, 1, 0.3, id="gumbel-20-1-0.3"),
    pytest.param(uniform_law(1.0), 10, 2, 0.1, id="uniform-10-2-0.1"),
]


class TestAgainstDirectConstruction:
    @pytest.mark.parametrize("law, n", DISCRETE_POINTS)
    def test_tie_count(self, law, n):
        spec = KnSpec(law=law, n=n)
        fast = sample_tie_count(spec, RngStream(seed=41), size=N_UNIT)
        direct = _direct_tie_count(spec, RngStream(seed=42).generator(), N_UNIT)
        _assert_same_law(fast, direct, 1, n)
        _assert_within_standard_errors(EmpiricalPMF.from_samples(fast),
                                       tie_count_law(spec, 1e-12))

    @pytest.mark.parametrize("law, n", DISCRETE_POINTS)
    def test_size_biased(self, law, n):
        spec = KnSpec(law=law, n=n)
        fast = sample_size_biased_ties(spec, RngStream(seed=43), size=N_UNIT)
        direct = _direct_size_biased(spec, RngStream(seed=44).generator(), N_UNIT)
        _assert_same_law(fast, direct, 1, n)
        _assert_within_standard_errors(EmpiricalPMF.from_samples(fast), _size_biased_law(spec))

    @pytest.mark.parametrize("law, n, ell, a", NEAR_ORDER_POINTS)
    def test_near_order_count(self, law, n, ell, a):
        spec = NearOrderSpec(law=law, n=n, ell=ell, a=a)
        fast = sample_near_order_count(spec, RngStream(seed=45), size=N_UNIT)
        direct = _direct_near_order(spec, RngStream(seed=46).generator(), N_UNIT)
        _assert_same_law(fast, direct, 0, n - ell)
        _assert_within_standard_errors(EmpiricalPMF.from_samples(fast),
                                       near_order_count_pmf(spec, 1e-10))


class TestEdgeCases:
    def test_single_observation_near_order(self):
        spec = NearOrderSpec(law=gumbel_law(), n=1, ell=1, a=0.3)
        assert np.all(sample_near_order_count(spec, RngStream(seed=50), size=100) == 0)

    @pytest.mark.parametrize("n", [5, 10**9])
    def test_everything_ties(self, n):
        # all mass on 2: q(2) = 1, so K = n and K* = n on every draw
        spec = KnSpec(law=tabulated_law([0.0, 1.0]), n=n)
        assert np.all(sample_tie_count(spec, RngStream(seed=51), size=1000) == n)
        assert np.all(sample_size_biased_ties(spec, RngStream(seed=52), size=1000) == n)

    def test_rank_equal_to_sample_size(self):
        spec = NearOrderSpec(law=gumbel_law(), n=7, ell=7, a=0.5)
        assert np.all(sample_near_order_count(spec, RngStream(seed=53), size=100) == 0)

    @pytest.mark.parametrize("n, ell, a", [(6, 2, 1.0), (10**9, 3, 1.5)])
    def test_threshold_at_least_the_width(self, n, ell, a):
        # a >= b: r_a = 1 at every order statistic, so all n - ell points count
        spec = NearOrderSpec(law=uniform_law(1.0), n=n, ell=ell, a=a)
        assert np.all(sample_near_order_count(spec, RngStream(seed=54), size=100) == n - ell)

    def test_all_tied_chance_at_huge_n(self):
        # p = 1 - 2/n: K = n exactly when the maximum is 1, which has
        # probability F(1)**n = (1 - 2/n)**n = e**-2 up to 2e-9
        n = 10**9
        spec = KnSpec(law=geometric_law(1.0 - 2.0 / n), n=n)
        samples = sample_tie_count(spec, RngStream(seed=55), size=N_UNIT)
        p = math.exp(-2.0)
        assert float(np.mean(samples == n)) == pytest.approx(
            p, abs=4.0 * math.sqrt(p * (1.0 - p) / N_UNIT))
        assert samples.min() >= 1 and samples.max() <= n


def _counting_law(law):
    """The law with pmf, cdf, logcdf and quantile wrapped to count the calls
    made and the points passed."""
    calls, points = Counter(), Counter()

    def counted(name, fn):
        def wrapper(x):
            calls[name] += 1
            points[name] += int(np.size(x))
            return fn(x)
        return wrapper

    names = [f.name for f in dataclasses.fields(law)
             if f.name in ("pmf", "cdf", "logcdf", "quantile", "logquantile")
             and getattr(law, f.name) is not None]
    wrapped = dataclasses.replace(law, **{k: counted(k, getattr(law, k)) for k in names})
    return wrapped, calls, points


class TestCostPerReplication:
    """Law evaluations per replication do not grow with n."""

    SIZE = 100

    def test_tie_count(self):
        law, _, points = _counting_law(geometric_law(0.01))
        sample_tie_count(KnSpec(law=law, n=10**5), RngStream(seed=60), size=self.SIZE)
        assert 0 < sum(points.values()) <= 4 * self.SIZE

    def test_near_order_count(self):
        law, _, points = _counting_law(gumbel_law())
        spec = NearOrderSpec(law=law, n=10**5, ell=2, a=0.3)
        sample_near_order_count(spec, RngStream(seed=61), size=self.SIZE)
        assert 0 < sum(points.values()) <= 4 * self.SIZE

    def test_size_biased_table_takes_few_calls(self):
        # the argmax law's inverse-cdf table spans about 50/p = 5e5 values; it
        # must come from a few vector calls, not one law call per value
        law, calls, _ = _counting_law(geometric_law(1e-4))
        sample_size_biased_ties(KnSpec(law=law, n=10**5), RngStream(seed=62), size=self.SIZE)
        assert 0 < sum(calls.values()) <= 100


class TestReproducibility:
    def test_same_key_same_sequence(self):
        spec = KnSpec(law=geometric_law(0.4), n=6)
        a = sample_tie_count(spec, RngStream(seed=90, stream_id=3), size=500)
        b = sample_tie_count(spec, RngStream(seed=90, stream_id=3), size=500)
        np.testing.assert_array_equal(a, b)

    def test_distinct_streams_differ(self):
        spec = KnSpec(law=geometric_law(0.4), n=6)
        a = sample_tie_count(spec, RngStream(seed=90, stream_id=0), size=500)
        b = sample_tie_count(spec, RngStream(seed=90, stream_id=1), size=500)
        assert not np.array_equal(a, b)

    def test_merge_is_order_independent(self):
        spec = KnSpec(law=geometric_law(0.4), n=6)
        streams = RngStream(seed=11).split(4)
        parts = [sample_tie_count(spec, s, size=200) for s in streams]
        forward = np.bincount(np.concatenate(parts))
        backward = np.bincount(np.concatenate(parts[::-1]))
        np.testing.assert_array_equal(forward, backward)

    def test_scalar_draw(self):
        spec = KnSpec(law=geometric_law(0.4), n=6)
        value = sample_tie_count(spec, RngStream(seed=5))
        assert isinstance(value, int) and 1 <= value <= 6


class TestTieCountSampler:
    def test_single_observation(self):
        spec = KnSpec(law=geometric_law(0.3), n=1)
        assert np.all(sample_tie_count(spec, RngStream(seed=1), size=100) == 1)

    def test_degenerate_law_everything_ties(self):
        spec = KnSpec(law=tabulated_law([1.0]), n=7)
        assert np.all(sample_tie_count(spec, RngStream(seed=2), size=100) == 7)

    def test_matches_exact_law(self):
        spec = KnSpec(law=geometric_law(0.5), n=10)
        samples = sample_tie_count(spec, RngStream(seed=33), size=N_UNIT)
        emp = EmpiricalPMF.from_samples(samples)
        _assert_within_standard_errors(emp, tie_count_law(spec, 1e-11))

    def test_tabulated_law_matches(self):
        spec = KnSpec(law=tabulated_law([0.2, 0.3, 0.5]), n=4)
        samples = sample_tie_count(spec, RngStream(seed=34), size=N_UNIT)
        emp = EmpiricalPMF.from_samples(samples)
        _assert_within_standard_errors(emp, tie_count_law(spec, 1e-11))


class TestSizeBiasedSampler:
    def test_single_observation(self):
        spec = KnSpec(law=geometric_law(0.3), n=1)
        assert np.all(sample_size_biased_ties(spec, RngStream(seed=3), size=50) == 1)

    def test_two_point_frequencies(self):
        spec = KnSpec(law=tabulated_law([0.5, 0.5]), n=2)
        samples = sample_size_biased_ties(spec, RngStream(seed=4), size=N_UNIT)
        freq1 = float(np.mean(samples == 1))
        assert freq1 == pytest.approx(1.0 / 3.0, abs=4 * np.sqrt(2.0 / 9.0 / N_UNIT))

    def test_mean_matches_size_bias_identity(self):
        # E[K*] = E[K^2] / E[K]; frozen oracle value 1.4285734212204726
        spec = KnSpec(law=geometric_law(0.3), n=10)
        samples = sample_size_biased_ties(spec, RngStream(seed=5), size=N_UNIT)
        e1 = tie_count_factorial_moment(spec, 1)
        e2 = tie_count_factorial_moment(spec, 2)
        expected = (e2 + e1) / e1
        assert expected == pytest.approx(1.4285734212204726, rel=1e-10)
        se = float(np.std(samples)) / np.sqrt(N_UNIT)
        assert float(np.mean(samples)) == pytest.approx(expected, abs=4 * se)

    def test_goodness_of_fit(self):
        spec = KnSpec(law=geometric_law(0.3), n=10)
        samples = sample_size_biased_ties(spec, RngStream(seed=6), size=N_UNIT)
        exact = [size_biased_tie_pmf(spec, k, 1e-12) for k in range(1, 11)]
        pvalue = _chi_square_pvalue(samples, k_min=1, pmf=exact)
        assert pvalue >= 1e-3


def test_quantile_table_maps_draws_above_its_last_entry_to_its_top():
    """The argmax law's table at geometric (1e-4, 1e5) ends 3.9e-13 below 1; a
    draw above that entry must return the table's top, not walk the cdf (that
    walk never ended).  Run in a child, so that a hang fails instead of stalling."""
    code = ("import math\n"
            "from tiebound import KnSpec, argmax_value_law, geometric_law\n"
            "from tiebound.montecarlo import _discrete_quantile_fn\n"
            "law = argmax_value_law(KnSpec(law=geometric_law(1e-4), n=10**5))\n"
            "top = math.ceil((math.log(2.0**-53) - math.log(law.tail_const))\n"
            "                / math.log(law.tail_ratio))\n"
            "q = _discrete_quantile_fn(law)\n"
            "print(top, q(1 - 1e-13), q(1 - 2**-53), q(0.5))\n")
    src = os.path.dirname(os.path.dirname(tiebound.__file__))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True,
                         timeout=60, env=dict(os.environ, PYTHONPATH=src)).stdout
    top, high, highest, median = map(int, out.split())
    assert high == highest == top and median < top


def _chi_square_pvalue(samples, k_min, pmf, min_expected=5.0):
    """Chi-square goodness of fit with tail bins merged to keep cells full."""
    n = samples.size
    counts = np.bincount(np.asarray(samples) - k_min, minlength=len(pmf))[: len(pmf)]
    expected = np.asarray(pmf) * n
    # fold sparse high-k cells into the last kept bin
    keep = expected >= min_expected
    cut = int(np.argmax(~keep)) if not keep.all() else len(pmf)
    cut = max(cut, 2)
    obs = np.append(counts[:cut], counts[cut:].sum() + (n - counts.sum()))
    exp = np.append(expected[:cut], max(n - expected[:cut].sum(), 1e-9))
    chi2 = float(((obs - exp) ** 2 / exp).sum())
    return float(stats.chi2.sf(chi2, df=len(obs) - 1))


class TestNearOrderSampler:
    def test_threshold_wider_than_support(self):
        # every point below the order statistic lies inside the window
        spec = NearOrderSpec(law=uniform_law(1.0), n=6, ell=2, a=2.0)
        samples = sample_near_order_count(spec, RngStream(seed=7), size=200)
        assert np.all(samples == 6 - 2)

    def test_uniform_mean(self):
        # E[count] = (n - ell) M1 = a n / b = 1.0 at these parameters
        spec = NearOrderSpec(law=uniform_law(1.0), n=10, ell=1, a=0.1)
        samples = sample_near_order_count(spec, RngStream(seed=8), size=N_UNIT)
        se = float(np.std(samples)) / np.sqrt(N_UNIT)
        assert float(np.mean(samples)) == pytest.approx(1.0, abs=4 * se)

    def test_gumbel_matches_mixture_pmf(self):
        spec = NearOrderSpec(law=gumbel_law(), n=20, ell=2, a=0.5)
        samples = sample_near_order_count(spec, RngStream(seed=9), size=N_UNIT)
        emp = EmpiricalPMF.from_samples(samples)
        _assert_within_standard_errors(emp, near_order_count_pmf(spec, 1e-9))

    def test_gumbel_matches_windowed_law_at_a_million(self):
        # the law holds a few hundred outcomes here, not n - ell + 1
        spec = NearOrderSpec(law=gumbel_law(), n=10**6, ell=1, a=0.3)
        samples = sample_near_order_count(spec, RngStream(seed=10), size=N_UNIT)
        law = near_order_count_pmf(spec, 1e-9)
        assert law.k_max < 1000
        _assert_within_standard_errors(EmpiricalPMF.from_samples(samples), law)


class TestEmpiricalTV:
    def test_same_point_mass(self):
        emp = EmpiricalPMF(k_min=3, counts=np.array([50]), sample_size=50)
        target = TruncatedPMF(k_min=3, probs=np.array([1.0]), tail_mass_bound=0.0)
        estimate, _ = empirical_tv(emp, target)
        assert estimate == 0.0

    def test_disjoint_supports(self):
        emp = EmpiricalPMF(k_min=0, counts=np.array([10]), sample_size=10)
        target = TruncatedPMF(k_min=5, probs=np.array([1.0]), tail_mass_bound=0.0)
        estimate, _ = empirical_tv(emp, target)
        assert estimate == 1.0

    def test_self_consistency(self):
        """Samples drawn from the target stay within the stated radius."""
        target = truncated_poisson(2.0, 1e-9)
        failures = 0
        for rep in range(30):
            gen = RngStream(seed=1234, stream_id=rep).generator()
            samples = gen.poisson(2.0, size=50_000)
            emp = EmpiricalPMF.from_samples(samples)
            estimate, radius = empirical_tv(emp, target)
            failures += estimate > radius
        assert failures == 0

    def test_categories_fixed_before_sampling(self):
        # outliers outside the target's support pool into one overflow cell,
        # so how far out they land changes neither the estimate nor the radius
        target = truncated_poisson(2.0, 1e-9)
        near = EmpiricalPMF(k_min=0, counts=np.r_[[400, 300], np.zeros(40), [300]],
                            sample_size=1000)
        far = EmpiricalPMF(k_min=0, counts=np.r_[[400, 300], np.zeros(400), [300]],
                           sample_size=1000)
        assert empirical_tv(near, target) == empirical_tv(far, target)

    def test_counts_must_sum(self):
        from tiebound.errors import DomainError

        with pytest.raises(DomainError):
            EmpiricalPMF(k_min=0, counts=np.array([3, 4]), sample_size=10)

    def test_needs_a_sample(self):
        from tiebound.errors import DomainError

        with pytest.raises(DomainError):
            EmpiricalPMF.from_samples([])
