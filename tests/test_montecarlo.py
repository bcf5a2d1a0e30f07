"""Seeded samplers against exact laws, and the empirical distance radius.

The samplers draw a sample extreme and then one binomial count.  The direct
constructions, which draw all n observations per replication, are kept here
as oracles: each sampler must agree with its oracle in a two-sample check
and with the exact law within standard errors.
"""

import dataclasses
import itertools
import math
import os
import random
import subprocess
import sys
import time
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from scipy import stats

import tiebound
from tiebound import montecarlo
from tiebound.approximants import TruncatedPMF, _dense, truncated_log, truncated_poisson
from tiebound.bounds_continuous import NearOrderSpec, near_order_count_pmf
from tiebound.distributions import geometric_law, gumbel_law, tabulated_law, uniform_law
from tiebound.errors import DomainError, TruncationError
from tiebound.maxima import (
    KnSpec,
    argmax_value_law,
    size_biased_tie_law,
    size_biased_tie_pmf,
    tie_count_factorial_moment,
    tie_count_law,
    tie_given_max_prob,
)
from tiebound.montecarlo import (
    _SPACINGS,
    TV_CONFIDENCE_DELTA,
    EmpiricalPMF,
    RngStream,
    _binomial,
    _discrete_quantile_fn,
    _spread,
    empirical_law,
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
        f = freqs[idx] if 0 <= idx < len(freqs) else 0.0
        se = max(np.sqrt(p * (1 - p) / n), 1.0 / n)
        assert abs(f - p) <= z * se + 5.0 / n, f"k={k}: {f} vs {p}"


def _pcg64(seed, stream_id=0):
    """numpy's PCG64 stream of (seed, stream_id) through SeedSequence spawning, for
    the oracles: a generator independent of the samplers'."""
    return np.random.Generator(np.random.PCG64(
        np.random.SeedSequence(entropy=seed, spawn_key=(stream_id,))))


def _direct_tie_count(spec: KnSpec, gen, size):
    """Oracle: draw n values, count how many equal the largest."""
    x = _discrete_quantile_fn(spec.law)(gen.random((size, spec.n)))
    return (x == x.max(axis=1)[:, None]).sum(axis=1)


def _direct_size_biased(spec: KnSpec, gen, size):
    """Oracle: the argmax value M, then n-1 draws conditioned to be at most M
    (inverse cdf at u F(M)); one plus those equal to M."""
    m = _discrete_quantile_fn(argmax_value_law(spec))(gen.random(size))
    f_at_m = np.exp(spec.law.logcdf(m))
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
    weighted = np.array(law.probs) * np.arange(1, len(law.probs) + 1)
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
        direct = _direct_tie_count(spec, _pcg64(42), N_UNIT)
        _assert_same_law(fast, direct, 1, n)
        _assert_within_standard_errors(EmpiricalPMF.from_samples(fast),
                                       tie_count_law(spec, 1e-12))

    @pytest.mark.parametrize("law, n", DISCRETE_POINTS)
    def test_size_biased(self, law, n):
        spec = KnSpec(law=law, n=n)
        fast = sample_size_biased_ties(spec, RngStream(seed=43), size=N_UNIT)
        direct = _direct_size_biased(spec, _pcg64(44), N_UNIT)
        _assert_same_law(fast, direct, 1, n)
        _assert_within_standard_errors(EmpiricalPMF.from_samples(fast), _size_biased_law(spec))

    @pytest.mark.parametrize("law, n, ell, a", NEAR_ORDER_POINTS)
    def test_near_order_count(self, law, n, ell, a):
        spec = NearOrderSpec(law=law, n=n, ell=ell, a=a)
        fast = sample_near_order_count(spec, RngStream(seed=45), size=N_UNIT)
        direct = _direct_near_order(spec, _pcg64(46), N_UNIT)
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
             if f.name in ("pmf", "logcdf", "quantile", "logquantile")
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
        assert 0 < sum(points.values()) <= 2 * self.SIZE

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


TALLY_CASES = {
    "ties-geometric": ("ties", sample_tie_count, KnSpec(law=geometric_law(0.2), n=20)),
    # E[K] is about 1.005 here: nearly every hit of the walk lands on k = 1
    "ties-geometric-one-block": ("ties", sample_tie_count,
                                 KnSpec(law=geometric_law(0.01), n=10**4)),
    # K is about 500 give or take 16: one hit spread over a row of about 300 outcomes
    "ties-tabulated": ("ties", sample_tie_count, KnSpec(law=tabulated_law([0.5, 0.5]), n=1000)),
    "size-biased-geometric": ("size-biased", sample_size_biased_ties,
                              KnSpec(law=geometric_law(0.2), n=20)),
    "size-biased-tabulated": ("size-biased", sample_size_biased_ties,
                              KnSpec(law=tabulated_law([0.2, 0.3, 0.5]), n=7)),
    "near-order-gumbel": ("near-order", sample_near_order_count,
                          NearOrderSpec(law=gumbel_law(), n=100, ell=1, a=0.3)),
    "near-order-uniform": ("near-order", sample_near_order_count,
                           NearOrderSpec(law=uniform_law(1.0), n=200, ell=3, a=0.05)),
}


class TestEmpiricalLaw:
    @pytest.mark.parametrize("seed", (3, 41))
    @pytest.mark.parametrize("size", (1, 8191, 8192, 8193, 100_000))
    @pytest.mark.parametrize("case", TALLY_CASES.values(), ids=TALLY_CASES.keys())
    def test_tally_equals_the_held_samples(self, case, size, seed):
        kind, sampler, spec = case
        tally = empirical_law(kind, spec, RngStream(seed=seed, stream_id=2), size)
        held = EmpiricalPMF.from_samples(sampler(spec, RngStream(seed=seed, stream_id=2),
                                                 size=size))
        assert (tally.k_min, tally.sample_size) == (held.k_min, held.sample_size)
        assert all(type(c) is int for c in tally.counts + held.counts)
        assert tally.counts == held.counts

    def test_unknown_kind(self):
        with pytest.raises(DomainError, match="kind"):
            empirical_law("maxima", KnSpec(law=geometric_law(0.2), n=20), RngStream(seed=1), 10)

    def test_needs_a_draw(self):
        with pytest.raises(DomainError, match="sample_size"):
            empirical_law("ties", KnSpec(law=geometric_law(0.2), n=20), RngStream(seed=1), 0)

    @pytest.mark.parametrize("case", TALLY_CASES.values(), ids=TALLY_CASES.keys())
    def test_samplers_hold_no_draw_at_size_zero(self, case):
        _, sampler, spec = case
        draws = sampler(spec, RngStream(seed=1), size=0)
        assert draws.dtype == np.int64 and draws.shape == (0,)


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
        pvalue = _chi_square_pvalue(EmpiricalPMF.from_samples(samples), k_min=1, pmf=exact)
        assert pvalue >= 1e-3


def test_quantile_table_maps_draws_above_its_last_entry_to_its_top():
    """The argmax law's table at geometric (1e-4, 1e5) ends 3.9e-13 below 1; a
    draw above that entry must return the table's top, not walk the cdf (that
    walk never ended).  Run in a child, so that a hang fails instead of stalling."""
    code = ("import itertools, math\n"
            "from tiebound import KnSpec, argmax_value_law, geometric_law\n"
            "from tiebound.montecarlo import _discrete_quantile_fn\n"
            "law = argmax_value_law(KnSpec(law=geometric_law(1e-4), n=10**5))\n"
            "top = next(j for j in itertools.count(1) if law.log_tail(j) <= math.log(2.0**-53))\n"
            "q = _discrete_quantile_fn(law)\n"
            "print(top, q(1 - 1e-13), q(1 - 2**-53), q(0.5))\n")
    src = os.path.dirname(os.path.dirname(tiebound.__file__))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True,
                         timeout=60, env=dict(os.environ, PYTHONPATH=src)).stdout
    top, high, highest, median = map(int, out.split())
    assert high == highest == top and median < top


@pytest.mark.parametrize("p,n", [(1e-6, 10**6), (1e-9, 10**9)])
def test_quantile_table_past_the_series_cap_is_refused_before_it_is_built(p, n):
    """Z now comes from the closed form, so the argmax table alone would reach
    5.1e7 entries at (1e-6, 1e6) and 5.7e10 at (1e-9, 1e9)."""
    spec = KnSpec(law=geometric_law(p), n=n)
    tracemalloc.start()
    try:
        start = time.perf_counter()
        with pytest.raises(TruncationError):
            sample_size_biased_ties(spec, RngStream(seed=1), size=10)
        elapsed = time.perf_counter() - start
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert elapsed < 1.0 and peak < 10e6


def _chi_square_pvalue(emp: EmpiricalPMF, k_min, pmf, min_expected=5.0):
    """Chi-square goodness of fit of the counts to ``pmf`` on k_min, k_min + 1, ...,
    with the cells below ``min_expected`` at each end pooled into one bin per end."""
    n = emp.sample_size
    counts = np.array(_dense(emp.k_min, emp.counts, k_min, k_min + len(pmf) - 1, 0))
    expected = np.asarray(pmf) * n
    full = np.flatnonzero(expected >= min_expected)
    lo, hi = full[0], max(full[-1] + 1, 2)
    # the high bin also takes the draws and the mass outside the pmf's range
    obs = np.concatenate([[counts[:lo].sum()], counts[lo:hi], [n - counts[:hi].sum()]])
    exp = np.concatenate([[expected[:lo].sum()], expected[lo:hi],
                          [max(n - expected[:hi].sum(), 1e-9)]])
    obs, exp = obs[exp > 0.0], exp[exp > 0.0]  # no low bin when the first cell is full
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
            gen = _pcg64(1234, rep)
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

    def test_samples_beyond_the_target(self):
        # no sample lands on the target's outcomes 1..16: all the mass is in
        # the overflow cell, against the target's missing mass
        emp = EmpiricalPMF.from_samples(np.arange(500, 1500))
        target = truncated_log(0.2, 1e-12)
        estimate, _ = empirical_tv(emp, target)
        # the estimate is the mass the target holds: 1 less the omitted mass's bound, which
        # its normaliser counts
        assert (target.k_min, target.k_max) == (1, 16)
        assert estimate == math.fsum(target.probs) == 0.9999999999995681

    def test_counts_must_sum(self):
        from tiebound.errors import DomainError, TruncationError

        with pytest.raises(DomainError):
            EmpiricalPMF(k_min=0, counts=np.array([3, 4]), sample_size=10)

    def test_needs_a_sample(self):
        from tiebound.errors import DomainError, TruncationError

        with pytest.raises(DomainError):
            EmpiricalPMF.from_samples([])


class _CountingRandom(random.Random):
    """``random.Random`` that counts its Beta variates."""

    betas = 0

    def betavariate(self, alpha, beta):
        self.betas += 1
        return super().betavariate(alpha, beta)


def _histogram_moments(hist: dict):
    size = sum(hist.values())
    mean = sum(k * c for k, c in hist.items()) / size
    return size, mean, sum((k - mean) ** 2 * c for k, c in hist.items()) / size


class TestExactBinomials:
    """``_binomial`` and the row split ``_spread`` against their laws."""

    # inversion; Beta splitting at (1e5, 0.01); the p > 1/2 reflection with and without
    # splits; q = 1; N = 0
    POINTS = [(40, 0.3, False), (10**5, 0.01, True), (1000, 0.9, True), (7, 0.8, False),
              (7, 1.0, False), (0, 0.3, False), (10**9, 0.5, True)]

    @pytest.mark.parametrize("trials,p,splits", POINTS)
    def test_binomial_draws(self, trials, p, splits):
        """Mean and variance of 20000 draws within four standard errors of Bin(trials, p)."""
        rand = _CountingRandom(f"{trials}:{p}")
        hist = Counter(_binomial(rand, trials, p) for _ in range(20_000))
        assert (rand.betas > 0) == splits
        assert min(hist) >= 0 and max(hist) <= trials
        size, mean, var = _histogram_moments(hist)
        law = stats.binom(trials, p)
        assert abs(mean - law.mean()) <= 4.0 * math.sqrt(law.var() / size) + 1e-12
        if law.var() > 0.0:
            assert var / law.var() == pytest.approx(1.0, abs=8.0 * math.sqrt(2.0 / size))
        else:
            assert var == 0.0

    @pytest.mark.parametrize("trials,p", [(12, 0.3), (300, 0.2), (200, 0.75)])
    def test_binomial_matches_its_pmf(self, trials, p):
        rand = random.Random(f"pmf:{trials}")
        draws = [_binomial(rand, trials, p) for _ in range(N_UNIT)]
        pmf = stats.binom.pmf(np.arange(trials + 1), trials, p)
        assert _chi_square_pvalue(EmpiricalPMF.from_samples(draws), k_min=0, pmf=pmf) >= 1e-3

    @pytest.mark.parametrize("n,q,size", [(1, 0.3, 20_000), (5, 0.3, 20_000), (7, 1.0, 100),
                                          (40, 0.02, 20_000), (2000, 0.5, 20_000),
                                          (10**5, 0.01, 20_000), (10**9, 1e-9, 20_000)])
    def test_positive_binomial_draws(self, n, q, size):
        """Mean and variance of Bin(n, q) given >= 1, split over its row, within four
        standard errors."""
        hist = {}
        _spread(random.Random(f"{n}:{q}"), hist, size, n, q, 1, 0)
        assert min(hist) >= 1 and max(hist) <= n
        law = stats.binom(n, q)
        hit = law.sf(0)
        mean = law.mean() / hit
        var = (law.var() + law.mean() ** 2) / hit - mean**2
        drawn, got_mean, got_var = _histogram_moments(hist)
        assert drawn == size
        assert abs(got_mean - mean) <= 4.0 * math.sqrt(var / size) + 1e-12
        if var > 1e-12:
            assert got_var / var == pytest.approx(1.0, abs=8.0 * math.sqrt(2.0 / size))
        else:
            assert hist == {n: size}

    def test_small_positive_binomial_matches_its_pmf(self):
        n, q = 6, 0.3
        hist = {}
        _spread(random.Random("pmf"), hist, N_UNIT, n, q, 1, 0)
        emp = EmpiricalPMF(k_min=1, counts=[hist.get(k, 0) for k in range(1, n + 1)],
                           sample_size=N_UNIT)
        pmf = stats.binom.pmf(np.arange(1, n + 1), n, q) / stats.binom.sf(0, n, q)
        assert _chi_square_pvalue(emp, k_min=1, pmf=pmf) >= 1e-3

    @pytest.mark.parametrize("trials,q,low", [(300, 0.2, 0), (300, 0.2, 1), (200, 0.01, 1)])
    def test_draws_one_at_a_time_match_their_pmf(self, trials, q, low):
        """A count of 1, below the row's standard deviation, is drawn on its own;
        at (200, 0.01) a row without the conditioning on >= 1 would put 13% on 0."""
        rand, hist = random.Random(f"one:{trials}:{q}:{low}"), {}
        for _ in range(20_000):
            _spread(rand, hist, 1, trials, q, low, 0)
        emp = EmpiricalPMF(k_min=low, counts=[hist.get(k, 0) for k in range(low, trials + 1)],
                           sample_size=20_000)
        pmf = stats.binom.pmf(np.arange(low, trials + 1), trials, q) / stats.binom.sf(low - 1,
                                                                                      trials, q)
        assert _chi_square_pvalue(emp, k_min=low, pmf=pmf) >= 1e-3

    @pytest.mark.parametrize("trials", [0, 9])
    def test_a_size_biased_row_adds_one(self, trials):
        hist = {}
        _spread(random.Random("shift"), hist, 1000, trials, 1e-300, 0, 1)
        assert hist == {1: 1000}


class TestNearOrderDraws:
    """log F(X) at the ell-th largest X: a sum of ell exponential spacings up to rank
    ``_SPACINGS``, a Beta variate past it."""

    @pytest.mark.parametrize("ell", [1, 3, _SPACINGS, _SPACINGS + 1])
    @pytest.mark.parametrize("n", [20, 10**6])
    def test_log_f_follows_the_beta_law(self, n, ell):
        """V = 1 - F(X) = -expm1(log F(X)) is Beta(ell, n - ell + 1): a KS test of the
        log F(X) that each of 50000 draws passes to ``logquantile``."""
        law, seen = gumbel_law(), []

        def logquantile(log_u):
            seen.append(log_u)
            return law.logquantile(log_u)

        spec = NearOrderSpec(law=dataclasses.replace(law, logquantile=logquantile), n=n,
                             ell=ell, a=0.3)
        empirical_law("near-order", spec, RngStream(seed=ell, stream_id=n), 50_000)
        assert len(seen) == 50_000
        v = -np.expm1(np.array(seen))
        assert stats.kstest(v, stats.beta(ell, n - ell + 1).cdf).pvalue >= 1e-3

    @pytest.mark.parametrize("ell", [_SPACINGS, _SPACINGS + 1])
    def test_counts_match_the_exact_law_with_betas_only_past_the_cutoff(self, ell):
        """At n = 30 no count's binomial reaches ``_INVERSION``, so every Beta
        variate is a V: one per draw past ``_SPACINGS``, none up to it."""
        spec, size = NearOrderSpec(law=gumbel_law(), n=30, ell=ell, a=0.5), 20_000
        rand = _CountingRandom(f"near-order:{ell}")
        hist = montecarlo._histogram("near-order", spec, rand, size)
        assert rand.betas == (size if ell > _SPACINGS else 0)
        exact = near_order_count_pmf(spec, 1e-12)
        emp = EmpiricalPMF.from_samples(list(hist.elements()))
        assert _chi_square_pvalue(emp, k_min=exact.k_min, pmf=exact.probs) >= 1e-3


def _exact_law(kind: str, spec: KnSpec) -> TruncatedPMF:
    return (tie_count_law if kind == "ties" else size_biased_tie_law)(spec, 1e-12)


class TestHistogram:
    """ties and size-biased runs, drawn as a histogram from ``random.Random``."""

    def test_a_geometric_ties_run_leaves_numpy_unloaded(self):
        """So do near-order runs of the Gumbel and uniform laws."""
        code = ("import sys\n"
                "from tiebound import KnSpec, NearOrderSpec, geometric_law, gumbel_law, "
                "uniform_law\n"
                "from tiebound.montecarlo import RngStream, empirical_law\n"
                "runs = [('ties', KnSpec(law=geometric_law(0.01), n=10**4), 10**5),\n"
                "        ('near-order', NearOrderSpec(law=gumbel_law(), n=100, ell=1, a=0.3),"
                " 20000),\n"
                "        ('near-order', NearOrderSpec(law=uniform_law(1.0), n=200, ell=3,"
                " a=0.05), 20000)]\n"
                "for kind, spec, size in runs:\n"
                "    emp = empirical_law(kind, spec, RngStream(seed=1), size)\n"
                "    print(emp.sample_size, 'numpy' in sys.modules)\n")
        src = os.path.dirname(os.path.dirname(tiebound.__file__))
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             check=True, timeout=60, env=dict(os.environ, PYTHONPATH=src)).stdout
        assert out.split() == ["100000", "False", "20000", "False", "20000", "False"]

    @pytest.mark.parametrize("kind,spec", [
        ("ties", KnSpec(law=geometric_law(0.5), n=10)),
        ("size-biased", KnSpec(law=geometric_law(0.5), n=10)),
        ("near-order", NearOrderSpec(law=gumbel_law(), n=20, ell=2, a=0.5)),
    ], ids=["ties", "size-biased", "near-order"])
    def test_same_key_same_counts_and_distinct_streams_differ(self, kind, spec):
        runs = [empirical_law(kind, spec, RngStream(seed=90, stream_id=s), 5000)
                for s in (3, 3, 4)]
        assert runs[0] == runs[1] and runs[0].counts != runs[2].counts

    @pytest.mark.parametrize("kind", ["ties", "size-biased"])
    @pytest.mark.parametrize("p", [0.01, 0.3, 0.5, 0.9])
    @pytest.mark.parametrize("n", [1, 2, 10, 10**4])
    def test_counts_match_the_exact_law(self, kind, p, n):
        # at n = 2 the maximum sits at 1 with chance p**2, where q(1) = 1
        spec = KnSpec(law=geometric_law(p), n=n)
        emp = empirical_law(kind, spec, RngStream(seed=7, stream_id=n), N_UNIT)
        estimate, radius = empirical_tv(emp, _exact_law(kind, spec))
        assert estimate <= radius

    @pytest.mark.parametrize("kind", ["ties", "size-biased"])
    @pytest.mark.parametrize("weights,n", [([0.5, 0.5], 1000), ([0.0, 1.0], 1), ([0.0, 1.0], 50)])
    def test_tabulated_counts_match_the_exact_law(self, kind, weights, n):
        spec = KnSpec(law=tabulated_law(weights), n=n)
        emp = empirical_law(kind, spec, RngStream(seed=8), N_UNIT)
        estimate, radius = empirical_tv(emp, _exact_law(kind, spec))
        assert estimate <= radius

    @pytest.mark.parametrize("kind", ["ties", "size-biased"])
    @pytest.mark.parametrize("spec,size", [(KnSpec(law=tabulated_law([0.5, 0.5]), n=2), 2),
                                           (KnSpec(law=geometric_law(0.5), n=3), 3)],
                             ids=["tabulated-2", "geometric-3"])
    def test_small_runs_are_independent_draws(self, kind, spec, size):
        """The histogram of a run of ``size`` draws follows the multinomial law of
        ``size`` independent draws, checked over 10000 runs, where each hit's count
        matters and the TV checks at 1e5 draws cannot see it."""
        law, runs = _exact_law(kind, spec), 10_000
        rand = random.Random(f"small:{kind}")
        seen = Counter(tuple(sorted(montecarlo._histogram(kind, spec, rand, size).items()))
                       for _ in range(runs))
        cells = [tuple(sorted(Counter(draws).items())) for draws in
                 itertools.combinations_with_replacement(range(1, spec.n + 1), size)]
        expected = [runs * math.factorial(size)
                    * math.prod(law.prob(k) ** c / math.factorial(c) for k, c in cell)
                    for cell in cells]
        assert sum(seen[cell] for cell in cells) == runs
        assert stats.chisquare([seen[cell] for cell in cells], expected,
                               sum_check=False).pvalue >= 1e-3

    def test_all_tied_chance_at_huge_n_size_biased(self):
        # K* = n exactly when the argmax value is 1, which has probability
        # F(1)**n / Z = n (1 - 2/n)**n / E[K]
        n = 10**9
        spec = KnSpec(law=geometric_law(1.0 - 2.0 / n), n=n)
        emp = empirical_law("size-biased", spec, RngStream(seed=56), N_UNIT)
        p = n * (1.0 - 2.0 / n) ** n / tie_count_factorial_moment(spec, 1)
        assert emp.k_min >= 1 and emp.k_min + len(emp.counts) - 1 == n
        assert emp.counts[-1] / N_UNIT == pytest.approx(
            p, abs=4.0 * math.sqrt(p * (1.0 - p) / N_UNIT))

    @pytest.mark.parametrize("kind", ["ties", "size-biased"])
    def test_ten_million_draws_take_a_walk_not_a_loop(self, kind):
        spec = KnSpec(law=geometric_law(0.01), n=10**4)
        start = time.perf_counter()
        emp = empirical_law(kind, spec, RngStream(seed=9), 10**7)
        assert time.perf_counter() - start < 5.0
        estimate, radius = empirical_tv(emp, _exact_law(kind, spec))
        assert estimate <= radius


@pytest.mark.parametrize("kind,point", [("ties", None), ("size-biased", None),
                                        ("near-order", (10, 2, 0.1)),
                                        ("near-order", (200, 3, 0.05))],
                         ids=["ties", "size-biased", "near-order", "near-order-200"])
def test_a_perturbed_conditional_probability_fails_the_chi_square_check(kind, point,
                                                                        monkeypatch):
    """The check that the samplers pass above fails a sampler whose q(4), one
    conditional probability of its rows, is raised by 1e-2; and a near-order sampler
    whose every gap ratio r_a is raised by 1e-2, at the uniform law's (n, ell, a) =
    (10, 2, 0.1) and at (200, 3, 0.05), whose law has sparse cells at both ends."""
    if kind == "near-order":
        law, (n, ell, a) = uniform_law(1.0), point
        spec, size = NearOrderSpec(law=law, n=n, ell=ell, a=a), 20_000
        exact = near_order_count_pmf(spec, 1e-12)
    else:
        law = geometric_law(0.5)
        spec, size = KnSpec(law=law, n=10), 10**6
        exact = _exact_law(kind, spec)

    def p_value():
        emp = empirical_law(kind, spec, RngStream(seed=12), size)
        return _chi_square_pvalue(emp, k_min=exact.k_min, pmf=exact.probs)

    assert p_value() >= 1e-3
    if kind == "near-order":
        # F is linear on the support, so F(y - 1e-2 x) = F(x - a) - 1e-2 F(x) at y = x - a
        raised = dataclasses.replace(law, logcdf=lambda y: law.logcdf(y - 1e-2 * (y + a)))
        spec = dataclasses.replace(spec, law=raised)
        assert p_value() < 1e-6
        return
    q4, spread = tie_given_max_prob(law, 4), montecarlo._spread

    def perturbed(rand, hist, count, trials, q, low, shift):
        spread(rand, hist, count, trials, q + 1e-2 if math.isclose(q, q4) else q, low, shift)

    monkeypatch.setattr(montecarlo, "_spread", perturbed)
    assert p_value() < 1e-6
