"""Exact tie-count law against brute-force oracles and closed-form identities."""

import itertools
import math
import time

import mpmath as mp
import numpy as np
import pytest
from scipy import stats

from tiebound.bounds_continuous import MixedBinomialSpec, NearOrderSpec
from tiebound.distributions import geometric_law, gumbel_law, tabulated_law
from tiebound.errors import DomainError, TruncationError
from tiebound.maxima import (
    _FIRST_BLOCK,
    _MAX_BLOCK,
    KnSpec,
    _sums,
    argmax_value_law,
    size_biased_tie_law,
    size_biased_tie_pmf,
    tie_count_factorial_moment,
    tie_count_law,
    tie_count_pmf,
    tie_given_max_moment,
    tie_given_max_prob,
)

TOL = 1e-12


def enumerate_tie_pmf(weights, n):
    """Oracle: exact tie-count pmf by summing over every sample tuple."""
    m = len(weights)
    out = {}
    for tup in itertools.product(range(1, m + 1), repeat=n):
        prob = math.prod(weights[i - 1] for i in tup)
        if prob == 0.0:
            continue
        k = tup.count(max(tup))
        out[k] = out.get(k, 0.0) + prob
    return out


ENUM_LAWS = [
    [0.5, 0.5],
    [0.2, 0.3, 0.5],
    [0.1, 0.2, 0.3, 0.4],
    [0.5, 0.0, 0.5],
    [1.0],
]


@pytest.mark.parametrize("weights", ENUM_LAWS)
@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_pmf_matches_exhaustive_enumeration(weights, n):
    spec = KnSpec(law=tabulated_law(weights), n=n)
    oracle = enumerate_tie_pmf(weights, n)
    for k in range(1, n + 1):
        assert tie_count_pmf(spec, k, TOL) == pytest.approx(oracle.get(k, 0.0), abs=1e-12)


def test_hand_values_two_point_law():
    spec = KnSpec(law=tabulated_law([0.5, 0.5]), n=2)
    assert tie_count_pmf(spec, 1) == pytest.approx(0.5, abs=1e-13)
    assert tie_count_pmf(spec, 2) == pytest.approx(0.5, abs=1e-13)
    assert tie_count_factorial_moment(spec, 1) == pytest.approx(1.5, rel=1e-12)
    assert tie_count_factorial_moment(spec, 2) == pytest.approx(1.0, rel=1e-12)


def test_single_observation_is_its_own_maximum():
    for law in (geometric_law(0.4), tabulated_law([0.2, 0.8])):
        spec = KnSpec(law=law, n=1)
        assert tie_count_pmf(spec, 1) == pytest.approx(1.0, abs=1e-12)
        assert tie_count_factorial_moment(spec, 1) == pytest.approx(1.0, rel=1e-12)


def test_geometric_all_tied_closed_form():
    # P(K = n) = sum_j p(j)^n = p^n / (1 - (1-p)^n); for n = 2: p/(2-p)
    spec = KnSpec(law=geometric_law(0.5), n=2)
    assert tie_count_pmf(spec, 2) == pytest.approx(1.0 / 3.0, abs=1e-12)


@pytest.mark.parametrize("p", [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9])
@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 8, 13, 21, 30])
def test_normalization_geometric_grid(p, n):
    spec = KnSpec(law=geometric_law(p), n=n)
    total = math.fsum(tie_count_pmf(spec, k, TOL) for k in range(1, n + 1))
    assert abs(total - 1.0) < n * TOL + 1e-10


@pytest.mark.parametrize("p,n", [(0.2, 6), (0.5, 10), (0.8, 15)])
def test_moment_consistency(p, n):
    """Factorial moments agree with sums of (k)_ell against the pmf."""
    spec = KnSpec(law=geometric_law(p), n=n)
    for ell in (1, 2, 3):
        direct = tie_count_factorial_moment(spec, ell, TOL)
        falling = math.fsum(
            math.prod(k - i for i in range(ell)) * tie_count_pmf(spec, k, TOL)
            for k in range(1, n + 1)
        )
        assert direct == pytest.approx(falling, rel=2e-11)


def test_full_law_tail_certificates():
    law = tie_count_law(KnSpec(law=geometric_law(0.3), n=20), 1e-10)
    assert law.k_min == 1
    assert law.tail_mass_bound <= 1e-10
    assert abs(law.total() + law.tail_mass_bound - 1.0) < 2e-10

    point = tie_count_law(KnSpec(law=tabulated_law([1.0]), n=5), 1e-12)
    assert point.prob(5) == pytest.approx(1.0, abs=1e-12)

    two = tie_count_law(KnSpec(law=tabulated_law([0.4, 0.6]), n=2), 1e-12)
    assert two.k_max == 2
    assert two.tail_mass_bound <= 1e-12


class TestSizeBiased:
    def test_hand_values(self):
        spec = KnSpec(law=tabulated_law([0.5, 0.5]), n=2)
        assert size_biased_tie_pmf(spec, 1) == pytest.approx(1.0 / 3.0, rel=1e-11)
        assert size_biased_tie_pmf(spec, 2) == pytest.approx(2.0 / 3.0, rel=1e-11)

    def test_single_observation(self):
        spec = KnSpec(law=geometric_law(0.3), n=1)
        assert size_biased_tie_pmf(spec, 1) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("p,n", [(0.3, 8), (0.6, 12)])
    def test_normalization_and_identity(self, p, n):
        spec = KnSpec(law=geometric_law(p), n=n)
        e1 = tie_count_factorial_moment(spec, 1, TOL)
        total = 0.0
        for k in range(1, n + 1):
            star = size_biased_tie_pmf(spec, k, TOL)
            assert star == pytest.approx(k * tie_count_pmf(spec, k, TOL) / e1, rel=1e-10)
            total += star
        assert total == pytest.approx(1.0, abs=1e-10)

    @pytest.mark.parametrize("p,n", [(0.3, 6), (0.5, 9)])
    def test_mixed_binomial_representation(self, p, n):
        """P(K* = k) is a Bin(n-1, q(M)) mixture shifted up by one."""
        law = geometric_law(p)
        spec = KnSpec(law=law, n=n)
        m_law = argmax_value_law(spec)
        m_top = 80  # mass beyond is far below the comparison tolerance
        for k in range(1, n + 1):
            mix = math.fsum(
                m_law.pmf(m) * stats.binom.pmf(k - 1, n - 1, tie_given_max_prob(law, m))
                for m in range(1, m_top)
            )
            assert size_biased_tie_pmf(spec, k, TOL) == pytest.approx(mix, abs=1e-10)


class TestArgmaxLaw:
    def test_hand_values(self):
        spec = KnSpec(law=tabulated_law([0.5, 0.5]), n=2)
        m_law = argmax_value_law(spec)
        assert m_law.pmf(1) == pytest.approx(1.0 / 3.0, rel=1e-12)
        assert m_law.pmf(2) == pytest.approx(2.0 / 3.0, rel=1e-12)
        assert m_law.cdf(1) == pytest.approx(1.0 / 3.0, rel=1e-12)
        assert m_law.cdf(2) == pytest.approx(1.0, rel=1e-12)

    def test_single_observation_returns_base_law(self):
        base = geometric_law(0.4)
        assert argmax_value_law(KnSpec(law=base, n=1)) is base

    def test_positive_everywhere_and_normalized(self):
        m_law = argmax_value_law(KnSpec(law=geometric_law(0.5), n=4))
        values = [m_law.pmf(m) for m in range(1, 60)]
        assert all(v > 0 for v in values)
        assert math.fsum(values) == pytest.approx(1.0, abs=1e-12)

    def test_tail_certificate(self):
        m_law = argmax_value_law(KnSpec(law=geometric_law(0.3), n=5))
        for m in (1, 5, 10, 30):
            true_tail = 1.0 - m_law.cdf(m)
            assert true_tail <= m_law.tail_const * m_law.tail_ratio**m + 1e-12


class TestTieGivenMax:
    def test_first_atom_is_certain(self):
        assert tie_given_max_prob(tabulated_law([0.3, 0.7]), 1) == 1.0
        assert tie_given_max_prob(geometric_law(0.2), 1) == 1.0

    def test_geometric_closed_form(self):
        p = 0.45
        law = geometric_law(p)
        for m in range(1, 20):
            expected = (p * (1 - p) ** (m - 1)) / (1 - (1 - p) ** m)
            assert tie_given_max_prob(law, m) == pytest.approx(expected, rel=1e-12)

    def test_tabulated(self):
        assert tie_given_max_prob(tabulated_law([0.5, 0.5]), 2) == 0.5

    def test_vanishing_cdf_rejected(self):
        with pytest.raises(DomainError):
            tie_given_max_prob(tabulated_law([0.0, 1.0]), 1)

    def test_arrays_match_scalar_calls(self):
        law = geometric_law(0.45)
        m = np.arange(1, 20)
        expected = [tie_given_max_prob(law, int(j)) for j in m]
        np.testing.assert_array_equal(tie_given_max_prob(law, m), expected)


class TestTieGivenMaxMoments:
    def test_hand_value(self):
        # oracle: exact fractions give E[q(M)] = 2/3 for the fair two-point law
        spec = KnSpec(law=tabulated_law([0.5, 0.5]), n=2)
        assert tie_given_max_moment(spec, 1) == pytest.approx(2.0 / 3.0, rel=1e-12)

    def test_degenerate_law(self):
        spec = KnSpec(law=tabulated_law([1.0]), n=5)
        assert tie_given_max_moment(spec, 1) == pytest.approx(1.0, rel=1e-12)
        assert tie_given_max_moment(spec, 2) == pytest.approx(1.0, rel=1e-12)

    def test_factorial_moment_identities(self):
        """E[q(M)] and E[q(M)^2] match their falling-moment expressions."""
        for p, n in ((0.2, 5), (0.4, 10), (0.7, 8)):
            spec = KnSpec(law=geometric_law(p), n=n)
            e1 = tie_count_factorial_moment(spec, 1, TOL)
            e2 = tie_count_factorial_moment(spec, 2, TOL)
            e3 = tie_count_factorial_moment(spec, 3, TOL)
            q1 = tie_given_max_moment(spec, 1, TOL)
            q2 = tie_given_max_moment(spec, 2, TOL)
            assert q1 == pytest.approx(e2 / ((n - 1) * e1), rel=2e-11)
            assert q2 == pytest.approx(e3 / ((n - 1) * (n - 2) * e1), rel=2e-11)

    def test_frozen_identity_value(self):
        # independent float summation oracle, p = 0.4, n = 10
        spec = KnSpec(law=geometric_law(0.4), n=10)
        assert tie_given_max_moment(spec, 2) == pytest.approx(0.012321624661358955, rel=1e-11)

    def test_domain(self):
        spec = KnSpec(law=geometric_law(0.4), n=2)
        with pytest.raises(DomainError):
            tie_given_max_moment(spec, 2)
        with pytest.raises(DomainError):
            tie_given_max_moment(spec, 3)
        with pytest.raises(DomainError):
            tie_given_max_moment(KnSpec(law=geometric_law(0.4), n=1), 1)


def _one_series(law, power, expo, shifted, log_tol, relative):
    """Reference: one series summed on its own, block by block, as before the
    engine summed several in one pass."""
    cap = law.support_max
    m, s, lo, size = -math.inf, 0.0, 1, _FIRST_BLOCK
    while True:
        hi = cap or lo + size - 1
        j = np.arange(lo, hi + 1)
        with np.errstate(divide="ignore"):
            lt = power * np.log(law.pmf(j))
            if expo > 0:
                lt += expo * law.logcdf(j - 1 if shifted else j)
        top = float(lt.max())
        if top > m:
            s, m = s * math.exp(m - top), top
        if m > -math.inf:
            s += float(np.exp(lt - m).sum())
        log_sum = m + math.log(s) if s > 0.0 else -math.inf
        log_rem = -math.inf if cap else (power * (math.log(law.tail_const) + hi * math.log(
            law.tail_ratio)) - math.log1p(-law.tail_ratio**power))
        if log_rem <= log_tol + (log_sum if relative else 0.0):
            return log_sum, log_rem
        lo, size = hi + 1, min(2 * size, _MAX_BLOCK)


@pytest.mark.parametrize("law", [geometric_law(1e-3), geometric_law(0.3), geometric_law(1 - 1e-6),
                                 tabulated_law([0.2, 0.3, 0.5])])
@pytest.mark.parametrize("n", [3, 1000, 10**9])
def test_one_pass_equals_one_series_at_a_time(law, n):
    """Each series of a pass stops at its own block end, so its sum and
    remainder are those of the series summed alone, to the last bit."""
    terms = [(1, n - 1, False, math.log(1e-14), True), (2, n - 2, True, -40.0, False),
             (3, n - 3, False, math.log(1e-6), True), (1, n - 1, True, -70.0, False)]
    assert _sums(law, terms) == [_one_series(law, *term) for term in terms]


@pytest.mark.parametrize("law", [geometric_law(1e-3), geometric_law(0.3),
                                 tabulated_law([0.2, 0.3, 0.5])])
@pytest.mark.parametrize("n", [3, 7, 10**5])
def test_sequence_gives_the_scalar_values(law, n):
    """One pass over several orders returns exactly what one call per order does."""
    spec = KnSpec(law=law, n=n)
    for fn, orders, tol in ((tie_count_pmf, (2, 1, 3, n), 1e-13),
                            (tie_count_factorial_moment, (1, 2, 3), TOL)):
        got = fn(spec, orders, tol)
        assert type(got) is tuple
        assert got == tuple(fn(spec, v, tol) for v in orders)
    assert tie_count_pmf(spec, ()) == ()


def test_domain_errors():
    spec = KnSpec(law=geometric_law(0.5), n=5)
    with pytest.raises(DomainError):
        tie_count_pmf(spec, 0)
    with pytest.raises(DomainError):
        tie_count_pmf(spec, 6)
    with pytest.raises(DomainError):
        tie_count_factorial_moment(spec, 6)
    with pytest.raises(DomainError):
        tie_count_factorial_moment(spec, (1, 6))
    with pytest.raises(DomainError):
        tie_count_pmf(spec, (1, 2), tol=0.0)
    with pytest.raises(DomainError):
        KnSpec(law=geometric_law(0.5), n=0)


def test_huge_sample_sizes_stay_finite():
    """Moment series for p = 1 - mu/n remain certified at n = 1e9."""
    n = 10**9
    law = geometric_law(1.0 - 100.0 / n)
    spec = KnSpec(law=law, n=n)
    e1 = tie_count_factorial_moment(spec, 1, TOL)
    e2 = tie_count_factorial_moment(spec, 2, TOL)
    e3 = tie_count_factorial_moment(spec, 3, TOL)
    assert 99.0 < e2 / e1 < 101.0
    assert e3 > 0.0 and math.isfinite(e3)


@pytest.mark.parametrize("n", [10**7, 10**9])
def test_full_law_sums_to_one_at_huge_n(n):
    """F(j) rounds to 1 in the series bulk; raised to the power n that rounding
    used to move the law's total by up to 3e-10 and stall its tail cut."""
    spec = KnSpec(law=geometric_law(1e-3), n=n)
    start = time.perf_counter()
    law = tie_count_law(spec, 1e-12)
    elapsed = time.perf_counter() - start
    assert abs(1.0 - math.fsum(law.probs.tolist())) <= 1e-12
    assert elapsed < 1.0


def test_series_cap_is_honoured_between_block_ends(monkeypatch):
    """With the term cap off any block boundary, the engine stops at exactly the
    cap and reports the largest open tail certificate there, C r**J / (1 - r)
    at J = cap, which is the first moment's, for one series or several."""
    cap = 1000
    monkeypatch.setattr("tiebound.maxima._SERIES_CAP", cap)
    law = geometric_law(1e-7)
    r = law.tail_ratio
    certificate = law.tail_const * r**cap / (1.0 - r)
    for orders in (1, (1, 2, 3)):
        with pytest.raises(TruncationError) as exc:
            tie_count_factorial_moment(KnSpec(law=law, n=5), orders, TOL)
        assert math.isfinite(exc.value.best_bound)
        # one term more or less moves the certificate by a factor r = 1 - 1e-7
        assert exc.value.best_bound == pytest.approx(certificate, rel=1e-9)


@pytest.mark.parametrize("p", [0.01, 1e-3])
@pytest.mark.parametrize("n", [10**4, 10**7, 10**9])
def test_law_certificate_covers_its_rounding(p, n):
    """The entries' distance from a total of 1 is omitted mass plus rounding."""
    law = tie_count_law(KnSpec(law=geometric_law(p), n=n), 1e-12)
    assert abs(1.0 - math.fsum(law.probs.tolist())) <= law.tail_mass_bound


def _mp_tie_laws(weights, n, k_max):
    """P(K = k) and P(K* = k) for k = 0, ..., k_max at 40 digits.

    ``weights`` yields p(1), p(2), ...; P(K = k) = C(n, k) sum_j p(j)**k
    F(j-1)**(n-k), and P(K* = k) = k P(K = k) / E[K] with E[K] = n sum_j
    p(j) F(j)**(n-1).  Terms far below 1e-60 past a row's mode are skipped.
    """
    with mp.workdps(40):
        tie = [mp.mpf(0)] * (k_max + 1)
        z, f0, f0_n = mp.mpf(0), mp.mpf(0), mp.mpf(0)
        for p in weights:
            p = mp.mpf(p)
            f1 = f0 + p
            f1_n1 = f1 ** (n - 1)
            z += p * f1_n1
            if f0 == 0:
                if n <= k_max:
                    tie[n] += p**n
            else:
                term, ratio = f0_n, p / f0
                for k in range(1, k_max + 1):
                    term *= ratio * (n - k + 1) / k
                    tie[k] += term
                    if term < 1e-60 and k > 2 * n * ratio:
                        break
            f0, f0_n = f1, f1_n1 * f1
        return tie, [k * v / (n * z) for k, v in enumerate(tie)]


def _mp_geometric_weights(p, count):
    with mp.workdps(40):
        p = mp.mpf(p)
        return [p * (1 - p) ** (j - 1) for j in range(1, count + 1)]


@pytest.mark.parametrize("law, weights, n, k_max", [
    pytest.param(geometric_law(0.3), lambda: _mp_geometric_weights(0.3, 250), 20, 20,
                 id="geometric-0.3-20"),
    pytest.param(geometric_law(0.01), lambda: _mp_geometric_weights(0.01, 11000), 10**4, 60,
                 id="geometric-0.01-1e4"),
    pytest.param(tabulated_law([0.2, 0.3, 0.5]), lambda: [0.2, 0.3, 0.5], 7, 7,
                 id="tabulated-7"),
])
def test_laws_match_high_precision(law, weights, n, k_max):
    """L1 distance to the 40-digit laws, with the mass they put above k_max."""
    spec = KnSpec(law=law, n=n)
    tie, star = _mp_tie_laws(weights(), n, k_max)
    for got, exact in ((tie_count_law(spec, 1e-12), tie),
                       (size_biased_tie_law(spec, 1e-12), star)):
        with mp.workdps(40):
            l1 = mp.fsum(abs(mp.mpf(got.prob(k)) - exact[k]) for k in range(1, k_max + 1))
            l1 += mp.fsum(got.probs[max(0, k_max + 1 - got.k_min):].tolist())
            l1 += 1 - mp.fsum(exact)
        assert l1 <= got.tail_mass_bound, (float(l1), got.tail_mass_bound)


@pytest.mark.parametrize("law", [geometric_law(p) for p in (0.1, 0.3, 0.5, 0.7, 0.9)]
                         + [tabulated_law(w) for w in ENUM_LAWS])
@pytest.mark.parametrize("n", [1, 2, 5, 13, 30])
def test_laws_agree_with_per_outcome_values(law, n):
    """Both mixture laws against the per-k series, within both budgets."""
    spec = KnSpec(law=law, n=n)
    for law_fn, pmf in ((tie_count_law, tie_count_pmf), (size_biased_tie_law, size_biased_tie_pmf)):
        got = law_fn(spec, TOL)
        l1 = math.fsum(abs(got.prob(k) - pmf(spec, k, TOL)) for k in range(1, n + 1))
        assert l1 <= got.tail_mass_bound + n * TOL


def test_two_point_law_at_a_million_outcomes():
    start = time.perf_counter()
    law = tie_count_law(KnSpec(law=tabulated_law([0.5, 0.5]), n=10**6))
    assert time.perf_counter() - start < 1.0
    assert abs(1.0 - law.total()) <= law.tail_mass_bound


def test_all_tied_law_at_a_billion():
    spec = KnSpec(law=tabulated_law([0.0, 1.0]), n=10**9)
    elapsed = []
    for _ in range(3):
        start = time.perf_counter()
        law = tie_count_law(spec)
        elapsed.append(time.perf_counter() - start)
    assert min(elapsed) < 0.1
    assert law.k_min == 10**9 and law.probs.tolist() == [1.0]


def test_mass_at_both_ends_does_not_fit():
    """At p = 1 - 2/n the law holds e**-2 at k = n and the rest near k = 2."""
    n = 10**9
    spec = KnSpec(law=geometric_law(1.0 - 2.0 / n), n=n)
    start = time.perf_counter()
    with pytest.raises(TruncationError) as exc:
        tie_count_law(spec)
    assert time.perf_counter() - start < 1.0
    assert 0.0 < exc.value.best_bound < 1.0


def test_all_tied_probability_at_a_billion():
    """P(K = n) is p**n for the float p, which is 5.6e-8 relative below e**-2."""
    n = 10**9
    p = 1.0 - 2.0 / n
    with mp.workdps(40):
        exact = mp.mpf(p) ** n
    assert abs(tie_count_pmf(KnSpec(law=geometric_law(p), n=n), n) - exact) <= 1e-12


_SPEC = KnSpec(law=geometric_law(0.5), n=5)
INTEGER_SITES = {
    "KnSpec.n": lambda v: KnSpec(law=geometric_law(0.5), n=v).n,
    "NearOrderSpec.n": lambda v: NearOrderSpec(law=gumbel_law(), n=v, ell=1, a=0.3).n,
    "NearOrderSpec.ell": lambda v: NearOrderSpec(law=gumbel_law(), n=5, ell=v, a=0.3).ell,
    "MixedBinomialSpec.n": lambda v: MixedBinomialSpec(n=v, ell=1, eq=0.1, eq2=0.02).n,
    "MixedBinomialSpec.ell": lambda v: MixedBinomialSpec(n=5, ell=v, eq=0.1, eq2=0.02).ell,
    "tie_count_pmf": lambda v: tie_count_pmf(_SPEC, v),
    "tie_count_factorial_moment": lambda v: tie_count_factorial_moment(_SPEC, v),
    "size_biased_tie_pmf": lambda v: size_biased_tie_pmf(_SPEC, v),
    "tie_count_pmf sequence": lambda v: tie_count_pmf(_SPEC, (1, v)),
    "tie_count_factorial_moment sequence": lambda v: tie_count_factorial_moment(_SPEC, [1, v]),
}


@pytest.mark.parametrize("site", INTEGER_SITES.values(), ids=INTEGER_SITES.keys())
def test_integer_arguments(site):
    """Any integer type passes and is stored as a Python int; bool does not."""
    for value in (np.int64(2), np.uint8(2)):
        got = site(value)
        assert got == site(2) and type(got) is type(site(2))
    for bad in (True, False, 2.0, "2"):
        with pytest.raises(DomainError):
            site(bad)
