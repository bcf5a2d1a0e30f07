"""Exact tie-count law against brute-force oracles and closed-form identities."""

import dataclasses
import itertools
import math
import time

import mpmath as mp
import numpy as np
import pytest
from scipy import stats

from tiebound.approximants import log_pmf, negbin_pmf, poisson_pmf
from tiebound.binomial import _U
from tiebound.bounds_discrete import log_bound_singleton
from tiebound.bounds_continuous import (
    MixedBinomialSpec,
    NearOrderSpec,
    gap_ratio_moment,
    gumbel_gap_moment,
    gumbel_gap_moment_exact,
    gumbel_max_bound,
    uniform_gap_moment_exact,
)
from tiebound.distributions import DiscreteLaw, geometric_law, gumbel_law, tabulated_law
from tiebound.errors import DomainError, TruncationError
from tiebound.maxima import (
    _FIRST_BLOCK,
    _MAX_BLOCK,
    _SHORT,
    KnSpec,
    _sums,
    _tail_end,
    _tie_values,
    argmax_value_law,
    size_biased_tie_law,
    size_biased_tie_pmf,
    tie_count_factorial_moment,
    tie_count_law,
    tie_count_pmf,
    tie_given_max_moment,
    tie_given_max_prob,
)
from tiebound.stein import SteinTestFn, stein_residual, stein_solution

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

    def test_one_series_pass(self, monkeypatch):
        calls = []
        monkeypatch.setattr("tiebound.maxima._sums",
                            lambda *args, sums=_sums: calls.append(args) or sums(*args))
        size_biased_tie_pmf(KnSpec(law=geometric_law(0.3), n=10), 3)
        assert len(calls) == 1

    @pytest.mark.parametrize("p,n,count", [(0.3, 20, 250), (0.05, 50, 2000)])
    @pytest.mark.parametrize("tol", [1e-6, 1e-12])
    def test_within_tol_of_high_precision(self, p, n, count, tol):
        spec = KnSpec(law=geometric_law(p), n=n)
        _, star = _mp_tie_laws(_mp_geometric_weights(p, count), n, n)
        for k in (1, 2, 5, n):
            assert abs(size_biased_tie_pmf(spec, k, tol) - star[k]) <= tol

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
        assert np.exp(m_law.logcdf(1)) == pytest.approx(1.0 / 3.0, rel=1e-12)
        assert np.exp(m_law.logcdf(2)) == pytest.approx(1.0, rel=1e-12)

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
            true_tail = 1.0 - np.exp(m_law.logcdf(m))
            assert true_tail <= math.exp(m_law.log_tail(m)) + 1e-12


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


def _one_series(law, power, expo, shifted, log_tol, relative, short):
    """Reference: one series summed on its own, block by block, as before the
    engine summed several in one pass; the blocks up to ``_SHORT`` of a
    ``short`` pass from a ``range`` and by ``math.fsum``, the rest by numpy."""
    cap = law.support_max
    m, s, lo, size = -math.inf, 0.0, 1, _FIRST_BLOCK
    while True:
        hi = cap or lo + size - 1
        if short and hi <= _SHORT:
            lt = [power * math.log(x) if x > 0.0 else -math.inf
                  for x in law.pmf(range(lo, hi + 1))]
            if expo > 0:
                lf = law.logcdf(range(lo - shifted, hi + 1 - shifted))
                lt = [a + expo * b for a, b in zip(lt, lf)]
            top = max(lt)
        else:
            j = np.arange(lo, hi + 1)
            with np.errstate(divide="ignore"):
                lt = power * np.log(law.pmf(j))
                if expo > 0:
                    lt += expo * law.logcdf(j - 1 if shifted else j)
            top = float(lt.max())
        if top > m:
            s, m = s * math.exp(m - top), top
        if m > -math.inf:
            s += (math.fsum(math.exp(x - m) for x in lt) if short and hi <= _SHORT
                  else float(np.exp(lt - m).sum()))
        log_sum = m + math.log(s) if s > 0.0 else -math.inf
        log_rem = power * law.log_tail(hi)
        if log_rem <= log_tol + (log_sum if relative else 0.0):
            return log_sum, log_rem
        lo, size = hi + 1, min(2 * size, _MAX_BLOCK)


def _short(law, terms) -> bool:
    """Whether ``_sums`` takes ``terms`` as a short pass."""
    return law.takes_range and all(term[0] * law.log_tail(_SHORT) <= term[3] for term in terms)


def _four_terms(n):
    return [(1, n - 1, False, math.log(1e-14), True), (2, n - 2, True, -40.0, False),
            (3, n - 3, False, math.log(1e-6), True), (1, n - 1, True, -70.0, False)]


# the passes of _four_terms are short for geometric 1 - 1e-6 and long for the other
# geometric laws, but each of their terms alone is short for geometric 0.2 and 0.3;
# alone, the first term at geometric 0.2 and n = 1e9 needs a numpy block after its two
# Python blocks.  The tabulated law takes no range, so its passes are never short
SERIES_LAWS = [geometric_law(1e-3), geometric_law(0.2), geometric_law(0.3),
               geometric_law(1 - 1e-6), tabulated_law([0.2, 0.3, 0.5])]


@pytest.mark.parametrize("law", SERIES_LAWS)
@pytest.mark.parametrize("n", [3, 1000, 10**9])
def test_one_pass_equals_one_series_at_a_time(law, n):
    """Each series of a pass stops at its own block end, so its sum and
    remainder are those of the series summed alone with the pass's kind of
    blocks, to the last bit; and a series in a pass of its own is that series
    summed alone with its own kind."""
    terms = _four_terms(n)
    assert _short(law, terms) == (law.takes_range and law.descriptor["p"] > 0.5)
    assert _sums(law, terms) == [_one_series(law, *term, _short(law, terms)) for term in terms]
    for term in terms:
        assert _sums(law, [term]) == [_one_series(law, *term, _short(law, [term]))]


@pytest.mark.parametrize("p,n", [(0.3, 10), (0.5, 3), (1e-3, 10**5)])
def test_a_law_written_for_arrays_is_given_arrays(p, n):
    """A law built outside the package, whose pmf and logcdf take arrays by plain
    arithmetic (a ``range`` would break them), is given numpy blocks in short and
    long passes alike: its tie-count values are the geometric law's, which its
    first blocks sum in Python at (0.3, 10) and (0.5, 3)."""
    q = 1.0 - p
    law = DiscreteLaw(pmf=lambda j: p * q ** (j - 1), logcdf=lambda j: np.log1p(-q ** j),
                      log_tail=geometric_law(p).log_tail)
    geometric = dataclasses.replace(geometric_law(p), lattice_rate=None)
    for ours, theirs in zip(_tie_values(KnSpec(law, n), (1, 2), (1, 2, 3), 1e-12),
                            _tie_values(KnSpec(geometric, n), (1, 2), (1, 2, 3), 1e-12)):
        assert ours.value == pytest.approx(theirs.value, rel=1e-12, abs=0)
        assert ours.remainder == theirs.remainder


def _exact_sum(law, power, expo, shifted):
    """sum_{j>=1} p(j)**power F(j - shifted)**expo at 40 digits, for the laws of
    ``SERIES_LAWS``.  For a geometric law, with x = q**(j - shifted): terms with
    expo x > 300 lie under e**-300 and are left out; from the first j with
    expo x <= 1/2 on, the binomial series of (1 - x)**expo, whose i-th term is
    at most 2**-i / i!, sums the tail in closed form, to i = 80."""
    with mp.workdps(40):
        if law.lattice_rate is None:
            w = [mp.mpf(x) for x in law.descriptor["weights"]]
            return mp.fsum(w[j - 1]**power * mp.fsum(w[:j - shifted])**expo
                           for j in range(1, len(w) + 1))
        p = mp.mpf(law.descriptor["p"])
        q = 1 - p
        j = 1 + shifted + max(0, int(math.log(300.0 / expo) / math.log(float(q)))) if expo else 1
        terms, x, pj = [], q**(j - shifted), p**power * q**(power * (j - 1))
        while expo * x > 0.5:
            terms.append(pj * (1 - x)**expo)
            j, x, pj = j + 1, x * q, pj * q**power
        tail = mp.fsum(mp.binomial(expo, i) * (-1)**i * q**(power * (j - 1) + i * (j - shifted))
                       / (1 - q**(power + i)) for i in range(min(expo, 80) + 1))
        return mp.fsum(terms) + p**power * tail


@pytest.mark.parametrize("law", SERIES_LAWS)
@pytest.mark.parametrize("n", [3, 1000, 10**9])
def test_each_series_is_within_its_remainder_of_40_digit_values(law, n):
    """The exact sum lies between a series' partial sum and that sum plus its
    certified remainder, up to 4 units in the last place of its log-sum, in a
    pass of the four series and in a pass of its own, numpy's or Python's."""
    terms = _four_terms(n)
    for term, together in zip(terms, _sums(law, terms)):
        exact = mp.log(_exact_sum(law, *term[:3]))
        for log_sum, log_rem in (together, *_sums(law, [term])):
            slack = 4 * _U * max(1.0, abs(log_sum))
            with mp.workdps(40):
                high = mp.log(mp.exp(log_sum) + mp.exp(log_rem))
                assert log_sum - slack <= exact <= high + slack, term


# figure fig1's p grid; its n is 20 by default
FIG1_PS = np.linspace(0.02, 0.5, 25).tolist()
THM1A, THM2 = ((1, 2), (1,)), ((), (1, 2, 3))
# the specs behind the CLI outputs that summing short passes in Python moved in their
# last bits, with the tie-count values each reads
MOVED_OUTPUTS = {
    "figure fig1": [(p, 20, THM1A) for p in FIG1_PS],
    "figure fig1 --n 50": [(p, 50, THM1A) for p in FIG1_PS],
    "table1 --raw": [(1 - 500 / 10**8, 10**8, THM2)],
    "bound thm2 --p 0.2 --n 20": [(0.2, 20, THM2)],
    "bound thm1a --p 0.5 --n 2": [(0.5, 2, THM1A)],
    "bound thm2 --p 0.5 --n 3": [(0.5, 3, THM2)],
}


def _exact_tie_value(p, n, order, moment):
    """P(K = order), or E[(K)_order] if ``moment``, of a geometric law at 40 digits,
    with the log of its factor C(n, order) or (n)_order."""
    with mp.workdps(40):
        factor = mp.ff(n, order) if moment else mp.binomial(n, order)
        value = factor * _exact_sum(geometric_law(p), order, n - order, not moment)
        return value, float(mp.log(factor))


@pytest.mark.parametrize("command", MOVED_OUTPUTS)
def test_tie_values_behind_moved_outputs_are_within_their_remainders_of_40_digit_values(
        command):
    """Each value lies within its remainder, plus 4 units in the last place of
    the two logs it is formed from (its factor's and its series'), of the
    exact one: in closed form (fig1 up to p = 0.16) or from a short pass."""
    for p, n, (pmfs, moments) in MOVED_OUTPUTS[command]:
        values = _tie_values(KnSpec(geometric_law(p), n), pmfs, moments, 1e-12)
        wanted = [(k, False) for k in pmfs] + [(r, True) for r in moments]
        for (order, moment), value in zip(wanted, values):
            exact, log_factor = _exact_tie_value(p, n, order, moment)
            logs = abs(log_factor) + abs(math.log(value.value) - log_factor)
            slack = 4 * _U * value.value * max(1.0, logs)
            with mp.workdps(40):
                assert abs(value.value - exact) <= value.remainder + slack, (p, n, order, moment)


FIG1_FOUND = (
    "FOUND: thm1a's series-path truncation_error leaves out rounding: on figure fig1's "
    "grid (n = 20) it reads 0.0 at 8 of the 17 series points (p = 0.2, 0.22, 0.3, 0.32, "
    "0.34, 0.36, 0.48, 0.5) and 1.3e-15 at p = 0.46, where the bound is up to 4.1e-15 "
    "off its 40-digit value (ROADMAP item 4)")


@pytest.mark.xfail(strict=True, reason=FIG1_FOUND)
def test_fig1_thm1a_bounds_are_within_their_truncation_error_of_40_digit_values():
    misses = []
    for p in FIG1_PS:
        (pk1, _), (pk2, _), (e1, _) = (_exact_tie_value(p, 20, order, moment)
                                       for order, moment in ((1, False), (2, False), (1, True)))
        report = log_bound_singleton(KnSpec(geometric_law(p), 20), 1e-12)
        with mp.workdps(40):
            alpha = 1 - pk1 / e1
            exact = -2 * mp.log1p(-alpha) * (e1 - 2 * (1 - alpha) / alpha * pk2)
            if abs(report.bound - exact) > report.truncation_error:
                misses.append(p)
    assert misses == []


TAIL_LAWS = {
    "geometric-0.3": geometric_law(0.3),
    "geometric-1e-3": geometric_law(1e-3),
    "tabulated": tabulated_law([0.2, 0.3, 0.5]),
    "argmax-geometric": argmax_value_law(KnSpec(law=geometric_law(0.05), n=50)),
    "argmax-tabulated": argmax_value_law(KnSpec(law=tabulated_law([0.2, 0.3, 0.5]), n=7)),
}


@pytest.mark.parametrize("name", TAIL_LAWS)
@pytest.mark.parametrize("log_bound", [0.5, 0.0, -1e-3, math.log(1e-12), math.log(2.0**-53)])
def test_tail_end_is_the_first_index_the_tail_meets(name, log_bound):
    """The doubling-then-bisecting search finds what a scan from j = 1 finds;
    a finitely supported law's tail meets any negative bound first at m."""
    law = TAIL_LAWS[name]
    first = next(j for j in itertools.count(1) if law.log_tail(j) <= log_bound)
    assert _tail_end(law, log_bound) == first
    if law.support_max is not None and log_bound < 0.0:
        assert first == law.support_max


def _stopped_sum(law, term):
    """``_sums`` of one term, with the block end J where it stopped."""
    ends = []
    traced = dataclasses.replace(law, log_tail=lambda j: ends.append(j) or law.log_tail(j))
    (log_sum, log_rem), = _sums(traced, [term])
    return log_rem, ends[-1]


@pytest.mark.parametrize("p,n", [(0.05, 5), (0.3, 50), (0.7, 20)])
@pytest.mark.parametrize("power,shifted", [(1, False), (1, True), (2, True)])
def test_series_remainder_covers_the_40_digit_omitted_sum(p, n, power, shifted):
    """sum_{j>J} p(j)**power F(j or j-1)**(n-power), summed in 40 digits, lies
    within the remainder at the J where the series stopped: the law's
    ``log_tail`` counts the rounding of J log1p(-p).  The negative control
    halves the law's tail bound: with power 1 the bound is nearly the omitted
    sum itself, so the halved one falls short of it."""
    law = dataclasses.replace(geometric_law(p), lattice_rate=None)
    term = (power, n - power, shifted, math.log(1e-12), True)
    with mp.workdps(40):
        q = 1 - mp.mpf(p)

        def omitted(end):
            j = range(end + 1, end + 1 + int(120.0 / -math.log1p(-p)))  # past it: e**-120
            return mp.fsum((p * q**(i - 1))**power * (1 - q**(i - shifted))**(n - power)
                           for i in j)

        log_rem, end = _stopped_sum(law, term)
        assert mp.exp(log_rem) >= omitted(end)
        if power == 1:
            halved = dataclasses.replace(law, log_tail=lambda j: law.log_tail(j) - math.log(2.0))
            log_rem, end = _stopped_sum(halved, term)
            assert mp.exp(log_rem) < omitted(end)


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


def test_specs_reject_a_law_of_the_wrong_kind():
    with pytest.raises(DomainError, match="discrete law"):
        KnSpec(law=gumbel_law(), n=10)
    with pytest.raises(DomainError, match="continuous law"):
        NearOrderSpec(law=geometric_law(0.2), n=10, ell=1, a=0.1)


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
    cap and reports the largest open tail certificate there, q**J at J = cap,
    which is the first moment's, for one series or several.  The
    law has no lattice rate: the closed form would certify these moments."""
    cap = 1000
    monkeypatch.setattr("tiebound.maxima._SERIES_CAP", cap)
    law = dataclasses.replace(geometric_law(1e-7), lattice_rate=None)
    certificate = (1.0 - 1e-7) ** cap
    for orders in (1, (1, 2, 3)):
        with pytest.raises(TruncationError) as exc:
            tie_count_factorial_moment(KnSpec(law=law, n=5), orders, TOL)
        assert math.isfinite(exc.value.best_bound)
        # one term more or less moves the certificate by a factor q = 1 - 1e-7
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
_NEAR = NearOrderSpec(law=gumbel_law(), n=10, ell=1, a=0.3)
_TEST = SteinTestFn(members=frozenset({1, 3}), alpha=0.5)
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
    "tie_given_max_moment": lambda v: tie_given_max_moment(_SPEC, v),
    "gap_ratio_moment": lambda v: gap_ratio_moment(_NEAR, v),
    "gumbel_gap_moment.n": lambda v: gumbel_gap_moment(v, 0.3, 1),
    "gumbel_gap_moment.j": lambda v: gumbel_gap_moment(10, 0.3, v),
    "gumbel_gap_moment_exact.n": lambda v: gumbel_gap_moment_exact(v, 1, 0.3, 1),
    "uniform_gap_moment_exact.ell": lambda v: uniform_gap_moment_exact(10, v, 0.1, 1.0, 1),
    "gumbel_max_bound.n": lambda v: gumbel_max_bound(v, 0.3),
    "log_pmf": lambda v: log_pmf(0.5, v),
    "poisson_pmf": lambda v: poisson_pmf(1.0, v),
    "negbin_pmf": lambda v: negbin_pmf(2.0, 0.5, v),
    "SteinTestFn.members": lambda v: SteinTestFn(members=frozenset({v}), alpha=0.5).members,
    "stein_solution": lambda v: stein_solution(_TEST, v),
    "stein_residual": lambda v: stein_residual(_TEST, v),
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


@pytest.mark.parametrize("tol", [math.inf, math.nan, -1.0, 0.0])
def test_tolerance_must_be_positive_and_finite(tol):
    spec = KnSpec(law=geometric_law(0.5), n=5)
    with pytest.raises(DomainError):
        tie_count_law(spec, tol)
    with pytest.raises(DomainError):
        tie_count_factorial_moment(spec, 1, tol)
    with pytest.raises(DomainError):
        tie_given_max_moment(spec, 1, tol)
