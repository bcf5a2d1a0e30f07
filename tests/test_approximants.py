"""Target pmfs, certified truncation, and the total-variation interval."""

import math
import time
from itertools import combinations

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from tiebound.approximants import (
    TruncatedPMF,
    _dense,
    log_pmf,
    negbin_pmf,
    poisson_pmf,
    positive_part_distance,
    truncate_law,
    truncated_geometric,
    truncated_log,
    truncated_negbin,
    truncated_poisson,
    tv_distance,
)
from tiebound.binomial import _gamma
from tiebound.errors import DomainError, TruncationError


class TestLogPMF:
    def test_values(self):
        # oracle: 40-digit evaluation of -alpha^k / (k log(1-alpha))
        assert log_pmf(0.5, 1) == pytest.approx(0.7213475204444817, rel=1e-14)
        assert log_pmf(0.5, 2) == pytest.approx(0.18033688011112042, rel=1e-14)

    @pytest.mark.parametrize("alpha", [0.1, 0.37, 0.8])
    def test_normalization(self, alpha):
        kmax = int(math.log(1e-17) / math.log(alpha)) + 10
        total = math.fsum(log_pmf(alpha, k) for k in range(1, kmax))
        assert abs(total - 1.0) < 1e-13

    def test_mean_identity(self):
        # mean of L(alpha) is -alpha / ((1-alpha) log(1-alpha))
        alpha = 0.37
        kmax = 2000
        mean = math.fsum(k * log_pmf(alpha, k) for k in range(1, kmax))
        assert mean == pytest.approx(1.2711179956066767, abs=1e-10)

    def test_domain(self):
        with pytest.raises(DomainError):
            log_pmf(1.0, 1)
        with pytest.raises(DomainError):
            log_pmf(0.5, 0)


class TestPoissonPMF:
    def test_values(self):
        assert poisson_pmf(1.0, 0) == pytest.approx(math.exp(-1.0), rel=1e-15)
        assert poisson_pmf(2.0, 2) == pytest.approx(0.2706705664732254, rel=1e-14)

    def test_normalization(self):
        total = math.fsum(poisson_pmf(1.0, k) for k in range(0, 51))
        assert abs(total - 1.0) < 1e-15

    def test_domain(self):
        with pytest.raises(DomainError):
            poisson_pmf(0.0, 1)
        with pytest.raises(DomainError):
            poisson_pmf(1.0, -1)


class TestNegBinPMF:
    def test_values(self):
        assert negbin_pmf(1.0, 0.5, 0) == 0.5
        assert negbin_pmf(1.0, 0.5, 3) == 0.0625
        assert negbin_pmf(2.0, 0.5, 1) == pytest.approx(0.25, rel=1e-14)

    def test_unit_shape_is_exactly_geometric(self):
        beta = 0.73
        for k in range(65):
            assert negbin_pmf(1.0, beta, k) == (1.0 - beta) * beta**k

    def test_recurrence(self):
        # P(k+1) = P(k) * beta (ell + k) / (k + 1)
        ell, beta = 2.5, 0.4
        prev = negbin_pmf(ell, beta, 0)
        for k in range(60):
            nxt = negbin_pmf(ell, beta, k + 1)
            assert nxt == pytest.approx(prev * beta * (ell + k) / (k + 1), rel=1e-12)
            prev = nxt

    def test_matches_scipy(self):
        ell, beta = 3.2, 0.6
        ks = np.arange(0, 40)
        ours = np.array([negbin_pmf(ell, beta, int(k)) for k in ks])
        ref = stats.nbinom.pmf(ks, ell, 1.0 - beta)
        np.testing.assert_allclose(ours, ref, rtol=1e-12)


class TestTruncation:
    def test_poisson_certificate(self):
        law = truncated_poisson(1.0, 1e-10)
        assert law.tail_mass_bound <= 1e-10
        # certificate must dominate the true omitted mass
        assert stats.poisson.sf(law.k_max, 1.0) <= law.tail_mass_bound
        assert law.k_max >= 12

    def test_geometric_certificate(self):
        law = truncated_negbin(1.0, 0.5, 1e-12)
        assert law.tail_mass_bound <= 1e-12
        assert law.k_max == pytest.approx(40, abs=2)
        assert 0.5 ** (law.k_max + 1) <= law.tail_mass_bound

    def test_finite_law_truncates_with_zero_tail(self):
        weights = [0.2, 0.3, 0.5]
        law = truncate_law(
            pmf=lambda k: weights[k - 1] if k <= 3 else 0.0,
            tail_after=lambda k: 0.0 if k >= 3 else 1.0,
            tol=1e-15,
            k_min=1,
        )
        assert law.tail_mass_bound == 0.0
        assert law.total() == pytest.approx(1.0, abs=0)

    def test_unreachable_tolerance_raises(self):
        with pytest.raises(TruncationError) as exc:
            truncate_law(lambda k: 0.0, lambda k: 0.5, tol=1e-3, max_terms=50)
        assert exc.value.best_bound == 0.5

    @pytest.mark.parametrize("target", [lambda tol: truncated_negbin(1.0, 0.5, tol),
                                        lambda tol: truncated_geometric(0.5, tol)],
                             ids=["negbin", "geometric"])
    def test_a_geometric_tolerance_below_the_rounding_floor_raises_at_once(self, target):
        # gamma(7) of the certificate counts the entries' rounding, so no row meets less;
        # the raise comes before the row, not after 1e7 entries of it
        start = time.perf_counter()
        with pytest.raises(TruncationError) as exc:
            target(1e-16)
        assert time.perf_counter() - start < 0.1
        assert exc.value.best_bound == _gamma(7)
        assert target(1.1 * _gamma(7)).tail_mass_bound <= 1.1 * _gamma(7)

    def test_shifted_geometric(self):
        law = truncated_geometric(0.5, 1e-12)
        assert law.k_min == 1
        assert law.prob(1) == 0.5
        assert law.prob(3) == 0.125

    def test_mass_plus_tail_covers_one(self):
        for law in (truncated_log(0.6, 1e-12), truncated_poisson(2.5, 1e-12),
                    truncated_negbin(1.5, 0.4, 1e-12), truncated_geometric(0.7, 1e-12)):
            total = law.total() + law.tail_mass_bound
            assert 1.0 - 1e-12 <= total <= 1.0 + 1e-12


def _subset_tv(p: TruncatedPMF, q: TruncatedPMF) -> float:
    """Oracle: supremum of |P(E) - Q(E)| over all outcome subsets."""
    k_lo = min(p.k_min, q.k_min)
    k_hi = max(p.k_max, q.k_max)
    outcomes = range(k_lo, k_hi + 1)
    best = 0.0
    for size in range(len(list(outcomes)) + 1):
        for subset in combinations(outcomes, size):
            diff = abs(sum(p.prob(k) - q.prob(k) for k in subset))
            best = max(best, diff)
    return best


class TestTVDistance:
    def test_identical(self):
        law = truncated_poisson(2.0, 1e-12)
        lo, hi = tv_distance(law, law)
        assert lo == 0.0
        assert hi <= 1e-12

    def test_disjoint_point_masses(self):
        p = TruncatedPMF(k_min=0, probs=np.array([1.0]), tail_mass_bound=0.0)
        q = TruncatedPMF(k_min=1, probs=np.array([1.0]), tail_mass_bound=0.0)
        assert tv_distance(p, q) == (1.0, 1.0)

    def test_hand_value(self):
        p = TruncatedPMF(k_min=1, probs=np.array([0.5, 0.5]), tail_mass_bound=0.0)
        q = TruncatedPMF(k_min=1, probs=np.array([0.25, 0.75]), tail_mass_bound=0.0)
        lo, hi = tv_distance(p, q)
        assert lo == pytest.approx(0.25, abs=0)
        assert hi == pytest.approx(0.25, abs=0)

    def test_halved_l1_equals_subset_supremum(self):
        rng = np.random.default_rng(3)
        for _ in range(12):
            size = int(rng.integers(2, 9))
            w1 = rng.random(size)
            w2 = rng.random(size)
            p = TruncatedPMF(0, w1 / w1.sum(), 0.0)
            q = TruncatedPMF(0, w2 / w2.sum(), 0.0)
            lo, _ = tv_distance(p, q)
            assert lo == pytest.approx(_subset_tv(p, q), abs=1e-12)

    def test_subset_supremum_support_twelve(self):
        rng = np.random.default_rng(11)
        w1 = rng.random(12)
        w2 = rng.random(12)
        p = TruncatedPMF(0, w1 / w1.sum(), 0.0)
        q = TruncatedPMF(0, w2 / w2.sum(), 0.0)
        lo, _ = tv_distance(p, q)
        # exhaustive 2^12 subsets via bit masks
        pv, qv = np.array(p.probs), np.array(q.probs)
        best = 0.0
        for mask in range(1 << 12):
            sel = np.array([(mask >> i) & 1 for i in range(12)], dtype=bool)
            best = max(best, abs(pv[sel].sum() - qv[sel].sum()))
        assert lo == pytest.approx(best, abs=1e-12)

    def test_interval_width_bounded_by_tails(self):
        p = truncated_log(0.6, 1e-6)
        q = truncated_poisson(1.3, 1e-7)
        lo, hi = tv_distance(p, q)
        assert hi - lo <= 0.5 * (p.tail_mass_bound + q.tail_mass_bound) + 1e-18


@st.composite
def _small_pmf(draw):
    size = draw(st.integers(min_value=1, max_value=5))
    raw = draw(st.lists(st.floats(0.01, 1.0), min_size=size, max_size=size))
    w = np.array(raw)
    return TruncatedPMF(k_min=draw(st.integers(0, 3)), probs=w / w.sum(),
                        tail_mass_bound=0.0)


@settings(max_examples=150, deadline=None)
@given(_small_pmf(), _small_pmf(), _small_pmf())
def test_tv_metric_properties(p, q, r):
    """Symmetry, range, and the triangle inequality on exact pmfs."""
    pq = tv_distance(p, q).lo
    qp = tv_distance(q, p).lo
    assert pq == qp
    assert 0.0 <= pq <= 1.0
    assert pq <= tv_distance(p, r).lo + tv_distance(r, q).lo + 1e-12


def _mp_pmf(kind, params, k, dps=40):
    """P(k) of a target law in ``dps``-digit mpmath."""
    with mp.workdps(dps):
        if kind == "log":
            alpha = mp.mpf(params[0])
            return alpha**k / (k * -mp.log1p(-alpha))
        if kind == "poisson":
            lam = mp.mpf(params[0])
            return mp.exp(-lam) * lam**k / mp.factorial(k)
        if kind == "negbin":
            ell, beta = mp.mpf(params[0]), mp.mpf(params[1])
            return mp.binomial(ell + k - 1, k) * (1 - beta) ** ell * beta**k
        beta = mp.mpf(params[0])
        return (1 - beta) * beta ** (k - 1)


def _mp_ratio(kind, params, k):
    """P(k+1) / P(k) of a target law in the current mpmath precision."""
    if kind == "log":
        return mp.mpf(params[0]) * k / (k + 1)
    if kind == "poisson":
        return mp.mpf(params[0]) / (k + 1)
    if kind == "negbin":
        return mp.mpf(params[1]) * (mp.mpf(params[0]) + k) / (k + 1)
    return mp.mpf(params[0])


TARGETS = {"log": truncated_log, "poisson": truncated_poisson, "negbin": truncated_negbin,
           "geometric": truncated_geometric}
CERTIFICATE_GRID = ([("log", (alpha,)) for alpha in (0.1, 0.5, 0.9)]
                    + [("poisson", (lam,)) for lam in (0.5, 3.0, 20.0)]
                    + [("negbin", (ell, beta)) for ell in (0.1, 0.5, 1.0, 2.5)
                       for beta in (0.2, 0.8)]
                    + [("geometric", (beta,)) for beta in (0.3, 0.9)])


@pytest.mark.parametrize("tol", [1e-6, 1e-13])
@pytest.mark.parametrize("kind,params", CERTIFICATE_GRID)
def test_tail_mass_bound_covers_the_40_digit_tail(kind, params, tol):
    # the 1e-14 allows for rounding in the bound itself where it is exact
    # (geometric, unit shape); shapes below 1 have ratios that rise to beta
    law = TARGETS[kind](*params, tol)
    with mp.workdps(40):
        tail = 1 - mp.fsum(_mp_pmf(kind, params, k) for k in range(law.k_min, law.k_max + 1))
        assert law.tail_mass_bound >= (1 - 1e-14) * tail
    assert law.tail_mass_bound <= tol


@pytest.mark.parametrize("kind,params,tol", [("poisson", (20.0,), 1e-13),
                                             ("negbin", (2.5, 0.8), 1e-13),
                                             # long rows about large modes, and a row of one
                                             ("poisson", (300.0,), 1e-12),
                                             ("poisson", (1e4,), 1e-12),
                                             ("negbin", (400.0, 0.5), 1e-13),
                                             ("log", (1e-300,), 1e-13),
                                             # heavy tails: about 440k and 32k entries
                                             ("log", (0.9999,), 1e-13),
                                             ("geometric", (0.999,), 1e-13)]
                         + [(kind, params, 1e-12) for kind, params in CERTIFICATE_GRID])
def test_tail_mass_bound_covers_the_entries_rounding_too(kind, params, tol):
    """The certificate bounds the L1 distance of the entries from their
    50-digit values plus the mass omitted: the entries of
    truncated_poisson(20.0, 1e-13) are about 1.1e-16 off in L1 and omit
    1.3e-15, and it certifies 3.4e-15.  The exact row is taken by its term
    ratios, in 50 digits, from its first entry."""
    law = TARGETS[kind](*params, tol)
    with mp.workdps(50):
        exact = [_mp_pmf(kind, params, law.k_min, 50)]
        for k in range(law.k_min, law.k_max):
            exact.append(exact[-1] * _mp_ratio(kind, params, k))
        l1 = mp.fsum(abs(mp.mpf(x) - e) for x, e in zip(law.probs, exact))
        assert l1 + 1 - mp.fsum(exact) <= law.tail_mass_bound <= tol


# The targets' parity grid: log alpha in {0.05, 0.3, 0.5, 0.8, 0.9, 0.95, 0.99, 0.995,
# 0.999, 0.9995, 0.9999}, Poisson lam in {1e-3, 0.1, 1, 5, 20, 100, 300, 1e3} and negative
# binomial ell in {0.5, 1, 2, 10, 100} x beta in {0.05, 0.5, 0.8, 0.95, 0.99, 0.999}, each
# at tol 1e-11, 1e-12 and 1e-13.  These are the points that certified when the entries
# came from lgamma, keyed by the tolerances each met; the row walker certifies them all,
# and 27 more.
CERTIFIED_BEFORE_THE_WALKER = {
    (1e-11, 1e-12, 1e-13): (
        [("log", (alpha,)) for alpha in (0.05, 0.3, 0.5, 0.8, 0.9, 0.95, 0.99, 0.995, 0.999,
                                         0.9995, 0.9999)]
        + [("poisson", (lam,)) for lam in (1e-3, 0.1, 1.0, 5.0, 20.0)]
        + [("negbin", (0.5, beta)) for beta in (0.05, 0.5, 0.8, 0.95)]
        + [("negbin", (1.0, beta)) for beta in (0.05, 0.5, 0.8, 0.95, 0.99, 0.999)]
        + [("negbin", (2.0, beta)) for beta in (0.05, 0.5, 0.8)]
        + [("negbin", (10.0, 0.05))]),
    (1e-11, 1e-12): [("poisson", (100.0,)), ("negbin", (0.5, 0.99)), ("negbin", (2.0, 0.95)),
                     ("negbin", (10.0, 0.5)), ("negbin", (10.0, 0.8)), ("negbin", (100.0, 0.05))],
    (1e-11,): [("poisson", (300.0,)), ("poisson", (1e3,)), ("negbin", (0.5, 0.999)),
               ("negbin", (2.0, 0.99)), ("negbin", (10.0, 0.95)), ("negbin", (100.0, 0.5)),
               ("negbin", (100.0, 0.8))],
}


def test_the_targets_certify_every_point_they_certified_before_the_walker():
    grid = [(kind, params, tol) for tols, points in CERTIFIED_BEFORE_THE_WALKER.items()
            for kind, params in points for tol in tols]
    misses = []
    for kind, params, tol in grid:
        try:
            if not TARGETS[kind](*params, tol).tail_mass_bound <= tol:
                misses.append((kind, params, tol))
        except TruncationError:
            misses.append((kind, params, tol))
    assert len(grid) == 109 and misses == []


class TestDense:
    values = (1.0, 2.0, 3.0)  # held on outcomes 5, 6, 7

    @pytest.mark.parametrize("lo,hi,expected", [
        (3, 5, [0.0, 0.0, 1.0]),            # overlaps on the left only
        (7, 9, [3.0, 0.0, 0.0]),            # on the right only
        (0, 3, [0.0, 0.0, 0.0, 0.0]),       # below the values
        (9, 10, [0.0, 0.0]),                # above them
        (4, 8, [0.0, 1.0, 2.0, 3.0, 0.0]),  # around them
        (6, 6, [2.0]),                      # inside them
    ])
    def test_layout(self, lo, hi, expected):
        out = _dense(5, self.values, lo, hi)
        assert out == expected
        assert all(type(x) is float for x in out)

    def test_keeps_integer_counts(self):
        out = _dense(2, (4, 5), 1, 3, 0)
        assert out == [0, 4, 5] and all(type(x) is int for x in out)


def _positive_part_lo(p: TruncatedPMF, q: TruncatedPMF) -> float:
    """Oracle: the per-outcome fsum of |p_k - s q_k| over k >= 1, with s = 1 - p_0."""
    scale = 1.0 - p.prob(0)
    k_hi = max(p.k_max, q.k_max)
    total = math.fsum(abs(p.prob(k) - scale * q.prob(k)) for k in range(1, k_hi + 1))
    return min(max(0.5 * total, 0.0), 1.0)


class TestPositivePartDistance:
    def test_matches_the_per_outcome_sum(self):
        rng = np.random.default_rng(14)
        for _ in range(200):
            p_start, q_start = int(rng.integers(0, 6)), int(rng.integers(1, 12))
            w1, w2 = rng.random(int(rng.integers(1, 8))), rng.random(int(rng.integers(1, 8)))
            p = TruncatedPMF(p_start, w1 / w1.sum(), float(rng.random()) * 1e-9)
            q = TruncatedPMF(q_start, w2 / w2.sum(), 0.0)
            lo, hi = positive_part_distance(p, q)
            assert lo == _positive_part_lo(p, q)
            assert hi == min(1.0, lo + p.tail_mass_bound + q.tail_mass_bound)

    def test_mass_at_zero_and_supports_that_do_not_meet(self):
        p = TruncatedPMF(0, np.array([0.25, 0.75]), 0.0)
        q = TruncatedPMF(5, np.array([0.5, 0.5]), 0.0)
        # 0.75 at outcome 1 against 0.75 spread over 5 and 6
        assert positive_part_distance(p, q) == (0.75, 0.75) == (_positive_part_lo(p, q), 0.75)

    def test_mass_at_zero_only(self):
        p = TruncatedPMF(0, np.array([1.0]), 0.0)
        q = truncated_log(0.5, 1e-12)
        assert positive_part_distance(p, q).lo == _positive_part_lo(p, q) == 0.0
