"""The geometric law's tie-count values in closed form, and the laws of K and K* built
from tie-count values, against 40-digit values, the series and the mixture."""

import dataclasses
import functools
import math
import os
import subprocess
import sys
import time

import mpmath as mp
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import tiebound
from tiebound import _series, bounds_discrete, maxima
from tiebound.approximants import tv_distance
from tiebound.cli import VERIFY_NS, VERIFY_PS
from tiebound.distributions import DiscreteLaw, geometric_law, tabulated_law
from tiebound.errors import TruncationError
from tiebound._series import _mixture_law
from tiebound.maxima import (
    KnSpec,
    _closed_form,
    _tie_values,
    argmax_value_law,
    size_biased_tie_law,
    tie_count_factorial_moment,
    tie_count_law,
    tie_count_pmf,
    tie_given_max_moment,
)

TOL = 1e-12
# the five values behind thm1a, thm1b and thm2, as (order, moment)
FIVE = ((1, False), (2, False), (1, True), (2, True), (3, True))


def _exact(p: float, n: int, k: int, moment: bool):
    """P(K = k), or E[(K)_k] if ``moment``, at 40 digits: the main term times 1
    plus the Fourier terms m = +-1, +-2, +-3, each a ratio of complex Beta
    functions, B(k + i m omega, n-k+1) / B(k, n-k+1); exact at k = n."""
    with mp.workdps(40):
        p = mp.mpf(p)
        q, lam = 1 - p, -mp.log1p(-p)
        if k == n:
            value = p**n / (1 - q**n)
            return +(value * mp.factorial(n) if moment else value)
        omega = 2 * mp.pi / lam
        eps = 0
        for m in (1, 2, 3):
            y = m * omega
            eps += 2 * mp.re(mp.exp(mp.loggamma(k + 1j * y) - mp.loggamma(k) + mp.loggamma(n + 1)
                                    - mp.loggamma(n + 1 + 1j * y)))
        main = mp.factorial(k - 1) * (p / q)**k / lam if moment else p**k / (k * lam)
        return main * (1 + eps)


def _gap(value: float, p: float, n: int, k: int, moment: bool) -> float:
    with mp.workdps(40):
        return float(abs(mp.mpf(value) - _exact(p, n, k, moment)))


@settings(derandomize=True, max_examples=150, deadline=None)
@given(p_exp=st.floats(-9.0, math.log10(0.3)), n_exp=st.floats(math.log10(2.0), 9.0),
       k=st.integers(1, 40))
# the eps bound is nearly tight at n = 3, k = 2 (both Fourier terms m = +-1 are real there)
@example(p_exp=-6.0, n_exp=math.log10(3.0), k=2)
def test_closed_form_is_within_its_remainder_of_40_digit_values(p_exp, n_exp, k):
    p, n = 10.0**p_exp, max(2, round(10.0**n_exp))
    lam = geometric_law(p).lattice_rate
    for order, moment in FIVE + ((min(k, n), False), (min(k, n), True)):
        if order > n:
            continue
        value = _closed_form(lam, n, order, moment, TOL, TOL)
        if value is not None:
            assert _gap(value.value, p, n, order, moment) <= value.remainder, (order, moment)
            assert value.remainder <= (TOL * value.value if moment else TOL)


def test_closed_form_serves_the_five_values_far_from_the_border():
    # ten or more terms of the series for every 1/p, and n large: no Fourier term survives
    for p, n in ((1e-9, 10**9), (1e-5, 10**6), (1e-3, 10**5), (0.05, 50)):
        values = _tie_values(KnSpec(geometric_law(p), n), (1, 2), (1, 2, 3), TOL)
        assert all(v.eps is not None for v in values)


def test_certificate_is_within_a_hundredfold_of_the_true_gap():
    # near the border the eps bound carries the remainder: it must not be vacuous
    p, n = 0.3, 50
    lam = geometric_law(p).lattice_rate
    for order, moment in FIVE:
        value = _closed_form(lam, n, order, moment, 1.0, 1.0)
        gap = _gap(value.value, p, n, order, moment)
        assert gap <= value.remainder <= 100.0 * gap, (order, moment)


def test_points_past_the_border_run_the_series():
    # the benchmark's tracer test counts pmf calls at (0.2, 20), so that point must stay a
    # series one; and S <= 1 where p is near 1, so no closed form exists there
    assert _closed_form(geometric_law(0.2).lattice_rate, 20, 1, True, TOL, TOL) is None
    assert _closed_form(geometric_law(0.99999).lattice_rate, 10, 1, False, 1.0, 1.0) is None


@settings(derandomize=True, max_examples=30, deadline=None)
@given(p_exp=st.floats(-4.0, math.log10(0.3)), n_exp=st.floats(1.0, 6.0))
def test_closed_form_agrees_with_the_series(p_exp, n_exp):
    p, n = 10.0**p_exp, round(10.0**n_exp)
    law = geometric_law(p)
    series_law = dataclasses.replace(law, lattice_rate=None)
    closed = _tie_values(KnSpec(law, n), (1, 2), (1, 2, 3), TOL)
    series = _tie_values(KnSpec(series_law, n), (1, 2), (1, 2, 3), TOL)
    for a, b in zip(closed, series):
        assert b.eps is None
        assert abs(a.value - b.value) <= 1e-13 * abs(b.value) + a.remainder + b.remainder


def test_other_laws_never_take_the_closed_form(monkeypatch):
    def refuse(*args):
        raise AssertionError("closed form taken")

    # the argmax law's Z is its geometric base law's E[K] / n, which does take the closed
    # form; the argmax law's own values must not
    argmax = argmax_value_law(KnSpec(geometric_law(0.05), 50))
    monkeypatch.setattr(maxima, "_closed_form", refuse)
    for law in (argmax, tabulated_law([0.2, 0.3, 0.5])):
        assert law.lattice_rate is None
        values = _tie_values(KnSpec(law, 6), (1, 2), (1, 2, 3), TOL)
        assert all(v.eps is None for v in values)


def _exact_tie_given_max(p: float, n: int, j: int):
    """E[q(M)**j] = E[(K)_{1+j}] / ((n-1)_j E[K]) at 40 digits."""
    with mp.workdps(40):
        return _exact(p, n, 1 + j, True) / (math.perm(n - 1, j) * _exact(p, n, 1, True))


@functools.lru_cache(maxsize=None)
def _direct_tie_given_max(p: float, n: int) -> tuple:
    """E[q(M)] and E[q(M)**2] as direct 40-digit sums, sum_m p(m)**(1+j) F(m)**(n-1-j)
    / sum_m p(m) F(m)**(n-1), over the m where F(m)**n reaches 1e-20 and up to q**m
    = 1e-20 / n, past which every sum loses under 1e-19 relatively."""
    with mp.workdps(40):
        p = mp.mpf(p)
        lam = -mp.log1p(-p)
        lo = max(1, int(mp.floor((mp.log(n) - mp.log(46)) / lam)))
        hi = int(mp.ceil((mp.log(n) + 20 * mp.log(10)) / lam))
        sums = [mp.mpf(0)] * 3
        qm = (1 - p)**(lo - 1)  # q**(m-1)
        for _ in range(lo, hi + 1):
            pm, f = p * qm, 1 - (1 - p) * qm
            term, ratio = pm * mp.exp((n - 1) * mp.log(f)), pm / f
            sums = [sums[0] + term, sums[1] + term * ratio, sums[2] + term * ratio**2]
            qm *= 1 - p
        return sums[1] / sums[0], sums[2] / sums[0]


@pytest.mark.parametrize("p,n", [(0.3, 10), (1e-3, 10**5), (1e-6, 10**6), (1e-9, 10**9)])
@pytest.mark.parametrize("j", [1, 2])
def test_tie_given_max_moment_is_within_tol_of_40_digit_values(p, n, j):
    spec = KnSpec(geometric_law(p), n)
    start = time.perf_counter()
    value = tie_given_max_moment(spec, j)
    if p < 1e-3:  # the series would need more than its 2e6-term cap
        assert time.perf_counter() - start < 0.01
    with mp.workdps(40):
        if p <= 1e-3:  # where _exact's three Fourier terms are all there is
            assert abs(mp.mpf(value) / _exact_tie_given_max(p, n, j) - 1) <= TOL
        if n <= 10**5:
            assert abs(mp.mpf(value) / _direct_tie_given_max(p, n)[j - 1] - 1) <= TOL


@pytest.mark.parametrize("p,n", [(1e-6, 10**6), (1e-9, 10**9)])
def test_argmax_law_past_the_series_cap_is_within_tol_of_40_digit_values(p, n):
    spec = KnSpec(geometric_law(p), n)
    start = time.perf_counter()
    law = argmax_value_law(spec)
    assert time.perf_counter() - start < 0.01
    # P(M = m) = p(m) F(m)**(n-1) / Z with Z = E[K] / n, around the mode log(n) / p
    with mp.workdps(40):
        q, z = 1 - mp.mpf(p), _exact(p, n, 1, True) / n
        for m in (round(c * math.log(n) / p) for c in (0.9, 1.0, 1.2)):
            exact = p * q**(m - 1) * (1 - q**m)**(n - 1) / z
            assert abs(mp.mpf(law.pmf(m)) / exact - 1) <= TOL, m


@pytest.mark.parametrize("build", [size_biased_tie_law, argmax_value_law])
def test_size_biased_laws_take_z_from_the_closed_form(build, monkeypatch):
    calls = []
    monkeypatch.setattr(_series, "_sums",
                        lambda *args, sums=_series._sums: calls.append(args) or sums(*args))
    law = geometric_law(1e-3)
    build(KnSpec(law, 10**5))
    assert calls == []
    build(KnSpec(dataclasses.replace(law, lattice_rate=None), 10**5))
    # the series law's E[K] = n Z (power 1, F(j)**(n-1)) is summed once, in the first pass
    assert [term[:3] for args in calls for term in args[1]].count((1, 10**5 - 1, False)) == 1


@pytest.mark.parametrize("series", [False, True], ids=["closed-form", "series"])
def test_orders_may_be_numpy_integers_or_arrays(series):
    law = geometric_law(1e-3)
    spec = KnSpec(dataclasses.replace(law, lattice_rate=None) if series else law, 1000)
    for fn in (tie_count_pmf, tie_count_factorial_moment):
        scalar = fn(spec, 2)
        assert type(scalar) is float
        for same in (np.int64(2), np.array(2)):
            assert fn(spec, same) == scalar
        for orders in (np.array([1, 2]), [np.int32(1), 2], (1, 2), range(1, 3)):
            assert fn(spec, orders) == (fn(spec, 1), scalar)
        assert fn(spec, np.array([], dtype=int)) == ()


def _exact_reports(p: float, n: int) -> dict:
    """thm1a, thm1b and thm2 at 40 digits, from the 40-digit tie-count values."""
    with mp.workdps(40):
        pk1, pk2, e1, e2, e3 = (_exact(p, n, k, moment) for k, moment in FIVE)
        alpha = 1 - pk1 / e1
        ek2 = e2 + e1
        beta = 1 - e1 / ek2
        return {
            "thm1a": -2 * mp.log1p(-alpha) * (e1 - 2 * (1 - alpha) / alpha * pk2),
            "thm1b": -2 * (1 + beta) * mp.log1p(-beta) * ek2
                     * (beta + (1 - beta) * (e3 / e2 - (n - 3) * e2 / ((n - 1) * e1))),
            "thm2": (mp.sqrt(e2 - e1 * (e1 - 1)) / (2 * e1) + mp.sqrt(e1 / (4 * e2))
                     + (n - 1) * e3 / ((n - 2) * e2) - (n - 2) * e2 / ((n - 1) * e1)),
        }


@pytest.mark.parametrize("p,n", [(1e-9, 10**9), (1e-3, 10**5)])
def test_discrete_bounds_are_within_their_truncation_error_of_40_digit_values(p, n):
    # the series would need 2e10 terms at p = 1e-9 and stop at its cap; at 1e-3 thm1a's
    # series form cancels (E[K] - 2 (1-alpha)/alpha P(K=2)), which the closed form avoids
    exact = _exact_reports(p, n)
    spec = KnSpec(geometric_law(p), n)
    start = time.perf_counter()
    reports = {r.method: r for r in bounds_discrete._reports(spec, TOL)}
    assert time.perf_counter() - start < 1.0
    for method, value in exact.items():
        report = reports[method]
        with mp.workdps(40):
            assert abs(mp.mpf(report.bound) - value) <= report.truncation_error, method
    # for the main terms alpha = p and the bound is 2 p**2 (2-p) / q
    assert reports["thm1a"].params["alpha"] == pytest.approx(p, rel=1e-15)
    assert reports["thm1a"].bound == pytest.approx(2 * p * p * (2 - p) / (1 - p), rel=1e-15)
    # beta = E[(K)_2] / E[K^2] does not cancel as 1 - E[K] / E[K^2] did
    assert reports["thm1b"].bound == pytest.approx(float(exact["thm1b"]), rel=1e-14)


def _direct_law(p: float, n: int) -> list:
    """P(K = k) for k = 0, ..., n at 40 digits by the direct series C(n, k) p**k
    sum_{i >= 0} q**(k i) (1 - q**i)**(n-k), cut where q**i < 1e-50; for small n."""
    with mp.workdps(40):
        p = mp.mpf(p)
        q = 1 - p
        stop = int(mp.ceil(mp.log(mp.mpf(10)**-50) / mp.log(q)))
        law = [mp.mpf(0)] + [mp.binomial(n, k) * p**k * mp.fsum(
            q**(k * i) * (1 - q**i)**(n - k) for i in range(stop)) for k in range(1, n)]
        return law + [p**n / (1 - q**n)]


def _law_l1(law, exact) -> float:
    """L1 distance from the 40-digit law, with the exact mass that the law omits."""
    with mp.workdps(40):
        held = [exact(k) for k in range(law.k_min, law.k_max + 1)]
        return float(mp.fsum(abs(mp.mpf(v) - e) for v, e in zip(law.probs, held))
                     + 1 - mp.fsum(held))


@pytest.fixture
def no_mixture(monkeypatch):
    """Make ``_mixture_law`` raise, so that a law built under it comes from its entries."""
    def refuse(*args):
        raise AssertionError("mixture taken")

    monkeypatch.setattr(_series, "_mixture_law", refuse)


def _size_biased(law: list) -> list:
    """P(K* = k) = k P(K = k) / E[K] at 40 digits, from P(K = k) for k = 0, ..., n."""
    with mp.workdps(40):
        mean = mp.fsum(k * v for k, v in enumerate(law))
        return [k * v / mean for k, v in enumerate(law)]


@pytest.mark.parametrize("p,n", [(0.01, 10**4), (1e-4, 10**4), (1e-3, 10**9)])
def test_entry_law_is_within_its_bound_of_40_digit_values(p, n, no_mixture):
    # no Fourier term survives at these points, so the 40-digit law is its main terms,
    # and every entry is in closed form
    spec = KnSpec(geometric_law(p), n)
    law = tie_count_law(spec, TOL)
    assert all(v.eps is not None for v in _tie_values(spec, range(1, len(law.probs) + 1), (), TOL))
    assert _law_l1(law, lambda k: _exact(p, n, k, False)) <= law.tail_mass_bound <= TOL


@pytest.mark.parametrize("p,n,tol", [
    # eps carries the certificate at these small n: halving _lattice_eps fails the first
    # point, and leaving the remainders out of the law's bound fails all of them
    (0.05, 5, 1e-6), (0.1, 15, TOL), (0.2, 20, 1e-8),
    # the Fourier parts near the border give way to the series here
    (0.05, 10, TOL), (0.3, 50, TOL), (0.4, 5, TOL),
])
def test_entry_laws_are_within_their_bounds_near_the_border(p, n, tol, no_mixture):
    spec = KnSpec(geometric_law(p), n)
    exact = _direct_law(p, n)
    for law, oracle in ((tie_count_law(spec, tol), exact),
                        (size_biased_tie_law(spec, tol), _size_biased(exact))):
        assert _law_l1(law, oracle.__getitem__) <= law.tail_mass_bound <= tol


@pytest.mark.parametrize("p", [1e-4, 1e-3, 0.01, 0.1, 0.3, 0.5])
@pytest.mark.parametrize("n", [5, 10, 50, 100, 10**4, 10**6])
def test_entry_laws_agree_with_the_mixture(p, n, monkeypatch):
    """Each law lies within its certificate of the exact law, so the two lie within
    the sum of both (L1)."""
    spec = KnSpec(geometric_law(p), n)
    for biased, build in ((False, tie_count_law), (True, size_biased_tie_law)):
        mixture = _mixture_law(spec, TOL, biased)
        with monkeypatch.context() as patch:
            patch.setattr(_series, "_mixture_law", lambda *args: pytest.fail("mixture taken"))
            entries = build(spec, TOL)
        gap = 2.0 * tv_distance(entries, mixture).lo
        assert gap <= entries.tail_mass_bound + mixture.tail_mass_bound, biased


@pytest.mark.parametrize("law,n", [
    (geometric_law(0.999), 1000), (geometric_law(1.0 - 2.0 / 1000), 1000),
    (tabulated_law([0.5, 0.5]), 2000),
], ids=["0.999", "1-2/n", "tabulated"])
def test_an_uncertified_law_gives_the_mixture_bit_for_bit(law, n):
    # mass far from k = 1, past the entries' first one below tiny (at k = 1 for the
    # tabulated law, where P(K = 1) = n 2**-n): the certificate misses
    spec = KnSpec(law, n)
    assert tie_count_law(spec, TOL) == _mixture_law(spec, TOL, biased=False)
    assert size_biased_tie_law(spec, TOL) == _mixture_law(spec, TOL, biased=True)


def test_an_entry_past_the_series_cap_gives_the_mixture(monkeypatch):
    # entry k = 1 certifies tol / 16 on a scale of n where the mixture needs tol / 2 past
    # its last maximum: at 1.6e-5 its series runs past the cap of 2e6 maxima, and the
    # mixture, at 1.9e6 maxima, still certifies
    spec = KnSpec(dataclasses.replace(geometric_law(1.6e-5), lattice_rate=None), 10)
    calls = []

    def mixture(*args):
        calls.append(args)
        return _mixture_law(*args)

    monkeypatch.setattr(_series, "_mixture_law", mixture)
    law = tie_count_law(spec, TOL)
    assert calls == [(spec, TOL, False)]
    assert abs(1.0 - math.fsum(law.probs)) <= law.tail_mass_bound <= TOL


def test_other_laws_never_take_the_closed_form_in_their_laws(monkeypatch):
    def refuse(*args):
        raise AssertionError("closed form taken")

    geometric = geometric_law(0.05)
    user = DiscreteLaw(pmf=geometric.pmf, logcdf=geometric.logcdf, log_tail=geometric.log_tail,
                       quantile=geometric.quantile)
    laws = (argmax_value_law(KnSpec(geometric, 5)), tabulated_law([0.2, 0.3, 0.5]), user)
    monkeypatch.setattr(maxima, "_closed_form", refuse)
    for law in laws:
        assert law.lattice_rate is None
        tie_count_law(KnSpec(law, 6), TOL)
        size_biased_tie_law(KnSpec(law, 6), TOL)


ARGMAX_SPEC = KnSpec(argmax_value_law(KnSpec(geometric_law(0.05), 50)), 6)


@pytest.mark.parametrize("law,n", [(geometric_law(p), n) for p in VERIFY_PS for n in VERIFY_NS]
                         + [(geometric_law(0.01), 10**4), (tabulated_law([0.2, 0.3, 0.5]), 7),
                            (ARGMAX_SPEC.law, ARGMAX_SPEC.n)])
def test_entry_laws_certify_without_the_mixture(law, n, no_mixture):
    # the verify grid, the simulate default, a law without a closed form and the argmax law
    for build in (tie_count_law, size_biased_tie_law):
        assert build(KnSpec(law, n), TOL).tail_mass_bound <= TOL


@pytest.mark.parametrize("biased", [False, True], ids=["ties", "size-biased"])
def test_the_argmax_law_certifies_where_its_mixture_cannot(biased):
    # a tiny F(j) at the argmax law's first maxima makes the mixture's rounding bound
    # overflow; it raises with a finite bound where it returned inf (or a NaN for K*)
    with pytest.raises(TruncationError) as raised:
        _mixture_law(ARGMAX_SPEC, TOL, biased)
    assert math.isfinite(raised.value.best_bound)
    law = (size_biased_tie_law if biased else tie_count_law)(ARGMAX_SPEC, TOL)
    assert law.k_min == 1 and len(law.probs) == 6
    assert abs(1.0 - math.fsum(law.probs)) <= law.tail_mass_bound <= 1e-12


@pytest.mark.parametrize("build,p,n", [("tie_count_law", 0.3, 20),
                                       ("size_biased_tie_law", 0.01, 10**4)])
def test_geometric_laws_leave_numpy_unloaded(build, p, n):
    # (0.3, 20) takes its entries from short series, (0.01, 1e4) from the closed form
    code = ("import sys\n"
            "from tiebound import KnSpec, geometric_law\n"
            f"from tiebound.maxima import {build}\n"
            f"law = {build}(KnSpec(geometric_law({p}), {n}))\n"
            "print(law.k_min, law.tail_mass_bound <= 1e-12, 'numpy' in sys.modules)\n")
    src = os.path.dirname(os.path.dirname(tiebound.__file__))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, timeout=60, env=dict(os.environ, PYTHONPATH=src)).stdout
    assert out.split() == ["1", "True", "False"]


def test_simulate_point_past_the_series_cap_certifies():
    """At (1e-5, 100) the mixture would need 3.3e6 maxima, past its cap of 2e6."""
    spec = KnSpec(geometric_law(1e-5), 100)
    with pytest.raises(TruncationError):
        _mixture_law(spec, TOL, biased=False)
    law = tie_count_law(spec, TOL)
    assert abs(1.0 - math.fsum(law.probs)) <= law.tail_mass_bound <= TOL


def test_law_at_a_small_p_takes_milliseconds():
    """The mixture took 0.7-0.9 s at (1e-4, 1e4), over 4e5 maxima, for 77 entries."""
    spec = KnSpec(geometric_law(1e-4), 10**4)
    elapsed = []
    for _ in range(3):
        start = time.perf_counter()
        law = tie_count_law(spec, TOL)
        elapsed.append(time.perf_counter() - start)
    assert min(elapsed) < 5e-3
    assert len(law.probs) == 77
    assert abs(1.0 - math.fsum(law.probs)) <= law.tail_mass_bound <= TOL
