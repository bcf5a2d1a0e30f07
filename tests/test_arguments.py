"""The argument checks, one per kind, and the inputs that every entry point refuses through them.

Counts go through ``errors.integer_in`` and reals through ``errors.real_in``,
an open interval that a NaN never lies in.  ``REFUSED`` lists the inputs
that hand-written checks used to let through: fractional counts, infinite
reals and NaNs in closed ranges.  The command-line forms are in
``tests/test_cli.py::NOT_FINITE``.
"""

import math

import numpy as np
import pytest

from tiebound.approximants import TruncatedPMF, log_pmf, negbin_pmf, poisson_pmf
from tiebound.bounds_continuous import (
    MixedBinomialSpec,
    NearOrderSpec,
    gumbel_gap_moment,
    gumbel_gap_moment_exact,
    gumbel_max_bound,
    uniform_gap_moment,
    uniform_gap_moment_exact,
)
from tiebound.bounds_discrete import geometric_link_bound, log_bound_from_moments
from tiebound.distributions import geometric_law, gumbel_law
from tiebound.errors import DomainError, positive_tol, real_in
from tiebound.maxima import KnSpec, tie_given_max_moment
from tiebound.stein import SteinTestFn, log_vs_negbin_bound, stein_solution

INF, NAN = math.inf, math.nan


def test_real_in_is_an_open_interval():
    value = np.float64(0.25)
    assert real_in(value, 0.0, 1.0) is value
    assert real_in(1e308, 0.0, INF) == 1e308
    for bad in (0.0, 1.0, -0.5, 2.0, NAN, INF, -INF):
        with pytest.raises(DomainError, match="lie in"):
            real_in(bad, 0.0, 1.0, "odds")


@pytest.mark.parametrize("tol", [1e-300, 1e-12, 0.5, 1e300])
def test_positive_tol_passes_every_positive_finite_tolerance(tol):
    assert positive_tol(tol) == tol


_SPEC = KnSpec(law=geometric_law(0.3), n=10)
_TEST = SteinTestFn(members=frozenset({1}), alpha=0.5)
REFUSED = {
    # fractional counts, which returned numbers
    "gumbel_gap_moment n=2.5": lambda: gumbel_gap_moment(2.5, 0.3, 1),
    "gumbel_max_bound n=2.5": lambda: gumbel_max_bound(2.5, 0.3),
    "log_pmf k=2.5": lambda: log_pmf(0.5, 2.5),
    "poisson_pmf k=2.5": lambda: poisson_pmf(1.0, 2.5),
    "negbin_pmf k=1.5": lambda: negbin_pmf(2.0, 0.5, 1.5),
    "stein_solution k=1.5": lambda: stein_solution(_TEST, 1.5),
    # or that ended in a TypeError
    "gumbel_gap_moment_exact n=10.5": lambda: gumbel_gap_moment_exact(10.5, 2, 0.3, 1),
    "uniform_gap_moment_exact ell=2.5": lambda: uniform_gap_moment_exact(10, 2.5, 0.1, 1.0, 1),
    # bool counts, and members that int() coerced to {1, 2}
    "tie_given_max_moment j=True": lambda: tie_given_max_moment(_SPEC, True),
    "SteinTestFn members {2.5, True}": lambda: SteinTestFn(members=frozenset({2.5, True}),
                                                           alpha=0.5),
    # infinite reals, which gave nan, 0 or inf
    "gumbel_gap_moment a=inf": lambda: gumbel_gap_moment(10, INF, 1),
    "gumbel_gap_moment_exact a=inf": lambda: gumbel_gap_moment_exact(10, 2, INF, 1),
    "uniform_gap_moment b=inf": lambda: uniform_gap_moment(10, 2, 0.1, INF, 1),
    "log_vs_negbin_bound ell=inf": lambda: log_vs_negbin_bound(0.5, 0.5, INF),
    "geometric_link_bound mean=inf": lambda: geometric_link_bound(INF, 0.5, 0.1),
    "log_bound_from_moments mean=inf": lambda: log_bound_from_moments(INF, 0.1, 0.5),
    "NearOrderSpec a=inf": lambda: NearOrderSpec(law=gumbel_law(), n=10, ell=1, a=INF),
    # NaN in the closed ranges that stay hand-written, and a P(K=2) above 1
    "MixedBinomialSpec eq2=nan": lambda: MixedBinomialSpec(n=10, ell=2, eq=0.1, eq2=NAN),
    "log_bound_from_moments p_two=nan": lambda: log_bound_from_moments(1.0, NAN, 0.5),
    "log_bound_from_moments p_two=1.5": lambda: log_bound_from_moments(2.0, 1.5, 0.5),
    "TruncatedPMF tail_mass_bound=nan": lambda: TruncatedPMF(k_min=0, probs=[1.0],
                                                             tail_mass_bound=NAN),
}


@pytest.mark.parametrize("call", REFUSED.values(), ids=REFUSED.keys())
def test_a_value_outside_the_domain_is_refused(call):
    with pytest.raises(DomainError):
        call()
