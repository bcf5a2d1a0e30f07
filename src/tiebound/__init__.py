"""Tie counts at sample extremes, with certified total-variation error bounds.

The package computes the exact distribution of the number of observations
tied with the maximum of a discrete i.i.d. sample (or lying within a fixed
distance of an order statistic of a continuous sample), evaluates explicit
logarithmic / Poisson / negative-binomial approximation bounds for those
counts, and verifies every bound against certified exact and Monte-Carlo
total-variation distances.
"""

from .approximants import (
    TruncatedPMF,
    TVInterval,
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
from .bounds_continuous import (
    MixedBinomialSpec,
    NearOrderSpec,
    gap_ratio,
    gap_ratio_moment,
    gumbel_gap_moment,
    gumbel_gap_moment_exact,
    gumbel_max_bound,
    near_order_count_pmf,
    negbin_bound_mixed,
    negbin_bound_near_order,
    uniform_gap_moment,
    uniform_gap_moment_exact,
)
from .bounds_discrete import (
    BoundReport,
    geometric_link_bound,
    log_bound_from_moments,
    log_bound_second_moment,
    log_bound_singleton,
    poisson_bound,
)
from .distributions import (
    ContinuousLaw,
    DiscreteLaw,
    geometric_law,
    gumbel_law,
    law_from_descriptor,
    tabulated_law,
    uniform_law,
)
from .errors import (
    DegenerateParameterError,
    DomainError,
    IntegrationError,
    NumericError,
    TruncationError,
)
from .maxima import (
    KnSpec,
    argmax_value_law,
    size_biased_tie_pmf,
    tie_count_factorial_moment,
    tie_count_law,
    tie_count_pmf,
    tie_given_max_moment,
    tie_given_max_prob,
)
from .montecarlo import (
    EmpiricalPMF,
    RngStream,
    empirical_tv,
    sample_near_order_count,
    sample_size_biased_ties,
    sample_tie_count,
)
from .stein import (
    SteinTestFn,
    log_vs_negbin_bound,
    solution_sup_bound,
    stein_residual,
    stein_solution,
)

__version__ = "0.1.0"
