"""Tie counts at sample extremes, with certified total-variation error bounds.

The package computes the exact distribution of the number of observations
tied with the maximum of a discrete i.i.d. sample (or lying within a fixed
distance of an order statistic of a continuous sample), evaluates explicit
logarithmic / Poisson / negative-binomial approximation bounds for those
counts, and verifies every bound against certified exact and Monte-Carlo
total-variation distances.

``import tiebound`` runs only ``errors``.  Every other submodule is in
``sys.modules`` from the start but runs on first attribute access
(``_LazyModule``), and a package-level name loads only the module that
defines it, so a command runs just the modules it uses.  First loads run
under one package lock, so threads that touch a submodule at once all see
it fully run.
"""

import importlib.util
import sys
import threading
import types

from .errors import (
    DegenerateParameterError,
    DomainError,
    IntegrationError,
    NumericError,
    TruncationError,
)

_EXPORTS = {
    "approximants": ("BoundReport", "TruncatedPMF", "TVInterval", "log_pmf", "negbin_pmf",
                     "poisson_pmf", "positive_part_distance", "truncate_law",
                     "truncated_geometric", "truncated_log", "truncated_negbin",
                     "truncated_poisson", "tv_distance"),
    "binomial": (),
    "bounds_continuous": ("MixedBinomialSpec", "NearOrderSpec", "gap_ratio", "gap_ratio_moment",
                          "gumbel_gap_moment", "gumbel_gap_moment_exact", "gumbel_max_bound",
                          "near_order_count_pmf", "negbin_bound_mixed",
                          "negbin_bound_near_order", "uniform_gap_moment",
                          "uniform_gap_moment_exact"),
    "bounds_discrete": ("geometric_link_bound", "log_bound_from_moments",
                        "log_bound_second_moment", "log_bound_singleton", "poisson_bound"),
    "distributions": ("ContinuousLaw", "DiscreteLaw", "geometric_law", "gumbel_law",
                      "law_from_descriptor", "tabulated_law", "uniform_law"),
    "maxima": ("KnSpec", "argmax_value_law", "size_biased_tie_pmf", "tie_count_factorial_moment",
               "tie_count_law", "tie_count_pmf", "tie_given_max_moment", "tie_given_max_prob"),
    "montecarlo": ("EmpiricalPMF", "RngStream", "empirical_tv", "sample_near_order_count",
                   "sample_size_biased_ties", "sample_tie_count"),
    "stein": ("SteinTestFn", "log_vs_negbin_bound", "solution_sup_bound", "stein_residual",
              "stein_solution"),
    # internal layers, lazy like the rest but not exported: the tie-count series and
    # the near-order quadrature, which only some calls of maxima and bounds_continuous run
    "_series": (),
    "_quadrature": (),
}
# public name -> the submodule that defines it
_SOURCE = {name: module for module, names in _EXPORTS.items() for name in names}

_LOAD_LOCK = threading.RLock()
_RUNNING = set()  # submodules whose code is running, each in the thread that holds the lock


class _LazyModule(types.ModuleType):
    """A registered submodule whose code runs on its first attribute access.

    ``importlib.util.LazyLoader`` on Python 3.11 turns the module into a
    plain one before running its code, so a second thread can read a
    half-run module.  Here the code runs under ``_LOAD_LOCK`` and the class
    changes only after it has run; an access from the loading thread itself,
    as by the loader or an import cycle, reads the module as it stands.
    """

    def __getattribute__(self, name):
        with _LOAD_LOCK:
            if type(self) is _LazyModule and self not in _RUNNING:
                _RUNNING.add(self)
                try:
                    object.__getattribute__(self, "__spec__").loader.exec_module(self)
                finally:
                    _RUNNING.discard(self)
                self.__class__ = types.ModuleType
        return object.__getattribute__(self, name)


for _module in _EXPORTS:
    _spec = importlib.util.find_spec(f"{__name__}.{_module}")
    globals()[_module] = sys.modules[_spec.name] = importlib.util.module_from_spec(_spec)
    globals()[_module].__class__ = _LazyModule
del _module, _spec

__all__ = sorted([*_SOURCE, *(m for m in _EXPORTS if not m.startswith("_")), "errors",
                  "DegenerateParameterError", "DomainError", "IntegrationError", "NumericError",
                  "TruncationError"])
__version__ = "0.1.0"


def __getattr__(name):
    if name not in _SOURCE:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(globals()[_SOURCE[name]], name)
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
