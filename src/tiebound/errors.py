"""Exception hierarchy shared across the package, and its one check per kind of argument."""

import math
import operator


class DomainError(ValueError):
    """A parameter lies outside the mathematical domain of an operation."""


class DegenerateParameterError(DomainError):
    """A derived approximation parameter collapsed out of its open domain.

    Raised e.g. when a matched logarithmic/negative-binomial parameter
    computes to 0 or 1, so no approximating law of the family exists.
    """


class NumericError(RuntimeError):
    """A certified numeric computation could not reach its tolerance."""


class TruncationError(NumericError):
    """A series truncation failed to certify the requested tolerance.

    Attributes:
        best_bound: tightest remainder bound that was achieved.
    """

    def __init__(self, message: str, best_bound: float = float("inf")):
        super().__init__(message)
        self.best_bound = best_bound


class IntegrationError(NumericError):
    """Adaptive quadrature failed to reach the requested tolerance.

    Attributes:
        value: best integral estimate.
        error_estimate: reported error estimate for that value.
    """

    def __init__(self, message: str, value: float = float("nan"),
                 error_estimate: float = float("inf")):
        super().__init__(message)
        self.value = value
        self.error_estimate = error_estimate


def integer_in(value, lo: int, hi=None, what: str = "value") -> int:
    """``value`` as a Python int in [lo, hi] (unbounded above if ``hi`` is None).

    Takes any integer type through ``operator.index``, numpy's too, but not bool.
    """
    try:
        k = None if isinstance(value, bool) else operator.index(value)
    except TypeError:
        k = None
    if k is None or k < lo or (hi is not None and k > hi):
        where = f">= {lo}" if hi is None else f"in [{lo}, {hi}]"
        raise DomainError(f"{what} must be an integer {where}, got {value!r}")
    return k


def real_in(value, lo: float, hi: float, what: str = "value"):
    """``value`` if ``lo < value < hi``: an open interval, which a NaN never lies in."""
    if not lo < value < hi:
        raise DomainError(f"{what} must lie in ({lo!r}, {hi!r}), got {value!r}")
    return value


def positive_tol(tol: float) -> float:
    """``tol`` if it is a positive finite number."""
    return real_in(tol, 0.0, math.inf, "tolerance")
