"""numpy, imported on first use: the one handle the package's modules share,
and ``_many``, the one way a float formula answers an array.

The modules that use numpy (``distributions``, ``maxima`` and its
``_series``, ``binomial``, ``_quadrature`` and ``montecarlo``;
``bounds_continuous`` reaches it only through ``_many``, and ``cli``,
``approximants``, ``moments`` and ``stein`` need none) read it through
``np`` here, so that a command that never builds an array, such as ``bound
thm2`` on a geometric law in the closed-form region, ``table1`` and ``figure fig1`` at its default n, whose tie-count
series are short enough to sum in plain Python, ``bound thm2`` on a
tabulated law of a few points, whose law reads Python lists and whose series
are short too, ``bound thm3`` on the Gumbel law, whose moments have a closed
form, ``verify``, whose near-order laws have closed forms too, ``simulate``
of a geometric law's tie count whose exact law certifies from entries in
closed form or from short series, such as ``simulate --p 0.01 --n 10000`` at
any ``--mc-samples`` or ``simulate --p 0.3 --n 50``, ``simulate`` of such a
tabulated law's tie count, or ``simulate`` of a Gumbel or uniform near-order
count whose law has a closed form, such as ``simulate --law gumbel --n 100
--a 0.3``, all of whose draws come from ``random.Random``, never imports
numpy, about 90 ms of a fresh process.
The first attribute read imports numpy, and each name read is kept on the
handle, so later reads of it are plain attribute lookups.

If the process froze its heap before numpy loaded (``cli.run`` does), the
handle freezes it again, so that numpy's many long-lived objects also stay
out of the collector's generations; without that, each collection during
the command walks them.
"""

from __future__ import annotations

import gc

__all__ = ["np"]


class _Numpy:
    """numpy's namespace, imported at the first attribute read."""

    def __getattr__(self, name):
        import numpy

        if not vars(self) and gc.get_freeze_count():  # the first read, just after the import
            gc.freeze()
        value = getattr(numpy, name)
        setattr(self, name, value)
        return value


np = _Numpy()


def _many(x, one, many=None, dtype=float):
    """A function's answer to any ``x`` but the Python number its own formula
    ``one`` answers.

    Without a numpy formula ``many``, ``one`` is mapped over the entries of
    ``x``, taken as floats, into an array of ``dtype`` and of x's shape, empty
    or 0-d ones too, so that an array's entry is exactly the float's answer.
    Given ``many``, as a discrete law's ``pmf`` and ``logcdf`` are for the
    speed of their blocks, a ``range`` gets a list of ``one(i)`` (where
    ``one`` is given) and anything else ``many(np.asarray(x))``.  A 0-d
    answer is made a Python number, as for a numpy number.
    """
    if many is not None and one is not None and isinstance(x, range):
        return [one(i) for i in x]
    x = np.asarray(x, dtype=None if many else float)
    out = (many(x) if many else
           np.fromiter(map(one, x.ravel().tolist()), dtype, x.size).reshape(x.shape))
    return out if out.ndim else out.item()
