"""numpy, imported on first use: the one handle the package's modules share.

The modules that a command without arrays runs (``distributions``,
``maxima``, ``approximants``, ``binomial`` and ``bounds_continuous``; ``cli``
needs no numpy) read it through ``np`` here, so that a command that never
builds an array, such as ``bound thm2`` on a geometric law in the
closed-form region, or ``table1`` and ``figure fig1`` at its default n,
whose tie-count series are short enough to sum in plain Python, never
imports numpy, about 90 ms of a fresh process.
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
