"""Helpers for the ASCII dump formats.

All floating point values are written with 17 significant digits, which is
enough for a bit-exact float64 round trip.  `'%.17g' % x` and
`format(x, '.17g')` give the same string; the row writers fill one
`%`-template per row or block, which is much faster than formatting each
value on its own.
"""

from __future__ import annotations

import numpy as np


def fmt(x: float) -> str:
    return format(float(x), ".17g")


def fmt_row(values, sep: str = " ") -> str:
    """The values, 17 significant digits each, joined by `sep`."""
    values = np.asarray(values, dtype=float).ravel().tolist()
    return sep.join(["%.17g"] * len(values)) % tuple(values)


def fmt_rows(rows) -> str:
    """One line of space-separated values per row of a 2-D array, joined
    by newlines (no newline after the last)."""
    rows = np.asarray(rows, dtype=float)
    line = " ".join(["%.17g"] * rows.shape[1])
    return "\n".join([line] * len(rows)) % tuple(rows.ravel().tolist())
