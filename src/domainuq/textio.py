"""Helpers for the ASCII dump formats.

All floating point values are written with 17 significant digits, which is
enough for a bit-exact float64 round trip.
"""

from __future__ import annotations


def fmt(x: float) -> str:
    return format(float(x), ".17g")


def fmt_row(values) -> str:
    return " ".join(fmt(v) for v in values)

