"""Helpers for the text formats.

The user-facing dumps (fields, meshes, statistics, CSVs) write each
floating point value with 17 significant digits, which is enough for a
bit-exact float64 round trip.  The KL artifacts instead write each row of
values as the hex digits of its little-endian float64 bytes: exact by
construction, and encoded and decoded without any decimal conversion.
"""

from __future__ import annotations

import numpy as np


def fmt(x: float) -> str:
    return format(float(x), ".17g")


def hex_row(values) -> str:
    """The values as the hex digits of their little-endian float64 bytes,
    in C order."""
    return np.ascontiguousarray(values, "<f8").tobytes().hex()


def parse_hex_row(line: str, count: int) -> np.ndarray:
    """The `count` float64 values of a `hex_row` line, as a writable array.
    ValueError unless the line holds exactly 16 hex digits per value:
    `fromhex` takes any even number of them and skips whitespace."""
    if len(line) == 16 * count:
        data = bytearray.fromhex(line)
        if len(data) == 8 * count:
            return np.frombuffer(data, "<f8")
    raise ValueError(f"row of {len(line)} characters, expected "
                     f"{count} values of 16 hex digits")
