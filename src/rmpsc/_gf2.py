"""Binary linear algebra on rows packed into Python integers."""

from __future__ import annotations

import numpy as np


def pack_row(bits: np.ndarray) -> int:
    """Pack a 0/1 vector into an int with bit k = bits[k]."""
    b = np.packbits(np.asarray(bits, dtype=np.uint8), bitorder="little")
    return int.from_bytes(b.tobytes(), "little")


def _pivots(rows) -> dict[int, int]:
    """Echelon form of the packed rows, keyed by leading bit, in the order
    the rows became pivots."""
    pivots: dict[int, int] = {}
    for row in rows:
        row = int(row)
        while row:
            msb = row.bit_length() - 1
            if msb not in pivots:
                pivots[msb] = row
                break
            row ^= pivots[msb]
    return pivots


def is_invertible(a: np.ndarray) -> bool:
    """Invertibility of a square 0/1 matrix over GF(2)."""
    a = np.asarray(a)
    m = a.shape[0]
    if a.shape != (m, m):
        raise ValueError("matrix must be square")
    return len(_pivots(pack_row(row) for row in a)) == m
