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


def rank(rows) -> int:
    """GF(2) rank by elimination on packed rows."""
    return len(_pivots(rows))


def nullspace(rows, ncols: int) -> list[int]:
    """Basis (packed ints) of {v : row . v = 0 for every row}."""
    pivots = _pivots(rows)
    # back-substitution, low pivots first, so each pivot row keeps exactly
    # one pivot column
    cols = sorted(pivots)
    for c in cols:
        r = pivots[c]
        for c2 in cols:
            if c2 != c and (r >> c2) & 1:
                r ^= pivots[c2]
        pivots[c] = r
    pivot_cols = set(pivots.keys())
    free_cols = [c for c in range(ncols) if c not in pivot_cols]
    basis = []
    for f in free_cols:
        v = 1 << f
        for c, prow in pivots.items():
            if (prow >> f) & 1:
                v |= 1 << c
        basis.append(v)
    return basis


def is_invertible(a: np.ndarray) -> bool:
    """Invertibility of a square 0/1 matrix over GF(2)."""
    a = np.asarray(a)
    m = a.shape[0]
    if a.shape != (m, m):
        raise ValueError("matrix must be square")
    return rank(pack_row(row) for row in a) == m
