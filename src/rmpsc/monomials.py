"""Decreasing monomial codes in index form.

A length-2^n code of this package is spanned by rows of the n-fold
Kronecker power of [[1,0],[1,1]].  Row i evaluates the product of the
complemented variables at the zero bits of i: variable v appears iff bit v
of i is 0.  So the monomial of row i has degree n - popcount(i), row i has
weight 2^popcount(i), and index 0 is the product of all n variables.  A
code is its information set, the set of its row indices; it is decreasing
when the set is upward closed in the index order below.
"""

from __future__ import annotations

from itertools import compress

__all__ = [
    "upward_closure",
    "minimal_generators",
    "derivative_dimensions",
    "symmetry",
    "min_distance",
]


def _steps_below(i: int) -> list[int]:
    """The indices one step below ``i`` in the index order.

    A step clears bit 0 (i - 1), or moves a set bit from position v to an
    unset v-1 (i - 2^(v-1)).  Clearing any other set bit v is a chain of
    steps: move it to v-1 when that bit is unset, else clear bit v-1 first
    and move bit v into its place.  Steps lower the integer, so ascending
    index order is a linear extension of the order, and the steps are its
    cover relations.
    """
    out = [i - 1] if i & 1 else []
    moves = i & ~(i << 1) & ~1  # set bits v >= 1 whose bit v-1 is unset
    while moves:
        bit = moves & -moves
        out.append(i - (bit >> 1))
        moves ^= bit
    return out


def _closure_pass(indices, n: int) -> tuple[frozenset[int], frozenset[int]]:
    """The upward closure of ``indices`` and its minimal elements, from one
    ascending pass: an index is in the closure iff it is a member or a step
    below it is, and a member is minimal iff no step below it is."""
    N = 1 << n
    members = set()
    for i in indices:
        i = int(i)
        if not 0 <= i < N:
            raise ValueError(f"index {i} out of range for n={n}")
        members.add(i)
    inside = bytearray(N)
    minimal = []
    for i in range(min(members, default=N), N):
        if any(inside[j] for j in _steps_below(i)):
            inside[i] = 1
        elif i in members:
            inside[i] = 1
            minimal.append(i)
    return frozenset(compress(range(N), inside)), frozenset(minimal)


def upward_closure(i_min, n: int) -> frozenset[int]:
    """All indices above some element of ``i_min`` in the index order."""
    return _closure_pass(i_min, n)[0]


def minimal_generators(info_set, n: int) -> frozenset[int]:
    """The unique minimal antichain whose upward closure is ``info_set``.

    Raises ValueError when ``info_set`` is not upward closed.
    """
    info = frozenset(int(i) for i in info_set)
    closure, gens = _closure_pass(info, n)
    if closure != info:
        raise ValueError("info_set is not closed under the index partial order")
    return gens


def derivative_dimensions(info_set, n: int) -> tuple[int, ...]:
    """Dimensions of the n partial derivatives: d_v counts the members whose
    monomial contains variable v, the indices with bit v clear."""
    return tuple(sum(1 for i in info_set if not (i >> v) & 1) for v in range(n))


def symmetry(info_set, n: int) -> int:
    """Number of partial derivatives of minimal dimension.

    For a decreasing set the derivative dimensions are nonincreasing, so this
    counts the trailing variables whose derivatives all reach the minimum
    (none for n = 0).
    """
    if not info_set:
        raise ValueError("an empty information set has no symmetry")
    dims = derivative_dimensions(info_set, n)
    lo = min(dims, default=0)
    return dims.count(lo)


def min_distance(info_set, n: int) -> int:
    """Minimum distance of a decreasing code: its lightest row, 2^(min popcount)."""
    if not info_set:
        raise ValueError("an empty information set spans no code")
    return 1 << min(int(i).bit_count() for i in info_set)
