"""Decreasing monomial codes in index form.

A length-2^n code of this package is spanned by rows of the n-fold
Kronecker power of [[1,0],[1,1]].  Row i evaluates the product of the
complemented variables at the zero bits of i: variable v appears iff bit v
of i is 0.  So the monomial of row i has degree n - popcount(i), row i has
weight 2^popcount(i), and index 0 is the product of all n variables.  A
code is its information set, the set of its row indices; it is decreasing
when the set is upward closed in the index order below.

Inside, an index set is also an N-bit integer word, bit i for index i, so
closures, minimal generators and derivative counts are masked shifts and
popcounts on whole words.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

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


@lru_cache(maxsize=None)
def _step_words(n: int) -> tuple[tuple[int, int], ...]:
    """The steps of the index order as masked shifts on N-bit words.

    One (shift, mask) pair per step kind (clear bit 0, or move bit v down
    to v-1), in that order: bit j of the mask is set when a step of that
    kind leads up from j to j + shift.  A sweep over the pairs moves a
    word up by every kind in turn.
    """
    kinds: dict = {}
    for i in range(1 << n):
        for j in _steps_below(i):
            # i ^ j names the kind: 1 for bit 0, 0b11 << (v-1) for a move of bit v
            key = (i ^ j, i - j)
            kinds[key] = kinds.get(key, 0) | 1 << j
    return tuple((shift, mask) for (_, shift), mask in sorted(kinds.items()))


@lru_cache(maxsize=None)
def _variable_words(n: int) -> tuple[int, ...]:
    """Word v holds the indices with bit v clear: the rows whose monomial
    contains variable v."""
    N = 1 << n
    full = (1 << N) - 1
    # runs of 2^v set bits alternating with 2^v clear ones, from bit 0
    return tuple(full // ((1 << (2 << v)) - 1) * ((1 << (1 << v)) - 1) for v in range(n))


def _word(indices, n: int) -> int:
    """An index set as an N-bit word, bit i set for member i."""
    N = 1 << n
    word = 0
    for i in indices:
        i = int(i)
        if not 0 <= i < N:
            raise ValueError(f"index {i} out of range for n={n}")
        word |= 1 << i
    return word


def _members(word: int) -> list[int]:
    """The set bits of a word, ascending."""
    raw = np.frombuffer(word.to_bytes((word.bit_length() + 7) // 8, "little"), np.uint8)
    return np.flatnonzero(np.unpackbits(raw, bitorder="little")).tolist()


def _minimal_members(word: int, n: int) -> int:
    """The members of an index word that no step leads up to from inside it."""
    reached = 0
    for shift, mask in _step_words(n):
        reached |= (word & mask) << shift
    return word & ~reached


def _closure_pass(word: int, n: int) -> tuple[int, int]:
    """The upward closure of an index word and its minimal elements, as
    words: the closure is the fixpoint of the step sweeps."""
    steps = _step_words(n)
    closure = word
    while True:
        up = closure
        for shift, mask in steps:
            up |= (up & mask) << shift
        if up == closure:
            return closure, _minimal_members(closure, n)
        closure = up


def upward_closure(i_min, n: int) -> frozenset[int]:
    """All indices above some element of ``i_min`` in the index order."""
    return frozenset(_members(_closure_pass(_word(i_min, n), n)[0]))


def minimal_generators(info_set, n: int) -> frozenset[int]:
    """The unique minimal antichain whose upward closure is ``info_set``.

    Raises ValueError when ``info_set`` is not upward closed.
    """
    info = _word(info_set, n)
    closure, gens = _closure_pass(info, n)
    if closure != info:
        raise ValueError("info_set is not closed under the index partial order")
    return frozenset(_members(gens))


def derivative_dimensions(info_set, n: int) -> tuple[int, ...]:
    """Dimensions of the n partial derivatives: d_v counts the members whose
    monomial contains variable v, the indices with bit v clear."""
    info = _word(info_set, n)
    return tuple((info & var).bit_count() for var in _variable_words(n))


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
