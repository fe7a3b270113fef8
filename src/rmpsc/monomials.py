"""Algebra of negative monomials underlying decreasing monomial codes.

A length-2^n polar-style code is spanned by evaluations of products of
complemented binary variables.  Each such monomial corresponds to one row
of the n-fold Kronecker power of [[1,0],[1,1]], and the partial order on
monomials drives every construction in this package.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress

import numpy as np

__all__ = [
    "Monomial",
    "GeneratorSet",
    "monomial_from_index",
    "evaluate_monomial",
    "monomial_leq",
    "index_leq",
    "upward_closure",
    "minimal_generators",
    "is_decreasing",
    "partial_derivative",
    "derivative_dimensions",
    "symmetry",
    "min_distance",
]


@dataclass(frozen=True)
class Monomial:
    """Product of complemented variables, stored as a variable-index bit mask.

    Bit i of ``mask`` is set iff the complemented variable i appears in the
    product.  The empty mask is the constant-1 monomial.
    """

    mask: int
    n: int

    def __post_init__(self):
        if self.n < 0:
            raise ValueError(f"variable count must be nonnegative, got {self.n}")
        if not 0 <= self.mask < (1 << self.n):
            raise ValueError(f"mask {self.mask:#x} out of range for n={self.n}")

    @property
    def degree(self) -> int:
        return self.mask.bit_count()

    @property
    def variables(self) -> tuple[int, ...]:
        """Indices of the variables in the product, ascending."""
        return tuple(i for i in range(self.n) if (self.mask >> i) & 1)

    @property
    def index(self) -> int:
        """Row index l such that this monomial equals ``monomial_from_index(l)``."""
        return ~self.mask & ((1 << self.n) - 1)

    def __repr__(self):
        if self.mask == 0:
            return f"Monomial(1, n={self.n})"
        prod = "*".join(f"v{i}" for i in self.variables)
        return f"Monomial({prod}, n={self.n})"


@dataclass(frozen=True)
class GeneratorSet:
    """A set of monomials over n variables, e.g. the span of a monomial code."""

    n: int
    masks: frozenset[int]

    def __post_init__(self):
        limit = 1 << self.n
        for m in self.masks:
            if not 0 <= m < limit:
                raise ValueError(f"mask {m:#x} out of range for n={self.n}")

    @classmethod
    def from_indices(cls, indices, n: int) -> "GeneratorSet":
        full = (1 << n) - 1
        return cls(n, frozenset(~int(i) & full for i in indices))

    @property
    def indices(self) -> frozenset[int]:
        full = (1 << self.n) - 1
        return frozenset(~m & full for m in self.masks)

    @property
    def dimension(self) -> int:
        return len(self.masks)

    def members(self) -> list[Monomial]:
        return [Monomial(m, self.n) for m in sorted(self.masks)]


def monomial_from_index(l: int, n: int) -> Monomial:
    """Monomial attached to row index ``l``: variable i appears iff bit i of l is 0."""
    if not 0 <= l < (1 << n):
        raise ValueError(f"index {l} out of range for n={n}")
    return Monomial(~l & ((1 << n) - 1), n)


def evaluate_monomial(m: Monomial) -> np.ndarray:
    """Evaluate over all n-bit points in increasing order.

    Entry k is 1 iff every variable of the product reads 0 in the binary
    expansion of k; the result equals row ``m.index`` of the n-fold
    Kronecker power of [[1,0],[1,1]].
    """
    k = np.arange(1 << m.n)
    return ((k & m.mask) == 0).astype(np.uint8)


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


def monomial_leq(m1: Monomial, m2: Monomial) -> bool:
    """Partial order on monomials.

    For equal degrees, the sorted variable indices of ``m1`` must be
    dominated entry-wise by those of ``m2``; for deg(m1) < deg(m2), some
    divisor of ``m2`` of the same degree as ``m1`` must dominate it.
    """
    if m1.n != m2.n:
        raise ValueError(f"mismatched variable counts {m1.n} != {m2.n}")
    return index_leq(m2.index, m1.index, m1.n)


def index_leq(j: int, i: int, n: int) -> bool:
    """Universal partial order on row indices: j precedes i iff the monomial
    of i precedes the monomial of j.  Index 0 is the unique minimum."""
    N = 1 << n
    if not (0 <= i < N and 0 <= j < N):
        raise ValueError(f"indices ({j}, {i}) out of range for n={n}")
    return i in upward_closure((j,), n)


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


def is_decreasing(g: GeneratorSet) -> bool:
    """True iff the set contains every monomial below each of its members."""
    return upward_closure(g.indices, g.n) == g.indices


def partial_derivative(g: GeneratorSet, i: int) -> GeneratorSet:
    """Derivative along variable i: members containing it, with the variable
    removed and higher variable indices shifted down by one."""
    if not 0 <= i < g.n:
        raise ValueError(f"variable index {i} out of range for n={g.n}")
    low = (1 << i) - 1
    out = set()
    for m in g.masks:
        if (m >> i) & 1:
            out.add((m & low) | ((m >> (i + 1)) << i))
    return GeneratorSet(g.n - 1, frozenset(out))


def derivative_dimensions(g: GeneratorSet) -> tuple[int, ...]:
    """Dimensions of the n partial derivatives (count of members per variable)."""
    return tuple(sum(1 for m in g.masks if (m >> i) & 1) for i in range(g.n))


def symmetry(g: GeneratorSet, *, check: bool = True) -> int:
    """Number of partial derivatives of minimal dimension.

    For a decreasing set the derivative dimensions are nonincreasing, so this
    counts the trailing variables whose derivatives all reach the minimum
    (none for n = 0).
    """
    if not g.masks:
        raise ValueError("empty generator set has no symmetry")
    if check and not is_decreasing(g):
        raise ValueError("symmetry is only defined for decreasing sets")
    dims = derivative_dimensions(g)
    lo = min(dims, default=0)
    return sum(1 for d in dims if d == lo)


def min_distance(g: GeneratorSet, *, check: bool = True) -> int:
    """Minimum distance of the code spanned by a decreasing set: 2^(n - max degree)."""
    if not g.masks:
        raise ValueError("empty generator set spans no code")
    if check and not is_decreasing(g):
        raise ValueError("the max-degree distance formula requires a decreasing set")
    max_deg = max(m.bit_count() for m in g.masks)
    return 1 << (g.n - max_deg)
