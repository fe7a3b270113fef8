"""Code construction: decreasing monomial codes, reliability orders,
symmetry-maximising search, and minimum-weight counting."""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import _gf2, _kernels, monomials
from .monomials import _steps_below, minimal_generators, upward_closure

__all__ = [
    "CodeSpec",
    "ReliabilityOrder",
    "dim_rm",
    "rm_order",
    "beta_expansion_reliability",
    "min_weight_count",
    "weight_distribution_via_dual",
]


def dim_rm(r: int, n: int) -> int:
    """Dimension of the order-r Reed-Muller code of length 2^n (0 for r < 0)."""
    return sum(math.comb(n, d) for d in range(0, r + 1))


# the largest length exponent, N = 16384: 16 times the longest code the paper
# decodes.  Building a code grows with N (0.24 s at n = 16, 2.2 s at n = 18)
MAX_N = 14


def _check_n(n: int) -> int:
    if n < 0:
        raise ValueError(f"n must be non-negative, got {n}")
    if n > MAX_N:
        raise ValueError(f"n must be at most {MAX_N}, got {n}")
    return n


def rm_order(k: int, n: int) -> int:
    """Smallest r whose order-r Reed-Muller dimension reaches k."""
    if not 1 <= k <= (1 << n):
        raise ValueError(f"dimension {k} out of range for n={n}")
    r = 0
    while dim_rm(r, n) < k:
        r += 1
    return r


class CodeSpec:
    """A decreasing monomial code, described by its minimal generator indices.

    The information set is the upward closure of ``i_min`` in the index
    order; it is the whole description of the code.
    """

    def __init__(self, i_min, n: int):
        self.n = _check_n(int(n))
        self.N = 1 << self.n
        self.info_set = upward_closure(i_min, self.n)
        if not self.info_set:
            raise ValueError("a code needs at least one generator index")
        self.i_min = tuple(sorted(minimal_generators(self.info_set, self.n)))
        self.K = len(self.info_set)
        # the information positions in ascending order, read-only
        self.info_positions = np.array(sorted(self.info_set), dtype=np.intp)
        self.info_positions.setflags(write=False)

    @classmethod
    def from_i_min(cls, i_min, n: int) -> "CodeSpec":
        return cls(i_min, n)

    @classmethod
    def from_info_set(cls, info_set, n: int) -> "CodeSpec":
        info = frozenset(int(i) for i in info_set)
        code = cls(info, n)
        if code.info_set != info:
            raise ValueError("info_set is not closed under the index partial order")
        return code

    # -- derived quantities ------------------------------------------------

    @property
    def rate(self) -> float:
        return self.K / self.N

    def frozen_mask(self) -> np.ndarray:
        mask = np.ones(self.N, dtype=np.uint8)
        mask[self.info_positions] = 0
        return mask

    @property
    def min_distance(self) -> int:
        return monomials.min_distance(self.info_set, self.n)

    @property
    def symmetry(self) -> int:
        return monomials.symmetry(self.info_set, self.n)

    @property
    def is_rm_polar(self) -> bool:
        """True when the code meets the best minimum distance for its dimension."""
        return self.min_distance == 1 << (self.n - rm_order(self.K, self.n))

    @property
    def is_partially_symmetric(self) -> bool:
        return 2 <= self.symmetry <= self.n - 1

    @property
    def extreme_dimension(self) -> bool:
        """Dimensions below the first-order or above the (n-2)-order
        Reed-Muller dimension; their SC absorption groups are very large."""
        return self.K < dim_rm(1, self.n) or self.K > dim_rm(self.n - 2, self.n)

    @property
    def uses_every_variable(self) -> bool:
        """False when some variable appears in no generator monomial; the
        code is then a shorter code replicated across the unused coordinates
        and permutations of those coordinates never change decoding."""
        return monomials.derivative_dimensions(self.info_set, self.n)[-1] > 0

    # -- matrices ------------------------------------------------------------

    def generator_rows(self) -> np.ndarray:
        """(K, N) evaluation rows, information indices ascending: the
        Kronecker rows, 1 at k iff k has no bit outside i."""
        return ((np.arange(self.N) & ~self.info_positions[:, None]) == 0).astype(np.uint8)

    def generator_rows_packed(self) -> list[int]:
        return [_gf2.pack_row(r) for r in self.generator_rows()]

    # -- serialisation -------------------------------------------------------

    def to_json(self) -> str:
        return json.dumps({"n": self.n, "i_min": list(self.i_min)})

    @classmethod
    def from_json(cls, text: str) -> "CodeSpec":
        """Parse ``{"n": <int>, "i_min": [<int>, ...]}``; anything else
        raises ValueError."""
        obj = json.loads(text)
        if not isinstance(obj, dict) or not {"n", "i_min"} <= obj.keys():
            raise ValueError('a code spec is a JSON object with fields "n" and "i_min"')
        n, i_min = obj["n"], obj["i_min"]
        # json gives exact types; bool, a subclass of int, is no integer here
        if type(n) is not int:
            raise ValueError(f'"n" must be an integer, got {n!r}')
        if type(i_min) is not list or any(type(i) is not int for i in i_min):
            raise ValueError(f'"i_min" must be a list of integers, got {i_min!r}')
        return cls(i_min, n)

    def save(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.to_json() + "\n")

    @classmethod
    def load(cls, path) -> "CodeSpec":
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_json(fh.read())

    def __eq__(self, other):
        return (
            isinstance(other, CodeSpec) and self.n == other.n and self.info_set == other.info_set
        )

    def __hash__(self):
        return hash((self.n, self.info_set))

    def __repr__(self):
        return f"CodeSpec(N={self.N}, K={self.K}, i_min={list(self.i_min)})"


# --------------------------------------------------------------- reliability


@dataclass(frozen=True)
class ReliabilityOrder:
    """Permutation of the bit-channel indices, least to most reliable."""

    n: int
    order: tuple[int, ...]

    def __post_init__(self):
        if sorted(self.order) != list(range(1 << self.n)):
            raise ValueError("order must be a permutation of all channel indices")

    @cached_property
    def upo_consistent(self) -> bool:
        """Whether a channel is always ranked at least as reliable as every
        channel below it in the index order (checked once, then cached)."""
        # the steps generate the order, so the ranks respect it iff no step
        # down raises them: O(N n) pairs decide what N^2 pairs would
        rank = self.ranks().tolist()
        return all(
            rank[j] < rank[i] for i in range(1 << self.n) for j in _steps_below(i)
        )

    def ranks(self) -> np.ndarray:
        rank = np.empty(1 << self.n, dtype=np.int64)
        rank[np.asarray(self.order)] = np.arange(1 << self.n)
        return rank


def beta_expansion_reliability(n: int, beta: float = 2.0 ** 0.25) -> ReliabilityOrder:
    """Deterministic reliability proxy: rank index i by sum of beta^k over its
    set bits, ascending.  Monotone along the index partial order for beta > 1."""
    if beta <= 1.0:
        raise ValueError(f"beta must exceed 1, got {beta}")
    N = 1 << n
    weights = beta ** np.arange(n)
    bits = (np.arange(N)[:, None] >> np.arange(n)[None, :]) & 1
    scores = bits @ weights
    order = tuple(int(i) for i in np.argsort(scores, kind="stable"))
    return ReliabilityOrder(n, order)


# --------------------------------------------------------------------- search


@functools.lru_cache
def _orbit_tables(n: int, r: int, s: int):
    """The tables that ``_upward_closed_words(n, r, size, s)`` enumerates
    with, which depend on (n, r, s) alone, for 0 <= s <= n:
    ``(layers, universe, total, below, above)``.

    ``layers`` pairs each orbit size c with the word of the representatives
    of the orbits of that size, to weigh a word; ``universe`` is the word
    of every representative and ``total`` its weight.  ``below[e]`` is the
    word of e and every representative below it in the index order, which
    must follow it out of a set, and ``above[e]`` of e and every one above
    it, which must follow it out of a complement.  Cached (the default 128
    keys), so the tables are shared: nothing may change them.
    """
    low, mask = n - s, (1 << (n - s)) - 1
    # ascending, since the packed top bits outweigh the low ones
    reps: list[int] = []
    by_size: dict[int, int] = {}
    for w in range(s + 1):
        top = ((1 << w) - 1) << low
        rows = [lo | top for lo in range(1 << low) if lo.bit_count() + w >= n - r]
        reps += rows
        c = math.comb(s, w)
        by_size[c] = by_size.get(c, 0) | sum(1 << e for e in rows)
    universe = sum(by_size.values())
    layers = tuple(by_size.items())
    total = sum(c * (universe & layer).bit_count() for c, layer in layers)
    # (e, j): j is the representative of an index one step below e, the
    # top bits packed low; these pairs generate the order among
    # representatives, and come with e ascending
    pairs = [
        (e, j & mask | ((1 << (j >> low).bit_count()) - 1) << low)
        for e in reps
        for j in _steps_below(e)
        if j.bit_count() >= n - r
    ]
    below = {e: 1 << e for e in reps}
    above = dict(below)
    for e, j in pairs:
        below[e] |= below[j]
    for e, j in reversed(pairs):
        above[j] |= above[e]
    return layers, universe, total, below, above


def _upward_closed_words(n: int, r: int, size: int, s: int = 1):
    """Every upward-closed set of ``size`` indices among those of popcount
    >= n - r that permutations of the top ``s`` index bits map onto
    itself, as N-bit words (these are the dimension-``size`` decreasing
    codes whose monomials have degree <= r and whose symmetry is at least
    s; every decreasing code has s = 1).

    Such a set is a union of orbits, an orbit being the indices with the
    same low n - s bits and the same number w of top bits set; it holds
    C(s, w) indices.  An orbit's least member in the index order, its
    representative, has the top bits packed low.  One orbit lies below
    another iff their representatives do, so an invariant set is upward
    closed iff its representatives are, and it is their upward closure.

    The representatives are taken in descending order and each is either
    included or left out; leaving one out leaves out everything below it
    in the index order too.  When the complement is the smaller side, the
    complements are enumerated the same way from the bottom up.  The
    representatives' tables come from ``_orbit_tables``.
    """
    s = min(s, n)  # n = 0 has no bit to permute
    low = n - s
    layers, universe, total, below, above = _orbit_tables(n, r, s)

    def weigh(word):
        return sum(c * (word & layer).bit_count() for c, layer in layers)

    flip = size > total - size
    target = total - size if flip else size
    # cone[e]: e and every representative that must follow it out of the
    # set (below it), or out of the complement (above it) on the flipped side
    cone = above if flip else below
    # depth-first over (undecided representatives still allowed in, chosen,
    # weight still needed, weight still allowed in)
    stack = [(universe, 0, target, total)] if 0 <= size <= total else []
    while stack:
        free, chosen, need, room = stack.pop()
        if need == 0 or room == need:
            # what is still allowed in is closed, so taking all of it is a set
            word = chosen if need == 0 else chosen | free
            word = universe & ~word if flip else word
            yield word if s <= 1 else monomials._closure_pass(word, n)[0]
            continue
        bit = free & -free if flip else 1 << (free.bit_length() - 1)
        e = bit.bit_length() - 1
        out = free & cone[e]
        rest = room - weigh(out)
        if rest >= need:
            stack.append((free ^ out, chosen, need, rest))
        c = math.comb(s, (e >> low).bit_count())
        if c <= need:
            stack.append((free ^ bit, chosen | bit, need - c, room - c))


def search_max_symmetry(
    n: int, k: int, mode: str | None = None, *, seed: int = 0
) -> tuple[int, list[CodeSpec]]:
    """Best achievable symmetry among dimension-k RM-polar codes, decided
    exactly.

    Returns ``(max_t, codes)`` with every maximiser, sorted by ``i_min``;
    the ``"heuristic"`` mode returns only the first of them, and ``None``
    is the same as ``"exhaustive"``.  ``seed`` is accepted and not read.

    A decreasing set has nonincreasing derivative dimensions, and two
    are equal iff the swap of their variables maps the set onto itself
    (``autgroup.compute_blta_structure``).  So the symmetry is at least s
    iff the set is invariant under every permutation of the top s index
    bits.  The search descends s from n and stops at the first s with a
    dimension-k invariant set of degree <= rm_order(k, n): every such set
    is a maximiser, with symmetry exactly s (0 for n = 0).
    """
    r = rm_order(k, _check_n(n))
    if mode not in (None, "exhaustive", "heuristic"):
        raise ValueError(f"unknown search mode {mode!r}")
    for s in range(n, -1, -1):
        words = list(_upward_closed_words(n, r, k, s))
        if words:
            break
    codes = sorted(
        (CodeSpec.from_info_set(monomials._members(w), n) for w in words),
        key=lambda c: c.i_min,
    )
    return s, codes[:1] if mode == "heuristic" else codes


# ------------------------------------------------------------- weight counts


def weight_distribution_via_dual(code: CodeSpec) -> list[int]:
    """Exact weight distribution from the dual spectrum (MacWilliams).

    The dual of a decreasing code is decreasing (Bardet, Dragoi, Otmani &
    Tillich, ISIT 2016): x is a codeword iff x . G_N is zero on the frozen
    set F, so the dual is spanned by the columns of G_N at F.  Since
    G_N^T = J G_N J, J the index reversal, those are the rows of G_N at
    {N-1-i : i in F} reversed, and reversal (the translation by the
    all-ones index) maps that code onto itself.  Its weight histogram comes
    from ``_kernels.gray_weight_histogram`` on the dual's rows as packed
    64-bit words, so it needs N <= 64; that count splits the coordinates by
    one index bit and refuses, with a ``ValueError``, a dual whose cheapest
    split takes more than 2^30 popcounts ((64,22) = RM(2,6) takes 2^27,
    (64,7) 2^32).
    """
    N, K = code.N, code.K
    if N > 64:
        raise ValueError("dual-spectrum counting requires N <= 64")
    info = N - 1 - np.flatnonzero(code.frozen_mask())
    # the dual is the zero code when K = N, and a CodeSpec has an index
    rows = CodeSpec.from_info_set(info, code.n).generator_rows_packed() if K < N else []
    hist = _kernels.gray_weight_histogram(np.array(rows, dtype=np.uint64), N)
    # MacWilliams transform, A_j = 2^-(N-K) sum_w B_w K_j(w), with the
    # Krawtchouk values from their three-term recurrence in exact integers:
    # K_0 = 1, K_1 = N - 2w, (j+1) K_{j+1} = (N - 2w) K_j - (N - j + 1) K_{j-1}
    acc = [0] * (N + 1)
    for w, bw in enumerate(hist.tolist()):
        if bw == 0:
            continue
        prev, kj = 0, 1
        for j in range(N + 1):
            acc[j] += bw * kj
            prev, kj = kj, ((N - 2 * w) * kj - (N - j + 1) * prev) // (j + 1)
    dist = []
    scale = 1 << (N - K)
    for a in acc:
        q, rem = divmod(a, scale)
        if rem:
            raise ArithmeticError("dual spectrum is inconsistent")
        dist.append(q)
    if dist[0] != 1 or sum(dist) != (1 << K) or any(v < 0 for v in dist):
        raise ArithmeticError("weight distribution failed sanity checks")
    return dist


def min_weight_count(code: CodeSpec) -> int:
    """Exact number of minimum-weight codewords, in closed form.

    Bardet, Dragoi, Otmani & Tillich (ISIT 2016) show that the minimum-weight
    codewords of a decreasing monomial code are the orbits of its top-degree
    monomials under the lower-triangular affine group.  A monomial m of top
    degree r has an orbit of 2^(r + lambda(m)) words, where lambda(m) counts
    the pairs (j, i) with variable i in m, variable j not in m, and j < i.
    """
    masks = [~i & (code.N - 1) for i in code.info_set]
    r = max(m.bit_count() for m in masks)
    total = 0
    for m in masks:
        if m.bit_count() == r:
            lam = sum((~m & ((1 << i) - 1)).bit_count() for i in range(code.n) if m >> i & 1)
            total += 1 << (r + lam)
    return total
