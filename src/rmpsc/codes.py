"""Code construction: reliability orders, RM-polar codes, length doubling,
symmetry-maximising search, and minimum-weight counting."""

from __future__ import annotations

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
    "load_reliability",
    "rm_polar_construct",
    "extend_code",
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


def load_reliability(path) -> ReliabilityOrder:
    """Read a reliability sequence file: one index per line, least reliable first."""
    with open(path, "r", encoding="utf-8") as fh:
        entries = [int(line) for line in fh if line.strip()]
    n = len(entries).bit_length() - 1
    if not entries or (1 << n) != len(entries):
        raise ValueError(f"sequence length {len(entries)} is not a power of two")
    return ReliabilityOrder(n, tuple(entries))


# --------------------------------------------------------------- construction


def rm_polar_construct(n: int, k: int, rel: ReliabilityOrder | None = None) -> CodeSpec:
    """Pick the dimension-k code of best minimum distance: all monomial rows
    of degree below r, filled up from the degree-r layer in descending
    reliability.  The reliability order must respect the index partial order."""
    r = rm_order(k, n)
    if rel is None:
        rel = beta_expansion_reliability(n)
    if rel.n != n:
        raise ValueError(f"reliability order is for n={rel.n}, expected {n}")
    if not rel.upo_consistent:
        raise ValueError("reliability order violates the index partial order")
    N = 1 << n
    full = N - 1
    base = [i for i in range(N) if (~i & full).bit_count() < r]
    need = k - len(base)
    layer = [i for i in range(N) if (~i & full).bit_count() == r]
    rank = rel.ranks()
    layer.sort(key=lambda i: (int(rank[i]), i), reverse=True)
    # a consistent order ranks every layer member below a chosen one higher,
    # so the pick is already closed downward
    return CodeSpec.from_info_set(frozenset(base + layer[:need]), n)


def extend_code(i_min, n: int) -> CodeSpec:
    """Length-doubling: reuse the same generator indices at exponent n+1.

    Each generator monomial gains the new top variable, so the doubled code
    keeps the structure of the original with the last symmetry block grown
    by one.  The base code must be RM-polar.
    """
    base = CodeSpec.from_i_min(i_min, n)
    if not base.is_rm_polar:
        raise ValueError("generator indices do not give an RM-polar code at length 2^n")
    return CodeSpec.from_i_min(base.i_min, n + 1)


# --------------------------------------------------------------------- search


# hill-climbs per heuristic search: the seeded RM-polar start, then random ideals
SEARCH_RESTARTS = 32


def _upward_closed_words(n: int, r: int, size: int):
    """Every upward-closed set of ``size`` indices among those of popcount
    >= n - r, as N-bit words (these are the dimension-``size`` decreasing
    codes whose monomials have degree <= r).

    The indices are taken in descending order and each is either included
    or left out; leaving one out leaves out everything below it in the
    index order too.  When the complement is the smaller side, the
    complements are enumerated the same way from the bottom up.
    """
    N = 1 << n
    steps = monomials._step_words(n)
    pool = [i for i in range(N) if i.bit_count() >= n - r]
    universe = sum(1 << i for i in pool)
    flip = size > len(pool) - size
    target = len(pool) - size if flip else size
    # cone[e]: e and every pool index that must follow it out of the set
    # (below it), or out of the complement (above it) on the flipped side
    cone = [0] * N
    if flip:
        for e in reversed(pool):
            cone[e] = 1 << e
            for shift, mask in steps:
                if mask >> e & 1:
                    cone[e] |= cone[e + shift]
    else:
        for e in pool:
            cone[e] = 1 << e
            for shift, mask in steps:
                if e >= shift and mask >> (e - shift) & 1:
                    cone[e] |= cone[e - shift]  # 0 for an index outside the pool
    # depth-first over (undecided indices still allowed in, chosen, count)
    stack = [(universe, 0, 0)]
    while stack:
        free, chosen, count = stack.pop()
        need = target - count
        room = free.bit_count()
        if room < need:
            continue
        if need == 0 or room == need:
            # what is still allowed in is closed, so taking all of it is a set
            word = chosen if need == 0 else chosen | free
            yield universe & ~word if flip else word
            continue
        bit = free & -free if flip else 1 << (free.bit_length() - 1)
        stack.append((free & ~cone[bit.bit_length() - 1], chosen, count))
        stack.append((free ^ bit, chosen | bit, count + 1))


def search_max_symmetry(
    n: int,
    k: int,
    mode: str | None = None,
    *,
    seed: int = 0,
    rel: ReliabilityOrder | None = None,
) -> tuple[int, list[CodeSpec]]:
    """Best achievable symmetry among dimension-k RM-polar codes.

    Returns ``(max_t, codes)``: exhaustively all maximisers (n <= 7), or the
    best code found by seeded hill-climbing over one-index swaps,
    tie-broken toward high reliability sums.  The default mode is the
    exhaustive one where it runs, n <= 7, and the hill-climb above.
    ``rel`` (default: the beta-expansion order) steers only the hill-climb,
    its seeded start and tie-break; the exhaustive mode checks its length
    and does not read it.
    """
    r = rm_order(k, _check_n(n))
    if mode is None:
        mode = "exhaustive" if n <= 7 else "heuristic"
    if mode not in ("exhaustive", "heuristic"):
        raise ValueError(f"unknown search mode {mode!r}")
    if mode == "exhaustive" and n > 7:
        raise ValueError("exhaustive search is limited to n <= 7")
    if rel is not None and rel.n != n:
        raise ValueError(f"reliability order is for n={rel.n}, expected {n}")

    if mode == "exhaustive":
        # the symmetry is the number of derivative dimensions at their
        # minimum, as in monomials.symmetry (none for n = 0)
        variables = monomials._variable_words(n)
        best_t = 0
        best: list[int] = []
        for word in _upward_closed_words(n, r, k):
            dims = [(word & var).bit_count() for var in variables]
            t = dims.count(min(dims, default=0))
            if t > best_t:
                best_t, best = t, [word]
            elif t == best_t:
                best.append(word)
        codes = sorted(
            (CodeSpec.from_info_set(monomials._members(w), n) for w in best),
            key=lambda c: c.i_min,
        )
        return best_t, codes

    return _search_heuristic(n, k, r, seed=seed, rel=rel)


def _search_heuristic(n, k, r, *, seed, rel=None):
    # First-improvement hill-climb over one-member swaps, keyed by
    # (symmetry, reliability-rank sum).  The set is a word over the pool,
    # the indices of popcount >= n - r.  e_out runs over its minimal
    # members, e_in over the pool indices outside it whose every step up
    # lands inside, less those one step below e_out; both are visited in
    # the monomial order (popcount descending, then index descending).
    rng = np.random.default_rng(seed)
    if rel is None:
        rel = beta_expansion_reliability(n)
    rank = rel.ranks().tolist()
    layers = [0] * (n + 1)
    for i in range(1 << n):
        layers[i.bit_count()] |= 1 << i
    layers = layers[n - r :][::-1]  # popcount descending, over the pool
    pool = sum(layers)

    def ordered(word):
        out = []
        for layer in layers:
            w = word & layer
            while w:
                top = w.bit_length() - 1
                out.append(top)
                w ^= 1 << top
        return out

    def random_ideal():
        # each draw picks the i-th addable index in the monomial order: find
        # its layer, then clear the layer's c - 1 - i lowest bits, since a
        # layer is visited from its top
        word = 0
        for _ in range(k):
            free = monomials._maximal_members(pool & ~word, n)
            i = int(rng.integers(free.bit_count()))
            for layer in layers:
                w = free & layer
                c = w.bit_count()
                if i < c:
                    break
                i -= c
            for _ in range(c - 1 - i):
                w &= w - 1
            word |= w & -w
        return word

    best_key, best_word = None, None
    for attempt in range(SEARCH_RESTARTS):
        if attempt == 0:
            seeded = rm_polar_construct(n, k, rel if rel.upo_consistent else None)
            word = monomials._word(seeded.info_set, n)
        else:
            word = random_ideal()
        # the derivative dimensions and symmetry, as in monomials.symmetry
        # (no dimensions and symmetry 0 for n = 0)
        counts = [(word & var).bit_count() for var in monomials._variable_words(n)]
        t = counts.count(min(counts, default=0))
        total = sum(rank[i] for i in monomials._members(word))
        improved = True
        while improved:
            improved = False
            cands = ordered(monomials._maximal_members(pool & ~word, n))
            if not cands:
                break
            for e_out in ordered(monomials._minimal_members(word, n)):
                below = _steps_below(e_out)
                # the counts without e_out: ``lo`` holds the variables at the
                # least count m, ``next_lo`` those at m + 1.  Adding e_in
                # raises the count at each zero bit of e_in, so the least
                # count stays m at e_in's one bits in ``lo``; when there are
                # none, it is m + 1, at all of ``lo`` and at e_in's one bits
                # in ``next_lo``
                base = [c - 1 + (e_out >> v & 1) for v, c in enumerate(counts)]
                m = min(base, default=0)
                lo = next_lo = 0
                for v, c in enumerate(base):
                    if c == m:
                        lo |= 1 << v
                    elif c == m + 1:
                        next_lo |= 1 << v
                rest_total = total - rank[e_out]
                for e_in in cands:
                    if e_in in below:
                        continue
                    stay = (lo & e_in).bit_count()
                    swap_t = stay or lo.bit_count() + (next_lo & e_in).bit_count()
                    if swap_t > t or swap_t == t and rest_total + rank[e_in] > total:
                        word ^= 1 << e_out | 1 << e_in
                        counts = [c + 1 - (e_in >> v & 1) for v, c in enumerate(base)]
                        t, total, improved = swap_t, rest_total + rank[e_in], True
                        break
                if improved:
                    break
        if best_key is None or (t, total) > best_key:
            best_key, best_word = (t, total), word
    code = CodeSpec.from_info_set(monomials._members(best_word), n)
    return best_key[0], [code]


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
