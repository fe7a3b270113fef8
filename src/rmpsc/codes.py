"""Code construction: reliability orders, RM-polar codes, length doubling,
symmetry-maximising search, and minimum-weight counting."""

from __future__ import annotations

import bisect
import json
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import _gf2, _kernels
from .monomials import (
    GeneratorSet,
    _steps_below,
    evaluate_monomial,
    minimal_generators,
    monomial_from_index,
    upward_closure,
)

__all__ = [
    "CodeSpec",
    "ReliabilityOrder",
    "dim_rm",
    "rm_order",
    "beta_expansion_reliability",
    "load_reliability",
    "rm_polar_construct",
    "extend_code",
    "search_rm_psc",
    "min_weight_count",
    "weight_distribution_via_dual",
]


def dim_rm(r: int, n: int) -> int:
    """Dimension of the order-r Reed-Muller code of length 2^n (0 for r < 0)."""
    return sum(math.comb(n, d) for d in range(0, r + 1))


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
    order; the generator monomials are the monomials of those indices.
    """

    def __init__(self, i_min, n: int):
        self.n = int(n)
        if self.n < 0:
            raise ValueError(f"n must be non-negative, got {n}")
        self.N = 1 << self.n
        self.info_set = upward_closure(i_min, self.n)
        if not self.info_set:
            raise ValueError("a code needs at least one generator index")
        self.i_min = tuple(sorted(minimal_generators(self.info_set, self.n)))
        self.K = len(self.info_set)
        self.gen_set = GeneratorSet.from_indices(self.info_set, self.n)

    @classmethod
    def from_i_min(cls, i_min, n: int) -> "CodeSpec":
        return cls(i_min, n)

    @classmethod
    def from_info_set(cls, info_set, n: int) -> "CodeSpec":
        return cls(minimal_generators(info_set, n), n)  # raises if not closed

    # -- derived quantities ------------------------------------------------

    @property
    def rate(self) -> float:
        return self.K / self.N

    def frozen_mask(self) -> np.ndarray:
        mask = np.ones(self.N, dtype=np.uint8)
        mask[sorted(self.info_set)] = 0
        return mask

    @property
    def min_distance(self) -> int:
        max_deg = max(monomial_from_index(i, self.n).degree for i in self.i_min)
        return 1 << (self.n - max_deg)

    @property
    def symmetry(self) -> int:
        from .monomials import symmetry as _symmetry

        return _symmetry(self.gen_set, check=False)

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
        from .monomials import derivative_dimensions

        return derivative_dimensions(self.gen_set)[-1] > 0

    # -- matrices ------------------------------------------------------------

    def generator_rows(self) -> np.ndarray:
        """(K, N) evaluation rows, information indices ascending."""
        return np.stack(
            [evaluate_monomial(monomial_from_index(i, self.n)) for i in sorted(self.info_set)]
        )

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
    if not 1 <= k <= (1 << n):
        raise ValueError(f"dimension {k} out of range for n={n}")
    if rel is None:
        rel = beta_expansion_reliability(n)
    if rel.n != n:
        raise ValueError(f"reliability order is for n={rel.n}, expected {n}")
    if not rel.upo_consistent:
        raise ValueError("reliability order violates the index partial order")
    N = 1 << n
    full = N - 1
    r = rm_order(k, n)
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


class _MonomialPoset:
    """The monomials of degree <= r over n variables, with dominance order.

    Elements are index masks; a dimension-K decreasing code of maximal
    minimum distance is exactly a K-element downward-closed subset here.
    """

    def __init__(self, n: int, r: int):
        self.n = n
        self.r = r
        full = (1 << n) - 1
        masks = [m for m in range(1 << n) if m.bit_count() <= r]
        masks.sort(key=lambda m: (m.bit_count(), m))  # linear extension
        self.masks = masks
        self.size = len(masks)
        self.pos = {m: i for i, m in enumerate(masks)}
        self.full = full
        # a step below an index is a step above its monomial, and it lands
        # later in the linear extension, so one reverse sweep gathers every
        # monomial above; ``below`` is the transpose
        above: list = [None] * self.size
        below: list = [set() for _ in masks]
        for p in range(self.size - 1, -1, -1):
            up = set()
            for i in _steps_below(~masks[p] & full):
                q = self.pos.get(~i & full)
                if q is not None:
                    up.add(q)
                    up |= above[q]
            above[p] = frozenset(up)
            for q in up:
                below[q].add(p)
        self.above = above
        self.below = [frozenset(b) for b in below]

    def ideals_of_size(self, size: int):
        """All downward-closed subsets of the given cardinality (position sets)."""
        if size > self.size - size:
            # enumerate the complement side: filters are ideals of the dual
            universe = frozenset(range(self.size))
            for filt in self._ideals(
                self.above, list(range(self.size - 1, -1, -1)), self.size - size
            ):
                yield universe - filt
        else:
            yield from self._ideals(self.below, list(range(self.size)), size)

    def _ideals(self, preds, order, size):
        m = len(order)
        out_sets = []
        in_set: set = set()

        def rec(pos: int, count: int):
            if count == size:
                out_sets.append(frozenset(in_set))
                return
            if pos == m or count + (m - pos) < size:
                return
            e = order[pos]
            if preds[e] <= in_set:
                in_set.add(e)
                rec(pos + 1, count + 1)
                in_set.remove(e)
            rec(pos + 1, count)

        rec(0, 0)
        return out_sets

    def symmetry_of(self, positions) -> int:
        counts = [0] * self.n
        for p in positions:
            m = self.masks[p]
            for v in range(self.n):
                if (m >> v) & 1:
                    counts[v] += 1
        lo = min(counts)
        return sum(1 for c in counts if c == lo)

    def info_indices(self, positions) -> frozenset[int]:
        return frozenset(~self.masks[p] & self.full for p in positions)

    def addable(self, positions: set) -> list[int]:
        return [
            i
            for i in range(self.size)
            if i not in positions and self.below[i] <= positions
        ]

    def removable(self, positions: set) -> list[int]:
        return [i for i in positions if self.above[i].isdisjoint(positions)]


def search_max_symmetry(
    n: int,
    k: int,
    mode: str = "exhaustive",
    *,
    seed: int = 0,
    rel: ReliabilityOrder | None = None,
) -> tuple[int, list[CodeSpec]]:
    """Best achievable symmetry among dimension-k RM-polar codes.

    Returns ``(max_t, codes)``: exhaustively all maximisers (n <= 6), or the
    best code found by seeded hill-climbing over single-monomial swaps,
    tie-broken toward high reliability sums (``rel`` overrides the default
    beta-expansion order).
    """
    if not 1 <= k <= (1 << n):
        raise ValueError(f"dimension {k} out of range for n={n}")
    if mode not in ("exhaustive", "heuristic"):
        raise ValueError(f"unknown search mode {mode!r}")
    if mode == "exhaustive" and n > 6:
        raise ValueError("exhaustive search is limited to n <= 6")
    if rel is not None and rel.n != n:
        raise ValueError(f"reliability order is for n={rel.n}, expected {n}")
    r = rm_order(k, n)
    poset = _MonomialPoset(n, r)

    if mode == "exhaustive":
        best_t = 0
        best: list[frozenset] = []
        for ideal in poset.ideals_of_size(k):
            t = poset.symmetry_of(ideal)
            if t > best_t:
                best_t, best = t, [ideal]
            elif t == best_t:
                best.append(ideal)
        codes = sorted(
            (CodeSpec.from_info_set(poset.info_indices(s), n) for s in best),
            key=lambda c: c.i_min,
        )
        return best_t, codes

    return _search_heuristic(n, k, poset, seed=seed, rel=rel)


def search_rm_psc(
    n: int,
    k: int,
    mode: str = "exhaustive",
    *,
    seed: int = 0,
    rel: ReliabilityOrder | None = None,
) -> list[CodeSpec]:
    """Dimension-k RM-polar codes of maximal symmetry t >= 2, or [] when the
    dimension admits no partially/fully symmetric code."""
    best_t, codes = search_max_symmetry(n, k, mode, seed=seed, rel=rel)
    return codes if best_t >= 2 else []


def _search_heuristic(n, k, poset: _MonomialPoset, *, seed, rel=None):
    # First-improvement hill-climb over single-monomial swaps, keyed by
    # (symmetry, reliability sum).  A swap's key is taken from the running
    # per-variable counts and sum in O(n), and candidates are visited in the
    # order of the plain search: e_out in the set order of ``positions``
    # (``removable``), e_in ascending, so the same swaps win.
    rng = np.random.default_rng(seed)
    if rel is None:
        rel = beta_expansion_reliability(n)
    rel_rank = rel.ranks()
    score = [int(rel_rank[~m & poset.full]) for m in poset.masks]
    bits = [[(m >> v) & 1 for v in range(n)] for m in poset.masks]

    def seeded_ideal():
        info = rm_polar_construct(n, k, rel if rel.upo_consistent else None).info_set
        return {poset.pos[~i & poset.full] for i in info}

    def random_ideal():
        # each draw indexes the ascending addable list, kept up to date by
        # counting the predecessors still missing from the ideal
        missing = [len(b) for b in poset.below]
        cands = [i for i in range(poset.size) if not missing[i]]
        positions: set = set()
        while len(positions) < k:
            e = cands.pop(int(rng.integers(len(cands))))
            positions.add(e)
            for j in poset.above[e]:
                missing[j] -= 1
                if not missing[j]:
                    bisect.insort(cands, j)
        return positions

    def key_of(counts, total):
        lo = min(counts)
        return (counts.count(lo), total)

    best_key, best_pos = None, None
    for attempt in range(SEARCH_RESTARTS):
        positions = seeded_ideal() if attempt == 0 else random_ideal()
        counts = [sum(bits[p][v] for p in positions) for v in range(n)]
        key = key_of(counts, sum(score[p] for p in positions))
        improved = True
        while improved:
            improved = False
            addable = poset.addable(positions)
            for e_out in poset.removable(positions):
                # addable(positions - {e_out}) without e_out itself
                base = [c - b for c, b in zip(counts, bits[e_out])]
                rest_total = key[1] - score[e_out]
                for e_in in addable:
                    if e_out in poset.below[e_in]:
                        continue
                    cand_counts = [c + b for c, b in zip(base, bits[e_in])]
                    ck = key_of(cand_counts, rest_total + score[e_in])
                    if ck > key:
                        positions = (positions - {e_out}) | {e_in}
                        counts, key, improved = cand_counts, ck, True
                        break
                if improved:
                    break
        if best_key is None or key > best_key:
            best_key, best_pos = key, positions
    code = CodeSpec.from_info_set(poset.info_indices(best_pos), n)
    return best_key[0], [code]


# ------------------------------------------------------------- weight counts


def weight_distribution_via_dual(code: CodeSpec) -> list[int]:
    """Exact weight distribution from the dual spectrum (MacWilliams).

    Enumerates the 2^(N-K) dual codewords as packed 64-bit words, so it
    needs N <= 64 and a dual dimension small enough to walk.
    """
    N, K = code.N, code.K
    if N > 64:
        raise ValueError("dual-spectrum counting requires N <= 64")
    if N - K > 30:
        raise ValueError("dual dimension too large to enumerate")
    dual_basis = _gf2.nullspace(code.generator_rows_packed(), N)
    assert len(dual_basis) == N - K
    hist = _kernels.gray_weight_histogram(
        np.array(dual_basis, dtype=np.uint64), N
    )
    # MacWilliams transform with exact integer Krawtchouk sums
    dist = []
    scale = 1 << (N - K)
    for j in range(N + 1):
        acc = 0
        for w in range(N + 1):
            bw = int(hist[w])
            if bw == 0:
                continue
            kraw = sum(
                (-1) ** i * math.comb(w, i) * math.comb(N - w, j - i)
                for i in range(max(0, j - (N - w)), min(j, w) + 1)
            )
            acc += bw * kraw
        q, rem = divmod(acc, scale)
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
    masks = code.gen_set.masks
    r = max(m.bit_count() for m in masks)
    total = 0
    for m in masks:
        if m.bit_count() == r:
            lam = sum((~m & ((1 << i) - 1)).bit_count() for i in range(code.n) if m >> i & 1)
            total += 1 << (r + lam)
    return total
