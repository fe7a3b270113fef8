"""Reference implementations that the tests hold the library to.

These are the plain forms of code that ``rmpsc`` runs in another shape: the
index order as a pairwise prefix-count test (the library derives it from its
generating steps), the pairwise closure and antichain of an index set, the
pairwise dominance relation of the monomial poset, the pairwise consistency
check of a reliability order, and the symmetry search that rescans the whole
ideal for every candidate swap.  Results must be equal, not just close.

Beside them are helpers that only the tests use: affine-map composition, the
single-permutation absorption probe and the brute-force minimum-weight count.
"""

from __future__ import annotations

import numpy as np

from rmpsc.autgroup import (
    PROBE_MINSUM,
    AffineMap,
    Permutation,
    _branch_matches_sc,
    _probe_batch,
)
from rmpsc.codes import (
    CodeSpec,
    ReliabilityOrder,
    beta_expansion_reliability,
    rm_order,
    rm_polar_construct,
)


def _mask_leq(m1: int, m2: int, n: int) -> bool:
    # Prefix-count form of the order: with delta the degree gap, m1 <= m2 iff
    # every prefix {0..x} holds at least as many variables of m1 as of m2
    # minus delta.  Equivalent to index-wise domination of m1 by the
    # largest-degree(m1) divisor of m2, which dominates all other divisors.
    d1 = m1.bit_count()
    d2 = m2.bit_count()
    if d1 > d2:
        return False
    delta = d2 - d1
    c1 = 0
    c2 = 0
    for x in range(n):
        c1 += (m1 >> x) & 1
        c2 += (m2 >> x) & 1
        if c1 < c2 - delta:
            return False
    return True


def upward_closure(i_min, n: int) -> frozenset[int]:
    """All indices above some element of ``i_min`` in the index order."""
    gens = [~int(j) & ((1 << n) - 1) for j in i_min]
    for j in i_min:
        if not 0 <= int(j) < (1 << n):
            raise ValueError(f"generator index {j} out of range for n={n}")
    out = []
    for i in range(1 << n):
        mi = ~i & ((1 << n) - 1)
        if any(_mask_leq(mi, g, n) for g in gens):
            out.append(i)
    return frozenset(out)


def reduce_to_antichain(indices, n: int) -> frozenset[int]:
    """Drop every index dominated by another member (in the index order)."""
    idx = set(int(i) for i in indices)
    full = (1 << n) - 1
    keep = []
    for i in idx:
        mi = ~i & full
        if not any(j != i and _mask_leq(mi, ~j & full, n) for j in idx):
            keep.append(i)
    return frozenset(keep)


def check_consistency(rel) -> bool:
    """``ReliabilityOrder.upo_consistent``, over all N^2 pairs of channels."""
    n, N = rel.n, 1 << rel.n
    rank = rel.ranks()
    full = N - 1
    for j in range(N):
        mj = ~j & full
        for i in range(N):
            if rank[i] < rank[j] and _mask_leq(~i & full, mj, n):
                return False
    return True


class MonomialPoset:
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
        self.below = [
            frozenset(
                j for j, mj in enumerate(masks) if j != i and _mask_leq(mj, mi, n)
            )
            for i, mi in enumerate(masks)
        ]
        self.above = [
            frozenset(
                j for j, mj in enumerate(masks) if j != i and _mask_leq(mi, mj, n)
            )
            for i, mi in enumerate(masks)
        ]

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
        return [i for i in positions if not (self.above[i] & positions)]


def search_max_symmetry(
    n: int,
    k: int,
    mode: str = "exhaustive",
    *,
    seed: int = 0,
    restarts: int = 32,
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
    r = rm_order(k, n)
    poset = MonomialPoset(n, r)

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

    return _search_heuristic(n, k, poset, seed=seed, restarts=restarts, rel=rel)


def _search_heuristic(n, k, poset: MonomialPoset, *, seed, restarts, rel=None):
    rng = np.random.default_rng(seed)
    if rel is None:
        rel = beta_expansion_reliability(n)
    rel_rank = rel.ranks()

    def rel_score(positions):
        return sum(int(rel_rank[~poset.masks[p] & poset.full]) for p in positions)

    def key_of(positions):
        return (poset.symmetry_of(positions), rel_score(positions))

    def seeded_ideal():
        info = rm_polar_construct(n, k, rel if rel.upo_consistent else None).info_set
        return {poset.pos[~i & poset.full] for i in info}

    def random_ideal():
        positions: set = set()
        while len(positions) < k:
            cands = poset.addable(positions)
            positions.add(cands[int(rng.integers(len(cands)))])
        return positions

    best_key, best_pos = None, None
    for attempt in range(max(1, restarts)):
        positions = seeded_ideal() if attempt == 0 else random_ideal()
        key = key_of(positions)
        improved = True
        while improved:
            improved = False
            for e_out in poset.removable(positions):
                rest = positions - {e_out}
                for e_in in poset.addable(rest):
                    if e_in == e_out:
                        continue
                    cand = rest | {e_in}
                    ck = key_of(cand)
                    if ck > key:
                        positions, key, improved = cand, ck, True
                        break
                if improved:
                    break
        if best_key is None or key > best_key:
            best_key, best_pos = key, positions
    code = CodeSpec.from_info_set(poset.info_indices(best_pos), n)
    return best_key[0], [code]


def compose_affine(t1: AffineMap, t2: AffineMap) -> AffineMap:
    """t1 after t2: z -> A1 (A2 z + b2) + b1."""
    return AffineMap((t1.A @ t2.A) & 1, ((t1.A @ t2.b) + t1.b) & 1)


def is_absorbed_empirical(
    perm: Permutation,
    code: CodeSpec,
    trials: int = 500,
    snr_db: float = 2.0,
    seed: int = 0,
    minsum: bool = PROBE_MINSUM,
) -> bool:
    """Probe whether the permuted-decode branch reproduces plain SC on every
    trial.  One-sided: a non-absorbed map may pass with probability shrinking
    in the trial count, an absorbed one never fails."""
    llrs, sc_ref = _probe_batch(code, trials, snr_db, seed, minsum)
    return _branch_matches_sc(llrs, sc_ref, perm, code, minsum)


def count_min_weight_codewords(code: CodeSpec, k_limit: int = 24) -> int:
    """Exact count of minimum-weight codewords by walking all 2^K codewords."""
    if code.K > k_limit:
        raise ValueError(f"dimension {code.K} exceeds the brute-force limit {k_limit}")
    rows = code.generator_rows_packed()
    d = code.min_distance
    x = 0
    count = 0
    for g in range(1, 1 << code.K):
        x ^= rows[(g & -g).bit_length() - 1]
        if x.bit_count() == d:
            count += 1
    return count
