"""Reference implementations that the tests hold the library to.

These are the plain forms of code that ``rmpsc`` runs in another shape: the
index order as a pairwise prefix-count test (the library derives it from its
generating steps), the pairwise closure and antichain of an index set (the
library closes N-bit words by masked shifts), the pairwise dominance
relation of the monomial poset, the pairwise consistency check of a
reliability order, the exhaustive search over every ideal as a position
set (the library enumerates, as words, only the ideals that permutations of
the top index bits map onto themselves), the same search as a 0/1 program
for scipy's MILP solver, the BLTA block structure as the runs of
coordinate swaps that map the generator monomials onto themselves (the
library reads it off the derivative dimensions), the automorphism test as
a GF(2) rank of the generator rows and their images, and the dual basis as
a nullspace by elimination (the library reads both off the polar
transform: a word is a codeword iff its input bits are zero on the frozen
set, and the dual has the reversed frozen set as its information set), and
successive
cancellation decoding that visits every leaf, with the textbook f and g,
with the input of every node recorded (the kernel keeps the inputs of the
nodes it computes), and the SC kernel's pruned walk as a recursion (the
library runs it as a flat plan).  Results must be equal, not just close.

The weight spectrum of a span of packed words is the walk over every XOR
combination (the library counts it by a split of the coordinates), and the
absorption probe decodes every frame of every swap, one swap at a time,
against a plain SC reference decoded up front, or in windows of whole
frames shared by the identity and the open swaps, each swap up to its first
differing window (the library decodes whole frames for its first window
only, and then each open swap's own SC nodes).

Beside them are helpers that only the tests use: the seeded hill-climb over
one-monomial swaps that searched n >= 8 before the search was exact (a
baseline the exact search must never fall below) with the degree-r fill by
reliability that seeds it, affine-map composition, the
probe batch with its plain SC reference, the single-permutation absorption
probe and the brute-force minimum-weight count.
"""

from __future__ import annotations

import numpy as np

from rmpsc._kernels import (
    _RATE1_GUARD, _TILE, _batch_rows, _f, _g, _popcount_u64, _scratch, _tiles,
)
from rmpsc._gf2 import _pivots, pack_row
from rmpsc.autgroup import (
    PROBE_MINSUM,
    AbsorptionProbeError,
    AffineMap,
    BlockStructure,
    Permutation,
    _blocks_from_pairs,
    _swap_permutation,
    permutation_from_affine,
    variable_swap,
)
from rmpsc.channel import noisy_frames
from rmpsc.codes import (
    CodeSpec,
    ReliabilityOrder,
    beta_expansion_reliability,
    rm_order,
)
from rmpsc.monomials import _steps_below, derivative_dimensions
from rmpsc.scdec import sc_decode_frames


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


def _swap_bits(x: int, a: int, b: int) -> int:
    bit_a = (x >> a) & 1
    bit_b = (x >> b) & 1
    if bit_a != bit_b:
        x ^= (1 << a) | (1 << b)
    return x


def invariant_under_top_bits(info, n: int, s: int) -> bool:
    """Whether every permutation of the top s index bits maps ``info`` onto
    itself; the swaps of adjacent bits generate those permutations."""
    return all(_swap_bits(i, v, v + 1) in info for v in range(n - s, n - 1) for i in info)


def milp_symmetry_feasible(n: int, k: int, s: int) -> bool:
    """Whether a dimension-k decreasing code of degree <= rm_order(k, n)
    has symmetry >= s, decided by scipy's MILP solver (HiGHS).

    x_i in {0, 1} for each index of popcount >= n - rm_order(k, n); x_j <=
    x_i for each step from j up to i; sum x = k; and d_{n-s} = d_{n-1},
    which for a decreasing set's nonincreasing derivative dimensions d_v
    makes the top s of them equal.
    """
    from scipy.optimize import LinearConstraint, milp
    from scipy.sparse import coo_matrix

    r = rm_order(k, n)
    pool = [i for i in range(1 << n) if i.bit_count() >= n - r]
    col = {i: c for c, i in enumerate(pool)}
    pairs = [(col[j], col[i]) for i in pool for j in _steps_below(i) if j in col]
    rows = [m for m in range(len(pairs)) for _ in (0, 1)]
    cols = [c for pair in pairs for c in pair]
    steps = coo_matrix(([1, -1] * len(pairs), (rows, cols)), shape=(len(pairs), len(pool)))
    # d_v counts the members with bit v clear
    equal = [(i >> (n - 1) & 1) - (i >> (n - s) & 1) for i in pool]
    res = milp(
        np.zeros(len(pool)),
        constraints=[
            LinearConstraint(steps, -np.inf, 0),
            LinearConstraint(np.array([np.ones(len(pool)), equal]), [k, 0], [k, 0]),
        ],
        integrality=np.ones(len(pool)),
        bounds=(0, 1),
    )
    if res.status not in (0, 2):  # solved, or proved infeasible
        raise RuntimeError(f"MILP solver gave no verdict: {res.message}")
    return res.status == 0


def _admissible_swaps(code: CodeSpec) -> dict[tuple[int, int], bool]:
    # swapping two bits of an index swaps the same two variables of its monomial
    info = code.info_set
    out = {}
    for a in range(code.n):
        for b in range(a + 1, code.n):
            out[(a, b)] = all(_swap_bits(i, a, b) in info for i in info)
    return out


def compute_blta_structure(code: CodeSpec) -> BlockStructure:
    """Diagonal block sizes of the affine automorphism group of a decreasing
    code, from invariance of the generator monomials under coordinate swaps."""
    adm = _admissible_swaps(code)
    try:
        blocks = _blocks_from_pairs(code.n, lambda a, b: adm[(a, b)])
    except AbsorptionProbeError as exc:
        raise ValueError(f"swap admissibility is not block shaped: {exc}") from exc
    return BlockStructure(blocks)


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


def is_code_automorphism(p: Permutation, code: CodeSpec) -> bool:
    """Exact row-space test: generator rows permuted by p must span the same
    space as the originals."""
    if p.N != code.N:
        raise ValueError(f"permutation length {p.N} does not match N={code.N}")
    rows = code.generator_rows()
    packed = [pack_row(r) for r in rows]
    permuted = [pack_row(p.apply(r)) for r in rows]
    return rank(packed + permuted) == code.K


def compose_affine(t1: AffineMap, t2: AffineMap) -> AffineMap:
    """t1 after t2: z -> A1 (A2 z + b2) + b1."""
    return AffineMap((t1.A @ t2.A) & 1, ((t1.A @ t2.b) + t1.b) & 1)


def _probe_batch(code: CodeSpec, trials: int, snr_db: float, seed: int, minsum: bool):
    """Fixed batch of noisy-codeword LLRs plus the plain SC reference output,
    both (trials, N) node-major views, decoded in calls of at most
    ``_batch_rows(N)`` frames (SC decisions do not depend on the batch)."""
    _, llrs = noisy_frames(code, snr_db, seed, (0xAB5,), 0, trials)
    rows = _batch_rows(code.N)
    sc_ref = np.empty((code.N, trials), dtype=np.uint8)
    for lo in range(0, trials, rows):
        sc_ref[:, lo : lo + rows] = sc_decode_frames(llrs[lo : lo + rows], code, minsum=minsum).T
    return llrs, sc_ref.T


def _branch_matches_sc(
    llrs, sc_ref, perm: Permutation, code: CodeSpec, minsum: bool, chunk=64
) -> bool:
    p = perm.perm
    for lo in range(0, llrs.shape[0], chunk):
        block = llrs[lo : lo + chunk]
        branch_in = np.empty_like(block)
        branch_in[:, p] = block
        x_hat = sc_decode_frames(branch_in, code, minsum=minsum)
        if not np.array_equal(x_hat[:, p], sc_ref[lo : lo + chunk]):
            return False
    return True


def _absorbed_swaps(llrs, swaps, code: CodeSpec, minsum: bool) -> list[tuple[int, int]]:
    """The swaps whose branch, the SC decode of the swapped LLRs swapped
    back, equals plain SC on every frame of ``llrs``.

    Rounds over the swaps still open: the identity and each open swap get
    the same window of the next max(1, rows // (open + 1)) frames, rows =
    ``_batch_rows(N)``, and the windows, permuted, are the rows of one
    kernel call, at most rows rows (the n(n-1)/2 swaps of n <= 23
    variables and the identity never outnumber rows).  The identity's
    rows are plain SC, so each round brings its own reference.  A swap
    closes at the first window that holds a differing frame.
    """
    N, trials = code.N, llrs.shape[0]
    rows = _batch_rows(N)
    # row 0 is the identity; a coordinate swap is an involution, so
    # branch_in[:, p] = llrs is llrs[:, p]
    perms = np.array([np.arange(N)] + [_swap_permutation(N, a, b) for a, b in swaps])
    frames = llrs.T  # node-major, (N, trials)
    # one buffer for every round's gather, node-major: frame pos + i of
    # block j (0 the identity, then the open swaps) on row j * window + i
    work = np.empty(max(rows, len(perms)) * N)
    open_ = np.arange(len(swaps))
    pos = 0
    while open_.size and pos < trials:
        window = min(max(1, rows // (open_.size + 1)), trials - pos)
        group = perms[np.concatenate(([0], open_ + 1))].T  # (N, open + 1)
        stacked = work[: group.size * window].reshape(N, open_.size + 1, window)
        # the indices are valid; take would buffer its output under "raise"
        np.take(frames[:, pos : pos + window], group, axis=0, out=stacked, mode="clip")
        X = sc_decode_frames(stacked.reshape(N, -1).T, code, minsum=minsum)
        X = X.T.reshape(stacked.shape)
        # each swap's decisions against plain SC's, gathered by the same swap
        differ = (X[:, 1:] != np.take(X[:, 0], group[:, 1:], axis=0)).any(axis=(0, 2))
        open_ = open_[~differ]
        pos += window
    return [swaps[j] for j in open_.tolist()]


def absorption_structure_per_swap(
    code: CodeSpec, trials: int = 500, snr_db: float = 2.0, seed: int = 0
) -> BlockStructure:
    """The absorption probe swap by swap: every admissible swap decodes all
    ``trials`` frames of the shared batch, in 64-frame chunks."""
    dims = derivative_dimensions(code.info_set, code.n)
    llrs, sc_ref = _probe_batch(code, trials, snr_db, seed, PROBE_MINSUM)

    def absorbed(a, b):
        swap = permutation_from_affine(variable_swap(code.n, a, b))
        return dims[a] == dims[b] and _branch_matches_sc(llrs, sc_ref, swap, code, PROBE_MINSUM)

    return BlockStructure(_blocks_from_pairs(code.n, absorbed))


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


def _gray_span(basis: np.ndarray) -> np.ndarray:
    """All XOR combinations of the given uint64 basis words, Gray order."""
    out = np.zeros(1 << len(basis), dtype=np.uint64)
    x = np.uint64(0)
    for g in range(1, 1 << len(basis)):
        x ^= basis[(g & -g).bit_length() - 1]
        out[g] = x
    return out


def gray_weight_histogram(basis, nbits: int) -> np.ndarray:
    """Weight distribution of the span of packed words (codewords as uint64).

    Walks all 2^k XOR combinations, split into two Gray-ordered halves; the
    zero word is counted.
    """
    basis = np.asarray(basis, dtype=np.uint64)
    counts = np.zeros(nbits + 1, dtype=np.int64)
    k1 = len(basis) // 2
    lo = _gray_span(basis[:k1])
    for word in _gray_span(basis[k1:]):
        w = _popcount_u64(lo ^ word)
        counts += np.bincount(w.astype(np.int64), minlength=nbits + 1)
    return counts


def boxplus_reference(a, b, minsum):
    """The check-node rule with its sign as a product with +-1.0."""
    aa = np.abs(a)
    ab = np.abs(b)
    sign = np.where((a < 0) != (b < 0), -1.0, 1.0)
    if minsum:
        return sign * np.minimum(aa, ab)
    mag = (
        np.minimum(aa, ab)
        + np.log1p(np.exp(-(aa + ab)))
        - np.log1p(np.exp(-np.abs(aa - ab)))
    )
    return sign * np.maximum(mag, 0.0)


def sc_reference(llrs, frozen, minsum):
    """Plain SC of (B, N) LLR rows in natural bit order: every node computes
    f = ``boxplus_reference`` and g = (1 - 2u)*a + b, and every leaf decides
    (v < 0), or 0 if frozen.  No node kind is decoded any other way.
    Returns the (B, N) uint8 codewords."""

    def decode(v, frozen):
        if v.shape[1] == 1:
            return ((v < 0) & (frozen[0] == 0)).astype(np.uint8)
        h = v.shape[1] // 2
        a, b = v[:, :h], v[:, h:]
        left = decode(boxplus_reference(a, b, minsum), frozen[:h])
        right = decode((1.0 - 2.0 * left) * a + b, frozen[h:])
        return np.concatenate((left ^ right, right), axis=1)

    return decode(np.asarray(llrs, dtype=np.float64), np.asarray(frozen, dtype=np.uint8))


def sc_node_inputs(llrs, frozen, minsum):
    """The input of every node of ``sc_reference``'s recursion on (B, N) LLR
    rows, Rate-0 nodes included: entry l is an (N, B) float64 array whose
    rows [s, s + 2^l) hold the LLRs fed to the node at tree level l that
    starts at u-index s."""
    llrs = np.asarray(llrs, dtype=np.float64)
    inputs = [np.empty((llrs.shape[1], llrs.shape[0])) for _ in range(llrs.shape[1].bit_length())]

    def decode(v, frozen, start):
        inputs[v.shape[1].bit_length() - 1][start : start + v.shape[1]] = v.T
        if v.shape[1] == 1:
            return ((v < 0) & (frozen[0] == 0)).astype(np.uint8)
        h = v.shape[1] // 2
        a, b = v[:, :h], v[:, h:]
        left = decode(boxplus_reference(a, b, minsum), frozen[:h], start)
        right = decode((1.0 - 2.0 * left) * a + b, frozen[h:], start + h)
        return np.concatenate((left ^ right, right), axis=1)

    decode(llrs, np.asarray(frozen, dtype=np.uint8), 0)
    return inputs


def sc_decode_recursive(llrs: np.ndarray, frozen: np.ndarray, minsum: bool = False):
    """Decode a batch of LLR rows by recursion over the pruned tree: the walk
    that ``rmpsc._kernels.sc_decode_batch`` compiles into a flat plan, kept
    as it was (the comment it refers to is the kernel's).

    Parameters
    ----------
    llrs : (B, N) float array of finite channel LLRs (positive favours
        bit 0).
    frozen : (N,) uint8 mask, 1 on frozen u-positions.
    minsum : replace the exact check-node rule by min-sum.

    The root's rows are the (N, B) node-major input ``llrs.T``, which the
    call only reads: a node-major batch (a (B, N) view whose transpose is
    C-contiguous) is read in place, any other is copied.  Below the root the
    call allocates its LLR memory once (the per-layer arrays of Tal &
    Vardy's SC decoder): an (N, B) workspace whose rows [2^l, 2^(l+1)) hold
    the node being decoded at level l < n, which f and g write in place, and
    a scratch of whole rows, at most ``_TILE`` elements per operand (or one
    row), over which f and g run tile by tile on larger nodes.  Its
    decisions go into one (N, B) uint8 codeword array, written in place.  f
    and g apply their signs by flipping the float64 sign bit, with the same
    bits as multiplying by 1.0 - 2.0*bit.

    Returns
    -------
    X : (B, N) uint8 array of decided codeword bits, a view of the node-major
        codeword array (not C-contiguous); the decided input bits are
        ``polar_transform(X)``, the transform being an involution.
    """
    llrs = np.asarray(llrs, dtype=np.float64)
    B, N = llrs.shape
    is_frozen = np.asarray(frozen, dtype=bool).tolist()
    # info_before[i]: number of information bits among u-indices [0, i)
    info_before = [0]
    for f in is_frozen:
        info_before.append(info_before[-1] + (not f))
    n = N.bit_length() - 1
    X = np.zeros((N, B), dtype=np.uint8)
    L = np.empty((N, B))
    scratch = _scratch(max(1, min(N // 2, _TILE // max(B, 1))) * B)
    # per level: the node rows, their halves a and b with the child level's
    # rows, and the tiles of f and g over them
    rows = [L[1 << lv : 2 << lv] for lv in range(n)] + [np.ascontiguousarray(llrs.T)]
    halves = [None]
    tiles = [None]
    for lv in range(1, n + 1):
        ab = rows[lv].reshape(2, 1 << (lv - 1), B)
        halves.append((ab[0], ab[1], rows[lv - 1]))
        tiles.append(_tiles(ab, rows[lv - 1], scratch))

    def node(level, start):
        v = rows[level]
        size = 1 << level
        end = start + size
        info = info_before[end] - info_before[start]
        if info == 0:
            return
        if info == 1 and not is_frozen[end - 1]:
            # fold the halves down to the leaf row and repeat its decision
            for lv in range(level, 0, -1):
                a, b, child = halves[lv]
                np.add(a, b, out=child)
            np.less(rows[0], 0.0, out=X[start:end].view(bool))
            return
        if info == size and np.abs(v).min(initial=np.inf) > (
            0.0 if minsum else _RATE1_GUARD[level] if level < len(_RATE1_GUARD) else np.inf
        ):
            np.less(v, 0.0, out=X[start:end].view(bool))
            return
        mid = start + size // 2
        if info_before[mid] == info_before[start]:
            # Rate-0 left child: its decisions are 0, so f is not needed and
            # g is (1.0 - 2.0*0)*a + b = a + b
            a, b, child = halves[level]
            np.add(a, b, out=child)
            node(level - 1, mid)
            X[start:mid] = X[mid:end]
            return
        f_tiles, g_tiles = tiles[level]
        _f(f_tiles, minsum)
        node(level - 1, start)
        _g(g_tiles, X[start:mid])
        node(level - 1, mid)
        X[start:mid] ^= X[mid:end]

    try:
        node(n, 0)
    finally:
        del node  # the closure refers to itself: break the cycle now, not at gc
    return X.T
