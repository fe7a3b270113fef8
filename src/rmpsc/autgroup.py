"""Block-lower-triangular affine (BLTA) automorphism machinery: structure
determination, group sizes, uniform sampling, affine-to-permutation
conversion, empirical absorption groups, and equivalence-class counting."""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, groupby

import numpy as np

from . import _gf2
from ._kernels import LLR_CLAMP, _batch_rows, _rows_within, _scratch_width, sc_decode_batch
from .codes import CodeSpec, dim_rm
from .monomials import derivative_dimensions
# encode_batch is unused here but kept importable: perfbench/spans.py wraps it by name
from .scdec import Permutation, _integers, encode_batch, polar_transform, sc_decode_frames
from .channel import noisy_frames

__all__ = [
    "BlockStructure",
    "AffineMap",
    "Permutation",
    "AbsorptionProbeError",
    "permutation_from_affine",
    "variable_swap",
    "is_code_automorphism",
    "compute_blta_structure",
    "blta_size",
    "sample_blta",
    "absorption_structure_empirical",
    "equivalent_class_count",
    "sample_distinct_class_automorphisms",
    "save_permutations",
    "load_permutations",
]


class AbsorptionProbeError(RuntimeError):
    """The empirical absorption probe produced an inconsistent answer."""


@dataclass(frozen=True)
class BlockStructure:
    """Ordered diagonal block sizes of a block-lower-triangular group; no
    blocks for n = 0, whose group is the identity alone."""

    blocks: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "blocks", tuple(_integers(self.blocks, "block sizes").tolist()))
        if any(b < 1 for b in self.blocks):
            raise ValueError(f"block sizes must be positive, got {self.blocks}")

    @property
    def n(self) -> int:
        return sum(self.blocks)

    @property
    def last(self) -> int:
        return self.blocks[-1]

    def boundaries(self) -> frozenset[int]:
        out, acc = [], 0
        for b in self.blocks:
            acc += b
            out.append(acc)
        return frozenset(out)

    def refines(self, other: "BlockStructure") -> bool:
        """True when this structure splits the other's blocks (so the group
        it defines is a subgroup)."""
        return self.n == other.n and self.boundaries() >= other.boundaries()

    def contains(self, p: "Permutation") -> bool:
        """Exact membership of a code-bit permutation in BLTA(S).

        p is affine iff it equals z -> A z + b with b = p(0) and column i of
        A equal to p(e_i) + b; the map lies in the group iff no column has a
        bit in a row of an earlier block than its own.
        """
        if p.N != 1 << self.n:
            raise ValueError(f"permutation length {p.N} does not match 2^{self.n}")
        b = int(p.perm[0])
        cols = [int(p.perm[1 << i]) ^ b for i in range(self.n)]
        start = 0
        for size in self.blocks:
            if any(cols[i] & ((1 << start) - 1) for i in range(start, start + size)):
                return False
            start += size
        affine = np.array([b], dtype=np.intp)
        for col in cols:
            affine = np.concatenate([affine, affine ^ col])
        return bool(np.array_equal(affine, p.perm))

    def __str__(self):
        return "(" + ",".join(str(b) for b in self.blocks) + ")"


@dataclass(frozen=True)
class AffineMap:
    """Invertible GF(2) map z -> A z + b on n-bit column vectors."""

    A: np.ndarray
    b: np.ndarray

    def __post_init__(self):
        A = np.asarray(self.A, dtype=np.uint8) & 1
        b = np.asarray(self.b, dtype=np.uint8) & 1
        if b.ndim != 1 or A.shape != (b.size, b.size):
            raise ValueError(f"shape mismatch: A {A.shape}, b {b.shape}")
        if not _gf2.is_invertible(A):
            raise ValueError("matrix is singular over GF(2)")
        A.setflags(write=False)
        b.setflags(write=False)
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "b", b)

    @property
    def n(self) -> int:
        return self.b.shape[0]


def permutation_from_affine(t: AffineMap) -> Permutation:
    """Code-bit permutation induced by an affine map acting on the binary
    representations (bit i of the index is coordinate i)."""
    n = t.n
    N = 1 << n
    bits = ((np.arange(N)[None, :] >> np.arange(n)[:, None]) & 1).astype(np.uint8)
    z = (t.A @ bits + t.b[:, None]) & 1
    perm = (z.astype(np.intp) << np.arange(n, dtype=np.intp)[:, None]).sum(axis=0)
    return Permutation(perm)


def variable_swap(n: int, a: int, b: int) -> AffineMap:
    """Transposition of coordinates a and b as an affine map."""
    A = np.eye(n, dtype=np.uint8)
    A[[a, b]] = A[[b, a]]
    return AffineMap(A, np.zeros(n, dtype=np.uint8))


def is_code_automorphism(p: Permutation, code: CodeSpec) -> bool:
    """Exact test that p maps the code onto itself: every permuted generator
    row is a codeword.

    The transform is an involution, so a word x is a codeword iff x . G_N,
    its input bits, is zero on every frozen position.  p is a bijection, so
    the K permuted rows, independent, then span the code.
    """
    if p.N != code.N:
        raise ValueError(f"permutation length {p.N} does not match N={code.N}")
    u = polar_transform(p.apply(code.generator_rows()))
    return not u[:, code.frozen_mask().astype(bool)].any()


def _blocks_from_pairs(n: int, pair_ok) -> tuple[int, ...]:
    """Maximal consecutive runs in which every pair is admissible; raises
    when the pair relation is not exactly a union of such blocks."""
    blocks = []
    start = 0
    while start < n:
        end = start
        while end + 1 < n and all(pair_ok(u, end + 1) for u in range(start, end + 1)):
            end += 1
        blocks.append(end - start + 1)
        start = end + 1
    bounds = np.cumsum(blocks)
    block_of = np.searchsorted(bounds, np.arange(n), side="right")
    for a in range(n):
        for b in range(a + 1, n):
            if pair_ok(a, b) != (block_of[a] == block_of[b]):
                raise AbsorptionProbeError(
                    f"pair relation is not block-consistent at ({a}, {b})"
                )
    return tuple(int(b) for b in blocks)


def compute_blta_structure(code: CodeSpec) -> BlockStructure:
    """Diagonal block sizes of the affine automorphism group of a decreasing
    code: the runs of equal derivative dimensions.

    Let d_v count the generator monomials that contain variable v (the
    dimension of the derivative along v).  For a < b, replacing x_b by x_a
    maps the monomials that contain b but not a one-to-one into those that
    contain a but not b: each image lies below its source, and a decreasing
    set holds it.  So d_a >= d_b, and the dimensions are nonincreasing.
    When d_a = d_b that map is a bijection, so the swap (a b) maps the set
    onto itself.  When d_a > d_b the swap sends some member with a but not
    b outside the set, so it changes the code.  The admissible swaps are
    therefore exactly the pairs inside one run (Bardet, Dragoi, Otmani &
    Tillich, ISIT 2016).
    """
    dims = derivative_dimensions(code.info_set, code.n)
    return BlockStructure(tuple(len(list(run)) for _, run in groupby(dims)))


def _gl_order(s: int) -> int:
    out = 1
    for k in range(s):
        out *= (1 << s) - (1 << k)
    return out


def blta_size(S: BlockStructure) -> int:
    """Exact order of the block-lower-triangular affine group: offsets times
    invertible diagonal blocks times free below-block entries."""
    n = S.n
    free = (n * n - sum(b * b for b in S.blocks)) // 2
    out = 1 << (n + free)
    for b in S.blocks:
        out *= _gl_order(b)
    return out


def sample_blta(S: BlockStructure, rng) -> AffineMap:
    """Uniform draw: each diagonal block uniform over the invertible matrices
    by rejection, free below-block entries and the offset uniform."""
    rng = rng if isinstance(rng, np.random.Generator) else np.random.default_rng(rng)
    n = S.n
    A = np.zeros((n, n), dtype=np.uint8)
    start = 0
    for b in S.blocks:
        while True:
            blk = rng.integers(0, 2, size=(b, b), dtype=np.uint8)
            if _gf2.is_invertible(blk):
                break
        A[start : start + b, start : start + b] = blk
        A[start : start + b, :start] = rng.integers(0, 2, size=(b, start), dtype=np.uint8)
        start += b
    return AffineMap(A, rng.integers(0, 2, size=n, dtype=np.uint8))


# ----------------------------------------------------------------- absorption


# Probes classify with the min-sum decoder variant: its magnitude algebra is
# order-insensitive, so its absorption group realises the full block
# structure and reproduces the published class count (128,60) -> 2205,
# whereas the exact check-node rule absorbs only a subgroup (for both of
# these codes LTA alone: 6615 classes for (128,60), 945 for (64,37)).
# Classes that are distinct under min-sum are therefore also distinct for
# the exact decoder.
PROBE_MINSUM = True
# the noisy frames a probe decodes, and their Eb/N0 in dB
PROBE_TRIALS = 500
PROBE_SNR_DB = 2.0


def _swap_permutation(N: int, a: int, b: int) -> np.ndarray:
    """``permutation_from_affine(variable_swap(n, a, b)).perm`` for N = 2^n,
    as the exchange of index bits a and b."""
    i = np.arange(N)
    return i ^ (((i >> a) ^ (i >> b)) & 1) * ((1 << a) | (1 << b))


def _absorbed_swaps(llrs, swaps, code: CodeSpec, minsum: bool) -> list[tuple[int, int]]:
    """The swaps whose branch, the SC decode of the swapped LLRs swapped
    back, equals plain SC on every frame of ``llrs``.

    Round 1 decodes a first window of max(1, rows // (len(swaps) + 1))
    frames, rows = ``_batch_rows(N)``, unswapped (plain SC) and under every
    swap, as the rows of one ``sc_decode_frames`` call, and closes each swap
    that differs on one of them.  The swaps still open are checked on the
    other frames node by node.  A swap of index bits a < b acts only inside
    the SC nodes of tree level b + 1: above them f, g, the Rep fold and the
    Rate-1 guard (which reads min |v|) act alike on halves that the swap
    permutes alike, so the swapped decode feeds each of these nodes the
    swapped input of plain SC's, up to the first node whose decisions
    differ, and decisions that differ there stay different in X.  So a frame
    tells the swap apart iff some node of level b + 1, fed plain SC's own
    input, decides differently in the two bit orders.  Plain SC decodes the
    other frames in windows of at most round 1's rows (the last one may
    overlap frames already checked) and keeps the node inputs of the open
    swaps' levels (``sc_decode_batch``'s ``keep``, one
    window at a time); ``_alike_on_nodes`` then decodes them in both orders.
    The answer is that of decoding every frame under every swap.
    """
    N, trials = code.N, llrs.shape[0]
    if not swaps:
        return []
    rows = _batch_rows(N)
    # row 0 is the identity; a coordinate swap is an involution, so
    # branch_in[:, p] = llrs is llrs[:, p]
    perms = np.array([np.arange(N)] + [_swap_permutation(N, a, b) for a, b in swaps])
    frames = llrs.T  # node-major, (N, trials)
    window = min(max(1, rows // len(perms)), trials)
    first = len(perms) * window  # rows of round 1's call
    # one buffer for round 1's gather, node-major (frame i of block j, 0 the
    # identity and then the swaps, on row j * window + i), and then for
    # plain SC's clamped windows and the node calls' gathers
    work = np.empty(max(rows, len(perms)) * N)
    stacked = work[: first * N].reshape(N, len(perms), window)
    # the indices are valid; take would buffer its output under "raise"
    np.take(frames[:, :window], perms.T, axis=0, out=stacked, mode="clip")
    X = sc_decode_frames(stacked.reshape(N, -1).T, code, minsum=minsum)
    X = X.T.reshape(stacked.shape)
    # each swap's decisions against plain SC's, gathered by the same swap
    differ = (X[:, 1:] != np.take(X[:, 0], perms[1:].T, axis=0)).any(axis=(0, 2))
    open_ = [swap for swap, d in zip(swaps, differ.tolist()) if not d]
    frozen = code.frozen_mask()
    # plain SC's windows: w frames each, the last one ending at the last
    # frame; at most round 1's rows, and no wider a kernel scratch (whose
    # width does not grow with the rows everywhere)
    w = min(first, trials - window)
    while w > 1 and _scratch_width(N, w) > _scratch_width(N, first):
        w -= 1
    for lo in range(window, trials, max(w, 1)):
        if not open_:
            break
        lo = min(lo, trials - w)
        kept = {}
        for level in {b + 1 for _, b in open_}:
            # 2^level rows for each node of the level with an information bit
            nodes = (~frozen.reshape(-1, 1 << level).all(axis=1)).sum()
            kept[level] = np.zeros((nodes << level, w))
        clamped = work[: N * w].reshape(N, w)
        np.clip(frames[:, lo : lo + w], -LLR_CLAMP, LLR_CLAMP, out=clamped)
        sc_decode_batch(clamped.T, frozen, minsum, keep=kept)
        for level in sorted(kept):
            at = [swap for swap in open_ if swap[1] + 1 == level]
            alike = _alike_on_nodes(kept.pop(level), at, frozen, minsum, first, work)
            open_ = [swap for swap in open_ if swap[1] + 1 != level or swap in alike]
    return open_


def _alike_on_nodes(inputs, swaps, frozen, minsum, rows, work) -> list:
    """The swaps among ``swaps``, all of index bits a < b with the same
    level b + 1, that decide every node of that level alike in both bit
    orders, given the nodes' inputs: ``inputs``, the array that
    ``sc_decode_batch`` kept for the level, rows [j 2^(b+1), (j+1) 2^(b+1))
    for the j-th node with an information bit (a Rate-0 node decides zeros
    in any order).

    The nodes are taken one distinct frozen pattern at a time.  The inputs
    of a pattern's nodes are gathered into ``work``, unswapped and under
    each open swap, and decoded as the rows of kernel calls that each need
    no more workspace than a call of ``rows`` whole frames (``_rows_within``).
    A swap closes at the first call that decides one of its nodes
    differently.
    """
    size = 2 << swaps[0][1]
    w = inputs.shape[1]
    blocks = frozen.reshape(-1, size)
    patterns, which = np.unique(blocks[~blocks.all(axis=1)], axis=0, return_inverse=True)
    budget = _rows_within(size, frozen.size, rows)
    open_ = list(swaps)
    for u, pattern in enumerate(patterns):
        nodes = np.flatnonzero(which == u)
        # a call's nodes and frames, per order: all w frames of cj nodes, or
        # wc frames of one node
        per = max(1, budget // (len(open_) + 1))
        cj, wc = (per // w, w) if per >= w else (1, per)
        for j0 in range(0, nodes.size, cj):
            for c0 in range(0, w, wc):
                perms = np.array(
                    [np.arange(size)] + [_swap_permutation(size, a, b) for a, b in open_]
                )
                # take[k, o, j]: the row of input k of node j in order o
                take = nodes[j0 : j0 + cj] * size + perms.T[:, :, None]
                cols = inputs[:, c0 : c0 + wc]
                stacked = work[: take.size * cols.shape[1]].reshape(take.shape + cols.shape[1:])
                np.take(cols, take, axis=0, out=stacked, mode="clip")
                X = sc_decode_batch(stacked.reshape(size, -1).T, pattern, minsum)
                X = X.T.reshape(stacked.shape)
                differ = (X[:, 1:] != np.take(X[:, 0], perms[1:].T, axis=0)).any(axis=(0, 2, 3))
                open_ = [swap for swap, d in zip(open_, differ.tolist()) if not d]
                if not open_:
                    return []
    return open_


def absorption_structure_empirical(
    code: CodeSpec,
    trials: int = PROBE_TRIALS,
    snr_db: float = PROBE_SNR_DB,
    seed: int = 0,
) -> BlockStructure:
    """Empirical block structure of the SC absorption group.

    Every coordinate swap admissible for the full automorphism group (a
    pair of equal derivative dimensions) is probed on a shared batch of
    ``trials`` noisy codewords: it is absorbed iff SC on the swapped frames,
    swapped back, equals SC on every frame (``_absorbed_swaps``).  A first
    window of frames is decoded whole, unswapped (plain SC) and under every
    swap in one call.  A swap of index bits a < b acts only inside the SC
    nodes of size 2^(b+1), so on the other frames each swap still open is
    checked on those nodes alone: plain SC decodes the frames once and keeps
    the nodes' inputs, and each node is decoded in both bit orders.  A swap
    stops at its first differing window or node; the order in which frames
    are checked does not change whether any of them differs, so the answer
    is that of checking every frame of every swap.  Absorbed swaps must tile
    into consecutive blocks.  For a partially symmetric code of best
    distance whose dimension is not extreme, the last block is known to be
    one, and a probe result contradicting that raises.
    """
    if trials < 100:
        raise ValueError("need at least 100 probe trials")
    dims = derivative_dimensions(code.info_set, code.n)
    _, llrs = noisy_frames(code, snr_db, seed, (0xAB5,), 0, trials)
    swaps = [(a, b) for a, b in combinations(range(code.n), 2) if dims[a] == dims[b]]
    absorbed = set(_absorbed_swaps(llrs, swaps, code, PROBE_MINSUM))
    blocks = _blocks_from_pairs(code.n, lambda a, b: (a, b) in absorbed)
    result = BlockStructure(blocks)
    # structural guarantee: a partially/fully symmetric best-distance code of
    # non-extreme dimension whose generators touch every variable has a
    # trivial last absorption block (a code with unused variables is a
    # replicated shorter code, and swapping unused coordinates is always
    # absorbed)
    in_range = dim_rm(1, code.n) <= code.K <= dim_rm(code.n - 2, code.n)
    if (
        in_range
        and code.is_rm_polar
        and code.symmetry >= 2
        and code.uses_every_variable
        and result.last != 1
    ):
        raise AbsorptionProbeError(
            f"probe found last absorption block {result.last}, expected 1 "
            f"for this dimension; raise the trial count"
        )
    return result


def equivalent_class_count(S_full: BlockStructure, S_abs: BlockStructure) -> int:
    """Number of cosets of the absorption group inside the full group.

    The count is always odd.  A BLTA group on n variables has order
    2^(n + n(n-1)/2) times an odd number whatever its blocks, so the
    lower-triangular affine group LTA (all blocks 1) is a Sylow 2-subgroup
    of each of them.  SC absorbs LTA, so every absorption group contains it,
    and the index of a group containing a Sylow 2-subgroup is odd.
    """
    if not S_abs.refines(S_full):
        raise ValueError(f"{S_abs} is not a refinement of {S_full}")
    size_full = blta_size(S_full)
    size_abs = blta_size(S_abs)
    count, rem = divmod(size_full, size_abs)
    if rem:
        raise ValueError("group orders do not divide; structures are inconsistent")
    return count


def sample_distinct_class_automorphisms(
    code: CodeSpec,
    m: int,
    seed: int = 0,
    *,
    trials: int = PROBE_TRIALS,
    snr_db: float = PROBE_SNR_DB,
) -> list[Permutation]:
    """Draw m automorphisms from pairwise distinct absorption classes.

    The first element is the identity.  Candidates are sampled uniformly
    from the full group and accepted when no accepted representative r puts
    candidate . r^-1 in BLTA(S_abs), the probed absorption structure.  The
    probe is one-sided, so the true absorption group lies inside BLTA(S_abs)
    and accepted candidates are truly distinct.
    """
    if m < 1:
        raise ValueError(f"need at least one class, got m={m}")
    full = compute_blta_structure(code)
    abs_structure = absorption_structure_empirical(code, trials=trials, snr_db=snr_db, seed=seed)
    available = equivalent_class_count(full, abs_structure)
    if m > available:
        raise ValueError(f"requested {m} classes but the code has only {available}")
    reps = [Permutation.identity(code.N)]
    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(0x5A,)))
    budget = 128 + 64 * m
    for _ in range(budget):
        if len(reps) == m:
            break
        cand = permutation_from_affine(sample_blta(full, rng))
        if not any(abs_structure.contains(cand.compose(rep.inverse)) for rep in reps):
            reps.append(cand)
    if len(reps) < m:
        raise RuntimeError(
            f"sampling budget exhausted after {budget} draws with {len(reps)}/{m} classes found"
        )
    return reps


# -------------------------------------------------------------- persistence


def save_permutations(perms, path) -> None:
    """One integer per line; each permutation contributes N consecutive lines.
    Every entry is checked as a ``Permutation`` before the file is opened."""
    perms = [p if isinstance(p, Permutation) else Permutation(p) for p in perms]
    with open(path, "w", encoding="utf-8") as fh:
        for p in perms:
            fh.writelines(f"{v}\n" for v in p.perm.tolist())


def load_permutations(path, N: int) -> list[Permutation]:
    with open(path, "r", encoding="utf-8") as fh:
        values = [int(line) for line in fh if line.strip()]
    if len(values) % N:
        raise ValueError(f"file holds {len(values)} lines, not a multiple of N={N}")
    return [
        Permutation(np.array(values[i : i + N], dtype=np.intp))
        for i in range(0, len(values), N)
    ]
