"""Block-lower-triangular affine (BLTA) automorphism machinery: structure
determination, group sizes, uniform sampling, affine-to-permutation
conversion, empirical absorption groups, and equivalence-class counting."""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, groupby

import numpy as np

from . import _gf2
from .codes import CodeSpec, dim_rm
from .monomials import derivative_dimensions
# encode_batch is unused here but kept importable: perfbench/spans.py wraps it by name
from .scdec import Permutation, _integers, encode_batch, sc_decode_frames
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
        n = b.shape[0]
        if A.shape != (n, n):
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
    """Exact row-space test: generator rows permuted by p must span the same
    space as the originals."""
    if p.N != code.N:
        raise ValueError(f"permutation length {p.N} does not match N={code.N}")
    rows = code.generator_rows()
    packed = [_gf2.pack_row(r) for r in rows]
    permuted = [_gf2.pack_row(p.apply(r)) for r in rows]
    return _gf2.rank(packed + permuted) == code.K


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
    dims = derivative_dimensions(code.gen_set)
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


def _probe_batch(code: CodeSpec, trials: int, snr_db: float, seed: int, minsum: bool):
    """Fixed batch of noisy-codeword LLRs plus the plain SC reference output."""
    _, llrs = noisy_frames(code, snr_db, seed, (0xAB5,), 0, trials)
    sc_ref = sc_decode_frames(llrs, code, minsum=minsum)
    return llrs, sc_ref


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


def absorption_structure_empirical(
    code: CodeSpec,
    trials: int = PROBE_TRIALS,
    snr_db: float = PROBE_SNR_DB,
    seed: int = 0,
) -> BlockStructure:
    """Empirical block structure of the SC absorption group.

    Every coordinate swap admissible for the full automorphism group (a
    pair of equal derivative dimensions) is probed on a shared batch of
    noisy codewords; absorbed swaps must tile into consecutive blocks.  For
    a partially symmetric code of best distance whose dimension is not
    extreme, the last block is known to be one, and a probe result
    contradicting that raises.
    """
    if trials < 100:
        raise ValueError("need at least 100 probe trials")
    dims = derivative_dimensions(code.gen_set)
    llrs, sc_ref = _probe_batch(code, trials, snr_db, seed, PROBE_MINSUM)
    absorbed = {}
    for a, b in combinations(range(code.n), 2):
        absorbed[(a, b)] = dims[a] == dims[b] and _branch_matches_sc(
            llrs, sc_ref, permutation_from_affine(variable_swap(code.n, a, b)), code,
            PROBE_MINSUM,
        )
    blocks = _blocks_from_pairs(code.n, lambda a, b: absorbed[(a, b)])
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
