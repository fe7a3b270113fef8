"""Block-lower-triangular affine (BLTA) automorphism machinery: structure
determination, group sizes, uniform sampling, affine-to-permutation
conversion, empirical absorption groups, and equivalence-class counting."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _gf2
from .codes import CodeSpec, dim_rm
# encode_batch is unused here but kept importable: perfbench/spans.py wraps it by name
from .scdec import sc_decode_frames, encode_batch
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
    """Ordered diagonal block sizes of a block-lower-triangular group."""

    blocks: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "blocks", tuple(int(b) for b in self.blocks))
        if not self.blocks or any(b < 1 for b in self.blocks):
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


@dataclass(frozen=True)
class Permutation:
    """Bijection on code-bit positions; applying it moves entry k to
    position perm[k]."""

    perm: np.ndarray

    def __post_init__(self):
        p = np.array(self.perm, dtype=np.intp)  # own the buffer before freezing
        N = p.shape[0]
        if sorted(p.tolist()) != list(range(N)):
            raise ValueError("not a permutation")
        p.setflags(write=False)
        object.__setattr__(self, "perm", p)

    @classmethod
    def identity(cls, N: int) -> "Permutation":
        return cls(np.arange(N, dtype=np.intp))

    @property
    def N(self) -> int:
        return self.perm.shape[0]

    @property
    def inverse(self) -> "Permutation":
        return Permutation(np.argsort(self.perm))

    def apply(self, values: np.ndarray) -> np.ndarray:
        values = np.asarray(values)
        out = np.empty_like(values)
        out[..., self.perm] = values
        return out

    def compose(self, other: "Permutation") -> "Permutation":
        """self after other: (self . other)(k) = self(other(k))."""
        return Permutation(self.perm[other.perm])


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


def _swap_bits(x: int, a: int, b: int) -> int:
    bit_a = (x >> a) & 1
    bit_b = (x >> b) & 1
    if bit_a != bit_b:
        x ^= (1 << a) | (1 << b)
    return x


def _admissible_swaps(code: CodeSpec) -> dict[tuple[int, int], bool]:
    masks = set(code.gen_set.masks)
    out = {}
    for a in range(code.n):
        for b in range(a + 1, code.n):
            out[(a, b)] = all(_swap_bits(m, a, b) in masks for m in masks)
    return out


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
    code, from invariance of the generator monomials under coordinate swaps."""
    adm = _admissible_swaps(code)
    try:
        blocks = _blocks_from_pairs(code.n, lambda a, b: adm[(a, b)])
    except AbsorptionProbeError as exc:
        raise ValueError(f"swap admissibility is not block shaped: {exc}") from exc
    return BlockStructure(blocks)


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
    trials: int = 500,
    snr_db: float = 2.0,
    seed: int = 0,
    minsum: bool = PROBE_MINSUM,
) -> BlockStructure:
    """Empirical block structure of the SC absorption group.

    Every coordinate swap admissible for the full automorphism group is
    probed on a shared batch of noisy codewords; absorbed swaps must tile
    into consecutive blocks.  For a partially symmetric code of best
    distance whose dimension is not extreme, the last block is known to be
    one, and a probe result contradicting that raises.
    """
    if trials < 100:
        raise ValueError("need at least 100 probe trials")
    full = compute_blta_structure(code)
    bounds = np.cumsum(full.blocks)
    block_of = np.searchsorted(bounds, np.arange(code.n), side="right")
    llrs, sc_ref = _probe_batch(code, trials, snr_db, seed, minsum)
    absorbed = {}
    for a in range(code.n):
        for b in range(a + 1, code.n):
            if block_of[a] != block_of[b]:
                absorbed[(a, b)] = False
                continue
            perm = permutation_from_affine(variable_swap(code.n, a, b))
            absorbed[(a, b)] = _branch_matches_sc(llrs, sc_ref, perm, code, minsum)
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
    trials: int = 500,
    snr_db: float = 2.0,
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
    """One integer per line; each permutation contributes N consecutive lines."""
    with open(path, "w", encoding="utf-8") as fh:
        for p in perms:
            for v in np.asarray(getattr(p, "perm", p)).tolist():
                fh.write(f"{v}\n")


def load_permutations(path, N: int) -> list[Permutation]:
    with open(path, "r", encoding="utf-8") as fh:
        values = [int(line) for line in fh if line.strip()]
    if len(values) % N:
        raise ValueError(f"file holds {len(values)} lines, not a multiple of N={N}")
    return [
        Permutation(np.array(values[i : i + N], dtype=np.intp))
        for i in range(0, len(values), N)
    ]
