"""Polar encoding, successive cancellation decoding, and automorphism-ensemble
decoding with least-squares candidate selection, over batches of frames."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._kernels import _SC_CALL_LLRS, _U63, LLR_CLAMP, polar_transform, sc_decode_batch
from .codes import CodeSpec

__all__ = [
    "Permutation", "encode_batch", "polar_transform", "sc_decode_frames", "ae_sc_decode_frames"
]


def _integers(values, what: str) -> np.ndarray:
    """An np.intp copy of ``values``; raises unless every entry is
    integer-valued (1.5, NaN, inf and 1e300 are not)."""
    given = np.asarray(values)
    with np.errstate(invalid="ignore"):
        out = given.astype(np.intp)
    if not np.array_equal(out, given):
        raise ValueError(f"{what} are not integers")
    return out


@dataclass(frozen=True)
class Permutation:
    """Bijection on code-bit positions; applying it moves entry k to
    position perm[k].

    The one validator of permutations: the entries must be integer-valued
    and a rearrangement of range(N), so every consumer (the AE decoder,
    ``channel.SimConfig``, ``autgroup.save_permutations``) takes an
    instance as checked and builds one from anything else."""

    perm: np.ndarray

    def __post_init__(self):
        p = _integers(self.perm, "permutation entries")  # a copy, frozen below
        if p.ndim != 1 or not np.array_equal(np.sort(p), np.arange(p.size)):
            raise ValueError(f"not a permutation of range({p.size})")
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


def encode_batch(u_info: np.ndarray, code: CodeSpec) -> np.ndarray:
    """Scatter each row of (B, K) information bits into the information
    positions (ascending index), zeros elsewhere, and apply the polar
    transform; returns the (B, N) codewords."""
    u_info = np.asarray(u_info, dtype=np.uint8)
    if u_info.ndim != 2 or u_info.shape[1] != code.K:
        raise ValueError(f"expected shape (B, {code.K}), got {u_info.shape}")
    u = np.zeros((u_info.shape[0], code.N), dtype=np.uint8)
    u[:, sorted(code.info_set)] = u_info
    return polar_transform(u)


def _check_llrs(llrs: np.ndarray, N: int) -> np.ndarray:
    llrs = np.atleast_2d(np.asarray(llrs, dtype=np.float64))
    if llrs.shape[-1] != N:
        raise ValueError(f"LLR length {llrs.shape[-1]} does not match N={N}")
    if not np.isfinite(llrs).all():
        raise ValueError("LLRs must be finite")
    return llrs


def sc_decode_frames(llrs: np.ndarray, code: CodeSpec, *, minsum: bool = False):
    """Successive cancellation over a batch of channel LLR rows (positive
    favours bit 0; a single row may be given as a vector); returns the
    (B, N) decided codewords X, whose input bits are ``polar_transform(X)``.

    Frozen positions are forced to zero, and an information decision at an
    exact LLR tie resolves to zero.  ``minsum`` replaces the exact
    check-node rule by min-sum."""
    llrs = _check_llrs(llrs, code.N)
    # clamp (it keeps the exact check-node rule numerically stable and makes
    # absorption probes deterministic) a node-major copy in place, which the
    # kernel reads in place
    node_major = np.array(llrs.T, order="C")
    np.clip(node_major, -LLR_CLAMP, LLR_CLAMP, out=node_major)
    return sc_decode_batch(node_major.T, code.frozen_mask(), minsum)


def ae_sc_decode_frames(llrs: np.ndarray, code: CodeSpec, perms):
    """Ensemble decoding over a batch: each permutation drives one SC branch
    (exact check-node rule) on the permuted LLRs, candidates are mapped back,
    and the best-correlating codeword wins (ties go to the earliest branch).
    Returns the (B, N) winning codewords X and the (B,) winning branches.
    Entries of ``perms`` that are not ``Permutation``s are converted (and so
    validated); instances are taken as they are.

    Branches are stacked as extra rows of shared kernel calls, as many per
    call as fit in ``3 * _SC_CALL_LLRS`` LLRs at 2 * N per row (at least
    one): the gathered branches and the kernel's workspace below them."""
    if not perms:
        raise ValueError("at least one permutation is required")
    llrs = np.clip(_check_llrs(llrs, code.N), -LLR_CLAMP, LLR_CLAMP)
    B = llrs.shape[0]
    frozen = code.frozen_mask()
    perms = [p if isinstance(p, Permutation) else Permutation(p) for p in perms]
    for p in perms:
        if p.N != code.N:
            raise ValueError(f"permutation length {p.perm.shape} does not match N={code.N}")
    perm_arrays = np.stack([p.perm for p in perms])
    M = len(perm_arrays)
    candidates = np.empty((M, B, code.N), dtype=np.uint8)
    scores = np.empty((M, B), dtype=np.float64)
    # branch j decodes llrs[:, inverse_j] (branch_in[:, p] = llrs); a group's
    # branches are gathered node-major, the (N, rows) layout the kernel reads
    # in place, frame b of branch j on row j*B + b
    inverses = np.empty_like(perm_arrays)
    inverses[np.arange(M)[:, None], perm_arrays] = np.arange(code.N)
    node_major = np.ascontiguousarray(llrs.T)
    group = max(1, 3 * _SC_CALL_LLRS // (2 * code.N * max(B, 1)))
    # one buffer for every group's gather, reused for its scores once the
    # kernel has returned, so that neither allocates per group
    work = np.empty(min(group, M) * B * code.N)
    for first in range(0, M, group):
        last = min(first + group, M)
        size = (last - first) * B * code.N
        stacked = work[:size].reshape(code.N, last - first, B)
        # the indices are valid; take would buffer its output under "raise"
        np.take(node_major, inverses[first:last].T, axis=0, out=stacked, mode="clip")
        X = sc_decode_batch(stacked.reshape(code.N, -1).T, frozen)
        for j in range(first, last):
            # map the branch codeword back
            candidates[j] = X[(j - first) * B : (j - first + 1) * B][:, perm_arrays[j]]
        # correlation with the LLRs: maximising it minimises the Euclidean
        # distance to the BPSK point.  The LLRs' sign bits are flipped where
        # a candidate has a 1, exactly (1.0 - 2.0*cand) * llrs, +-0.0 too
        signs = work[:size].view(np.uint64).reshape(last - first, B, code.N)
        np.left_shift(candidates[first:last], _U63, out=signs)
        signs ^= llrs.view(np.uint64)
        scores[first:last] = signs.view(np.float64).sum(axis=2)
    winner = scores.argmax(axis=0)
    return candidates[winner, np.arange(B), :], winner
