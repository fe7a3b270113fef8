"""Polar encoding, successive cancellation decoding, and automorphism-ensemble
decoding with least-squares candidate selection, over batches of frames."""

from __future__ import annotations

import numpy as np

from ._kernels import LLR_CLAMP, _negate_where, polar_transform, sc_decode_batch
from .codes import CodeSpec

# LLRs (N times rows) per SC kernel call: it groups AE branches into stacked
# calls here and sizes channel.run_fer's default FER batch.  The kernel's
# working set is twice that many LLRs plus one tile of scratch, so more rows
# per call cost peak memory
_SC_CALL_LLRS = 1 << 16

__all__ = ["encode_batch", "polar_transform", "sc_decode_frames", "ae_sc_decode_frames"]


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
    llrs = np.asarray(llrs, dtype=np.float64)
    if llrs.shape[-1] != N:
        raise ValueError(f"LLR length {llrs.shape[-1]} does not match N={N}")
    if not np.isfinite(llrs).all():
        raise ValueError("LLRs must be finite")
    # clamp keeps the exact check-node rule numerically stable and makes
    # absorption probes deterministic
    return np.clip(llrs, -LLR_CLAMP, LLR_CLAMP)


def _perm_array(p, N: int) -> np.ndarray:
    arr = np.asarray(getattr(p, "perm", p), dtype=np.intp)
    if arr.shape != (N,):
        raise ValueError(f"permutation length {arr.shape} does not match N={N}")
    if not np.array_equal(np.sort(arr), np.arange(N)):
        raise ValueError(f"not a permutation of range({N})")
    return arr


def sc_decode_frames(llrs: np.ndarray, code: CodeSpec, *, minsum: bool = False):
    """Successive cancellation over a batch of channel LLR rows (positive
    favours bit 0; a single row may be given as a vector); returns the
    (B, N) decided codewords X, whose input bits are ``polar_transform(X)``.

    Frozen positions are forced to zero, and an information decision at an
    exact LLR tie resolves to zero.  ``minsum`` replaces the exact
    check-node rule by min-sum."""
    llrs = _check_llrs(np.atleast_2d(llrs), code.N)
    return sc_decode_batch(llrs, code.frozen_mask(), minsum)


def ae_sc_decode_frames(llrs: np.ndarray, code: CodeSpec, perms):
    """Ensemble decoding over a batch: each permutation drives one SC branch
    (exact check-node rule) on the permuted LLRs, candidates are mapped back,
    and the best-correlating codeword wins (ties go to the earliest branch).
    Returns the (B, N) winning codewords X and the (B,) winning branches.

    Branches are stacked as extra rows of shared kernel calls, as many per
    call as fit in ``_SC_CALL_LLRS`` LLRs (at least one)."""
    if not perms:
        raise ValueError("at least one permutation is required")
    llrs = _check_llrs(np.atleast_2d(llrs), code.N)
    B = llrs.shape[0]
    frozen = code.frozen_mask()
    perm_arrays = [_perm_array(p, code.N) for p in perms]
    M = len(perm_arrays)
    candidates = np.empty((M, B, code.N), dtype=np.uint8)
    scores = np.empty((M, B), dtype=np.float64)
    # branch j decodes llrs[:, inverse_j] (branch_in[:, p] = llrs); a group's
    # branches are stacked in the kernel's (N, rows) layout, frame b of
    # branch j on row j*B + b
    inverses = np.argsort(perm_arrays, axis=1)
    group = max(1, _SC_CALL_LLRS // (code.N * max(B, 1)))
    for first in range(0, M, group):
        branch_perms = perm_arrays[first : first + group]
        stacked = llrs.T[inverses[first : first + group].T]
        X = sc_decode_batch(stacked.reshape(code.N, len(branch_perms) * B).T, frozen)
        for j, p in enumerate(branch_perms):
            cand = X[j * B : (j + 1) * B][:, p]  # map the branch codeword back
            candidates[first + j] = cand
            # correlation with the LLRs: maximising it minimises the
            # Euclidean distance to the BPSK point
            scores[first + j] = _negate_where(llrs.copy(), cand).sum(axis=1)
    winner = scores.argmax(axis=0)
    return candidates[winner, np.arange(B), :], winner
