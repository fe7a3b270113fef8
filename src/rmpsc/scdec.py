"""Polar encoding, successive cancellation decoding, and automorphism-ensemble
decoding with least-squares candidate selection."""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from ._kernels import LLR_CLAMP, _negate_where, polar_transform, sc_decode_batch
from .codes import CodeSpec

# LLRs (N times rows) per stacked AE kernel call: the kernel's working set
# scales with it, and more branches per call cost peak memory
_SC_CALL_LLRS = 1 << 16

__all__ = [
    "DecodeResult",
    "encode",
    "encode_batch",
    "sc_decode",
    "sc_decode_frames",
    "ae_sc_decode",
    "ae_sc_decode_frames",
    "correlation_score",
]


@dataclass(frozen=True)
class DecodeResult:
    """Decoder output: input-bit decisions, codeword decisions, and the
    correlation of the codeword with the received LLRs (higher is better;
    maximising it minimises the Euclidean distance to the BPSK point)."""

    u_hat: np.ndarray
    x_hat: np.ndarray
    score: float


def encode(u_info: np.ndarray, code: CodeSpec) -> np.ndarray:
    """Scatter information bits into the information positions (ascending
    index), zeros elsewhere, and apply the polar transform."""
    u_info = np.asarray(u_info, dtype=np.uint8)
    if u_info.shape != (code.K,):
        raise ValueError(f"expected {code.K} information bits, got {u_info.shape}")
    u = np.zeros(code.N, dtype=np.uint8)
    u[sorted(code.info_set)] = u_info
    return polar_transform(u)


def encode_batch(u_info: np.ndarray, code: CodeSpec) -> np.ndarray:
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


def correlation_score(x_hat: np.ndarray, llrs: np.ndarray) -> float:
    return float(((1.0 - 2.0 * x_hat.astype(np.float64)) * llrs).sum())


def sc_decode_frames(llrs: np.ndarray, code: CodeSpec, *, minsum: bool = False):
    """Successive cancellation over a batch of frames; returns (U, X)."""
    llrs = _check_llrs(np.atleast_2d(llrs), code.N)
    return sc_decode_batch(llrs, code.frozen_mask(), minsum)


def sc_decode(llr, code: CodeSpec, *, minsum: bool = False, trace=None) -> DecodeResult:
    """Decode one frame of channel LLRs (positive favours bit 0).

    Frozen positions are forced to zero; an information decision at an exact
    LLR tie resolves to zero.  ``trace`` optionally names a CSV file that
    receives, for debugging, the LLRs of every tree node the decoder visits
    (columns ``level,position,llr``; pruned subtrees have no rows: those
    below Rate-0 and Rep nodes, and under min-sum those below a Rate-1 node
    with no zero LLR).
    """
    llr = _check_llrs(np.asarray(llr, dtype=np.float64), code.N)
    if trace is None:
        U, X = sc_decode_batch(llr[None, :], code.frozen_mask(), minsum)
    else:
        rows = []

        def record(level, start, node_llrs):
            rows.extend((level, start + pos, float(v)) for pos, v in enumerate(node_llrs[:, 0]))

        U, X = sc_decode_batch(llr[None, :], code.frozen_mask(), minsum, trace=record)
        with open(trace, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["level", "position", "llr"])
            writer.writerows(rows)
    return DecodeResult(U[0], X[0], correlation_score(X[0], llr))


def ae_sc_decode_frames(
    llrs: np.ndarray, code: CodeSpec, perms, *, minsum: bool = False
):
    """Ensemble decoding over a batch: each permutation drives one SC branch
    on the permuted LLRs, candidates are mapped back, and the best-correlating
    codeword wins (ties go to the earliest branch).  Returns (U, X, winner).

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
        _, X = sc_decode_batch(stacked.reshape(code.N, -1).T, frozen, minsum)
        for j, p in enumerate(branch_perms):
            cand = X[j * B : (j + 1) * B][:, p]  # map the branch codeword back
            candidates[first + j] = cand
            scores[first + j] = _negate_where(llrs.copy(), cand).sum(axis=1)
    winner = scores.argmax(axis=0)
    x = candidates[winner, np.arange(B), :]
    u = polar_transform(x)
    return u, x, winner


def ae_sc_decode(llr, code: CodeSpec, perms, *, minsum: bool = False) -> DecodeResult:
    """Automorphism-ensemble SC decoding of a single frame."""
    llr = _check_llrs(np.asarray(llr, dtype=np.float64), code.N)
    U, X, _ = ae_sc_decode_frames(llr[None, :], code, perms, minsum=minsum)
    return DecodeResult(U[0], X[0], correlation_score(X[0], llr))
