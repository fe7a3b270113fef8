"""BPSK/AWGN channel, Monte Carlo FER estimation, and the truncated union
bound for ML performance."""

from __future__ import annotations

import math
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass
from functools import partial

import numpy as np
from scipy.special import ndtri

from .codes import CodeSpec
from ._kernels import _batch_rows
from .scdec import Permutation, ae_sc_decode_frames, encode_batch, sc_decode_frames

__all__ = [
    "SimConfig",
    "FerPoint",
    "noisy_frames",
    "run_fer",
    "tub_ml_bound",
    "write_fer_csv",
]

FER_CSV_HEADER = "ebn0_db,trials,errors,fer,ci95"


@dataclass(frozen=True)
class SimConfig:
    """One Monte Carlo campaign: a code, a decoder, an Eb/N0 grid, stopping
    rules, and the seed that fully determines every trial."""

    code: CodeSpec
    decoder: str = "sc"                     # "sc" or "ae"
    perms: tuple = ()                       # AE branch permutations, as Permutations
    ebn0_grid_db: tuple[float, ...] = (1.0, 2.0, 3.0)
    max_trials: int = 10_000
    target_errors: int = 100
    seed: int = 0

    def __post_init__(self):
        if self.decoder not in ("sc", "ae"):
            raise ValueError(f"unknown decoder {self.decoder!r}")
        if self.decoder == "ae" and not self.perms:
            raise ValueError("AE decoding needs at least one permutation")
        if self.decoder == "sc" and self.perms:
            raise ValueError("SC decoding takes no permutations")
        perms = tuple(p if isinstance(p, Permutation) else Permutation(p) for p in self.perms)
        if any(p.N != self.code.N for p in perms):
            raise ValueError(f"AE permutations must have length N={self.code.N}")
        object.__setattr__(self, "perms", perms)
        if not self.ebn0_grid_db:
            raise ValueError("empty Eb/N0 grid")
        if not all(math.isfinite(v) for v in self.ebn0_grid_db):
            raise ValueError("Eb/N0 values must be finite")
        if any(b >= a for a, b in zip(self.ebn0_grid_db[1:], self.ebn0_grid_db)):
            raise ValueError("Eb/N0 grid must be strictly increasing")
        for ebn0_db in self.ebn0_grid_db:
            noise_sigma(ebn0_db, self.code.rate)
        if not 1 <= self.target_errors <= self.max_trials:
            raise ValueError("need max_trials >= target_errors >= 1")
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")


@dataclass(frozen=True)
class FerPoint:
    ebn0_db: float
    trials: int
    frame_errors: int
    fer: float
    ci_halfwidth: float

    @classmethod
    def from_counts(cls, ebn0_db: float, trials: int, errors: int) -> "FerPoint":
        fer = errors / trials
        ci = 1.96 * math.sqrt(max(fer * (1.0 - fer), 0.0) / trials)
        return cls(ebn0_db, trials, errors, fer, ci)


def noise_sigma(ebn0_db: float, rate: float) -> float:
    """The AWGN standard deviation sigma at Eb/N0 ``ebn0_db`` (dB) for BPSK
    at code rate ``rate``: sigma^2 = 1 / (2 * rate * Eb/N0).

    Raises a ``ValueError`` naming the point unless sigma^2 and sigma^2/2,
    and so sigma, are positive normal floats.  That keeps every LLR finite,
    and it makes ``noisy_frames``' one division by sigma^2/2 give the bits
    of 2v / sigma^2: halving sigma^2 in its lowest normal binade would drop
    its last bit.  Rate 1/2 admits -3082 to 3073 dB.
    """
    if rate <= 0 or rate > 1:
        raise ValueError(f"rate must be in (0, 1], got {rate}")
    try:
        sigma = math.sqrt(1.0 / (2.0 * rate * 10.0 ** (ebn0_db / 10.0)))
    except (OverflowError, ZeroDivisionError):  # 10^(Eb/N0 / 10) beyond the floats
        sigma = math.nan
    if not (sys.float_info.min <= sigma * sigma / 2 and sigma * sigma <= sys.float_info.max):
        raise ValueError(
            f"Eb/N0 {ebn0_db:g} dB is out of range: at rate {rate:.4g} its noise "
            f"variance sigma^2 and sigma^2/2 are not both positive normal floats"
        )
    return sigma


def noisy_frames(
    code: CodeSpec, ebn0_db: float, seed: int, stream: tuple, start: int, count: int
) -> tuple[np.ndarray, np.ndarray]:
    """Trials [start, start+count) of stream (seed, stream): the codewords
    ``x`` (count, N) and their BPSK/AWGN LLRs (bit 0 -> +1, LLR 2y/sigma^2).
    Both are node-major views (their transposes are C-contiguous), the
    layout the SC kernel reads in place.

    Counter-based (Salmon et al., SC'11): trial t is Philox counter block
    t*stride under a key from (seed, stream), so results do not depend on
    batching or workers.  Of its 4*stride words, the first ceil(K/64) give
    the bits (little-endian) and the next N the uniforms
    ((w >> 12) + 0.5) * 2^-52: exact and strictly inside (0, 1), where 53
    bits would round w = 2^64 - 1 to 1.0 and give an infinite LLR.

    The LLRs are 2.0 * ((1.0 - 2.0*x) + sigma*ndtri(u)) / (sigma*sigma),
    each step exact or rounded once, in this order:
    - every word w becomes the double 1 + (w >> 12) * 2^-52 in [1, 2) by
      ``>>= 12`` and OR-ing in the exponent of 1.0, in place;
    - subtracting 1 - 2^-53 gives u, written node-major into one (N, count)
      buffer.  Both operands lie within a factor of two of each other, so
      the difference is exact (Sterbenz);
    - ndtri(u), then times sigma, then plus the BPSK points 1 - 2x (exact,
      written node-major into the consumed Philox words);
    - one division by sigma^2/2.  ``noise_sigma`` makes sigma^2/2 a
      positive normal float, so the halving is exact, and v / (sigma^2/2)
      rounds the same quotient as (2v) / sigma^2, whose doubling is exact
      too.
    """
    sigma = noise_sigma(ebn0_db, code.rate)
    words = -(-code.K // 64)
    stride = -(-(words + code.N) // 4)
    key = np.random.SeedSequence(seed, spawn_key=stream).generate_state(2, np.uint64)
    gen = np.random.Philox(key=key)
    gen.advance(start * stride)
    raw = gen.random_raw(count * stride * 4).reshape(count, 4 * stride)
    bits = np.unpackbits(
        raw[:, :words].astype("<u8").view(np.uint8), axis=1, count=code.K, bitorder="little"
    )
    x = encode_batch(bits, code)
    raw >>= 12
    raw |= 0x3FF0000000000000  # the exponent of 1.0
    llr = np.empty((code.N, count))
    np.subtract(raw.view(np.float64)[:, words : words + code.N].T, 1.0 - 2.0**-53, out=llr)
    ndtri(llr, out=llr)
    llr *= sigma
    bpsk = raw.reshape(-1)[: llr.size].view(np.float64).reshape(llr.shape)
    np.multiply(x.T, 2.0, out=bpsk)
    np.subtract(1.0, bpsk, out=bpsk)
    llr += bpsk
    llr /= sigma * sigma / 2
    return x, llr.T


def tub_ml_bound(dmin: int, a_dmin: int, rate: float, ebn0_db: float) -> float:
    """Truncated union bound on ML frame error rate, clipped to one:
    a_dmin * Q(sqrt(2 * dmin * rate * Eb/N0))."""
    if dmin < 1 or a_dmin < 1:
        raise ValueError("dmin and a_dmin must be positive")
    if rate <= 0 or rate > 1:
        raise ValueError(f"rate must be in (0, 1], got {rate}")
    q = 0.5 * math.erfc(math.sqrt(dmin * rate * 10.0 ** (ebn0_db / 10.0)))
    return min(1.0, a_dmin * q)


# ------------------------------------------------------------- simulation


def _simulate_range(cfg: SimConfig, grid_idx: int, start: int, count: int) -> np.ndarray:
    """Frame-error flags for trials [start, start+count), in trial order."""
    code = cfg.code
    x, llrs = noisy_frames(code, cfg.ebn0_grid_db[grid_idx], cfg.seed, (grid_idx,), start, count)
    if cfg.decoder == "sc":
        x_hat = sc_decode_frames(llrs, code)
    else:
        x_hat, _ = ae_sc_decode_frames(llrs, code, cfg.perms)
    return (x_hat != x).any(axis=1).astype(np.uint8)


def run_fer(
    cfg: SimConfig, *, workers: int = 1, batch_size: int | None = None
) -> list[FerPoint]:
    """Monte Carlo FER per grid point, stopping at target_errors or max_trials.

    A grid point runs in rounds.  A round decodes the next ``workers``
    batches of ``batch_size`` consecutive trials and joins their error
    flags in trial order.  The batches go to a pool of at most
    min(``workers``, CPU count) processes, or run in this process when
    that is one.  The running error count over those flags finds the trial
    that reaches target_errors, and the point stops exactly there, so the
    outcome does not depend on ``batch_size`` or ``workers``.

    By default a batch fills one SC kernel call of ``_SC_CALL_LLRS`` LLRs,
    but holds at least ``_SC_MIN_ROWS`` frames: max(256, 2^16 // N), so
    1024 frames at N = 64 and 256 for N >= 256.  The kernel keeps its
    workspace from one such batch to the next at every N, so a campaign
    allocates it once.  A stopped point may have decoded up to
    ``workers * batch_size - 1`` trials past its stop trial; those are
    discarded.
    """
    if batch_size is None:
        batch_size = _batch_rows(cfg.code.N)
    if batch_size < 1:
        raise ValueError(f"batch_size must be at least 1, got {batch_size}")
    if workers < 1:
        raise ValueError(f"workers must be at least 1, got {workers}")
    # the executor forks every worker at its first submit, so the pool is
    # bounded by the cores; rounds keep ``workers`` batches either way
    procs = min(workers, os.cpu_count() or 1)
    points = []
    with ProcessPoolExecutor(max_workers=procs) if procs > 1 else nullcontext() as pool:
        run = map if pool is None else pool.map
        for gi, ebn0_db in enumerate(cfg.ebn0_grid_db):
            simulate = partial(_simulate_range, cfg, gi)
            trials = errors = 0
            while trials < cfg.max_trials and errors < cfg.target_errors:
                end = min(trials + workers * batch_size, cfg.max_trials)
                starts = range(trials, end, batch_size)
                counts = [min(batch_size, end - s) for s in starts]
                flags = np.concatenate(list(run(simulate, starts, counts)))
                hits = np.cumsum(flags)
                # the trial whose error reaches the target, else the round's last
                cut = min(int(np.searchsorted(hits, cfg.target_errors - errors)) + 1, len(flags))
                trials += cut
                errors += int(hits[cut - 1])
            points.append(FerPoint.from_counts(ebn0_db, trials, errors))
    return points


def write_fer_csv(points, fh, tub) -> None:
    """Write FER rows; ``tub`` maps each point's Eb/N0 to its bound column."""
    fh.write(FER_CSV_HEADER + ",tub\n")
    for p in points:
        fh.write(
            f"{p.ebn0_db:g},{p.trials},{p.frame_errors},{p.fer:.8g},"
            f"{p.ci_halfwidth:.8g},{tub(p.ebn0_db):.8g}\n"
        )
