"""BPSK/AWGN channel, Monte Carlo FER estimation, and the truncated union
bound for ML performance."""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass
from functools import partial

import numpy as np
from scipy.special import ndtri

from .codes import CodeSpec
from .scdec import _SC_CALL_LLRS, Permutation, ae_sc_decode_frames, encode_batch, sc_decode_frames

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
        if not 1 <= self.target_errors <= self.max_trials:
            raise ValueError("need max_trials >= target_errors >= 1")


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
    if rate <= 0 or rate > 1:
        raise ValueError(f"rate must be in (0, 1], got {rate}")
    return math.sqrt(1.0 / (2.0 * rate * 10.0 ** (ebn0_db / 10.0)))


def noisy_frames(
    code: CodeSpec, ebn0_db: float, seed: int, stream: tuple, start: int, count: int
) -> tuple[np.ndarray, np.ndarray]:
    """Trials [start, start+count) of stream (seed, stream): the codewords
    ``x`` (count, N) and their BPSK/AWGN LLRs (bit 0 -> +1, LLR 2y/sigma^2).

    Counter-based (Salmon et al., SC'11): trial t is Philox counter block
    t*stride under a key from (seed, stream), so results do not depend on
    batching or workers.  Of its 4*stride words, the first ceil(K/64) give
    the bits (little-endian) and the next N the uniforms
    ((w >> 12) + 0.5) * 2^-52: exact and strictly inside (0, 1), where 53
    bits would round w = 2^64 - 1 to 1.0 and give an infinite LLR.
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
    # the LLRs 2.0 * ((1.0 - 2.0*x) + sigma*ndtri(u)) / (sigma*sigma), op by
    # op in one buffer; the used noise words then hold the BPSK points
    noise = raw[:, words : words + code.N]
    noise >>= 12
    llr = np.add(noise, 0.5, dtype=np.float64)
    llr *= 2.0**-52
    ndtri(llr, out=llr)
    llr *= sigma
    bpsk = noise.view(np.float64)
    np.multiply(x, 2.0, out=bpsk)
    np.subtract(1.0, bpsk, out=bpsk)
    llr += bpsk
    llr *= 2.0
    llr /= sigma * sigma
    return x, llr


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
    batches of ``batch_size`` consecutive trials (on a process pool when
    ``workers`` > 1) and joins their error flags in trial order.  The
    running error count over those flags finds the trial that reaches
    target_errors, and the point stops exactly there, so the outcome does
    not depend on ``batch_size`` or ``workers``.

    By default a batch fills one SC kernel call of ``_SC_CALL_LLRS`` LLRs,
    but holds at least 256 frames: max(256, 2^16 // N), so 1024 frames at
    N = 64 and 256 for N >= 256.  A stopped point may have decoded up to
    ``workers * batch_size - 1`` trials past its stop trial; those are
    discarded.
    """
    if batch_size is None:
        batch_size = max(256, _SC_CALL_LLRS // cfg.code.N)
    if batch_size < 1:
        raise ValueError(f"batch_size must be at least 1, got {batch_size}")
    if workers < 1:
        raise ValueError(f"workers must be at least 1, got {workers}")
    points = []
    with ProcessPoolExecutor(max_workers=workers) if workers > 1 else nullcontext() as pool:
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
