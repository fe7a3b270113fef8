"""Write the SC golden-decision file ``sc_golden.npz`` next to this script.

The file freezes the decisions of the iterative SC kernel that the recursive
kernel replaced: for each code and LLR kind it stores the LLRs themselves and,
for both check-node rules, the decided input bits U and codeword bits X,
packed along the frame axis with ``np.packbits``.  ``tests/test_scdec.py``
compares every later kernel with it bit for bit.

The committed file was written by the kernel it freezes.  Running this script
against a later kernel and committing the result would defeat the check: a
kernel that disagrees with the file is wrong, not the file.

    PYTHONPATH=src python3 tests/data/make_sc_golden.py
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from rmpsc._kernels import polar_transform, sc_decode_batch
from rmpsc.codes import CodeSpec

OUT = Path(__file__).with_name("sc_golden.npz")
SEED = 20240611
EBN0_DB = 2.0
RULES = {"exact": False, "minsum": True}
KINDS = ("noisy", "tied", "clamped", "tiny")


def codes(rng):
    """(name, frozen mask, frames per LLR kind)."""
    out = [
        (f"{c.N}_{c.K}", c.frozen_mask(), frames)
        for c, frames in (
            (CodeSpec.from_i_min({3, 5, 6}, 3), 32),
            (CodeSpec.from_i_min({7}, 5), 32),
            (CodeSpec.from_i_min({19}, 6), 32),
            (CodeSpec.from_i_min({27}, 7), 32),
            (CodeSpec.from_i_min({63, 121}, 10), 16),
        )
    ]
    # arbitrary masks, not decreasing codes: irregular Rate-0 and Rep subtrees
    for N, frames in ((16, 32), (64, 32), (256, 16)):
        out.append((f"rand{N}", (rng.random(N) < rng.uniform(0.3, 0.7)).astype(np.uint8), frames))
    return out


def llr_sets(frozen, frames, rng):
    N = len(frozen)
    u = rng.integers(0, 2, (frames, N), dtype=np.uint8) * (1 - frozen)
    x = polar_transform(u)
    rate = max(1, int((frozen == 0).sum())) / N
    sigma = np.sqrt(1.0 / (2.0 * rate * 10.0 ** (EBN0_DB / 10.0)))
    noisy = 2.0 * ((1.0 - 2.0 * x) + sigma * rng.standard_normal((frames, N))) / sigma**2
    # magnitudes 0, 1, 2 with random signs: exact zeros (+0.0 and -0.0) and
    # equal magnitudes everywhere in the tree
    tied = np.copysign(rng.integers(0, 3, (frames, N)).astype(np.float64),
                       rng.choice([-1.0, 1.0], (frames, N)))
    clamped = np.clip(rng.normal(0.0, 60.0, (frames, N)), -40.0, 40.0)
    tiny = 1e-3 * rng.standard_normal((frames, N))
    return dict(zip(KINDS, (noisy, tied, clamped, tiny)))


def main() -> None:
    rng = np.random.default_rng(SEED)
    arrays = {}
    for name, frozen, frames in codes(rng):
        arrays[f"frozen_{name}"] = frozen
        for kind, llrs in llr_sets(frozen, frames, rng).items():
            arrays[f"llrs_{name}_{kind}"] = llrs
            for rule, minsum in RULES.items():
                U, X = sc_decode_batch(llrs, frozen, minsum)
                arrays[f"U_{name}_{kind}_{rule}"] = np.packbits(U, axis=1)
                arrays[f"X_{name}_{kind}_{rule}"] = np.packbits(X, axis=1)
    np.savez_compressed(OUT, **arrays)
    print(f"{OUT}: {len(arrays)} arrays, {OUT.stat().st_size} bytes")


if __name__ == "__main__":
    main()
