"""The benchmark's workloads: set-up, one op, and the op's output check.

An op is one ``run_fer`` call at one Eb/N0 point (FER workloads) or one full
analysis pass.  ``between_steps`` is called between the steps of an analysis
pass; the harness calibrates there (see child.calibration_s) and takes that
time back out of the op's time.  Ops call rmpsc through module attributes (``channel.run_fer``,
``autgroup.absorption_structure_empirical``) so that the tracer's wrappers
apply.  Every op takes its seed from ``op_seed(workload seed, op index)``.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from pathlib import Path

from rmpsc import autgroup, channel, cli, codes
from rmpsc.codes import CodeSpec, dim_rm


def op_seed(workload_seed: int, i: int) -> int:
    digest = hashlib.blake2b(f"{workload_seed}:{i}".encode(), digest_size=4).digest()
    return int.from_bytes(digest, "little")


@dataclass(frozen=True)
class FerWorkload:
    name: str
    n: int
    i_min: tuple[int, ...]
    decoder: str
    ebn0_db: float
    frames: int          # trials per op
    op_s: float          # nominal op time at the baseline, sets op counts
    m: int = 0           # AE ensemble size

    setup_trials = 64    # the set-up CLI call's trial count

    def setup(self, workdir: Path):
        """What ``rmpsc simulate`` does before its first frame, through the
        CLI itself; AE permutations are read back from its log.  The CLI seed
        is fixed, so every run decodes with the same permutation set: the
        set's own FER differs from set to set by more than binomial noise."""
        csv = workdir / "setup.csv"
        argv = [
            "simulate", "--n", str(self.n), "--imin", ",".join(map(str, self.i_min)),
            "--dec", self.decoder, "--ebn0", str(self.ebn0_db),
            "--max-trials", str(self.setup_trials),
            "--target-errors", str(self.setup_trials),
            "--seed", "0", "--out", str(csv),
        ]
        if self.decoder == "ae":
            argv += ["--m", str(self.m)]
        if cli.main(argv) != 0:
            raise RuntimeError(f"rmpsc simulate failed: {argv}")
        if not csv.read_text(encoding="utf-8").startswith(channel.FER_CSV_HEADER):
            raise RuntimeError("set-up CSV has no FER header")
        code = CodeSpec.from_i_min(self.i_min, self.n)
        perms = ()
        if self.decoder == "ae":
            perms = tuple(autgroup.load_permutations(csv.with_suffix(".perms.txt"), code.N))
            if len(perms) != self.m or not all(
                autgroup.is_code_automorphism(p, code) for p in perms
            ):
                raise RuntimeError("logged AE permutations are not m automorphisms")
        return code, perms

    def op(self, state, seed: int, between_steps):
        code, perms = state
        cfg = channel.SimConfig(
            code=code,
            decoder=self.decoder,
            perms=perms,
            ebn0_grid_db=(self.ebn0_db,),
            max_trials=self.frames,
            target_errors=self.frames,
            seed=seed,
        )
        return channel.run_fer(cfg, workers=1)

    def check(self, state, points, ref) -> tuple[int, str | None]:
        """(frame errors, failure or None) of one op."""
        if len(points) != 1 or points[0].trials != self.frames:
            return 0, f"expected one point of {self.frames} trials, got {points}"
        return points[0].frame_errors, None


@dataclass(frozen=True)
class AnalysisWorkload:
    """Absorption probe (1024,512), class sampling (128,60) with m=8, the n=6
    exhaustive atlas, heuristic search at n=8, k=128, and the (64,37) dual
    weight spectrum."""

    name: str = "analysis"
    op_s: float = 1.25
    probe_trials: int = cli.PROBE_TRIALS
    probe_snr_db: float = cli.PROBE_SNR_DB
    m: int = 8
    # noisy frames the probes draw per pass: one batch for the (1024,512)
    # probe, one for the (128,60) probe and one for its class sampling.  The
    # probes decode each frame under several permutations (about 7150 kernel
    # frames per pass), so frames_per_s here is frames drawn per second, a
    # pass rate, and no decoder throughput.
    frames: int = 3 * cli.PROBE_TRIALS

    def setup(self, workdir: Path):
        return {
            "c10": CodeSpec.from_i_min((63, 121), 10),
            "c7": CodeSpec.from_i_min((27,), 7),
            "c6": CodeSpec.from_i_min((19,), 6),
        }

    def op(self, state, seed: int, between_steps):
        c10, c7, c6 = state["c10"], state["c7"], state["c6"]
        full = autgroup.compute_blta_structure(c10)
        absorbed = autgroup.absorption_structure_empirical(
            c10, trials=self.probe_trials, snr_db=self.probe_snr_db, seed=seed
        )
        between_steps()
        perms = autgroup.sample_distinct_class_automorphisms(
            c7, self.m, seed=seed, trials=self.probe_trials, snr_db=self.probe_snr_db
        )
        between_steps()
        atlas = {
            k: codes.search_max_symmetry(6, k)[0]
            for k in range(dim_rm(1, 6), dim_rm(4, 6) + 1)
        }
        between_steps()
        heuristic_t, (heuristic_code,) = codes.search_max_symmetry(
            8, 128, "heuristic", seed=seed
        )
        between_steps()
        spectrum = codes.weight_distribution_via_dual(c6)
        return {
            "blta_1024": list(full.blocks),
            "absorption_1024": list(absorbed.blocks),
            "classes_1024": autgroup.equivalent_class_count(full, absorbed),
            "perms_128": perms,
            "atlas_n6": {str(k): t for k, t in atlas.items()},
            "heuristic_n8_k128": (heuristic_t, heuristic_code),
            "a_dmin_64": spectrum[c6.min_distance],
        }

    def check(self, state, out, ref) -> tuple[int, str | None]:
        exact = ("blta_1024", "absorption_1024", "classes_1024", "atlas_n6", "a_dmin_64")
        bad = {key: out[key] for key in exact if out[key] != ref[key]}
        perms = out["perms_128"]
        if len({tuple(p.perm.tolist()) for p in perms}) != ref["perms_128"] or not all(
            autgroup.is_code_automorphism(p, state["c7"]) for p in perms
        ):
            bad["perms_128"] = [p.perm.tolist() for p in perms]
        # the heuristic's best code depends on the seed (t is 2 or 3 here);
        # it must be a best-distance (256,128) code with the claimed symmetry
        t, code = out["heuristic_n8_k128"]
        if not (t >= ref["heuristic_min_t_n8_k128"] and t == code.symmetry
                and (code.n, code.K) == (8, 128) and code.is_rm_polar):
            bad["heuristic_n8_k128"] = (t, code.i_min)
        return 0, f"analysis mismatch: {bad}" if bad else None


WORKLOADS = {
    w.name: w
    for w in (
        FerWorkload("fer-sc-64", 6, (19,), "sc", 2.0, 1024, 0.020),
        FerWorkload("fer-sc-1024", 10, (63, 121), "sc", 3.5, 256, 0.036),
        FerWorkload("fer-ae-128", 7, (27,), "ae", 2.0, 256, 0.026, m=8),
        AnalysisWorkload(),
    )
}
