"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines as they complete.
"""

import math
import time
from collections import Counter

import numpy as np

from _reference import _branch_matches_sc, _probe_batch
from rmpsc._gf2 import is_invertible
from rmpsc.autgroup import (
    AffineMap,
    Permutation,
    absorption_structure_empirical,
    blta_size,
    compute_blta_structure,
    equivalent_class_count,
    is_code_automorphism,
    permutation_from_affine,
    sample_blta,
    sample_distinct_class_automorphisms,
    variable_swap,
)
from rmpsc.channel import SimConfig, run_fer, tub_ml_bound
from rmpsc.codes import (
    CodeSpec,
    dim_rm,
    min_weight_count,
    rm_order,
    search_max_symmetry,
)
from rmpsc.monomials import symmetry, upward_closure
from rmpsc.scdec import ae_sc_decode_frames, encode_batch, polar_transform, sc_decode_frames


def report(criterion: str, ok: bool, detail: str):
    print(f"\nACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"{criterion}: {detail}"


def random_ideal_code(n: int, k: int, rng) -> CodeSpec:
    """Uniform-ish random decreasing RM-polar code of the given dimension:
    indices of popcount >= n - r added one at a time, each drawn among
    those whose every index above is already in (listed by monomial
    degree, then monomial mask, ascending)."""
    r = rm_order(k, n)
    pool = sorted(
        (i for i in range(1 << n) if i.bit_count() >= n - r),
        key=lambda i: (i.bit_count(), i),
        reverse=True,
    )
    above = {i: upward_closure({i}, n) - {i} for i in pool}
    info: set = set()
    while len(info) < k:
        cands = [i for i in pool if i not in info and above[i] <= info]
        info.add(cands[int(rng.integers(len(cands)))])
    return CodeSpec.from_info_set(info, n)


def gaussian_binomial(n: int, k: int) -> int:
    """Number of k-dimensional subspaces of GF(2)^n."""
    num = den = 1
    for i in range(k):
        num *= (1 << (n - i)) - 1
        den *= (1 << (i + 1)) - 1
    return num // den


class TestCriterion1Dimensions:
    def test_closure_sizes(self):
        t0 = time.time()
        sizes = {
            (27, 7): len(upward_closure({27}, 7)),
            (19, 6): len(upward_closure({19}, 6)),
            ("c1", 10): len(upward_closure({63, 121}, 10)),
            ("c2", 10): len(upward_closure({183, 207, 241, 391, 928}, 10)),
        }
        expect = {(27, 7): 60, (19, 6): 37, ("c1", 10): 512, ("c2", 10): 512}
        elapsed = time.time() - t0
        report(
            "1 (dimension anchors)",
            sizes == expect and elapsed < 1.0,
            f"sizes {tuple(sizes.values())} in {elapsed:.3f}s",
        )


class TestCriterion2Symmetry:
    def test_symmetry_anchors(self):
        t0 = time.time()
        t_c1 = symmetry(upward_closure({63, 121}, 10), 10)
        t_c2 = symmetry(upward_closure({183, 207, 241, 391, 928}, 10), 10)
        t_19 = CodeSpec.from_i_min({19}, 6).symmetry
        rm_ok = True
        for n in range(2, 9):
            for r in range(n):
                info = frozenset(i for i in range(1 << n) if n - i.bit_count() <= r)
                rm_ok &= symmetry(info, n) == n
        elapsed = time.time() - t0
        report(
            "2 (symmetry anchors)",
            t_c1 == 7 and t_c2 == 3 and t_19 == 2 and rm_ok and elapsed < 1.0,
            f"t(C1)={t_c1} t(C2)={t_c2} t(19)={t_19} RM full for n<=8: {rm_ok} "
            f"in {elapsed:.3f}s",
        )


class TestCriterion3Classes:
    def test_classes_128_60(self):
        t0 = time.time()
        code = CodeSpec.from_i_min({27}, 7)
        full = compute_blta_structure(code)
        absorbed = absorption_structure_empirical(code, trials=500, snr_db=2.0, seed=1)
        classes = equivalent_class_count(full, absorbed)
        elapsed = time.time() - t0
        report(
            "3a (classes of (128,60) code)",
            classes == 2205 and elapsed < 60.0,
            f"classes={classes} (full {full}, absorbed {absorbed}) in {elapsed:.1f}s",
        )

    def test_classes_64_37(self):
        t0 = time.time()
        code = CodeSpec.from_i_min({19}, 6)

        # full structure (4,2), checked swap by swap against the row space
        def swap_is_aut(a, b):
            return is_code_automorphism(permutation_from_affine(variable_swap(6, a, b)), code)

        in_block = [(a, b) for a in range(4) for b in range(a + 1, 4)] + [(4, 5)]
        full = compute_blta_structure(code)
        full_ok = (
            full.blocks == (4, 2)
            and all(swap_is_aut(a, b) for a, b in in_block)
            and not swap_is_aut(3, 4)
        )

        # absorbed structure (2,1,1,1,1) under the min-sum probe, with the
        # one-sided probe's margin counted frame by frame on its own batches
        absorbed = [
            absorption_structure_empirical(code, trials=500, snr_db=2.0, seed=s)
            for s in range(3)
        ]
        margins = {}
        verdicts_ok = True
        for s in range(3):
            llrs, sc_ref = _probe_batch(code, 500, 2.0, s, minsum=True)
            for a, b in in_block:
                swap = permutation_from_affine(variable_swap(6, a, b))
                p = swap.perm
                branch_in = np.empty_like(llrs)
                branch_in[:, p] = llrs
                x_hat = sc_decode_frames(branch_in, code, minsum=True)
                differ = int((x_hat[:, p] != sc_ref).any(axis=1).sum())
                margins[(a, b)] = min(margins.get((a, b), differ), differ)
                # the per-swap reference probe agrees with the count
                verdicts_ok &= _branch_matches_sc(llrs, sc_ref, swap, code, True) == (differ == 0)
        absorbed_ok = (
            verdicts_ok
            and all(S.blocks == (2, 1, 1, 1, 1) for S in absorbed)
            and all(
                (count == 0) if (a, b) == (0, 1) else (count >= 10)
                for (a, b), count in margins.items()
            )
        )

        # BLTA(4,2) / BLTA(2,1,1,1,1) is the set of partial flags the full
        # group moves and the absorbed one fixes: a (2,1,1) flag in the first
        # block, a (1,1) flag in the second, [4 2]_2 [2 1]_2 [2 1]_2 = 35*3*3
        flags = gaussian_binomial(4, 2) * gaussian_binomial(2, 1) * gaussian_binomial(2, 1)
        classes = equivalent_class_count(full, absorbed[0])
        # every BLTA group on m variables has order 2^(m + m(m-1)/2) times an
        # odd number whatever its blocks, so LTA (all blocks 1) is a Sylow
        # 2-subgroup; SC absorbs LTA, so every absorption group contains it
        # and every class count is odd
        count_ok = flags == 315 and classes == flags and classes % 2 == 1
        elapsed = time.time() - t0
        report(
            "3b (classes of (64,37) code)",
            full_ok and absorbed_ok and count_ok and elapsed < 60.0,
            f"classes={classes} (full {full}, absorbed {[str(S) for S in absorbed]}, "
            f"flags {flags}), swap margins {margins} in {elapsed:.1f}s",
        )


class TestCriterion4LengthDoubling:
    def test_fifty_random_extensions(self):
        t0 = time.time()
        rng = np.random.default_rng(2024)
        failures = []
        for trial in range(50):
            k = int(rng.integers(1, 33))
            base = random_ideal_code(5, k, rng)
            s_base = compute_blta_structure(base)
            # the doubled code: the same generator indices at n = 6
            ext = CodeSpec.from_i_min(base.i_min, 6)
            s_ext = compute_blta_structure(ext)
            predicted = s_base.blocks[:-1] + (s_base.blocks[-1] + 1,)
            if s_ext.blocks != predicted:
                failures.append((base.i_min, s_base.blocks, s_ext.blocks))
        elapsed = time.time() - t0
        report(
            "4 (length-doubling structure)",
            not failures and elapsed < 300.0,
            f"50 random codes extended, {len(failures)} failures in {elapsed:.1f}s",
        )


class TestCriterion5AbsorptionLastBlock:
    def test_searched_codes_last_block_one(self):
        # codes that leave variables unused are replicated shorter codes:
        # swapping unused coordinates never changes decoding, so the trivial
        # last-block property cannot apply to them and they are reported
        # separately rather than probed
        t0 = time.time()
        checked = 0
        degenerate = []
        failures = []
        for n in (5, 6):
            lo, hi = dim_rm(1, n), dim_rm(n - 2, n)
            for k in range(lo, hi + 1):
                t, codes = search_max_symmetry(n, k, seed=0)
                for code in codes if t >= 2 else ():
                    if not code.uses_every_variable:
                        degenerate.append((n, k, code.i_min))
                        continue
                    absorbed = absorption_structure_empirical(
                        code, trials=500, snr_db=2.0, seed=3
                    )
                    checked += 1
                    if absorbed.last != 1:
                        failures.append((n, k, code.i_min, absorbed.blocks))
        elapsed = time.time() - t0
        report(
            "5 (absorption last block = 1)",
            checked > 60 and not failures and elapsed < 600.0,
            f"{checked} codes probed, {len(failures)} failures, "
            f"{len(degenerate)} replicated-code maximisers excluded "
            f"{degenerate} in {elapsed:.1f}s",
        )


class TestCriterion6Atlas:
    def test_atlas_n32(self):
        t0 = time.time()
        rows = []
        for k in range(dim_rm(1, 5), dim_rm(3, 5) + 1):
            best_t, codes = search_max_symmetry(5, k)
            code = codes[0]
            absorbed = absorption_structure_empirical(code, trials=500, snr_db=2.0, seed=1)
            rows.append((k, best_t, code.i_min, absorbed.blocks))
        infeasible = [k for k, t, _, _ in rows if t < 2]

        def category(blocks):
            if all(b == 1 for b in blocks):
                return "all-ones"
            if blocks[0] == 2 and all(b == 1 for b in blocks[1:]):
                return "first-2"
            if blocks[0] == 3 and all(b == 1 for b in blocks[1:]):
                return "first-3"
            if max(blocks[1:]) > 1:
                return "later>1"
            return "other"

        tally = Counter(category(blocks) for _, _, _, blocks in rows)
        expected = {"all-ones": 1, "first-2": 11, "first-3": 2, "later>1": 7}
        ok = len(infeasible) == 2 and dict(tally) == expected
        if not ok:
            print("\nfull atlas (K, max_t, i_min, absorption):")
            for row in rows:
                print("  ", row)
        elapsed = time.time() - t0
        report(
            "6 (length-32 atlas)",
            ok and elapsed < 1800.0,
            f"infeasible dims {infeasible}, tally {dict(tally)} in {elapsed:.1f}s",
        )


    def test_rm_psc_exist_for_almost_all_dimensions(self):
        # the paper: RM-PSC exist for almost all code dimensions if N <= 256.
        # Between the first- and (n-2)-order Reed-Muller dimensions, exactly
        # two lack one (t = 1), for every n from 4 to 9
        t0 = time.time()
        missing = {}
        for n in range(4, 10):
            lo, hi = dim_rm(1, n), dim_rm(n - 2, n)
            missing[n] = [k for k in range(lo, hi + 1) if search_max_symmetry(n, k)[0] == 1]
        expect = {n: [dim_rm(2, n) - 4, dim_rm(2, n) - 2] for n in range(4, 10)}
        # the best (256,128) code is a single one, partially symmetric
        best_256_128 = search_max_symmetry(8, 128)
        elapsed = time.time() - t0
        report(
            "6b (RM-PSC exist for almost all dimensions, N <= 512)",
            missing == expect and best_256_128 == (7, [CodeSpec.from_i_min({30}, 8)]),
            f"dimensions without an RM-PSC {missing}, (256,128) {best_256_128} "
            f"in {elapsed:.1f}s",
        )


class TestCriterion7GroupOracle:
    def test_exhaustive_ga3(self):
        t0 = time.time()
        affines = []
        for bits in range(512):
            A = np.array(
                [[(bits >> (3 * r + c)) & 1 for c in range(3)] for r in range(3)],
                dtype=np.uint8,
            )
            if not is_invertible(A):
                continue
            for off in range(8):
                b = np.array([(off >> i) & 1 for i in range(3)], dtype=np.uint8)
                affines.append(AffineMap(A, b))
        assert len(affines) == 1344
        perms = [permutation_from_affine(t) for t in affines]

        # every decreasing code at n=3 (there are exactly nine nonempty
        # upward-closed information sets)
        codes = []
        for bits in range(1, 256):
            info = {i for i in range(8) if (bits >> i) & 1}
            try:
                codes.append(CodeSpec.from_info_set(info, 3))
            except ValueError:
                continue
        assert len(codes) == 9
        bad = []
        for code in codes:
            s = compute_blta_structure(code)
            hits = sum(1 for p in perms if is_code_automorphism(p, code))
            if hits != blta_size(s):
                bad.append((sorted(code.info_set), hits, blta_size(s)))
        elapsed = time.time() - t0
        report(
            "7 (exhaustive group oracle at n=3)",
            not bad and elapsed < 60.0,
            f"all 9 decreasing codes, 1344 affine maps each, "
            f"{len(bad)} mismatches in {elapsed:.1f}s",
        )


class TestCriterion8DecodingInvariants:
    def test_noiseless_recovery(self):
        t0 = time.time()
        rng = np.random.default_rng(33)
        failures = 0
        for _ in range(10):
            n = int(rng.integers(3, 7))
            k = int(rng.integers(2, (1 << n) - 1))
            code = random_ideal_code(n, k, rng)
            bits = rng.integers(0, 2, size=(100, code.K)).astype(np.uint8)
            x = encode_batch(bits, code)
            llrs = 20.0 * (1.0 - 2.0 * x.astype(np.float64))
            x_hat = sc_decode_frames(llrs, code)
            failures += int((x_hat != x).any())
        elapsed = time.time() - t0
        report(
            "8a (noiseless recovery)",
            failures == 0,
            f"10 codes x 100 frames each, {failures} failures in {elapsed:.1f}s",
        )

    def test_absorbed_branches_bit_identical(self):
        t0 = time.time()
        rng = np.random.default_rng(34)
        code = CodeSpec.from_i_min({19}, 6)
        bits = rng.integers(0, 2, size=(500, code.K)).astype(np.uint8)
        x = encode_batch(bits, code)
        sigma = 0.82
        y = (1.0 - 2.0 * x) + sigma * rng.normal(size=(500, code.N))
        llrs = np.clip(2.0 * y / sigma**2, -40, 40)

        # triangular maps are absorbed by the exact-rule decoder
        from rmpsc.autgroup import BlockStructure

        ok = True
        for seed in range(3):
            p = permutation_from_affine(
                sample_blta(BlockStructure((1,) * 6), np.random.default_rng(seed))
            )
            ref = sc_decode_frames(llrs, code)
            branch_in = np.empty_like(llrs)
            branch_in[:, p.perm] = llrs
            out = sc_decode_frames(branch_in, code)
            ok &= bool(np.array_equal(out[:, p.perm], ref))

        # probe-classified absorbed swap is bit-identical under the
        # classifying (min-sum) decoder
        absorbed = absorption_structure_empirical(code, trials=500, snr_db=2.0, seed=3)
        assert absorbed.blocks[0] == 2
        p = permutation_from_affine(variable_swap(6, 0, 1))
        ref = sc_decode_frames(llrs, code, minsum=True)
        branch_in = np.empty_like(llrs)
        branch_in[:, p.perm] = llrs
        out = sc_decode_frames(branch_in, code, minsum=True)
        ok &= bool(np.array_equal(out[:, p.perm], ref))
        elapsed = time.time() - t0
        report(
            "8b (absorbed branches bit-identical)",
            ok,
            f"triangular maps under exact rule + absorbed swap under min-sum, "
            f"500 noisy frames, in {elapsed:.1f}s",
        )

    def test_ae1_equals_sc(self):
        t0 = time.time()
        rng = np.random.default_rng(35)
        code = CodeSpec.from_i_min({27}, 7)
        llrs = rng.normal(0.8, 2.0, size=(500, code.N))
        X1 = sc_decode_frames(llrs, code)
        U1 = polar_transform(X1)
        X2, _ = ae_sc_decode_frames(llrs, code, [Permutation.identity(code.N)])
        U2 = polar_transform(X2)
        ok = np.array_equal(U1, U2) and np.array_equal(X1, X2)
        elapsed = time.time() - t0
        report("8c (AE-1 equals SC bit-exactly)", ok, f"500 frames in {elapsed:.1f}s")


class TestCriterion9Fer:
    def test_repetition_closed_form(self):
        t0 = time.time()
        code = CodeSpec.from_i_min({1}, 1)
        grid = (0.0, 1.0, 2.0, 3.0)
        cfg = SimConfig(
            code=code, ebn0_grid_db=grid, max_trials=40_000, target_errors=40_000, seed=77
        )
        points = run_fer(cfg)
        ok = True
        details = []
        for p in points:
            gamma = 10.0 ** (p.ebn0_db / 10.0)
            expect = 0.5 * math.erfc(math.sqrt(2.0 * gamma) / math.sqrt(2.0))
            sigma = math.sqrt(expect * (1 - expect) / p.trials)
            ok &= abs(p.fer - expect) < 3 * sigma
            details.append(f"{p.ebn0_db}dB {p.fer:.4f}~{expect:.4f}")
        elapsed = time.time() - t0
        report(
            "9a (repetition closed form)",
            ok and elapsed < 300.0,
            "; ".join(details) + f" in {elapsed:.1f}s",
        )

    def test_ae4_reaches_tub(self):
        t0 = time.time()
        code = CodeSpec.from_i_min({19}, 6)
        a_dmin = min_weight_count(code)   # 3480
        d, rate = code.min_distance, code.rate

        lo, hi = 2.0, 7.0
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            if tub_ml_bound(d, a_dmin, rate, mid) > 1e-3:
                lo = mid
            else:
                hi = mid
        e_star = 0.5 * (lo + hi)

        perms = sample_distinct_class_automorphisms(code, 4, seed=11)
        grid = tuple(round(e_star + dlt, 2) for dlt in (-0.1, 0.1, 0.3))
        cfg = SimConfig(
            code=code,
            decoder="ae",
            perms=tuple(perms),
            ebn0_grid_db=grid,
            max_trials=250_000,
            target_errors=100,
            seed=42,
        )
        points = run_fer(cfg)
        # log-linear crossing of 1e-3
        e_meas = None
        for a, b in zip(points, points[1:]):
            if a.fer >= 1e-3 >= b.fer:
                la, lb = math.log10(a.fer), math.log10(b.fer)
                frac = (la - (-3.0)) / (la - lb)
                e_meas = a.ebn0_db + frac * (b.ebn0_db - a.ebn0_db)
                break
        ok = e_meas is not None and abs(e_meas - e_star) <= 0.3
        elapsed = time.time() - t0
        fers = "; ".join(f"{p.ebn0_db}dB {p.fer:.2e}" for p in points)
        report(
            "9b (AE-4 within 0.3 dB of the ML bound)",
            ok and elapsed < 900.0,
            f"bound crossing {e_star:.2f} dB, measured {e_meas if e_meas is None else round(e_meas, 2)} dB "
            f"[{fers}] in {elapsed:.1f}s",
        )

    def test_ae8_beats_sc_everywhere(self):
        t0 = time.time()
        code = CodeSpec.from_i_min({27}, 7)
        perms = sample_distinct_class_automorphisms(code, 8, seed=13)
        grid = (1.5, 2.0, 2.5, 3.0)
        common = dict(code=code, ebn0_grid_db=grid, max_trials=4000, target_errors=4000)
        ae = run_fer(SimConfig(decoder="ae", perms=tuple(perms), seed=21, **common))
        sc = run_fer(SimConfig(decoder="sc", seed=21, **common))
        ok = all(a.fer <= s.fer for a, s in zip(ae, sc))
        elapsed = time.time() - t0
        pairs = "; ".join(f"{a.ebn0_db}dB {a.fer:.3f}<={s.fer:.3f}" for a, s in zip(ae, sc))
        report(
            "9c (AE-8 at or below SC on every point)",
            ok and elapsed < 900.0,
            pairs + f" in {elapsed:.1f}s",
        )
