import itertools
from functools import reduce
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from rmpsc._gf2 import pack_row, rank
from rmpsc._kernels import polar_transform, sc_decode_batch
from rmpsc.codes import CodeSpec
from rmpsc.scdec import (
    ae_sc_decode,
    ae_sc_decode_frames,
    encode,
    encode_batch,
    sc_decode,
    sc_decode_frames,
)

T2 = np.array([[1, 0], [1, 1]], dtype=np.uint8)
GOLDEN = Path(__file__).parent / "data" / "sc_golden.npz"
GOLDEN_CODES = ("8_4", "32_16", "64_37", "128_60", "1024_512", "rand16", "rand64", "rand256")
GOLDEN_KINDS = ("noisy", "tied", "clamped", "tiny")


def noiseless_llr(x, mag=20.0):
    return mag * (1.0 - 2.0 * x.astype(np.float64))


class TestEncode:
    def test_all_zero(self):
        code = CodeSpec.from_i_min({3, 5, 6}, 3)
        assert not encode(np.zeros(code.K, dtype=np.uint8), code).any()

    def test_rate_one_unit_vector(self):
        code = CodeSpec.from_i_min({0}, 3)
        u = np.zeros(8, dtype=np.uint8)
        u[0] = 1
        x = encode(u, code)
        expect = np.zeros(8, dtype=np.uint8)
        expect[0] = 1   # row 0 of the transform
        assert np.array_equal(x, expect)

    def test_single_bits_give_transform_rows(self):
        code = CodeSpec.from_i_min({3, 5, 6}, 3)
        t8 = reduce(np.kron, [T2] * 3)
        info = sorted(code.info_set)
        for k in range(code.K):
            u = np.zeros(code.K, dtype=np.uint8)
            u[k] = 1
            x = encode(u, code)
            assert np.array_equal(x, t8[info[k]])
            assert int(x.sum()) >= 4

    def test_transform_is_involution(self):
        rng = np.random.default_rng(0)
        for n in (1, 3, 6):
            u = rng.integers(0, 2, 1 << n).astype(np.uint8)
            assert np.array_equal(polar_transform(polar_transform(u)), u)

    def test_size_mismatch(self):
        code = CodeSpec.from_i_min({3, 5, 6}, 3)
        with pytest.raises(ValueError):
            encode(np.zeros(5, dtype=np.uint8), code)


class TestScDecode:
    def test_noiseless_round_trip(self):
        rng = np.random.default_rng(1)
        for i_min, n in (({3, 5, 6}, 3), ({19}, 6), ({27}, 7)):
            code = CodeSpec.from_i_min(i_min, n)
            for _ in range(50):
                u = rng.integers(0, 2, code.K).astype(np.uint8)
                x = encode(u, code)
                res = sc_decode(noiseless_llr(x), code)
                assert np.array_equal(res.x_hat, x)
                assert np.array_equal(res.u_hat[sorted(code.info_set)], u)

    def test_all_positive_gives_zero(self):
        code = CodeSpec.from_i_min({19}, 6)
        res = sc_decode(np.full(64, 3.0), code)
        assert not res.x_hat.any()
        assert not res.u_hat.any()

    def test_rate_one_is_hard_decision(self):
        # channel-like LLRs keep every internal value away from the exact-zero
        # tie, where the contractual tie rule (decide 0) may differ from the
        # sign of an underflowed product
        code = CodeSpec.from_i_min({0}, 5)
        rng = np.random.default_rng(2)
        for _ in range(50):
            signs = 1.0 - 2.0 * rng.integers(0, 2, 32)
            llr = signs * rng.uniform(0.5, 6.0, 32)
            res = sc_decode(llr, code)
            assert np.array_equal(res.x_hat, (llr < 0).astype(np.uint8))

    def test_frozen_positions_zero(self):
        code = CodeSpec.from_i_min({11}, 5)
        rng = np.random.default_rng(3)
        frozen = sorted(code.frozen_set)
        for _ in range(50):
            res = sc_decode(rng.normal(0, 2, 32), code)
            assert not res.u_hat[frozen].any()

    def test_involution_on_noisy_decodes(self):
        code = CodeSpec.from_i_min({11}, 5)
        rng = np.random.default_rng(4)
        for _ in range(100):
            res = sc_decode(rng.normal(0.5, 2, 32), code)
            assert np.array_equal(polar_transform(res.u_hat), res.x_hat)

    def test_sign_covariance(self):
        # flipping channel signs by a codeword shifts the output by it
        code = CodeSpec.from_i_min({11}, 5)
        rng = np.random.default_rng(5)
        for _ in range(200):
            llr = rng.normal(0.3, 2, 32)
            c = encode(rng.integers(0, 2, code.K).astype(np.uint8), code)
            a = sc_decode(llr, code).x_hat
            b = sc_decode(llr * (1.0 - 2.0 * c), code).x_hat
            assert np.array_equal(b, a ^ c)

    def test_length_mismatch(self):
        code = CodeSpec.from_i_min({3, 5, 6}, 3)
        with pytest.raises(ValueError):
            sc_decode(np.zeros(16), code)

    def test_non_finite_rejected(self):
        code = CodeSpec.from_i_min({3, 5, 6}, 3)
        llr = np.zeros(8)
        llr[3] = np.nan
        with pytest.raises(ValueError):
            sc_decode(llr, code)
        llr[3] = np.inf
        with pytest.raises(ValueError):
            sc_decode(llr, code)

    def test_tie_decodes_to_zero(self):
        code = CodeSpec.from_i_min({0}, 2)   # rate 1
        res = sc_decode(np.zeros(4), code)
        assert not res.u_hat.any()

    def test_minsum_close_to_exact_noiseless(self):
        code = CodeSpec.from_i_min({19}, 6)
        rng = np.random.default_rng(6)
        u = rng.integers(0, 2, code.K).astype(np.uint8)
        x = encode(u, code)
        res = sc_decode(noiseless_llr(x), code, minsum=True)
        assert np.array_equal(res.x_hat, x)

    def test_trace_file(self, tmp_path):
        code = CodeSpec.from_i_min({3, 5, 6}, 3)
        rng = np.random.default_rng(7)
        llr = rng.normal(0, 2, 8)
        path = tmp_path / "trace.csv"
        res = sc_decode(llr, code, trace=path)
        plain = sc_decode(llr, code)
        assert np.array_equal(res.x_hat, plain.x_hat)
        lines = path.read_text().splitlines()
        assert lines[0] == "level,position,llr"
        # only computed nodes: the root (8 rows), the Rep node u0-u3 (4), the
        # node u4-u7 (4), the Rep node u4-u5 (2), the node u6-u7 (2) and its
        # two leaves (1 + 1)
        assert len(lines) == 1 + 22
        root = [float(line.split(",")[2]) for line in lines[1:9]]
        assert np.array_equal(root, llr)


class TestBatchDecode:
    def test_batch_matches_single(self):
        code = CodeSpec.from_i_min({11}, 5)
        rng = np.random.default_rng(8)
        llrs = rng.normal(0.5, 2, (64, 32))
        U, X = sc_decode_frames(llrs, code)
        for i in range(64):
            res = sc_decode(llrs[i], code)
            assert np.array_equal(U[i], res.u_hat)
            assert np.array_equal(X[i], res.x_hat)


LLR_VALUES = st.one_of(
    st.sampled_from([0.0, -0.0, 40.0, -40.0, 1e-3, -1e-3]),
    st.floats(-40.0, 40.0, allow_nan=False),
)


@st.composite
def sc_inputs(draw):
    N = 1 << draw(st.integers(0, 6))
    frozen = draw(hnp.arrays(np.uint8, N, elements=st.integers(0, 1)))
    llrs = draw(hnp.arrays(np.float64, (draw(st.integers(1, 8)), N), elements=LLR_VALUES))
    return llrs, frozen, draw(st.booleans())


@st.composite
def code_inputs(draw):
    n = draw(st.integers(1, 6))
    i_min = draw(st.sets(st.integers(0, (1 << n) - 1), min_size=1, max_size=3))
    code = CodeSpec.from_i_min(i_min, n)
    llrs = draw(hnp.arrays(np.float64, (draw(st.integers(1, 8)), code.N), elements=LLR_VALUES))
    return code, llrs, draw(st.booleans())


class TestProperties:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(sc_inputs())
    def test_batch_rows_transform_frozen(self, case):
        llrs, frozen, minsum = case
        U, X = sc_decode_batch(llrs, frozen, minsum)
        assert np.array_equal(X, polar_transform(U))
        assert not U[:, frozen == 1].any()
        for i in range(len(llrs)):
            Ui, Xi = sc_decode_batch(llrs[i : i + 1], frozen, minsum)
            assert np.array_equal(Ui[0], U[i])
            assert np.array_equal(Xi[0], X[i])

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(code_inputs())
    def test_ae_identity_is_sc(self, case):
        from rmpsc.autgroup import Permutation

        code, llrs, minsum = case
        identity = [Permutation.identity(code.N)]
        U, X, winner = ae_sc_decode_frames(llrs, code, identity, minsum=minsum)
        U_sc, X_sc = sc_decode_frames(llrs, code, minsum=minsum)
        assert np.array_equal(X, X_sc)
        assert np.array_equal(U, U_sc)
        assert not winner.any()


class TestGolden:
    """Decisions frozen from the iterative kernel the recursive one replaced
    (written by ``tests/data/make_sc_golden.py``).  The file is never
    regenerated to make a kernel pass."""

    @pytest.mark.parametrize("rule", ["exact", "minsum"])
    @pytest.mark.parametrize("name", GOLDEN_CODES)
    def test_bit_exact(self, name, rule):
        with np.load(GOLDEN) as g:
            frozen = g[f"frozen_{name}"]
            for kind in GOLDEN_KINDS:
                llrs = g[f"llrs_{name}_{kind}"]
                U, X = sc_decode_batch(llrs, frozen, rule == "minsum")
                key = f"{name}_{kind}_{rule}"
                assert np.array_equal(np.packbits(U, axis=1), g[f"U_{key}"]), key
                assert np.array_equal(np.packbits(X, axis=1), g[f"X_{key}"]), key


class TestAeDecode:
    def _code_and_perms(self):
        from rmpsc.autgroup import sample_blta, permutation_from_affine, compute_blta_structure

        code = CodeSpec.from_i_min({11}, 5)
        rng = np.random.default_rng(9)
        s = compute_blta_structure(code)
        perms = [permutation_from_affine(sample_blta(s, rng)) for _ in range(4)]
        return code, perms

    def test_identity_only_equals_sc(self):
        from rmpsc.autgroup import Permutation

        code = CodeSpec.from_i_min({11}, 5)
        rng = np.random.default_rng(10)
        for _ in range(50):
            llr = rng.normal(0.5, 2, 32)
            a = ae_sc_decode(llr, code, [Permutation.identity(32)])
            b = sc_decode(llr, code)
            assert np.array_equal(a.x_hat, b.x_hat)
            assert np.array_equal(a.u_hat, b.u_hat)
            assert a.score == b.score

    def test_noiseless_recovers(self):
        code, perms = self._code_and_perms()
        rng = np.random.default_rng(11)
        for _ in range(20):
            u = rng.integers(0, 2, code.K).astype(np.uint8)
            x = encode(u, code)
            res = ae_sc_decode(noiseless_llr(x), code, perms)
            assert np.array_equal(res.x_hat, x)

    def test_branch_outputs_are_codewords(self):
        code, perms = self._code_and_perms()
        packed = code.generator_rows_packed()
        rng = np.random.default_rng(12)
        llrs = rng.normal(0.7, 2, (100, 32))
        for p in perms:
            branch_in = np.empty_like(llrs)
            branch_in[:, p.perm] = llrs
            _, X = sc_decode_frames(branch_in, code)
            cands = X[:, p.perm]
            for cand in cands:
                assert rank(packed + [pack_row(cand)]) == code.K

    def test_selection_dominates_sc(self):
        from rmpsc.autgroup import Permutation

        code, perms = self._code_and_perms()
        ensemble = [Permutation.identity(32)] + perms
        rng = np.random.default_rng(13)
        for _ in range(100):
            llr = rng.normal(0.5, 2, 32)
            ae = ae_sc_decode(llr, code, ensemble)
            sc = sc_decode(llr, code)
            assert ae.score >= sc.score

    def test_involution_on_winners(self):
        code, perms = self._code_and_perms()
        rng = np.random.default_rng(14)
        llrs = rng.normal(0.5, 2, (50, 32))
        U, X, _ = ae_sc_decode_frames(llrs, code, perms)
        for u, x in zip(U, X):
            assert np.array_equal(polar_transform(u), x)

    def test_empty_perms_rejected(self):
        code = CodeSpec.from_i_min({11}, 5)
        with pytest.raises(ValueError):
            ae_sc_decode(np.zeros(32), code, [])

    def test_wrong_length_perm_rejected(self):
        code = CodeSpec.from_i_min({11}, 5)
        with pytest.raises(ValueError):
            ae_sc_decode(np.zeros(32), code, [np.arange(16)])


class TestKernelBackends:
    def test_boxplus_matches_tanh_form(self):
        from rmpsc._kernels import _boxplus_numpy

        rng = np.random.default_rng(18)
        a = rng.normal(0, 5, 500)
        b = rng.normal(0, 5, 500)
        exact = 2.0 * np.arctanh(np.tanh(a / 2) * np.tanh(b / 2))
        assert np.allclose(_boxplus_numpy(a, b, False), exact, atol=1e-10)
