import gc
import hashlib
from functools import reduce
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from rmpsc._gf2 import pack_row, rank
import rmpsc._kernels
from rmpsc._kernels import (
    _TILE,
    _f,
    _g,
    _negate_where,
    _scratch,
    _tiles,
    polar_transform,
    sc_decode_batch,
)
from rmpsc.autgroup import compute_blta_structure, permutation_from_affine, sample_blta
from rmpsc.codes import CodeSpec
from rmpsc.scdec import ae_sc_decode_frames, encode_batch, sc_decode_frames

T2 = np.array([[1, 0], [1, 1]], dtype=np.uint8)
GOLDEN = Path(__file__).parent / "data" / "sc_golden.npz"
GOLDEN_CODES = ("8_4", "32_16", "64_37", "128_60", "1024_512", "rand16", "rand64", "rand256")
GOLDEN_KINDS = ("noisy", "tied", "clamped", "tiny")


def noiseless_llr(x, mag=20.0):
    return mag * (1.0 - 2.0 * x.astype(np.float64))


def correlation(X, llrs):
    """Per-row correlation of codewords with LLRs, as a product with +-1.0."""
    return ((1.0 - 2.0 * X.astype(np.float64)) * llrs).sum(axis=1)


class TestEncode:
    def test_all_zero(self):
        code = CodeSpec.from_i_min({3, 5, 6}, 3)
        assert not encode_batch(np.zeros((1, code.K), dtype=np.uint8), code).any()

    def test_rate_one_unit_vector(self):
        code = CodeSpec.from_i_min({0}, 3)
        u = np.zeros((1, 8), dtype=np.uint8)
        u[0, 0] = 1
        x = encode_batch(u, code)
        expect = np.zeros((1, 8), dtype=np.uint8)
        expect[0, 0] = 1   # row 0 of the transform
        assert np.array_equal(x, expect)

    def test_single_bits_give_transform_rows(self):
        code = CodeSpec.from_i_min({3, 5, 6}, 3)
        t8 = reduce(np.kron, [T2] * 3)
        info = sorted(code.info_set)
        # row k of the batch carries information bit k alone
        X = encode_batch(np.eye(code.K, dtype=np.uint8), code)
        for k in range(code.K):
            assert np.array_equal(X[k], t8[info[k]])
            assert int(X[k].sum()) >= 4

    def test_transform_is_involution(self):
        rng = np.random.default_rng(0)
        for n in (1, 3, 6):
            u = rng.integers(0, 2, 1 << n).astype(np.uint8)
            assert np.array_equal(polar_transform(polar_transform(u)), u)

    def test_size_mismatch(self):
        code = CodeSpec.from_i_min({3, 5, 6}, 3)
        with pytest.raises(ValueError):
            encode_batch(np.zeros((1, 5), dtype=np.uint8), code)
        with pytest.raises(ValueError):
            encode_batch(np.zeros(code.K, dtype=np.uint8), code)   # not a batch

    # n <= 2 runs the byte butterfly alone; from n = 3 on, the word path
    @pytest.mark.parametrize("n", range(11))
    def test_transform_matches_kronecker(self, n):
        N = 1 << n
        G = reduce(np.kron, [T2] * n, np.ones((1, 1), dtype=np.uint8)).astype(np.int64)
        rng = np.random.default_rng(n)
        inputs = [rng.integers(0, 2, shape).astype(np.uint8) for shape in ((N,), (5, N), (2, 3, N))]
        # not C-contiguous; the (2, 3, N) one cannot be reshaped as a view
        inputs += [rng.integers(0, 2, shape).astype(np.uint8).T for shape in ((N, 7), (N, 3, 2))]
        for u in inputs:
            before = u.copy()
            x = polar_transform(u)
            assert x.dtype == np.uint8
            assert np.array_equal(x, (u.astype(np.int64) @ G) % 2)
            assert np.array_equal(u, before)


class TestScDecode:
    def test_noiseless_round_trip(self):
        rng = np.random.default_rng(1)
        for i_min, n in (({3, 5, 6}, 3), ({19}, 6), ({27}, 7)):
            code = CodeSpec.from_i_min(i_min, n)
            u = rng.integers(0, 2, (50, code.K)).astype(np.uint8)
            x = encode_batch(u, code)
            X = sc_decode_frames(noiseless_llr(x), code)
            U = polar_transform(X)
            assert np.array_equal(X, x)
            assert np.array_equal(U[:, sorted(code.info_set)], u)

    def test_all_positive_gives_zero(self):
        code = CodeSpec.from_i_min({19}, 6)
        X = sc_decode_frames(np.full(64, 3.0), code)   # one frame as a vector
        U = polar_transform(X)
        assert U.shape == X.shape == (1, 64)
        assert not X.any()
        assert not U.any()

    def test_rate_one_is_hard_decision(self):
        # channel-like LLRs keep every internal value away from the exact-zero
        # tie, where the contractual tie rule (decide 0) may differ from the
        # sign of an underflowed product
        code = CodeSpec.from_i_min({0}, 5)
        rng = np.random.default_rng(2)
        signs = 1.0 - 2.0 * rng.integers(0, 2, (50, 32))
        llrs = signs * rng.uniform(0.5, 6.0, (50, 32))
        X = sc_decode_frames(llrs, code)
        assert np.array_equal(X, (llrs < 0).astype(np.uint8))

    def test_frozen_positions_zero(self):
        code = CodeSpec.from_i_min({11}, 5)
        rng = np.random.default_rng(3)
        U = polar_transform(sc_decode_frames(rng.normal(0, 2, (50, 32)), code))
        assert not U[:, code.frozen_mask() == 1].any()

    def test_involution_on_noisy_decodes(self):
        code = CodeSpec.from_i_min({11}, 5)
        rng = np.random.default_rng(4)
        X = sc_decode_frames(rng.normal(0.5, 2, (100, 32)), code)
        U = polar_transform(X)
        assert np.array_equal(polar_transform(U), X)

    def test_sign_covariance(self):
        # flipping channel signs by a codeword shifts the output by it
        code = CodeSpec.from_i_min({11}, 5)
        rng = np.random.default_rng(5)
        llrs = rng.normal(0.3, 2, (200, 32))
        c = encode_batch(rng.integers(0, 2, (200, code.K)).astype(np.uint8), code)
        a = sc_decode_frames(llrs, code)
        b = sc_decode_frames(llrs * (1.0 - 2.0 * c), code)
        assert np.array_equal(b, a ^ c)

    def test_length_mismatch(self):
        code = CodeSpec.from_i_min({3, 5, 6}, 3)
        with pytest.raises(ValueError):
            sc_decode_frames(np.zeros((2, 16)), code)

    def test_non_finite_rejected(self):
        code = CodeSpec.from_i_min({3, 5, 6}, 3)
        llrs = np.zeros((2, 8))
        llrs[1, 3] = np.nan
        with pytest.raises(ValueError):
            sc_decode_frames(llrs, code)
        llrs[1, 3] = np.inf
        with pytest.raises(ValueError):
            sc_decode_frames(llrs, code)

    def test_tie_decodes_to_zero(self):
        code = CodeSpec.from_i_min({0}, 2)   # rate 1
        U = polar_transform(sc_decode_frames(np.zeros((1, 4)), code))
        assert not U.any()

    @pytest.mark.parametrize("minsum", [False, True])
    def test_empty_batch(self, minsum):
        code = CodeSpec.from_i_min({19}, 6)
        X = sc_decode_frames(np.zeros((0, 64)), code, minsum=minsum)
        assert X.shape == (0, 64)

    def test_minsum_close_to_exact_noiseless(self):
        code = CodeSpec.from_i_min({19}, 6)
        rng = np.random.default_rng(6)
        x = encode_batch(rng.integers(0, 2, (1, code.K)).astype(np.uint8), code)
        X = sc_decode_frames(noiseless_llr(x), code, minsum=True)
        assert np.array_equal(X, x)

    def test_trace_nodes(self):
        code = CodeSpec.from_i_min({3, 5, 6}, 3)
        rng = np.random.default_rng(7)
        llrs = rng.normal(0, 2, (1, 8))
        frozen = code.frozen_mask()
        for minsum, visited in ((False, 22), (True, 20)):
            nodes = []

            def record(level, start, v):
                nodes.append((level, start, v.copy()))

            X = sc_decode_batch(llrs, frozen, minsum, trace=record)
            assert np.array_equal(X, sc_decode_batch(llrs, frozen, minsum))
            # only computed nodes: the root (8 LLRs), the Rep node u0-u3 (4),
            # the node u4-u7 (4), the Rep node u4-u5 (2), the node u6-u7 (2)
            # and its two leaves (1 + 1); min-sum decides the Rate-1 node u6-u7
            # (no zero LLR) by hard decision and does not descend to its leaves
            assert sum(len(v) for _, _, v in nodes) == visited
            level, start, root = nodes[0]
            assert (level, start) == (3, 0)
            assert np.array_equal(root[:, 0], llrs[0])


class TestBatchDecode:
    @pytest.mark.parametrize("minsum", [False, True])
    @pytest.mark.parametrize("name", ["rand16", "rand64", "rand256"])
    def test_traced_matches_untraced_golden_masks(self, name, minsum):
        with np.load(GOLDEN) as g:
            frozen = g[f"frozen_{name}"]
            for kind in GOLDEN_KINDS:
                llrs = g[f"llrs_{name}_{kind}"]
                X = sc_decode_batch(llrs, frozen, minsum)
                U = polar_transform(X)
                X_t = sc_decode_batch(llrs, frozen, minsum, trace=lambda *node: None)
                U_t = polar_transform(X_t)
                assert np.array_equal(U, U_t), kind
                assert np.array_equal(X, X_t), kind

    # f LLRs per frame, exact rule, traced or not: skipping the Rate-0 left
    # children saves (128,60) 40 and (64,37) 16 of them; (1024,512) has none
    @pytest.mark.parametrize(
        "i_min, n, f_llrs", [({27}, 7, 306), ({19}, 6, 131), ({63, 121}, 10, 4013)]
    )
    def test_rate0_left_child_skips_f(self, monkeypatch, i_min, n, f_llrs):
        code = CodeSpec.from_i_min(i_min, n)
        B = 3
        llrs = np.random.default_rng(16).normal(0.5, 2, (B, code.N))
        sizes = []

        def counting(tiles, minsum):
            sizes.extend(tile[0].size for tile in tiles)   # output elements
            return _f(tiles, minsum)

        monkeypatch.setattr(rmpsc._kernels, "_f", counting)
        X = sc_decode_batch(llrs, code.frozen_mask())
        U = polar_transform(X)
        assert sum(sizes) == f_llrs * B
        sizes.clear()
        X_t = sc_decode_batch(llrs, code.frozen_mask(), trace=lambda *node: None)
        U_t = polar_transform(X_t)
        assert sum(sizes) == f_llrs * B
        assert np.array_equal(U, U_t)
        assert np.array_equal(X, X_t)

    @pytest.mark.parametrize("rule", ["exact", "minsum"])
    def test_tiled_nodes_match_golden(self, rule):
        # eight copies of the 16 golden frames: f and g of the top levels then
        # run in several tiles
        reps = 8
        with np.load(GOLDEN) as g:
            frozen = g["frozen_1024_512"]
            for kind in GOLDEN_KINDS:
                llrs = np.tile(g[f"llrs_1024_512_{kind}"], (reps, 1))
                assert 512 * len(llrs) > 2 * _TILE
                X = sc_decode_batch(llrs, frozen, rule == "minsum")
                U = polar_transform(X)
                key = f"1024_512_{kind}_{rule}"
                assert np.array_equal(np.packbits(U, axis=1), np.tile(g[f"U_{key}"], (reps, 1)))
                assert np.array_equal(np.packbits(X, axis=1), np.tile(g[f"X_{key}"], (reps, 1)))

    @pytest.mark.parametrize("minsum", [False, True])
    def test_call_leaves_no_cyclic_garbage(self, minsum):
        # arrays held by a reference cycle would live until the cyclic GC runs
        code = CodeSpec.from_i_min({27}, 7)
        llrs = np.random.default_rng(19).normal(0.5, 2, (4, code.N))
        frozen = code.frozen_mask()
        gc.collect()
        gc.disable()
        try:
            sc_decode_batch(llrs, frozen, minsum)
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_single_frame_near_ties_match_batch(self):
        # one frame: f of a level-1 node is a one-element tile of a scratch
        # sized for wider ones; these LLRs make its magnitude decide the leaves
        llrs = np.full((2, 16), -1e-3)
        llrs[0, 0] = 1.0
        info_only = np.zeros(16, dtype=np.uint8)
        X = sc_decode_batch(llrs, info_only)
        for i in range(2):
            assert np.array_equal(sc_decode_batch(llrs[i : i + 1], info_only)[0], X[i])

    def test_batch_matches_single(self):
        code = CodeSpec.from_i_min({11}, 5)
        rng = np.random.default_rng(8)
        llrs = rng.normal(0.5, 2, (64, 32))
        X = sc_decode_frames(llrs, code)
        U = polar_transform(X)
        for i in range(64):
            Xi = sc_decode_frames(llrs[i], code)
            Ui = polar_transform(Xi)
            assert np.array_equal(U[i], Ui[0])
            assert np.array_equal(X[i], Xi[0])


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
    return code, llrs


NONZERO_LLR_VALUES = st.one_of(
    st.sampled_from([40.0, -40.0, 1e-3, -1e-3]),
    st.floats(-40.0, 40.0, allow_nan=False).filter(lambda v: v != 0.0),
)


@st.composite
def ae_inputs(draw, n, batch):
    i_min = draw(st.sets(st.integers(0, (1 << n) - 1), min_size=1, max_size=3))
    code = CodeSpec.from_i_min(i_min, n)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    full = compute_blta_structure(code)
    perms = [
        permutation_from_affine(sample_blta(full, rng))
        for _ in range(draw(st.integers(1, 8)))
    ]
    llrs = draw(st.sampled_from([1.0, 1e-3])) * rng.normal(0.0, 3.0, (batch, code.N))
    special = rng.choice([0.0, -0.0, 40.0, -40.0], size=llrs.shape)
    llrs = np.where(rng.random(llrs.shape) < draw(st.sampled_from([0.0, 0.1, 0.5])), special, llrs)
    return code, perms, llrs


@st.composite
def llr_pairs(draw):
    """Node-array pairs (a, b) of channel-like LLRs at scale 1 or 1e-3, some
    entries replaced by +-0.0 and +-40, and a 0/1 uint8 array u."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    shape = (draw(st.integers(1, 16)), draw(st.integers(1, 16)))
    scale = draw(st.sampled_from([1.0, 1e-3]))
    frac = draw(st.sampled_from([0.0, 0.1, 0.5]))
    a, b = (
        np.where(
            rng.random(shape) < frac,
            rng.choice([0.0, -0.0, 40.0, -40.0], size=shape),
            scale * rng.normal(0.0, 3.0, shape),
        )
        for _ in range(2)
    )
    return a, b, rng.integers(0, 2, shape).astype(np.uint8)


def kernel_tiles(a, b, tile_rows):
    """An output array for node arrays a and b (rows of one column when
    1-D), and the kernel's f and g tiles over them, ``tile_rows`` rows each
    (all rows when None)."""
    ab = np.stack((a, b)).reshape(2, len(a), -1)
    out = np.empty(ab.shape[1:])
    rows = len(a) if tile_rows is None else tile_rows
    return out, *_tiles(ab, out, _scratch(rows * out.shape[1]))


def boxplus_kernel(a, b, minsum, tile_rows=None):
    """The kernel's f of node arrays a and b."""
    out, f_tiles, _ = kernel_tiles(a, b, tile_rows)
    _f(f_tiles, minsum)
    return out.reshape(a.shape)


def bitnode_kernel(a, b, bits, tile_rows=None):
    """The kernel's g of (h, B) node arrays a and b under the 0/1 ``bits``."""
    out, _, g_tiles = kernel_tiles(a, b, tile_rows)
    _g(g_tiles, bits)
    return out


def boxplus_reference(a, b, minsum):
    """The check-node rule with its sign as a product with +-1.0."""
    aa = np.abs(a)
    ab = np.abs(b)
    sign = np.where((a < 0) != (b < 0), -1.0, 1.0)
    if minsum:
        return sign * np.minimum(aa, ab)
    mag = (
        np.minimum(aa, ab)
        + np.log1p(np.exp(-(aa + ab)))
        - np.log1p(np.exp(-np.abs(aa - ab)))
    )
    return sign * np.maximum(mag, 0.0)


def ae_reference(llrs, code, perms):
    """AE decoding with one kernel call per branch, as a plain loop."""
    llrs = np.clip(llrs, -40.0, 40.0)
    cands, scores = [], []
    for p in perms:
        branch_in = np.empty_like(llrs)
        branch_in[:, p.perm] = llrs
        X = sc_decode_batch(branch_in, code.frozen_mask())
        cand = X[:, p.perm]
        cands.append(cand)
        scores.append(correlation(cand, llrs))
    winner = np.argmax(scores, axis=0)
    X = np.array(cands)[winner, np.arange(len(llrs))]
    return polar_transform(X), X, winner


class TestProperties:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(sc_inputs())
    def test_batch_rows_transform_frozen(self, case):
        llrs, frozen, minsum = case
        X = sc_decode_batch(llrs, frozen, minsum)
        U = polar_transform(X)
        assert np.array_equal(X, polar_transform(U))
        assert not U[:, frozen == 1].any()
        X_t = sc_decode_batch(llrs, frozen, minsum, trace=lambda *node: None)
        U_t = polar_transform(X_t)
        assert np.array_equal(U_t, U)
        assert np.array_equal(X_t, X)
        for i in range(len(llrs)):
            Xi = sc_decode_batch(llrs[i : i + 1], frozen, minsum)
            Ui = polar_transform(Xi)
            assert np.array_equal(Ui[0], U[i])
            assert np.array_equal(Xi[0], X[i])

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(llr_pairs())
    def test_boxplus_bytes_match_sign_product(self, case):
        a, b, _ = case
        for minsum in (False, True):
            for tile_rows in (None, 1):   # one tile, or one per row
                got = boxplus_kernel(a, b, minsum, tile_rows)
                assert got.tobytes() == boxplus_reference(a, b, minsum).tobytes()

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(llr_pairs())
    def test_sign_flip_bytes_match_sign_product(self, case):
        a, b, u = case
        for bits in (u, np.broadcast_to(u[0], u.shape)):  # a Rep node repeats its row
            for tile_rows in (None, 1):
                g = bitnode_kernel(a, b, bits, tile_rows)
                assert g.tobytes() == ((1.0 - 2.0 * bits) * a + b).tobytes()
            score = _negate_where(a.copy(), bits).sum(axis=1)
            assert score.tobytes() == ((1.0 - 2.0 * bits) * a).sum(axis=1).tobytes()

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(code_inputs())
    def test_ae_identity_is_sc(self, case):
        from rmpsc.autgroup import Permutation

        code, llrs = case
        identity = [Permutation.identity(code.N)]
        X, winner = ae_sc_decode_frames(llrs, code, identity)
        U = polar_transform(X)
        X_sc = sc_decode_frames(llrs, code)
        U_sc = polar_transform(X_sc)
        assert np.array_equal(X, X_sc)
        assert np.array_equal(U, U_sc)
        assert not winner.any()

    # branches per kernel call: 1024, 341, 16 and 3 at N = 64, 6 at
    # (N, B) = (32, 300), 64 and 5461 for the small codes; with up to 8
    # branches, groups end both past and inside the ensemble
    @pytest.mark.parametrize(
        "n, batch", [(6, 1), (6, 3), (6, 64), (6, 300), (5, 300), (4, 64), (2, 3)]
    )
    @settings(max_examples=50, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_stacked_branches_match_branch_loop(self, n, batch, data):
        code, perms, llrs = data.draw(ae_inputs(n, batch))
        X, winner = ae_sc_decode_frames(llrs, code, perms)
        U = polar_transform(X)
        U_ref, X_ref, winner_ref = ae_reference(llrs, code, perms)
        assert np.array_equal(U, U_ref)
        assert np.array_equal(X, X_ref)
        assert np.array_equal(winner, winner_ref)

    def test_exact_rule_rate_one_is_not_hard_decision(self):
        # the exact rule's f rounds to 0 from nonzero inputs here, so its SC
        # decision differs from the hard decision that min-sum gives
        llrs = np.array([[1e-9, 1e-9, 1e-9, -1e-9]])
        info_only = np.zeros(4, dtype=np.uint8)
        X = sc_decode_batch(llrs, info_only, False)
        assert X.tolist() == [[0, 0, 0, 0]]
        X = sc_decode_batch(llrs, info_only, True)
        assert X.tolist() == [[0, 0, 0, 1]]

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(st.integers(0, 6).flatmap(
        lambda n: hnp.arrays(
            np.float64, st.tuples(st.integers(1, 8), st.just(1 << n)),
            elements=NONZERO_LLR_VALUES,
        )
    ))
    def test_minsum_rate_one_is_hard_decision(self, llrs):
        X = sc_decode_batch(llrs, np.zeros(llrs.shape[1], dtype=np.uint8), True)
        U = polar_transform(X)
        assert np.array_equal(X, (llrs < 0).astype(np.uint8))
        assert np.array_equal(U, polar_transform(X))


class TestGolden:
    """Decisions frozen from the iterative kernel the recursive one replaced
    (written by ``tests/data/make_sc_golden.py``).  The file is never
    regenerated to make a kernel pass."""

    def test_file_is_pinned(self):
        digest = hashlib.sha256(GOLDEN.read_bytes()).hexdigest()
        assert digest == "55aad9441640bd5218e12644680edf27d7970092e96aa10ea607dba2d892fcb7"

    @pytest.mark.parametrize("rule", ["exact", "minsum"])
    @pytest.mark.parametrize("name", GOLDEN_CODES)
    def test_bit_exact(self, name, rule):
        with np.load(GOLDEN) as g:
            frozen = g[f"frozen_{name}"]
            for kind in GOLDEN_KINDS:
                llrs = g[f"llrs_{name}_{kind}"]
                X = sc_decode_batch(llrs, frozen, rule == "minsum")
                U = polar_transform(X)
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
        llrs = rng.normal(0.5, 2, (50, 32))
        X, winner = ae_sc_decode_frames(llrs, code, [Permutation.identity(32)])
        U = polar_transform(X)
        X_sc = sc_decode_frames(llrs, code)
        U_sc = polar_transform(X_sc)
        assert np.array_equal(X, X_sc)
        assert np.array_equal(U, U_sc)
        assert not winner.any()

    def test_noiseless_recovers(self):
        code, perms = self._code_and_perms()
        rng = np.random.default_rng(11)
        x = encode_batch(rng.integers(0, 2, (20, code.K)).astype(np.uint8), code)
        X, _ = ae_sc_decode_frames(noiseless_llr(x), code, perms)
        assert np.array_equal(X, x)

    def test_branch_outputs_are_codewords(self):
        code, perms = self._code_and_perms()
        packed = code.generator_rows_packed()
        rng = np.random.default_rng(12)
        llrs = rng.normal(0.7, 2, (100, 32))
        for p in perms:
            branch_in = np.empty_like(llrs)
            branch_in[:, p.perm] = llrs
            X = sc_decode_frames(branch_in, code)
            cands = X[:, p.perm]
            for cand in cands:
                assert rank(packed + [pack_row(cand)]) == code.K

    def test_selection_dominates_sc(self):
        from rmpsc.autgroup import Permutation

        code, perms = self._code_and_perms()
        ensemble = [Permutation.identity(32)] + perms
        rng = np.random.default_rng(13)
        llrs = rng.normal(0.5, 2, (100, 32))
        X_ae, _ = ae_sc_decode_frames(llrs, code, ensemble)
        X_sc = sc_decode_frames(llrs, code)
        assert (correlation(X_ae, llrs) >= correlation(X_sc, llrs)).all()

    def test_involution_on_winners(self):
        code, perms = self._code_and_perms()
        rng = np.random.default_rng(14)
        llrs = rng.normal(0.5, 2, (50, 32))
        X, _ = ae_sc_decode_frames(llrs, code, perms)
        U = polar_transform(X)
        for u, x in zip(U, X):
            assert np.array_equal(polar_transform(u), x)

    def test_empty_batch(self):
        code, perms = self._code_and_perms()
        X, winner = ae_sc_decode_frames(np.zeros((0, 32)), code, perms)
        assert X.shape == (0, 32)
        assert winner.shape == (0,)

    def test_empty_perms_rejected(self):
        code = CodeSpec.from_i_min({11}, 5)
        with pytest.raises(ValueError):
            ae_sc_decode_frames(np.zeros((1, 32)), code, [])

    def test_wrong_length_perm_rejected(self):
        code = CodeSpec.from_i_min({11}, 5)
        with pytest.raises(ValueError):
            ae_sc_decode_frames(np.zeros((1, 32)), code, [np.arange(16)])

    def test_repeated_index_rejected(self):
        code = CodeSpec.from_i_min({11}, 5)
        with pytest.raises(ValueError, match="not a permutation"):
            ae_sc_decode_frames(np.zeros((1, 32)), code, [np.zeros(32, int)])

    @pytest.mark.parametrize("batch, calls", [(256, 4), (64, 1)])
    def test_branches_share_kernel_calls(self, monkeypatch, batch, calls):
        import rmpsc.scdec

        code = CodeSpec.from_i_min({27}, 7)   # (128,60)
        rng = np.random.default_rng(15)
        full = compute_blta_structure(code)
        perms = [permutation_from_affine(sample_blta(full, rng)) for _ in range(8)]
        rows = []

        def counting(llrs, frozen, minsum=False, trace=None):
            rows.append(len(llrs))
            return sc_decode_batch(llrs, frozen, minsum, trace)

        monkeypatch.setattr(rmpsc.scdec, "sc_decode_batch", counting)
        ae_sc_decode_frames(rng.normal(0.5, 2, (batch, 128)), code, perms)
        assert len(rows) == calls
        assert sum(rows) == 8 * batch


class TestBoxplus:
    def test_one_element_tile_of_wider_scratch(self):
        # f of one frame at a level-1 node: a one-element tile of a scratch
        # sized for 8, whose other entries hold stale values
        a, b = np.array([[3.0]]), np.array([[-1.0]])
        out = np.empty((1, 1))
        scratch = _scratch(8)
        for part in scratch:
            part[...] = 5
        f_tiles, _ = _tiles(np.stack((a, b)), out, scratch)
        _f(f_tiles, False)
        assert out.tobytes() == boxplus_reference(a, b, False).tobytes()

    def test_boxplus_matches_tanh_form(self):
        rng = np.random.default_rng(18)
        a = rng.normal(0, 5, 500)
        b = rng.normal(0, 5, 500)
        exact = 2.0 * np.arctanh(np.tanh(a / 2) * np.tanh(b / 2))
        assert np.allclose(boxplus_kernel(a, b, False), exact, atol=1e-10)
