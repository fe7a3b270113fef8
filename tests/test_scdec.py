import gc
import hashlib
import sys
import threading
from functools import reduce
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, seed, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import _reference
from _reference import (
    boxplus_reference, rank, sc_decode_recursive, sc_node_inputs, sc_reference,
)
from rmpsc._gf2 import pack_row
import rmpsc._kernels
from rmpsc._kernels import (
    LLR_CLAMP,
    _RATE1_GUARD,
    _TILE,
    _f,
    _g,
    _scratch,
    _tiles,
    polar_transform,
    sc_decode_batch,
)
from rmpsc.autgroup import (
    _swap_permutation, compute_blta_structure, permutation_from_affine, sample_blta,
)
from rmpsc.codes import MAX_N, CodeSpec
from rmpsc.scdec import ae_sc_decode_frames, encode_batch, sc_decode_frames

T2 = np.array([[1, 0], [1, 1]], dtype=np.uint8)
GOLDEN = Path(__file__).parent / "data" / "sc_golden.npz"
GOLDEN_CODES = ("8_4", "32_16", "64_37", "128_60", "1024_512", "rand16", "rand64", "rand256")
GOLDEN_KINDS = ("noisy", "tied", "clamped", "tiny")


def noiseless_llr(x, mag=20.0):
    return mag * (1.0 - 2.0 * x.astype(np.float64))


def correlation(X, llrs):
    """Per-row correlation of codewords with LLRs, as a product with +-1.0,
    summed in C order whatever the layout of X."""
    return ((1.0 - 2.0 * np.ascontiguousarray(X, dtype=np.float64)) * llrs).sum(axis=1)


def record_f_and_g(monkeypatch, *modules):
    """Patch ``_f`` and ``_g`` in ``rmpsc._kernels`` and in each of
    ``modules`` with wrappers that run them and record each call as
    ``(kind, output bytes)``, kind "f" or "g", in call order; returns the
    list of records."""
    calls = []

    def f(tiles, minsum):
        _f(tiles, minsum)
        calls.append(("f", b"".join(tile[0].tobytes() for tile in tiles)))

    def g(tiles, bits):
        _g(tiles, bits)
        calls.append(("g", b"".join(tile[0].tobytes() for tile in tiles)))

    for module in (rmpsc._kernels, *modules):
        monkeypatch.setattr(module, "_f", f)
        monkeypatch.setattr(module, "_g", g)
    return calls


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

    @pytest.mark.parametrize("n", range(11))
    def test_transform_matches_kronecker(self, n):
        N = 1 << n
        G = reduce(np.kron, [T2] * n, np.ones((1, 1), dtype=np.uint8)).astype(np.int64)
        rng = np.random.default_rng(n)
        inputs = [
            rng.integers(0, 2, shape).astype(np.uint8) for shape in ((N,), (5, N), (0, N), (2, 3, N))
        ]
        # not C-contiguous: a node-major batch, and a 3-D transpose
        inputs += [rng.integers(0, 2, shape).astype(np.uint8).T for shape in ((N, 7), (N, 3, 2))]
        for u in inputs:
            before = u.copy()
            x = polar_transform(u)
            assert x.dtype == np.uint8 and x.shape == u.shape
            assert np.array_equal(x, (u.astype(np.int64) @ G) % 2)
            assert np.array_equal(u, before)
        # a node-major batch comes back node-major, and so do encoded batches
        assert polar_transform(inputs[4]).T.flags.c_contiguous
        code = CodeSpec.from_i_min({(N - 1) // 2}, n)
        for B in (0, 1, 9):
            bits = rng.integers(0, 2, (B, code.K)).astype(np.uint8)
            x = encode_batch(bits, code)
            assert x.shape == (B, N) and x.T.flags.c_contiguous
            assert np.array_equal(x, (bits.astype(np.int64) @ G[sorted(code.info_set)]) % 2)


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

    @pytest.mark.parametrize("minsum", [False, True])
    def test_noisy_decodes_match_reference(self, minsum):
        code = CodeSpec.from_i_min({11}, 5)
        rng = np.random.default_rng(4)
        llrs = rng.normal(0.5, 2, (100, 32))
        X = sc_decode_frames(llrs, code, minsum=minsum)
        assert np.array_equal(X, sc_reference(llrs, code.frozen_mask(), minsum))

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

    def test_trace_nodes(self, monkeypatch):
        code = CodeSpec.from_i_min({3, 5, 6}, 3)
        rng = np.random.default_rng(7)
        llrs = rng.normal(0, 2, (1, 8))
        frozen = code.frozen_mask()
        calls = record_f_and_g(monkeypatch)
        # f and g run only at the nodes that split: the root (4 + 4 LLRs out)
        # and the node u4-u7 (2 + 2).  The Rep nodes u0-u3 and u4-u5 fold, and
        # the Rate-1 node u6-u7 is decided by hard decision: its LLRs are
        # nonzero and above the level-1 guard t_1 in magnitude.  Scaled by
        # 1e-12 they are not, so the exact rule then also splits that node
        # (1 + 1)
        for scale, minsum, split in (
            (1.0, False, 0), (1.0, True, 0), (1e-12, False, 1), (1e-12, True, 0)
        ):
            calls.clear()
            X = sc_decode_batch(scale * llrs, frozen, minsum)
            assert np.array_equal(X, sc_reference(scale * llrs, frozen, minsum))
            sizes = [(kind, len(out) // 8) for kind, out in calls]
            assert sizes == [("f", 4), ("g", 4), ("f", 2), ("g", 2)] + [("f", 1), ("g", 1)] * split
            a, b = scale * llrs[0, :4], scale * llrs[0, 4:]
            assert calls[0][1] == boxplus_reference(a, b, minsum).tobytes()


class TestBatchDecode:
    # f LLRs per frame, exact rule: skipping the Rate-0 left children saves
    # (128,60) 40 and (64,37) 16 of them; (1024,512) has none.
    # At LLR scale 1e-12 no node LLR reaches t_1, the lowest guard, so no
    # Rate-1 node is decided by hard decision and the counts measure the
    # Rate-0 skip alone
    @pytest.mark.parametrize(
        "i_min, n, f_llrs", [({27}, 7, 306), ({19}, 6, 131), ({63, 121}, 10, 4013)]
    )
    def test_rate0_left_child_skips_f(self, monkeypatch, i_min, n, f_llrs):
        self._check_f_llrs(monkeypatch, i_min, n, 1e-12, f_llrs)

    # the same frames at scale 1: the Rate-1 nodes whose LLRs clear the guard
    # compute no f below them (counts from _reference.sc_decode_recursive)
    @pytest.mark.parametrize(
        "i_min, n, f_llrs", [({27}, 7, 268), ({19}, 6, 102), ({63, 121}, 10, 3418)]
    )
    def test_rate_one_guard_skips_f(self, monkeypatch, i_min, n, f_llrs):
        self._check_f_llrs(monkeypatch, i_min, n, 1.0, f_llrs)

    @staticmethod
    def _check_f_llrs(monkeypatch, i_min, n, scale, f_llrs):
        code = CodeSpec.from_i_min(i_min, n)
        B = 3
        llrs = scale * np.random.default_rng(16).normal(0.5, 2, (B, code.N))
        sizes = []

        def counting(tiles, minsum):
            sizes.extend(tile[0].size for tile in tiles)   # output elements
            return _f(tiles, minsum)

        monkeypatch.setattr(rmpsc._kernels, "_f", counting)
        sc_decode_batch(llrs, code.frozen_mask())
        assert sum(sizes) == f_llrs * B

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

    def test_frozen_mask_must_fit_a_power_of_two(self):
        # a mask that does not fit the rows is refused before the kept
        # workspace, whose level rows hold the last call's LLRs, is used
        rng = np.random.default_rng(25)
        sc_decode_batch(rng.normal(0.5, 2, (4, 64)), np.zeros(64, dtype=np.uint8))
        (ws,) = rmpsc._kernels._RETAINED.values()
        for width, length in ((64, 32), (64, 128), (48, 48), (48, 32), (64, 0)):
            with pytest.raises(ValueError, match="power of two"):
                sc_decode_batch(-np.ones((2, width)), np.zeros(length, dtype=np.uint8))
        with pytest.raises(ValueError, match="power of two"):
            sc_decode_batch(-np.ones((2, 64)), np.zeros((1, 64), dtype=np.uint8))
        assert rmpsc._kernels._RETAINED[None] is ws
        assert sc_decode_batch(-np.ones((2, 64)), np.zeros(64, dtype=np.uint8)).all()

    def test_single_frame_near_ties_match_batch(self):
        # one frame: f of a level-1 node is a one-element tile of a scratch
        # sized for wider ones; these LLRs make its magnitude decide the leaves
        llrs = np.full((2, 16), -1e-3)
        llrs[0, 0] = 1.0
        info_only = np.zeros(16, dtype=np.uint8)
        X = sc_decode_batch(llrs, info_only)
        for i in range(2):
            assert np.array_equal(sc_decode_batch(llrs[i : i + 1], info_only)[0], X[i])

    @pytest.mark.parametrize("minsum", [False, True])
    def test_node_major_input_is_read_in_place(self, monkeypatch, minsum):
        code = CodeSpec.from_i_min({27}, 7)
        rng = np.random.default_rng(19)
        llrs = rng.normal(0.5, 2, (96, 128))
        node_major = np.ascontiguousarray(llrs.T).T
        node_major.flags.writeable = False
        reads_input = []

        def f(tiles, minsum):
            # a tile's third entry is its view of the node's halves a and b
            reads_input.append(np.shares_memory(tiles[0][2], node_major))
            _f(tiles, minsum)

        monkeypatch.setattr(rmpsc._kernels, "_f", f)
        X = sc_decode_batch(node_major, code.frozen_mask(), minsum)
        # the root's f reads the input; every other f reads the workspace
        assert reads_input[0] and not any(reads_input[1:])
        assert np.array_equal(X, sc_decode_batch(llrs, code.frozen_mask(), minsum))
        assert np.array_equal(node_major, llrs)

    def test_frames_clamp_without_touching_input(self):
        code = CodeSpec.from_i_min({19}, 6)
        rng = np.random.default_rng(20)
        llrs = rng.normal(0, 60, (50, 64))
        assert (np.abs(llrs) > 40).any()
        kept = llrs.copy()
        X = sc_decode_frames(llrs, code)
        assert np.array_equal(X, sc_decode_batch(np.clip(llrs, -40, 40), code.frozen_mask()))
        assert llrs.tobytes() == kept.tobytes()

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
    @seed(1)
    @settings(max_examples=300, deadline=None, derandomize=False, database=None)
    @given(sc_inputs())
    def test_batch_rows_transform_frozen(self, case):
        llrs, frozen, minsum = case
        X = sc_decode_batch(llrs, frozen, minsum)
        U = polar_transform(X)
        assert np.array_equal(X, sc_reference(llrs, frozen, minsum))
        assert not U[:, frozen == 1].any()
        for i in range(len(llrs)):
            Xi = sc_decode_batch(llrs[i : i + 1], frozen, minsum)
            Ui = polar_transform(Xi)
            assert np.array_equal(Ui[0], U[i])
            assert np.array_equal(Xi[0], X[i])

    @seed(2)
    @settings(max_examples=200, deadline=None, derandomize=False, database=None)
    @given(llr_pairs())
    def test_boxplus_bytes_match_sign_product(self, case):
        a, b, _ = case
        for minsum in (False, True):
            for tile_rows in (None, 1):   # one tile, or one per row
                got = boxplus_kernel(a, b, minsum, tile_rows)
                assert got.tobytes() == boxplus_reference(a, b, minsum).tobytes()

    @seed(3)
    @settings(max_examples=200, deadline=None, derandomize=False, database=None)
    @given(llr_pairs())
    def test_sign_flip_bytes_match_sign_product(self, case):
        a, b, u = case
        for bits in (u, np.broadcast_to(u[0], u.shape)):  # a Rep node repeats its row
            for tile_rows in (None, 1):
                g = bitnode_kernel(a, b, bits, tile_rows)
                assert g.tobytes() == ((1.0 - 2.0 * bits) * a + b).tobytes()

    @seed(4)
    @settings(max_examples=200, deadline=None, derandomize=False, database=None)
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
    @seed(5)
    @settings(max_examples=50, deadline=None, derandomize=False, database=None)
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

    @seed(6)
    @settings(max_examples=200, deadline=None, derandomize=False, database=None)
    @given(st.integers(0, 6).flatmap(
        lambda n: hnp.arrays(
            np.float64, st.tuples(st.integers(1, 8), st.just(1 << n)),
            elements=NONZERO_LLR_VALUES,
        )
    ))
    def test_minsum_rate_one_is_hard_decision(self, llrs):
        info_only = np.zeros(llrs.shape[1], dtype=np.uint8)
        X = sc_decode_batch(llrs, info_only, True)
        assert np.array_equal(X, (llrs < 0).astype(np.uint8))
        assert np.array_equal(X, sc_reference(llrs, info_only, True))


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


    @pytest.mark.parametrize("rule", ["exact", "minsum"])
    @pytest.mark.parametrize("name", GOLDEN_CODES)
    def test_reference_matches_golden(self, name, rule):
        # the pinned decisions are plain SC's, leaf by leaf
        with np.load(GOLDEN) as g:
            frozen = g[f"frozen_{name}"]
            for kind in GOLDEN_KINDS:
                X = sc_reference(g[f"llrs_{name}_{kind}"], frozen, rule == "minsum")
                key = f"{name}_{kind}_{rule}"
                assert np.array_equal(np.packbits(X, axis=1), g[f"X_{key}"]), key


class TestFlatPlan:
    """The kernel runs a cached flat plan of the pruned tree in a workspace it
    keeps between calls; it must compute what the recursion it replaced
    (``_reference.sc_decode_recursive``) computes, f and g output for
    output."""

    @pytest.mark.parametrize("rule", ["exact", "minsum"])
    @pytest.mark.parametrize("name", GOLDEN_CODES)
    def test_trace_matches_recursion(self, monkeypatch, name, rule):
        minsum = rule == "minsum"
        calls = record_f_and_g(monkeypatch, _reference)
        passed = failed = 0
        with np.load(GOLDEN) as g:
            frozen = g[f"frozen_{name}"]
            plan = rmpsc._kernels._plan(frozen.astype(bool).tobytes())
            # f steps run when every Rate-1 guard fails (f_all), and when
            # every guard reached holds and jumps past its subtree (f_min):
            # a run with fewer f calls than f_all passed a guard, one with
            # more than f_min failed one
            f_all = sum(step[0] == "f" for step in plan)
            f_min = i = 0
            while i < len(plan):
                f_min += plan[i][0] == "f"
                i = plan[i][-1] if plan[i][0] == "rate1" else i + 1
            for kind in GOLDEN_KINDS:
                # scaled by 1e-12 no node LLR clears the exact rule's guard
                for scale in (1.0, 1e-12):
                    llrs = scale * g[f"llrs_{name}_{kind}"]
                    X = sc_decode_batch(llrs, frozen, minsum)
                    kernel = calls[:]
                    calls.clear()
                    X_ref = sc_decode_recursive(llrs, frozen, minsum)
                    assert np.array_equal(X, X_ref), (kind, scale)
                    assert kernel == calls, (kind, scale)
                    calls.clear()
                    f_run = sum(c[0] == "f" for c in kernel)
                    passed += f_run < f_all
                    failed += f_run > f_min
        assert passed and failed

    def test_results_do_not_alias(self):
        code = CodeSpec.from_i_min({27}, 7)
        rng = np.random.default_rng(21)
        first, second = rng.normal(0.5, 2, (2, 64, 128))
        X1 = sc_decode_batch(first, code.frozen_mask())
        kept = X1.copy()
        X2 = sc_decode_batch(second, code.frozen_mask())
        assert not np.shares_memory(X1, X2)
        assert np.array_equal(X1, kept)
        assert np.array_equal(X1, sc_reference(first, code.frozen_mask(), False))
        assert np.array_equal(X2, sc_reference(second, code.frozen_mask(), False))

    def test_threads_get_their_own_workspace(self):
        # more threads than cores, switching often: a workspace shared by two
        # running calls would mix their level rows
        cases = [
            (CodeSpec.from_i_min(i_min, n), B, seed)
            for seed, (i_min, n, B) in enumerate(
                [({27}, 7, 96), ({19}, 6, 160), ({27}, 7, 40), ({11}, 5, 200)]
            )
        ]
        inputs = []
        for code, B, seed in cases:
            llrs = np.random.default_rng(30 + seed).normal(0.5, 2, (B, code.N))
            inputs.append((llrs, code.frozen_mask(), sc_reference(llrs, code.frozen_mask(), False)))
        wrong = []

        def work(llrs, frozen, expected):
            for _ in range(25):
                if not np.array_equal(sc_decode_batch(llrs, frozen), expected):
                    wrong.append(len(llrs))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=args) for args in inputs]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert wrong == []
        assert len(rmpsc._kernels._RETAINED) <= 1

    def test_kept_workspace_is_bounded(self):
        budget = 3 * rmpsc._kernels._SC_CALL_LLRS
        floor = rmpsc._kernels._SC_MIN_ROWS
        rng = np.random.default_rng(23)
        small = CodeSpec.from_i_min({27}, 7)
        sc_decode_batch(rng.normal(0.5, 2, (8, 128)), small.frozen_mask())
        assert len(rmpsc._kernels._RETAINED) == 1
        large = CodeSpec.from_i_min({63, 121}, 10)
        # a default FER batch at N = 1024 exceeds the AE budget but is kept
        llrs = rng.normal(0.5, 2, (floor, 1024))
        assert 2 * llrs.size > budget
        X = sc_decode_batch(llrs, large.frozen_mask())
        assert len(rmpsc._kernels._RETAINED) == 1
        assert np.array_equal(X, sc_decode_recursive(llrs, large.frozen_mask()))
        # 512 rows at N = 1024 exceed both the floor and the budget: the
        # call keeps nothing
        llrs = rng.normal(0.5, 2, (2 * floor, 1024))
        assert 2 * llrs.size > budget
        X = sc_decode_batch(llrs, large.frozen_mask())
        assert not rmpsc._kernels._RETAINED
        assert np.array_equal(X, sc_decode_recursive(llrs, large.frozen_mask()))

    @pytest.mark.parametrize("N, B", [(1024, 250), (1024, 200), (128, 300), (64, 1023)])
    def test_calls_within_a_workspace_keep_it(self, monkeypatch, N, B):
        # every call of at most _rows_within(size, N, B) rows of a node of
        # any size needs no more workspace than an (N, B) call and keeps it;
        # the scratch width is not monotone in the rows (82 * 199 > 81 * 200
        # at N = 1024), so the bound holds for fewer rows too
        monkeypatch.setattr(rmpsc._kernels, "_RETAINED", {})
        rng = np.random.default_rng(26)
        sc_decode_batch(rng.normal(0.5, 2, (B, N)), np.zeros(N, dtype=np.uint8), True)
        (ws,) = rmpsc._kernels._RETAINED.values()
        sizes = ws.llrs.size, ws.scratch[3].size
        for size in (1 << lv for lv in range(N.bit_length())):
            rows = rmpsc._kernels._rows_within(size, N, B)
            assert size * rows <= N * B
            for r in {rows, max(1, rows - 1), max(1, rows // 2), max(1, rows // 3), 1}:
                llrs = rng.normal(0.5, 2, (r, size))
                sc_decode_batch(llrs, np.zeros(size, dtype=np.uint8), True)
                assert rmpsc._kernels._RETAINED.get(None) is ws, (size, r)
                assert (ws.llrs.size, ws.scratch[3].size) == sizes, (size, r)

    def test_alternating_row_counts_share_one_workspace(self):
        # fer-ae-128's calls: 768 and 512 rows at N = 128, the largest of
        # which fills the budget
        code = CodeSpec.from_i_min({27}, 7)
        frozen = code.frozen_mask()
        rng = np.random.default_rng(24)
        big = rng.normal(0.5, 2, (768, 128))
        assert 2 * big.size == 3 * rmpsc._kernels._SC_CALL_LLRS
        small = big[:512] + 0.25
        sc_decode_batch(big, frozen)
        (ws,) = rmpsc._kernels._RETAINED.values()
        buffer = ws.llrs
        views = {}
        for llrs in (small, big, small, big):
            X = sc_decode_batch(llrs, frozen)
            assert np.array_equal(X, sc_decode_recursive(llrs, frozen))
            (kept,) = rmpsc._kernels._RETAINED.values()
            assert kept is ws and ws.llrs is buffer
            # the level views of both shapes are kept, not rebuilt
            assert views.setdefault(len(llrs), ws.views[128, len(llrs)]) is ws.views[128, len(llrs)]
        assert set(ws.views) == {(128, 512), (128, 768)}


def kept_by_kernel(reference, frozen, minsum, level):
    """What ``sc_decode_batch`` keeps for ``level`` when its kept array is
    given filled with NaN, from the inputs of every node (``reference``,
    ``sc_node_inputs``'s): one block per node with an information bit, the
    node's input, or NaN where an ancestor is a Rate-1 node whose guard
    held over the batch.  Also returns the number of such NaN blocks."""
    n = len(frozen).bit_length() - 1
    guards = [0.0 if minsum else _RATE1_GUARD[lv] if lv < len(_RATE1_GUARD) else np.inf
              for lv in range(n + 1)]

    def held(lv, start):
        """Whether the node (lv, start) is Rate-1 and its guard holds."""
        v = reference[lv][start : start + (1 << lv)]
        return not frozen[start : start + (1 << lv)].any() and np.abs(v).min() > guards[lv]

    blocks, skipped = [], 0
    size = 1 << level
    for start in range(0, len(frozen), size):
        if frozen[start : start + size].all():
            continue
        if any(held(lv, start >> lv << lv) for lv in range(level + 1, n + 1)):
            blocks.append(np.full((size, reference[level].shape[1]), np.nan))
            skipped += 1
        else:
            blocks.append(reference[level][start : start + size])
    return np.concatenate(blocks), skipped


class TestKeptNodeInputs:
    """A call that keeps the inputs of the nodes of some tree levels (the
    absorption probe's node test) keeps plain SC's own node inputs, bit for
    bit, and decides as a call that keeps none."""

    @pytest.mark.parametrize("rule", ["exact", "minsum"])
    @pytest.mark.parametrize("name", GOLDEN_CODES)
    def test_kept_inputs_are_plain_sc_inputs(self, name, rule):
        minsum = rule == "minsum"
        skipped = ties = 0
        with np.load(GOLDEN) as g:
            frozen = g[f"frozen_{name}"]
            n = len(frozen).bit_length() - 1
            for kind in GOLDEN_KINDS:
                llrs = g[f"llrs_{name}_{kind}"]
                reference = sc_node_inputs(llrs, frozen, minsum)
                # one level at a time (the Rep shortcut stays above it) and
                # every level at once (no Rep shortcut is left)
                for levels in [(lv,) for lv in range(n + 1)] + [tuple(range(n + 1))]:
                    want = {lv: kept_by_kernel(reference, frozen, minsum, lv) for lv in levels}
                    keep = {lv: np.full(w.shape, np.nan) for lv, (w, _) in want.items()}
                    X = sc_decode_batch(llrs, frozen, minsum, keep=keep)
                    key = f"{name}_{kind}_{rule}"
                    assert np.array_equal(np.packbits(X, axis=1), g[f"X_{key}"]), (key, levels)
                    for lv, (w, s) in want.items():
                        # bits, so that -0.0 and +0.0 differ
                        assert np.array_equal(keep[lv].view(np.uint64), w.view(np.uint64)), (
                            key, levels, lv)
                        skipped += s
                        ties += np.signbit(w[w == 0]).sum()
        # some rows are left as given below a guarded Rate-1 node, and some
        # kept inputs are -0.0
        assert skipped
        assert ties

    @pytest.mark.parametrize("rule", ["exact", "minsum"])
    def test_inputs_below_a_held_guard_decode_alike(self, rule):
        # the rows a call leaves as given: the true inputs of those nodes
        # decide alike in both orders of every swap of the node's index
        # bits, and so do zeros
        minsum = rule == "minsum"
        checked = 0
        with np.load(GOLDEN) as g:
            for name in GOLDEN_CODES:
                frozen = g[f"frozen_{name}"]
                n = len(frozen).bit_length() - 1
                for kind in GOLDEN_KINDS:
                    reference = sc_node_inputs(g[f"llrs_{name}_{kind}"], frozen, minsum)
                    for level in range(2, n):
                        kept, _ = kept_by_kernel(reference, frozen, minsum, level)
                        size = 1 << level
                        blocks = kept.reshape(-1, size, kept.shape[1])
                        nodes = np.flatnonzero(np.isnan(blocks[:, 0, 0]))
                        if not nodes.size:
                            continue
                        starts = [s for s in range(0, len(frozen), size)
                                  if not frozen[s : s + size].all()]
                        rows = np.concatenate(
                            [reference[level][starts[j] : starts[j] + size].T for j in nodes]
                        )
                        rate1 = np.zeros(size, dtype=np.uint8)
                        for b in range(1, level):
                            for a in range(b):
                                p = _swap_permutation(size, a, b)
                                for v in (rows, np.zeros_like(rows)):
                                    X = sc_decode_batch(v, rate1, minsum)
                                    assert np.array_equal(
                                        sc_decode_batch(v[:, p], rate1, minsum)[:, p], X
                                    ), (name, kind, level, a, b)
                                checked += 1
        assert checked

    def test_kept_inputs_are_not_clamped(self):
        # the kernel called directly, on LLRs beyond the clamp: the root's
        # kept input is the input, and g sums past it below
        code = CodeSpec.from_i_min({19}, 6)
        frozen = code.frozen_mask()
        with np.load(GOLDEN) as g:
            llrs = 2.0 * g["llrs_64_37_clamped"]
        keep = {lv: np.zeros(kept_by_kernel(sc_node_inputs(llrs, frozen, True), frozen, True,
                                             lv)[0].shape) for lv in range(7)}
        sc_decode_batch(llrs, frozen, True, keep=keep)
        assert np.array_equal(keep[6], llrs.T)
        assert np.abs(keep[6]).max() == 2 * LLR_CLAMP
        assert max(np.abs(keep[lv]).max() for lv in range(6)) > 2 * LLR_CLAMP

    def test_plan_that_keeps_nothing_is_the_plain_plan(self, monkeypatch):
        # keeping a level adds "keep" steps and walks the Rep nodes above it
        # as splits; a call that keeps nothing runs the plan of no level,
        # which has neither, and keeping the root adds its one step
        plans = []
        plan_of = rmpsc._kernels._plan

        def recording(*args):
            plans.append(args)
            return plan_of(*args)

        monkeypatch.setattr(rmpsc._kernels, "_plan", recording)
        with np.load(GOLDEN) as g:
            for name in GOLDEN_CODES:
                frozen = g[f"frozen_{name}"]
                N = len(frozen)
                plans.clear()
                sc_decode_batch(g[f"llrs_{name}_noisy"], frozen)
                mask = frozen.astype(bool).tobytes()
                assert plans == [(mask, ())]
                plan = plan_of(mask, ())
                assert not any(step[0] == "keep" for step in plan)
                root = ("keep", N.bit_length() - 1, 0, 0, N, 0)
                # the same steps after it, each Rate-1 jump one step later
                later = tuple(step[:5] + (step[5] + (step[0] == "rate1"),) for step in plan)
                assert plan_of(mask, (N.bit_length() - 1,)) == (root,) + later

    def test_kept_arrays_are_checked(self):
        code = CodeSpec.from_i_min({19}, 6)
        llrs = np.ones((3, 64))
        # level 2 of (64,37): 12 nodes with an information bit
        sc_decode_batch(llrs, code.frozen_mask(), keep={2: np.zeros((48, 3))})
        for keep in ({2: np.zeros((64, 3))}, {2: np.zeros((48, 2))}, {7: np.zeros((0, 3))},
                     {-1: np.zeros((48, 3))}):
            with pytest.raises(ValueError, match="kept level"):
                sc_decode_batch(llrs, code.frozen_mask(), keep=keep)


class TestBatchIndependence:
    """The Rate-1 guard reads all frames of a node, so whether a node is
    decided by hard decision depends on which frames share the call; the
    decisions must not."""

    @pytest.mark.parametrize("rule", ["exact", "minsum"])
    @pytest.mark.parametrize("name", GOLDEN_CODES)
    def test_golden_frames_alone_match_batch(self, name, rule):
        with np.load(GOLDEN) as g:
            frozen = g[f"frozen_{name}"]
            for kind in GOLDEN_KINDS:
                llrs = g[f"llrs_{name}_{kind}"]
                X = sc_decode_batch(llrs, frozen, rule == "minsum")
                for i in range(len(llrs)):
                    Xi = sc_decode_batch(llrs[i : i + 1], frozen, rule == "minsum")
                    assert np.array_equal(Xi[0], X[i]), (kind, i)

    # a weak frame fails the guard (the exact rule rounds its f to 0; min-sum
    # sees a zero), the strong ones pass it at the root when decoded alone
    @pytest.mark.parametrize(
        "minsum, weak",
        [(False, [1e-9, 1e-9, 1e-9, -1e-9]), (True, [0.0, -1e-9, 1e-9, -0.0])],
    )
    def test_mixed_batch_matches_frames_alone(self, monkeypatch, minsum, weak):
        rows = np.array([weak, [3.0, -2.5, 1.5, -4.0], [-2.0, 2.0, -2.0, 2.0],
                         [40.0, 1.5, -1.5, -40.0]])
        info_only = np.zeros(4, dtype=np.uint8)
        calls = record_f_and_g(monkeypatch)
        alone = []
        for i in range(len(rows)):
            calls.clear()
            X = sc_decode_batch(rows[i : i + 1], info_only, minsum)
            assert (not calls) == (i > 0)   # no f: the root by hard decision
            alone.append(X[0])
        assert np.array_equal(alone[0], sc_reference(rows[:1], info_only, minsum)[0])
        for pos in range(len(rows)):
            order = list(range(1, len(rows)))
            order.insert(pos, 0)   # the weak frame at each position
            llrs = rows[order]
            calls.clear()
            X = sc_decode_batch(llrs, info_only, minsum)
            assert calls
            for row, i in zip(X, order):
                assert np.array_equal(row, alone[i])


def edge_rows(n, mag, batch=4):
    """Rate-1 rows of 2^n LLRs, all of magnitude ``mag``, with fixed signs:
    equal magnitudes make the exact rule's f lose the most."""
    signs = 1.0 - 2.0 * np.random.default_rng(n).integers(0, 2, (batch, 1 << n))
    return signs * mag


def guard_edges(n):
    """Magnitudes at, one ulp above and 1% above the exact rule's guard t_n
    at the root of a Rate-1 node of level n."""
    at = _RATE1_GUARD[n]
    return at, np.nextafter(at, np.inf), 1.01 * at


# magnitudes below t_2, down to where the exact rule's f of two of them
# rounds to 0
TINY = [1e-9, 1e-8, 1e-7, 1e-6, 1e-5, 1e-4, 1e-3]


@st.composite
def rate_one_rows(draw):
    """Rate-1 rows of 2^n LLRs, n = 1..10, around the guard of each level up
    to n and at magnitudes 1e-9..1e-3."""
    n = draw(st.integers(1, 10))
    near = list(TINY)
    for level in range(1, n + 1):
        at, above, far = guard_edges(level)
        near += [at, above, far, np.nextafter(at, 0.0), 0.99 * at]
    top = 2.0 * _RATE1_GUARD[n]
    values = st.one_of(
        st.sampled_from(near + [-m for m in near]),
        st.floats(-top, top, allow_nan=False),
    )
    return draw(hnp.arrays(np.float64, (draw(st.integers(1, 4)), 1 << n), elements=values))


def boxplus_floor(m):
    """F(m) = 2 atanh(tanh^2(m/2)), the least exact-rule f magnitude of two
    inputs of magnitude at least m, in mpmath."""
    return 2 * mpmath.atanh(mpmath.tanh(m / 2) ** 2)


def rounding_bound(m):
    """d(m) = 2u(m + 1) + 2^13 u, u = 2^-53: what rounding, exp and log1p
    may take off the computed f magnitude of inputs of magnitude m (see the
    comment in rmpsc._kernels)."""
    u = mpmath.mpf(2) ** -53
    return 2 * u * (m + 1) + 2**13 * u


class TestRateOneGuard:
    def test_table_is_a_rounding_bound(self):
        # one entry per level up to the library's length bound; each t_l
        # keeps every f output above t_(l-1) (above 0 at level 1), and lies
        # within 2% of the least value that does
        assert len(_RATE1_GUARD) == MAX_N + 1 and _RATE1_GUARD[0] == 0.0
        with mpmath.workdps(50):
            for level in range(1, MAX_N + 1):
                t, below = mpmath.mpf(_RATE1_GUARD[level]), mpmath.mpf(_RATE1_GUARD[level - 1])
                assert boxplus_floor(t) - rounding_bound(t) >= below, level
                assert boxplus_floor(t / 1.02) - rounding_bound(t / 1.02) < below, level
                # F - d grows from t_1 on: F' = tanh(m) is far above 2u there
                assert mpmath.tanh(t) > 4 * mpmath.mpf(2) ** -53
            t1 = mpmath.mpf(_RATE1_GUARD[1])
            assert boxplus_floor(t1) - rounding_bound(t1) > 0

    @pytest.mark.parametrize("minsum", [False, True])
    @pytest.mark.parametrize("n", range(1, 11))
    def test_guard_edges_match_reference(self, monkeypatch, n, minsum):
        info_only = np.zeros(1 << n, dtype=np.uint8)
        at, above, far = guard_edges(n)
        calls = record_f_and_g(monkeypatch)
        # the exact rule's guard is strict: at the bound the node recurses
        for mag, shortcut in ((at, minsum), (above, True), (far, True)):
            llrs = edge_rows(n, mag, batch=64)
            calls.clear()
            X = sc_decode_batch(llrs, info_only, minsum)
            assert (not calls) == shortcut
            assert np.array_equal(X, sc_reference(llrs, info_only, minsum))

    def test_no_exact_rule_guard_above_the_table(self, monkeypatch):
        # at level 15, one above the library's length bound, the exact rule
        # splits the root whatever its LLRs; its children, of magnitude
        # about 10 - ln 2 > t_14, are decided by hard decision
        llrs = edge_rows(15, 10.0, batch=2)
        info_only = np.zeros(1 << 15, dtype=np.uint8)
        calls = record_f_and_g(monkeypatch)
        X = sc_decode_batch(llrs, info_only)
        assert [kind for kind, _ in calls] == ["f", "g"]
        assert np.array_equal(X, (llrs < 0).astype(np.uint8))
        calls.clear()
        assert np.array_equal(sc_decode_batch(llrs, info_only, True), X)
        assert not calls

    @seed(7)
    @settings(max_examples=300, deadline=None, derandomize=False, database=None)
    @given(rate_one_rows(), st.booleans())
    @example(edge_rows(1, guard_edges(1)[0]), False)
    @example(edge_rows(1, guard_edges(1)[1]), False)
    @example(edge_rows(6, guard_edges(6)[0]), False)
    @example(edge_rows(6, guard_edges(6)[1]), False)
    @example(edge_rows(6, guard_edges(6)[2]), False)
    @example(edge_rows(10, guard_edges(10)[1]), False)
    @example(np.array([[1e-9, 1e-9, 1e-9, -1e-9]]), False)
    def test_rate_one_matches_reference(self, llrs, minsum):
        info_only = np.zeros(llrs.shape[1], dtype=np.uint8)
        X = sc_decode_batch(llrs, info_only, minsum)
        assert np.array_equal(X, sc_reference(llrs, info_only, minsum))

    def test_rows_off_hard_decision_keep_sc_decisions(self):
        # 86 of these all-information rows have an SC codeword other than
        # their hard decision; alone or in the batch, each keeps SC's
        llrs = np.random.default_rng(0).standard_normal((200_000, 16))
        info_only = np.zeros(16, dtype=np.uint8)
        ref = sc_reference(llrs, info_only, False)
        assert np.array_equal(sc_decode_batch(llrs, info_only), ref)
        differ = np.flatnonzero((ref != (llrs < 0)).any(axis=1))
        assert len(differ) == 86
        for i in differ:
            assert np.array_equal(sc_decode_batch(llrs[i : i + 1], info_only)[0], ref[i])


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

    def test_winners_are_reference_branch_decisions(self):
        # each frame's output is its winning branch's plain-SC codeword,
        # mapped back to the channel order
        code, perms = self._code_and_perms()
        rng = np.random.default_rng(14)
        llrs = rng.normal(0.5, 2, (50, 32))
        X, winner = ae_sc_decode_frames(llrs, code, perms)
        assert not polar_transform(X)[:, code.frozen_mask() == 1].any()
        for i, w in enumerate(winner):
            branch_in = np.empty(32)
            branch_in[perms[w].perm] = llrs[i]
            cand = sc_reference(branch_in[None], code.frozen_mask(), False)[0]
            assert np.array_equal(X[i], cand[perms[w].perm])

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

    def test_non_integer_perm_rejected(self):
        from rmpsc.autgroup import Permutation

        code = CodeSpec.from_i_min({0}, 2)   # rate 1, N = 4
        llrs = np.array([[1.0, -2.0, 3.0, -4.0]])
        for perm in ([1.5, 0.2, 2.9, 3.0], [1.0, 0.0, 2.0, np.nan]):
            with pytest.raises(ValueError, match="not integers"):
                ae_sc_decode_frames(llrs, code, [np.arange(4), np.array(perm)])
        # integer-valued entries of any type are taken as they are
        swap = [1, 0, 2, 3]
        X, _ = ae_sc_decode_frames(llrs, code, [np.array(swap)])
        for perm in (swap, np.array(swap, dtype=float), Permutation(np.array(swap))):
            assert np.array_equal(ae_sc_decode_frames(llrs, code, [perm])[0], X)

    def test_instances_are_not_validated_again(self, monkeypatch):
        from rmpsc.scdec import Permutation

        code, perms = self._code_and_perms()
        llrs = np.random.default_rng(4).normal(size=(6, 32))
        X, winner = ae_sc_decode_frames(llrs, code, [p.perm for p in perms])

        def refuse(self):
            raise AssertionError("a Permutation was validated again")

        monkeypatch.setattr(Permutation, "__post_init__", refuse)
        again, again_winner = ae_sc_decode_frames(llrs, code, perms)
        assert np.array_equal(again, X) and np.array_equal(again_winner, winner)

    def test_stacked_validation_names_the_fault(self):
        # each entry becomes a Permutation, whose check names the fault
        code = CodeSpec.from_i_min({11}, 5)
        llrs = np.zeros((2, 32))
        with pytest.raises(ValueError, match=r"permutation length \(16,\) does not match N=32"):
            ae_sc_decode_frames(llrs, code, [np.arange(32), np.arange(16)])
        repeated = np.arange(32)
        repeated[5] = 4
        with pytest.raises(ValueError, match=r"not a permutation of range\(32\)"):
            ae_sc_decode_frames(llrs, code, [np.arange(32), repeated])
        with pytest.raises(ValueError, match=r"not a permutation of range\(32\)"):
            ae_sc_decode_frames(llrs, code, [np.arange(32) - 1])

    # an AE call holds 2 * N * rows LLRs (the gathered branches and the
    # kernel's workspace below them) within 3 * _SC_CALL_LLRS: 3 branches
    # of 256 frames at N = 128, all 8 of 64 frames
    @pytest.mark.parametrize("batch, calls", [(256, 3), (64, 1)])
    def test_branches_share_kernel_calls(self, monkeypatch, batch, calls):
        import rmpsc.scdec

        code = CodeSpec.from_i_min({27}, 7)   # (128,60)
        rng = np.random.default_rng(15)
        full = compute_blta_structure(code)
        perms = [permutation_from_affine(sample_blta(full, rng)) for _ in range(8)]
        rows = []

        def counting(llrs, frozen, minsum=False):
            rows.append(len(llrs))
            return sc_decode_batch(llrs, frozen, minsum)

        monkeypatch.setattr(rmpsc.scdec, "sc_decode_batch", counting)
        ae_sc_decode_frames(rng.normal(0.5, 2, (batch, 128)), code, perms)
        assert len(rows) == calls
        assert rows == {256: [768, 768, 512], 64: [512]}[batch]


    @pytest.mark.parametrize("m", [1, 2, 3, 4, 7, 8])
    def test_ragged_groups_match_branch_loop(self, m):
        # (128,60) at 256 frames stacks 3 branches per call, so the last
        # group is full, short or alone
        code = CodeSpec.from_i_min({27}, 7)
        rng = np.random.default_rng(18)
        full = compute_blta_structure(code)
        perms = [permutation_from_affine(sample_blta(full, rng)) for _ in range(m)]
        llrs = rng.normal(0.5, 2, (256, 128))
        X, winner = ae_sc_decode_frames(llrs, code, perms)
        _, X_ref, winner_ref = ae_reference(llrs, code, perms)
        assert np.array_equal(X, X_ref)
        assert np.array_equal(winner, winner_ref)


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
