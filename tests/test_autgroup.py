import itertools

import numpy as np
import pytest
from hypothesis import example, given, seed, settings
from hypothesis import strategies as st

import _reference as reference
from _reference import compose_affine, is_absorbed_empirical
from rmpsc import autgroup
from rmpsc._gf2 import is_invertible
from rmpsc.codes import CodeSpec, _MonomialPoset, dim_rm, search_max_symmetry
from rmpsc.autgroup import (
    AbsorptionProbeError,
    AffineMap,
    BlockStructure,
    Permutation,
    absorption_structure_empirical,
    blta_size,
    compute_blta_structure,
    equivalent_class_count,
    is_code_automorphism,
    load_permutations,
    permutation_from_affine,
    sample_blta,
    sample_distinct_class_automorphisms,
    save_permutations,
    variable_swap,
)


def all_ga_elements(n):
    """Every invertible affine map on n bits (use only for tiny n)."""
    for bits in range(1 << (n * n)):
        A = np.array(
            [[(bits >> (n * r + c)) & 1 for c in range(n)] for r in range(n)],
            dtype=np.uint8,
        )
        if not is_invertible(A):
            continue
        for off in range(1 << n):
            b = np.array([(off >> i) & 1 for i in range(n)], dtype=np.uint8)
            yield AffineMap(A, b)


def rm_code(r, n):
    return CodeSpec.from_info_set(
        {i for i in range(1 << n) if (~i & ((1 << n) - 1)).bit_count() <= r}, n
    )


class TestPermutation:
    def test_identity(self):
        p = Permutation.identity(8)
        v = np.arange(8.0)
        assert np.array_equal(p.apply(v), v)
        assert np.array_equal(p.perm, np.arange(p.N))

    def test_apply_convention(self):
        # output position perm[k] carries input position k
        p = Permutation(np.array([2, 0, 1]))
        v = np.array([10.0, 11.0, 12.0])
        out = p.apply(v)
        assert out[2] == 10.0 and out[0] == 11.0 and out[1] == 12.0

    def test_inverse(self):
        rng = np.random.default_rng(0)
        p = Permutation(rng.permutation(16))
        v = rng.normal(size=16)
        assert np.allclose(p.inverse.apply(p.apply(v)), v)

    def test_compose(self):
        rng = np.random.default_rng(1)
        p1 = Permutation(rng.permutation(8))
        p2 = Permutation(rng.permutation(8))
        both = p1.compose(p2)
        for k in range(8):
            assert both.perm[k] == p1.perm[p2.perm[k]]

    def test_not_a_permutation(self):
        with pytest.raises(ValueError):
            Permutation(np.array([0, 0, 1]))

    @pytest.mark.parametrize(
        "entries", [[1.5, 0.2, 2.9, 3.0], [1.0, 0.0, np.nan], [0.0, np.inf], [1e300, 0.0]]
    )
    def test_non_integer_entries_rejected(self, entries):
        # once truncated: [1.5, 0.2, 2.9, 3.0] became the permutation [1 0 2 3]
        with pytest.raises(ValueError, match="permutation entries are not integers"):
            Permutation(np.array(entries))

    @pytest.mark.parametrize("entries", [np.array(3), np.array(0), np.arange(4).reshape(2, 2)])
    def test_not_one_dimensional_rejected(self, entries):
        with pytest.raises(ValueError, match=r"not a permutation of range\("):
            Permutation(entries)

    def test_integer_valued_entries_taken_as_they_are(self):
        given = np.array([1.0, 0.0, 2.0])
        p = Permutation(given)
        assert p.perm.dtype == np.intp and p.perm.tolist() == [1, 0, 2]
        assert not p.perm.flags.writeable and given.flags.writeable
        assert Permutation([2, 0, 1]).perm.tolist() == [2, 0, 1]

    def test_one_class_for_every_import(self):
        import rmpsc
        import rmpsc.scdec

        assert rmpsc.Permutation is autgroup.Permutation is rmpsc.scdec.Permutation

    @pytest.mark.parametrize(
        "perms", [[np.array([1.5, 0.0])], [np.arange(4), np.zeros(4, int)], [np.array(2)]]
    )
    def test_save_refuses_non_permutations(self, tmp_path, perms):
        path = tmp_path / "perms.txt"
        with pytest.raises(ValueError, match="not"):
            save_permutations(perms, path)
        assert not path.exists()

    def test_file_round_trip(self, tmp_path):
        rng = np.random.default_rng(2)
        perms = [Permutation(rng.permutation(16)) for _ in range(3)]
        path = tmp_path / "perms.txt"
        save_permutations(perms, path)
        loaded = load_permutations(path, 16)
        assert len(loaded) == 3
        for a, b in zip(perms, loaded):
            assert np.array_equal(a.perm, b.perm)

    def test_load_rejects_partial(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("0\n1\n2\n")
        with pytest.raises(ValueError):
            load_permutations(path, 2)


class TestAffine:
    def test_singular_rejected(self):
        A = np.zeros((3, 3), dtype=np.uint8)
        with pytest.raises(ValueError):
            AffineMap(A, np.zeros(3, dtype=np.uint8))

    def test_identity_map(self):
        p = permutation_from_affine(AffineMap(np.eye(3, dtype=np.uint8), np.zeros(3, dtype=np.uint8)))
        assert np.array_equal(p.perm, np.arange(p.N))

    def test_offset_low_bit(self):
        p = permutation_from_affine(
            AffineMap(np.eye(2, dtype=np.uint8), np.array([1, 0], dtype=np.uint8))
        )
        assert p.perm.tolist() == [1, 0, 3, 2]

    def test_variable_swap_n2(self):
        p = permutation_from_affine(variable_swap(2, 0, 1))
        assert p.perm.tolist() == [0, 2, 1, 3]

    def test_homomorphism(self):
        rng = np.random.default_rng(3)
        for n in (2, 3, 5, 8):
            for _ in range(10):
                maps = []
                while len(maps) < 2:
                    A = rng.integers(0, 2, (n, n), dtype=np.uint8)
                    if is_invertible(A):
                        maps.append(AffineMap(A, rng.integers(0, 2, n, dtype=np.uint8)))
                t1, t2 = maps
                lhs = permutation_from_affine(compose_affine(t1, t2))
                rhs = permutation_from_affine(t1).compose(permutation_from_affine(t2))
                assert np.array_equal(lhs.perm, rhs.perm)


class TestAutomorphismTest:
    def test_identity_always(self):
        for i_min, n in (({3, 5, 6}, 3), ({19}, 6)):
            code = CodeSpec.from_i_min(i_min, n)
            assert is_code_automorphism(Permutation.identity(code.N), code)

    def test_sampled_lta_members(self):
        rng = np.random.default_rng(4)
        lta = BlockStructure((1,) * 5)
        for i_min in ({11}, {19}, {21, 14}):
            code = CodeSpec.from_i_min(i_min, 5)
            for _ in range(20):
                p = permutation_from_affine(sample_blta(lta, rng))
                assert is_code_automorphism(p, code)

    def test_outer_swap_rejected_on_asymmetric_code(self):
        # dimension 12 has only symmetry-1 completions at length 32
        _, codes = search_max_symmetry(5, 12)
        code = codes[0]
        assert code.symmetry == 1
        p = permutation_from_affine(variable_swap(5, 0, 4))
        assert not is_code_automorphism(p, code)

    def test_length_mismatch(self):
        code = CodeSpec.from_i_min({3, 5, 6}, 3)
        with pytest.raises(ValueError):
            is_code_automorphism(Permutation.identity(16), code)


class TestBltaStructure:
    def test_rm_codes_full_group(self):
        for n in (3, 4, 5):
            for r in range(1, n):
                assert compute_blta_structure(rm_code(r, n)).blocks == (n,)

    def test_known_code_structures(self):
        assert compute_blta_structure(CodeSpec.from_i_min({27}, 7)).blocks == (3, 4)
        assert compute_blta_structure(CodeSpec.from_i_min({19}, 6)).blocks == (4, 2)
        c1 = CodeSpec.from_i_min({63, 121}, 10)
        assert compute_blta_structure(c1).last == 7

    def test_last_block_equals_symmetry(self):
        for n in (4, 5):
            for k in range(dim_rm(1, n), dim_rm(n - 2, n) + 1):
                _, codes = search_max_symmetry(n, k)
                for code in codes[:3]:
                    s = compute_blta_structure(code)
                    assert s.last == code.symmetry

    def test_runs_match_swap_scan_exhaustive(self):
        # every decreasing code with n <= 6: the runs of equal derivative
        # dimensions are the blocks of admissible coordinate swaps
        count = 0
        for n in range(1, 7):
            poset = _MonomialPoset(n, n)
            for size in range(1, poset.size + 1):
                for ideal in poset.ideals_of_size(size):
                    code = CodeSpec.from_info_set(poset.info_indices(ideal), n)
                    expected = reference.compute_blta_structure(code)
                    assert compute_blta_structure(code) == expected, code
                    count += 1
        assert count == 2 + 4 + 9 + 26 + 118 + 1172

    def test_membership_of_sampled_elements(self):
        rng = np.random.default_rng(5)
        count = 0
        for n, i_min in ((4, {9}), (5, {11}), (5, {21, 14}), (6, {19}), (6, {38, 21})):
            code = CodeSpec.from_i_min(i_min, n)
            s = compute_blta_structure(code)
            for _ in range(40):
                p = permutation_from_affine(sample_blta(s, rng))
                assert is_code_automorphism(p, code)
                count += 1
        assert count == 200


class TestBltaSize:
    def test_small_group_orders(self):
        assert blta_size(BlockStructure((2,))) == 24
        assert blta_size(BlockStructure((1, 1))) == 8
        assert blta_size(BlockStructure((1, 1, 1))) == 64

    def test_ga3_order(self):
        assert blta_size(BlockStructure((3,))) == 1344
        assert sum(1 for _ in all_ga_elements(3)) == 1344

    def test_exhaustive_automorphism_counts_n3(self):
        # every decreasing code at n=3 marks exactly the group order
        perms = [permutation_from_affine(t) for t in all_ga_elements(3)]
        for info in (
            {7},
            {7, 6},
            {7, 6, 5},
            {7, 6, 5, 3},
            {7, 6, 5, 4, 3},
            {7, 6, 5, 4, 3, 2},
            {7, 6, 5, 4, 3, 2, 1},
        ):
            code = CodeSpec.from_info_set(info, 3)
            s = compute_blta_structure(code)
            hits = sum(1 for p in perms if is_code_automorphism(p, code))
            assert hits == blta_size(s), (info, s)

    def test_block_structure_validation(self):
        # n = 0 has no blocks: the identity alone, one class
        empty = BlockStructure(())
        assert empty.n == 0 and blta_size(empty) == 1
        assert equivalent_class_count(empty, empty) == 1
        with pytest.raises(ValueError):
            BlockStructure((2, 0))
        with pytest.raises(ValueError):
            BlockStructure((-1,))
        # sizes are integer-valued or refused, never truncated
        for sizes in ((2.5, 1), (np.nan,), (1, np.inf), (1e300,)):
            with pytest.raises(ValueError, match="block sizes are not integers"):
                BlockStructure(sizes)
        assert BlockStructure((2.0, np.int64(1))).blocks == (2, 1)


class TestBlockMembership:
    def test_exhaustive_ga3(self):
        # contains(p) agrees with a direct look at A for every affine map on
        # 3 bits, and accepts exactly blta_size(S) of them
        elements = [(t, permutation_from_affine(t)) for t in all_ga_elements(3)]
        for blocks in ((3,), (2, 1), (1, 2), (1, 1, 1)):
            s = BlockStructure(blocks)
            block_of = np.repeat(np.arange(len(blocks)), blocks)
            upper = block_of[:, None] < block_of[None, :]  # row block before column block
            hits = 0
            for t, p in elements:
                inside = not (t.A.astype(bool) & upper).any()
                assert s.contains(p) == inside, (blocks, t)
                hits += inside
            assert hits == blta_size(s)

    def test_non_affine_rejected(self):
        # a transposition of two code bits fixes six points of GF(2)^3, which
        # span it, so it is no affine map
        perm = np.arange(8)
        perm[[0, 1]] = perm[[1, 0]]
        assert not BlockStructure((3,)).contains(Permutation(perm))

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            BlockStructure((2, 1)).contains(Permutation.identity(16))


class TestSampling:
    def test_all_ones_diagonal_forced(self):
        rng = np.random.default_rng(6)
        s = BlockStructure((1, 1, 1))
        for _ in range(20):
            t = sample_blta(s, rng)
            assert np.array_equal(np.diag(t.A), np.ones(3, dtype=np.uint8))
            assert np.triu(t.A, 1).sum() == 0

    def test_uniform_over_ga2(self):
        # chi-square against the 24 elements of the full group on 2 bits
        rng = np.random.default_rng(7)
        s = BlockStructure((2,))
        counts = {}
        draws = 10_000
        for _ in range(draws):
            t = sample_blta(s, rng)
            key = (tuple(t.A.flatten().tolist()), tuple(t.b.tolist()))
            counts[key] = counts.get(key, 0) + 1
        assert len(counts) == 24
        expect = draws / 24
        chi2 = sum((c - expect) ** 2 / expect for c in counts.values())
        # df = 23: mean 23, sigma = sqrt(46)
        assert chi2 < 23 + 3 * (2 * 23) ** 0.5

    def test_samples_invertible_by_construction(self):
        rng = np.random.default_rng(8)
        s = BlockStructure((2, 3, 1))
        for _ in range(50):
            t = sample_blta(s, rng)
            assert is_invertible(t.A)
            assert np.triu(t.A, 1)[:2, 2:].any() == False  # noqa: E712


class TestAbsorption:
    def test_sampled_lta_absorbed(self):
        rng = np.random.default_rng(9)
        code = CodeSpec.from_i_min({11}, 5)
        lta = BlockStructure((1,) * 5)
        for seed in range(3):
            p = permutation_from_affine(sample_blta(lta, rng))
            assert is_absorbed_empirical(p, code, trials=200, seed=seed)
            # the exact-rule decoder also absorbs the triangular group
            assert is_absorbed_empirical(p, code, trials=200, seed=seed, minsum=False)

    def test_anchor_structures(self):
        c27 = CodeSpec.from_i_min({27}, 7)
        assert absorption_structure_empirical(c27, seed=1).blocks == (2, 1, 1, 1, 1, 1)
        c19 = CodeSpec.from_i_min({19}, 6)
        assert absorption_structure_empirical(c19, seed=1).blocks == (2, 1, 1, 1, 1)

    def test_stable_under_reseeding(self):
        code = CodeSpec.from_i_min({19}, 6)
        a = absorption_structure_empirical(code, seed=5)
        b = absorption_structure_empirical(code, seed=17)
        assert a.blocks == b.blocks

    def test_trials_guard(self):
        code = CodeSpec.from_i_min({11}, 5)
        with pytest.raises(ValueError):
            absorption_structure_empirical(code, trials=50)

    @seed(13)
    @settings(max_examples=30, deadline=None, derandomize=False, database=None)
    @given(
        st.integers(3, 6).flatmap(
            lambda n: st.integers(dim_rm(1, n), dim_rm(n - 2, n)).map(
                lambda k: search_max_symmetry(n, k)[1][0]
            )
        ),
        st.integers(0, 2**32 - 1),
    )
    @example(CodeSpec.from_i_min({19}, 6), 0)
    def test_probed_group_absorbed(self, code, draw_seed):
        # the whole group BLTA(S_abs), not only its swaps, is absorbed on a
        # probe batch other than the one that found S_abs
        s_abs = absorption_structure_empirical(code, seed=0)
        rng = np.random.default_rng(draw_seed)
        for _ in range(10):
            h = permutation_from_affine(sample_blta(s_abs, rng))
            assert is_absorbed_empirical(h, code, seed=1)


class TestClassCount:
    def test_small_examples(self):
        assert equivalent_class_count(BlockStructure((2,)), BlockStructure((1, 1))) == 3
        assert equivalent_class_count(BlockStructure((3,)), BlockStructure((3,))) == 1

    def test_refinement_required(self):
        with pytest.raises(ValueError):
            equivalent_class_count(BlockStructure((2, 2)), BlockStructure((1, 3)))

    def test_counts_are_odd(self):
        # the power-of-two part of the group order is structure independent,
        # so every class count is a ratio of odd numbers
        import itertools as it

        def comps(k):
            if k == 0:
                yield ()
                return
            for first in range(1, k + 1):
                for rest in comps(k - first):
                    yield (first,) + rest

        for n in (3, 4, 5):
            for full in comps(n):
                for sub in comps(n):
                    if BlockStructure(sub).refines(BlockStructure(full)):
                        c = equivalent_class_count(BlockStructure(full), BlockStructure(sub))
                        assert c % 2 == 1

    def test_class_count_of_128_60_code(self):
        code = CodeSpec.from_i_min({27}, 7)
        full = compute_blta_structure(code)
        absorbed = absorption_structure_empirical(code, seed=1)
        assert equivalent_class_count(full, absorbed) == 2205


class TestDistinctClassSampling:
    def test_single_is_identity(self):
        code = CodeSpec.from_i_min({11}, 5)
        perms = sample_distinct_class_automorphisms(code, 1, seed=0)
        assert len(perms) == 1 and np.array_equal(perms[0].perm, np.arange(code.N))

    def test_four_distinct_on_64_37(self):
        code = CodeSpec.from_i_min({19}, 6)
        perms = sample_distinct_class_automorphisms(code, 4, seed=3)
        assert len(perms) == 4
        assert np.array_equal(perms[0].perm, np.arange(code.N))
        for a, b in itertools.combinations(perms, 2):
            rel = a.compose(b.inverse)
            assert not is_absorbed_empirical(rel, code, trials=300, seed=11)

    def test_request_beyond_class_count(self):
        code = CodeSpec.from_i_min({19}, 6)
        full = compute_blta_structure(code)
        absorbed = absorption_structure_empirical(code, seed=1)
        available = equivalent_class_count(full, absorbed)
        with pytest.raises(ValueError):
            sample_distinct_class_automorphisms(code, available + 1, seed=0)

    @pytest.mark.parametrize("m", [0, -1])
    def test_nonpositive_m_rejected_before_probing(self, m, monkeypatch):
        def no_probe(*args, **kwargs):
            raise AssertionError("probed before validating m")

        monkeypatch.setattr(autgroup, "absorption_structure_empirical", no_probe)
        with pytest.raises(ValueError, match="at least one class"):
            sample_distinct_class_automorphisms(CodeSpec.from_i_min({19}, 6), m)
