import itertools
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import _reference as reference
from _reference import _mask_leq, count_min_weight_codewords
from rmpsc.codes import (
    CodeSpec,
    ReliabilityOrder,
    beta_expansion_reliability,
    dim_rm,
    extend_code,
    load_reliability,
    min_weight_count,
    rm_order,
    rm_polar_construct,
    search_max_symmetry,
    search_rm_psc,
    weight_distribution_via_dual,
    _MonomialPoset,
)
from rmpsc.monomials import (
    GeneratorSet,
    evaluate_monomial,
    index_leq,
    is_decreasing,
    min_distance,
    monomial_from_index,
    upward_closure,
)


def random_linear_extension(n: int, seed: int) -> ReliabilityOrder:
    """A random linear extension of the index order: a channel is placed only
    after every channel whose monomial lies above its own."""
    rng = np.random.default_rng(seed)
    N, full = 1 << n, (1 << n) - 1
    above = [
        {j for j in range(N) if j != i and _mask_leq(~i & full, ~j & full, n)}
        for i in range(N)
    ]
    order: list[int] = []
    while len(order) < N:
        ready = [i for i in range(N) if i not in order and above[i] <= set(order)]
        order.append(ready[int(rng.integers(len(ready)))])
    return ReliabilityOrder(n, tuple(order))


def enumerate_codeword_weights(code: CodeSpec):
    rows = code.generator_rows()
    for sel in itertools.product((0, 1), repeat=code.K):
        cw = np.zeros(code.N, dtype=np.uint8)
        for bit, row in zip(sel, rows):
            if bit:
                cw ^= row
        yield int(cw.sum())


class TestCodeSpec:
    def test_known_code_dimensions(self):
        assert CodeSpec.from_i_min({27}, 7).K == 60
        assert CodeSpec.from_i_min({19}, 6).K == 37
        assert CodeSpec.from_i_min({63, 121}, 10).K == 512
        assert CodeSpec.from_i_min({183, 207, 241, 391, 928}, 10).K == 512

    def test_info_set_matches_closure(self):
        code = CodeSpec.from_i_min({27}, 7)
        assert code.info_set == upward_closure({27}, 7)
        assert code.i_min == (27,)

    def test_from_info_set_round_trip(self):
        info = upward_closure({19}, 6)
        code = CodeSpec.from_info_set(info, 6)
        assert code.i_min == (19,)

    def test_from_info_set_rejects_non_closed(self):
        with pytest.raises(ValueError):
            CodeSpec.from_info_set({1, 2}, 3)

    def test_closure_two_ways(self):
        # index-order closure must agree with the monomial-set construction
        code = CodeSpec.from_i_min({11, 21}, 5)
        by_index = {
            i for i in range(32) if any(index_leq(j, i, 5) for j in (11, 21))
        }
        assert code.info_set == by_index
        assert code.gen_set.indices == code.info_set

    def test_json_round_trip(self, tmp_path):
        code = CodeSpec.from_i_min({63, 121}, 10)
        path = tmp_path / "code.json"
        code.save(path)
        loaded = CodeSpec.load(path)
        assert loaded == code
        assert json.loads(code.to_json())["n"] == 10

    def test_min_distance_and_flags(self):
        code = CodeSpec.from_i_min({27}, 7)
        assert code.min_distance == 16
        assert code.is_rm_polar
        assert not code.extreme_dimension
        rate1 = CodeSpec.from_i_min({0}, 3)
        assert rate1.K == 8
        assert rate1.extreme_dimension

    def test_frozen_mask(self):
        code = CodeSpec.from_i_min({3, 5, 6}, 3)
        mask = code.frozen_mask()
        assert mask.tolist() == [1, 1, 1, 0, 1, 0, 0, 0]


class TestReliability:
    def test_beta_expansion_small(self):
        rel = beta_expansion_reliability(2)
        assert rel.order == (0, 1, 2, 3)

    def test_extremes(self):
        for n in (3, 5, 7):
            rel = beta_expansion_reliability(n)
            assert rel.order[0] == 0
            assert rel.order[-1] == (1 << n) - 1

    def test_upo_consistent(self):
        for n in range(2, 9):
            assert beta_expansion_reliability(n).upo_consistent

    def test_invalid_beta(self):
        with pytest.raises(ValueError):
            beta_expansion_reliability(3, beta=1.0)

    def test_inconsistent_order_detected(self):
        # most reliable first is definitely inconsistent
        n = 3
        rel = ReliabilityOrder(n, tuple(reversed(range(8))))
        assert not rel.upo_consistent

    def test_verdict_not_injectable(self):
        # the consistency verdict is computed from the order, never passed in
        bad = tuple(reversed(range(64)))
        with pytest.raises(TypeError):
            ReliabilityOrder(6, bad, [True])
        with pytest.raises(ValueError, match="violates the index partial order"):
            rm_polar_construct(6, 22, ReliabilityOrder(6, bad))

    def test_file_round_trip(self, tmp_path):
        rel = beta_expansion_reliability(4)
        path = tmp_path / "rel.txt"
        path.write_text("".join(f"{i}\n" for i in rel.order))
        loaded = load_reliability(path)
        assert loaded.order == rel.order
        assert loaded.upo_consistent

    def test_file_length_validated(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("0\n1\n2\n")
        with pytest.raises(ValueError):
            load_reliability(path)

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.txt"
        path.write_text("\n")
        with pytest.raises(ValueError, match="length 0 is not a power of two"):
            load_reliability(path)


class TestRmPolarConstruct:
    def test_exact_first_order(self):
        code = rm_polar_construct(3, 4)
        assert code.info_set == {3, 5, 6, 7}

    def test_rm_dimensions_give_rm_codes(self):
        for n in (4, 5, 6):
            for r in range(n + 1):
                code = rm_polar_construct(n, dim_rm(r, n))
                expect = {
                    i for i in range(1 << n)
                    if monomial_from_index(i, n).degree <= r
                }
                assert code.info_set == expect

    def test_64_37_distance(self):
        code = rm_polar_construct(6, 37)
        assert code.min_distance == 8
        assert code.K == 37

    def test_outputs_decreasing_and_optimal(self):
        rng = np.random.default_rng(2)
        for _ in range(25):
            n = int(rng.integers(2, 7))
            k = int(rng.integers(1, (1 << n) + 1))
            code = rm_polar_construct(n, k)
            assert code.K == k
            assert is_decreasing(code.gen_set)
            assert code.min_distance == 1 << (n - rm_order(k, n))

    def test_brute_force_distance_small(self):
        for k in range(1, 9):
            code = rm_polar_construct(3, k)
            if code.K <= 8:
                weights = [w for w in enumerate_codeword_weights(code) if w > 0]
                assert min(weights) == code.min_distance

    def test_k_out_of_range(self):
        with pytest.raises(ValueError):
            rm_polar_construct(3, 9)
        with pytest.raises(ValueError):
            rm_polar_construct(3, 0)

    def test_rejects_inconsistent_reliability(self):
        rel = ReliabilityOrder(3, tuple(reversed(range(8))))
        with pytest.raises(ValueError):
            rm_polar_construct(3, 4, rel)

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(st.integers(4, 5), st.integers(0, 2**32 - 1))
    def test_every_linear_extension_gives_dimension_k(self, n, seed):
        rel = random_linear_extension(n, seed)
        assert rel.upo_consistent
        N = 1 << n
        for k in range(1, N + 1):
            assert rm_polar_construct(n, k, rel).K == k


class TestExtend:
    def test_extend_3_to_rm24(self):
        code = extend_code({3}, 3)
        assert code.N == 16
        assert code.K == 11
        expect = {i for i in range(16) if monomial_from_index(i, 4).degree <= 2}
        assert code.info_set == expect

    def test_generators_gain_top_variable(self):
        base = CodeSpec.from_i_min({19}, 6)
        ext = extend_code({19}, 6)
        for i in base.i_min:
            m_old = monomial_from_index(i, 6)
            m_new = monomial_from_index(i, 7)
            assert m_new.variables == m_old.variables + (6,)

    def test_symmetry_grows_by_one(self):
        assert extend_code({19}, 6).symmetry == CodeSpec.from_i_min({19}, 6).symmetry + 1

    def test_chain_to_1024(self):
        ext = extend_code({63, 121}, 9)
        assert ext.N == 1024
        assert ext.info_set == upward_closure({63, 121}, 10)

    def test_rejects_non_rm_polar(self):
        # closure of a single degree-3 monomial at n=5 has dimension 8 but
        # distance 4; the best dimension-8 code reaches 8
        code = CodeSpec.from_i_min({24}, 5)
        assert not code.is_rm_polar
        with pytest.raises(ValueError):
            extend_code({24}, 5)


class TestSearch:
    def test_rm_dimensions_fully_symmetric(self):
        for r in (1, 2, 3):
            k = dim_rm(r, 5)
            codes = search_rm_psc(5, k)
            assert codes, (r, k)
            assert codes[0].symmetry == 5

    def test_exactly_two_infeasible_at_n5(self):
        lo, hi = dim_rm(1, 5), dim_rm(3, 5)
        infeasible = [k for k in range(lo, hi + 1) if not search_rm_psc(5, k)]
        assert infeasible == [12, 14]

    def test_64_37_contains_19(self):
        codes = search_rm_psc(6, 37)
        assert codes
        assert all(c.symmetry == 2 for c in codes)
        assert any(c.i_min == (19,) for c in codes)

    def test_small_n_only_rm(self):
        # at n=3 every non-extreme dimension coincides with an RM dimension
        for r in (1, 2):
            codes = search_rm_psc(3, dim_rm(r, 3))
            assert codes and codes[0].symmetry == 3

    def test_results_are_rm_polar_decreasing(self):
        for k in (9, 11, 15, 18, 22):
            for code in search_rm_psc(5, k):
                assert code.is_rm_polar
                assert is_decreasing(code.gen_set)
                assert code.K == k

    def test_exhaustive_dominates_random_ideals(self):
        # no randomly sampled decreasing RM-polar code may beat the search
        rng = np.random.default_rng(17)
        for k in (9, 13, 18, 21):
            best_t, _ = search_max_symmetry(5, k)
            r = rm_order(k, 5)
            masks = [m for m in range(32) if m.bit_count() <= r]
            for _ in range(200):
                ideal = set()
                while len(ideal) < k:
                    cands = [
                        m
                        for m in masks
                        if m not in ideal
                        and all(
                            p in ideal
                            for p in masks
                            if p != m and _dominated(p, m)
                        )
                    ]
                    ideal.add(cands[int(rng.integers(len(cands)))])
                g = GeneratorSet(5, frozenset(ideal))
                from rmpsc.monomials import symmetry

                assert symmetry(g, check=False) <= best_t

    def test_heuristic_finds_good_codes(self):
        best_t, codes = search_max_symmetry(5, 15, mode="heuristic", seed=1)
        exhaustive_t, _ = search_max_symmetry(5, 15)
        assert best_t == exhaustive_t
        assert codes[0].symmetry == best_t

    def test_search_space_complete_at_n4(self):
        # independent oracle: filter all 2^16 subsets at n=4 down to the
        # decreasing best-distance sets and compare the per-dimension optimum
        from rmpsc.monomials import symmetry as sym

        best_by_k = {}
        for bits in range(1, 1 << 16):
            masks = frozenset(m for m in range(16) if (bits >> m) & 1)
            g = GeneratorSet(4, masks)
            if not is_decreasing(g):
                continue
            k = len(masks)
            max_deg = max(m.bit_count() for m in masks)
            if max_deg != rm_order(k, 4):
                continue
            t = sym(g, check=False)
            best_by_k[k] = max(best_by_k.get(k, 0), t)
        for k, expect_t in best_by_k.items():
            got_t, codes = search_max_symmetry(4, k)
            assert got_t == expect_t, (k, got_t, expect_t)
            assert all(c.symmetry == expect_t for c in codes)

    def test_exhaustive_rejected_large_n(self):
        with pytest.raises(ValueError):
            search_rm_psc(7, 64, mode="exhaustive")

    def test_unknown_mode(self):
        with pytest.raises(ValueError):
            search_rm_psc(5, 10, mode="stochastic")

    @pytest.mark.parametrize("mode", ["exhaustive", "heuristic"])
    def test_reliability_length_checked(self, mode):
        # an n=7 order that breaks the index order, so that the construction
        # does not reject it first
        order = list(beta_expansion_reliability(7).order)
        order[0], order[-1] = order[-1], order[0]
        rel = ReliabilityOrder(7, tuple(order))
        with pytest.raises(ValueError, match="n=7"):
            search_max_symmetry(6, 30, mode, rel=rel)


class TestMatchesReference:
    """The library's poset relation, consistency check and symmetry search
    against the plain forms in ``tests/_reference.py``."""

    def test_poset_relation(self):
        for n in range(9):
            for r in range(n + 1):
                fast, plain = _MonomialPoset(n, r), reference.MonomialPoset(n, r)
                assert fast.masks == plain.masks
                assert fast.below == plain.below, (n, r)
                assert fast.above == plain.above, (n, r)

    def test_consistency_verdict(self):
        verdicts = []
        for n in range(1, 9):
            rel = beta_expansion_reliability(n)
            assert rel.upo_consistent and reference.check_consistency(rel)
        rng = np.random.default_rng(5)
        for n in range(2, 7):
            N = 1 << n
            base = beta_expansion_reliability(n).order
            swaps = [(i, i + 1) for i in range(N - 1)]
            swaps += [tuple(rng.choice(N, 2, replace=False)) for _ in range(40)]
            for i, j in swaps:
                order = list(base)
                order[i], order[j] = order[j], order[i]
                rel = ReliabilityOrder(n, tuple(order))
                verdicts.append(rel.upo_consistent)
                assert verdicts[-1] == reference.check_consistency(rel), (n, i, j)
            rel = random_linear_extension(n, n)
            assert rel.upo_consistent and reference.check_consistency(rel)
        # both verdicts occur among the transposed orders
        assert any(verdicts) and not all(verdicts)

    @pytest.mark.parametrize("mode", ["exhaustive", "heuristic"])
    @pytest.mark.parametrize("n", [4, 5, 6])
    def test_search_every_dimension(self, n, mode):
        for k in range(1, (1 << n) + 1):
            assert search_max_symmetry(n, k, mode) == reference.search_max_symmetry(
                n, k, mode
            ), k

    @pytest.mark.parametrize("seed", [0, 1])
    def test_search_n7(self, seed):
        rels = (None, random_linear_extension(7, 11))
        assert rels[1].upo_consistent and rels[1] != beta_expansion_reliability(7)
        for rel in rels:
            for k in (8, 20, 34, 44, 64, 84, 99, 114):
                got = search_max_symmetry(7, k, "heuristic", seed=seed, rel=rel)
                want = reference.search_max_symmetry(7, k, "heuristic", seed=seed, rel=rel)
                assert got == want, (k, rel is None)

    def test_search_256_128(self):
        got = search_max_symmetry(8, 128, "heuristic", seed=0)
        assert got == reference.search_max_symmetry(8, 128, "heuristic", seed=0)


def _dominated(p, m):
    from _reference import _mask_leq

    return _mask_leq(p, m, 5)


@st.composite
def small_codes(draw):
    """Decreasing codes with n <= 5: closures of 1-3 random generator indices."""
    n = draw(st.integers(1, 5))
    i_min = draw(st.sets(st.integers(0, (1 << n) - 1), min_size=1, max_size=3))
    return CodeSpec.from_i_min(i_min, n)


class TestMinWeightCounts:
    def test_r13(self):
        code = CodeSpec.from_i_min({3, 5, 6}, 3)
        assert count_min_weight_codewords(code) == 14

    def test_repetition(self):
        code = CodeSpec.from_i_min({(1 << 4) - 1}, 4)
        assert code.K == 1
        assert count_min_weight_codewords(code) == 1

    def test_closure_11_frozen_value(self):
        code = CodeSpec.from_i_min({11}, 5)
        assert count_min_weight_codewords(code) == 364

    def test_guard(self):
        code = CodeSpec.from_i_min({0}, 5)   # K = 32
        with pytest.raises(ValueError):
            count_min_weight_codewords(code)

    def test_dual_matches_brute_force(self):
        for i_min, n in (({3, 5, 6}, 3), ({11}, 5), ({19, 46}, 6), ({27}, 5)):
            code = CodeSpec.from_i_min(i_min, n)
            if code.K > 20:
                continue
            brute = count_min_weight_codewords(code)
            assert min_weight_count(code) == brute
            assert weight_distribution_via_dual(code)[code.min_distance] == brute

    def test_dual_full_distribution_small(self):
        code = CodeSpec.from_i_min({3, 5, 6}, 3)
        dist = weight_distribution_via_dual(code)
        brute = [0] * 9
        for w in enumerate_codeword_weights(code):
            brute[w] += 1
        assert dist == brute

    def test_64_37_frozen_value(self):
        code = CodeSpec.from_i_min({19}, 6)
        assert min_weight_count(code) == 3480
        assert weight_distribution_via_dual(code)[code.min_distance] == 3480

    def test_reed_muller_multiplicities(self):
        # beyond both walks: the classical count of minimum-weight words of
        # RM(r, m), 2^r * prod_{i < m-r} (2^(m-i) - 1) / (2^(m-r-i) - 1)
        for m in range(1, 11):
            for r in range(m + 1):
                num = math.prod((1 << (m - i)) - 1 for i in range(m - r))
                den = math.prod((1 << (m - r - i)) - 1 for i in range(m - r))
                expect = (1 << r) * num // den
                top = [i for i in range(1 << m) if (m - i.bit_count()) == r]
                assert min_weight_count(CodeSpec.from_i_min(top, m)) == expect, (r, m)

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(small_codes())
    def test_closed_form_matches_walks(self, code):
        # each walk where it is cheap; for n <= 5 every code gets at least one
        d = code.min_distance
        count = min_weight_count(code)
        if code.K <= 16:
            assert count == count_min_weight_codewords(code)
        if code.N - code.K <= 20:
            dist = weight_distribution_via_dual(code)
            assert dist[1:d] == [0] * (d - 1)
            assert count == dist[d]
