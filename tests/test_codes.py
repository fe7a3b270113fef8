import copy
import itertools
import json
import math

import numpy as np
import pytest
from hypothesis import example, given, seed, settings
from hypothesis import strategies as st

import _reference as reference
from _reference import _mask_leq, count_min_weight_codewords
from rmpsc import _kernels
from rmpsc.codes import (
    CodeSpec,
    ReliabilityOrder,
    beta_expansion_reliability,
    dim_rm,
    min_weight_count,
    rm_order,
    search_max_symmetry,
    weight_distribution_via_dual,
    _orbit_tables,
    _upward_closed_words,
)
from rmpsc.monomials import _members, symmetry, upward_closure


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
        # equal codes hash equal, whichever way they were built
        assert code == CodeSpec.from_i_min({19}, 6)
        assert hash(code) == hash(CodeSpec.from_i_min({19}, 6))

    def test_length_bound(self):
        # n <= 14: the longest code is N = 16384; above it nothing is built
        assert CodeSpec.from_i_min({(1 << 14) - 1}, 14).K == 1
        for n in (15, 30):
            with pytest.raises(ValueError, match=f"n must be at most 14, got {n}"):
                CodeSpec.from_i_min({1}, n)
            with pytest.raises(ValueError, match=f"n must be at most 14, got {n}"):
                search_max_symmetry(n, 1 << (n - 1), "heuristic")

    def test_from_info_set_rejects_non_closed(self):
        with pytest.raises(ValueError):
            CodeSpec.from_info_set({1, 2}, 3)

    def test_closure_two_ways(self):
        # index-order closure must agree with the pairwise monomial order
        code = CodeSpec.from_i_min({11, 21}, 5)
        by_monomial = {
            i for i in range(32) if any(_mask_leq(~i & 31, ~j & 31, 5) for j in (11, 21))
        }
        assert code.info_set == by_monomial

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
        # every call returns a fresh mask
        mask[:] = 7
        assert code.frozen_mask().tolist() == [1, 1, 1, 0, 1, 0, 0, 0]

    def test_info_positions_sorted_and_read_only(self):
        code = CodeSpec.from_i_min({3, 5, 6}, 3)
        assert code.info_positions.dtype == np.intp
        assert code.info_positions.tolist() == [3, 5, 6, 7]
        with pytest.raises(ValueError):
            code.info_positions[0] = 0


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
        # an order that is no permutation is refused before any verdict
        with pytest.raises(ValueError, match="permutation of all channel indices"):
            ReliabilityOrder(n, (0, 1, 2, 2, 4, 5, 6, 7))

    def test_verdict_not_injectable(self):
        # the consistency verdict is computed from the order, never passed in
        bad = tuple(reversed(range(64)))
        with pytest.raises(TypeError):
            ReliabilityOrder(6, bad, [True])


class TestRmPolarConstruct:
    def test_brute_force_distance_small(self):
        for k in range(1, 9):
            for code in search_max_symmetry(3, k)[1]:
                weights = [w for w in enumerate_codeword_weights(code) if w > 0]
                assert min(weights) == code.min_distance

    def test_k_out_of_range(self):
        for k in (0, 9):
            with pytest.raises(ValueError, match=f"dimension {k} out of range for n=3"):
                rm_order(k, 3)
            with pytest.raises(ValueError, match=f"dimension {k} out of range for n=3"):
                search_max_symmetry(3, k)


# (t, i_min) that the seeded hill-climb, the n >= 8 search before it was
# exact, returned for search_max_symmetry(8, k, "heuristic", seed=seed)
HILL_CLIMB_N8 = {
    (9, 0): (8, (127,)),
    (37, 0): (8, (63,)),
    (64, 0): (2, (95, 117, 205, 211)),
    (93, 0): (8, (31,)),
    (128, 0): (2, (55, 79, 90, 101, 195)),
    (163, 0): (8, (15,)),
    (200, 0): (3, (15, 38, 49)),
    (247, 0): (8, (3,)),
    **{(128, seed): (2, (55, 79, 90, 101, 195)) for seed in range(1, 10)},
    (128, 11): (2, (55, 79, 89, 102, 195)),
    (128, 27): (3, (31, 99)),
    (128, 36): (5, (31, 57)),
}

# (t, first i_min, number of maximisers) of the exact search at n = 8
EXACT_N8 = {
    9: (8, (127,), 1),
    37: (8, (63,), 1),
    64: (3, (62, 121, 229), 3),
    93: (8, (31,), 1),
    128: (7, (30,), 1),
    163: (8, (15,), 1),
    200: (3, (15, 22, 97), 9),
    247: (8, (3,), 1),
}


class TestSearch:
    def test_rm_dimensions_fully_symmetric(self):
        for r in (1, 2, 3):
            k = dim_rm(r, 5)
            t, codes = search_max_symmetry(5, k)
            assert t >= 2, (r, k)
            assert codes[0].symmetry == 5

    def test_exactly_two_infeasible_at_n5(self):
        lo, hi = dim_rm(1, 5), dim_rm(3, 5)
        infeasible = [k for k in range(lo, hi + 1) if search_max_symmetry(5, k)[0] < 2]
        assert infeasible == [12, 14]

    def test_n7_decided_exactly(self):
        # no RM-PSC at k = 25 and 27; at k = 44 the best code has t = 6,
        # where the seed-0 hill-climb stops at t = 2
        for k, expect_t in ((25, 1), (27, 1), (44, 6)):
            t, codes = search_max_symmetry(7, k)
            assert t == expect_t, k
            assert codes and all(
                c.symmetry == t and c.is_rm_polar and c.K == k for c in codes
            ), k
        assert reference.search_max_symmetry(7, 44, "heuristic", seed=0)[0] == 2

    def test_length_one_code(self):
        # n = 0 has no variables, so its one code has symmetry 0
        for mode in ("exhaustive", "heuristic"):
            assert search_max_symmetry(0, 1, mode) == (0, [CodeSpec.from_i_min({0}, 0)])
        assert CodeSpec.from_i_min({0}, 0).symmetry == 0

    @pytest.mark.parametrize("k, seed", list(HILL_CLIMB_N8))
    def test_heuristic_n8_pinned(self, k, seed):
        # the exact maximisers; the heuristic mode is the first of them,
        # whatever the seed, and never below what the hill-climb found
        t, first, count = EXACT_N8[k]
        got_t, codes = search_max_symmetry(8, k)
        assert (got_t, codes[0].i_min, len(codes)) == (t, first, count)
        assert all(c.symmetry == t and c.K == k and c.is_rm_polar for c in codes)
        assert search_max_symmetry(8, k, "heuristic", seed=seed) == (t, codes[:1])
        assert t >= HILL_CLIMB_N8[k, seed][0]

    def test_64_37_contains_19(self):
        t, codes = search_max_symmetry(6, 37)
        assert t >= 2
        assert all(c.symmetry == 2 for c in codes)
        assert any(c.i_min == (19,) for c in codes)

    def test_small_n_only_rm(self):
        # at n=3 every non-extreme dimension coincides with an RM dimension
        for r in (1, 2):
            t, codes = search_max_symmetry(3, dim_rm(r, 3))
            assert t >= 2 and codes[0].symmetry == 3

    def test_results_are_rm_polar_decreasing(self):
        for k in (9, 11, 15, 18, 22):
            t, codes = search_max_symmetry(5, k)
            assert t >= 2, k
            for code in codes:
                assert code.is_rm_polar
                assert upward_closure(code.info_set, 5) == code.info_set
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
                assert symmetry({~m & 31 for m in ideal}, 5) <= best_t

    def test_heuristic_finds_good_codes(self):
        best_t, codes = search_max_symmetry(5, 15, mode="heuristic", seed=1)
        exhaustive_t, every = search_max_symmetry(5, 15)
        assert (best_t, codes) == (exhaustive_t, every[:1])
        assert codes[0].symmetry == best_t

    def test_search_space_complete_at_n4(self):
        # independent oracle: filter all 2^16 subsets at n=4 down to the
        # decreasing best-distance sets and compare the per-dimension optimum
        best_by_k = {}
        for bits in range(1, 1 << 16):
            info = frozenset(i for i in range(16) if (bits >> i) & 1)
            if upward_closure(info, 4) != info:
                continue
            k = len(info)
            max_deg = 4 - min(i.bit_count() for i in info)
            if max_deg != rm_order(k, 4):
                continue
            t = symmetry(info, 4)
            best_by_k[k] = max(best_by_k.get(k, 0), t)
        for k, expect_t in best_by_k.items():
            got_t, codes = search_max_symmetry(4, k)
            assert got_t == expect_t, (k, got_t, expect_t)
            assert all(c.symmetry == expect_t for c in codes)

    def test_modes_agree_beyond_n7(self):
        # one exact search for every n: the default is the exhaustive mode,
        # the heuristic mode its first maximiser, and the seed is not read
        for n, k in ((7, 44), (8, 64), (8, 200), (9, 256)):
            every = search_max_symmetry(n, k, "exhaustive")
            assert search_max_symmetry(n, k) == every
            for seed in (0, 3):
                assert search_max_symmetry(n, k, "heuristic", seed=seed) == (
                    every[0], every[1][:1]
                )

    def test_unknown_mode(self):
        with pytest.raises(ValueError):
            search_max_symmetry(5, 10, mode="stochastic")

    def test_milp_oracle_n8(self):
        # scipy's MILP solver on the 0/1 program of the search: symmetry t
        # is feasible and t + 1 is not, at the two dimensions without an
        # RM-PSC and at three with one
        for k, expect_t in ((33, 1), (35, 1), (58, 7), (128, 7), (198, 7)):
            t, _ = search_max_symmetry(8, k)
            assert t == expect_t, k
            assert reference.milp_symmetry_feasible(8, k, t), k
            assert not reference.milp_symmetry_feasible(8, k, t + 1), k


class TestMatchesReference:
    """The library's closed-set enumerator, consistency check and symmetry
    search against the plain forms in ``tests/_reference.py``."""

    def test_closed_words_are_the_ideals(self):
        # the word enumerator lists the same sets as the position-set
        # recursion, on both sides of the complement switch
        cases = [(n, r, size) for n in range(6) for r in range(n + 1)
                 for size in range(sum(math.comb(n, d) for d in range(r + 1)) + 1)]
        cases += [(7, rm_order(k, 7), k) for k in (25, 27, 44)]
        for n, r, size in cases:
            plain = reference.MonomialPoset(n, r)
            expect = sorted(sorted(plain.info_indices(s)) for s in plain.ideals_of_size(size))
            got = sorted(_members(w) for w in _upward_closed_words(n, r, size))
            assert got == expect, (n, r, size)

    def test_invariant_words_are_the_invariant_ideals(self):
        # with s > 1 the enumerator walks orbit representatives only: it
        # must list exactly the ideals that permutations of the top s
        # index bits map onto themselves
        for n in range(1, 6):
            for r in range(n + 1):
                plain = reference.MonomialPoset(n, r)
                for size in range(plain.size + 1):
                    ideals = [plain.info_indices(p) for p in plain.ideals_of_size(size)]
                    for s in range(1, n + 1):
                        expect = sorted(
                            sorted(info) for info in ideals
                            if reference.invariant_under_top_bits(info, n, s)
                        )
                        got = sorted(_members(w) for w in _upward_closed_words(n, r, size, s))
                        assert got == expect, (n, r, size, s)

    def test_cached_tables_stay_unchanged(self):
        # every call of one (n, r, s) shares one cached table, which no
        # enumeration, on either side of the complement switch, changes
        for n in range(1, 6):
            for r in range(n + 1):
                for s in range(1, n + 1):
                    tables = _orbit_tables(n, r, s)
                    kept = copy.deepcopy(tables)
                    for size in range(tables[2] + 1):
                        list(_upward_closed_words(n, r, size, s))
                    assert _orbit_tables(n, r, s) is tables
                    assert tables == kept, (n, r, s)

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
        # the heuristic mode returns the first of the exhaustive maximisers
        for k in range(1, (1 << n) + 1):
            t, codes = reference.search_max_symmetry(n, k)
            want = (t, codes[:1]) if mode == "heuristic" else (t, codes)
            assert search_max_symmetry(n, k, mode) == want, k

    @pytest.mark.parametrize("seed", [0, 1])
    def test_search_n7(self, seed):
        # the exact search is never below the reference hill-climb, under
        # either reliability order that steers the climb
        rels = (None, random_linear_extension(7, 11))
        assert rels[1].upo_consistent and rels[1] != beta_expansion_reliability(7)
        for k in (8, 20, 34, 44, 64, 84, 99, 114):
            t, codes = search_max_symmetry(7, k)
            assert all(c.symmetry == t for c in codes), k
            for rel in rels:
                climbed, _ = reference.search_max_symmetry(7, k, "heuristic", seed=seed, rel=rel)
                assert t >= climbed, (k, rel is None)

    def test_search_256_128(self):
        # one maximiser with t = 7, where the reference hill-climb stops at 2
        assert search_max_symmetry(8, 128) == (7, [CodeSpec.from_i_min({30}, 8)])
        assert reference.search_max_symmetry(8, 128, "heuristic", seed=0)[0] == 2


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

    def test_dual_refused_by_split_cost(self, monkeypatch):
        # RM(2,6) = (64,22): a 42-dimensional dual, beyond any walk, that the
        # split counts from 2^27 popcounts
        rm26 = CodeSpec.from_i_min({15}, 6)
        assert (rm26.K, min_weight_count(rm26)) == (22, 2604)
        assert weight_distribution_via_dual(rm26)[16] == 2604

        # RM(1,6) = (64,7): its dual needs 2^32 popcounts, refused before any
        def no_count(*args):
            raise AssertionError("counted before refusing")

        monkeypatch.setattr(_kernels, "_coset_histograms", no_count)
        with pytest.raises(ValueError, match="more than 2\\^30"):
            weight_distribution_via_dual(CodeSpec.from_i_min({31}, 6))
        # dual words are packed into 64 bits
        with pytest.raises(ValueError, match="requires N <= 64"):
            weight_distribution_via_dual(CodeSpec.from_i_min({27}, 7))

    def test_63_row_dual_refused_by_split_cost(self):
        # (64,1): its dual has 63 rows, more than the counts could hold, but
        # the popcount budget refuses it first, as the docstring says
        rep64 = CodeSpec.from_i_min({63}, 6)
        assert rep64.K == 1
        with pytest.raises(ValueError, match="rank 63 needs .* more than 2\\^30"):
            weight_distribution_via_dual(rep64)

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

    @seed(9)
    @settings(max_examples=150, deadline=None, derandomize=False, database=None)
    @given(small_codes())
    # RM(2,6) = (64,22), whose 42-dimensional dual splits in 2^27 popcounts,
    # and RM(1,6) = (64,7), whose dual the split refuses
    @example(CodeSpec.from_i_min({15}, 6))
    @example(CodeSpec.from_i_min({31}, 6))
    def test_closed_form_matches_walks(self, code):
        # the codeword walk where it is cheap, the dual spectrum wherever its
        # split fits the popcount budget, which every n <= 5 code does
        d = code.min_distance
        count = min_weight_count(code)
        if code.K <= 16:
            assert count == count_min_weight_codewords(code)
        try:
            dist = weight_distribution_via_dual(code)
        except ValueError as exc:
            assert "more than 2^30" in str(exc)
            assert code.N == 64
            return
        assert dist[1:d] == [0] * (d - 1)
        assert count == dist[d]


# the (64,37) code's weight distribution, as the dual walk gave it
DIST_64_37 = [
    1, 0, 0, 0, 0, 0, 0, 0, 3480, 0, 0, 0, 244608, 0, 1720320, 0, 12438620, 0,
    70533120, 0, 334562688, 0, 1206976512, 0, 3729110056, 0, 8622243840, 0,
    16763846400, 0, 23921393664, 0, 28112806854, 0, 23921393664, 0, 16763846400,
    0, 8622243840, 0, 3729110056, 0, 1206976512, 0, 334562688, 0, 70533120, 0,
    12438620, 0, 1720320, 0, 244608, 0, 0, 0, 3480, 0, 0, 0, 0, 0, 0, 0, 1,
]


def dual_basis(code: CodeSpec) -> np.ndarray:
    return np.array(reference.nullspace(code.generator_rows_packed(), code.N), dtype=np.uint64)


def random_words(rng, nbits: int) -> list[int]:
    """Up to 12 words below 2^nbits: zero words, XORs of earlier words, words
    confined to the positions whose index has some bit v clear (or set), and
    plain random words; sometimes none at all."""
    full = (1 << nbits) - 1
    words: list[int] = []
    for _ in range(int(rng.integers(0, 13))):
        w = int(rng.integers(0, 1 << 63)) << 1 | int(rng.integers(0, 2))
        kind = rng.random()
        if kind < 0.15:
            w = 0
        elif kind < 0.3 and words:
            w = words[int(rng.integers(len(words)))] ^ words[int(rng.integers(len(words)))]
        elif kind < 0.65:
            v = int(rng.integers(0, 6))
            half = sum(1 << p for p in range(64) if not p >> v & 1)
            w &= half if rng.random() < 0.5 else ~half
        words.append(w & full)
    return words


class TestWeightHistogram:
    """``_kernels.gray_weight_histogram`` against the walk over every XOR
    combination (``_reference.gray_weight_histogram``)."""

    @pytest.mark.parametrize("nbits", range(1, 65))
    def test_matches_walk_on_random_words(self, nbits):
        rng = np.random.default_rng(nbits)
        for _ in range(6):
            words = random_words(rng, nbits)
            got = _kernels.gray_weight_histogram(np.array(words, dtype=np.uint64), nbits)
            want = reference.gray_weight_histogram(np.array(words, dtype=np.uint64), nbits)
            assert got.dtype == want.dtype == np.int64
            assert got.tolist() == want.tolist(), words

    @pytest.mark.parametrize(
        "words, nbits, hist",
        [
            ([], 0, [1]),
            ([], 3, [1, 0, 0, 0]),
            ([0], 0, [2]),
            ([0, 0], 2, [4, 0, 0]),
            ([3, 3, 1], 4, [2, 4, 2, 0, 0]),
            ([1 << 63, 1 << 63], 64, [2, 2] + [0] * 63),
        ],
    )
    def test_every_combination_counts(self, words, nbits, hist):
        words = np.array(words, dtype=np.uint64)
        assert _kernels.gray_weight_histogram(words, nbits).tolist() == hist
        assert reference.gray_weight_histogram(words, nbits).tolist() == hist

    @pytest.mark.parametrize("i_min, n", [({3, 5, 6}, 3), ({11}, 5), ({15}, 5), ({19}, 6)])
    def test_matches_walk_on_duals(self, i_min, n):
        code = CodeSpec.from_i_min(i_min, n)
        basis = dual_basis(code)
        got = _kernels.gray_weight_histogram(basis, code.N)
        assert got.tolist() == reference.gray_weight_histogram(basis, code.N).tolist()

    @seed(29)
    @settings(max_examples=80, deadline=None, derandomize=False, database=None)
    @given(small_codes())
    @example(CodeSpec.from_i_min({0}, 0))  # n = 0, K = N
    @example(CodeSpec.from_i_min({0}, 4))  # K = N
    @example(CodeSpec.from_i_min({15}, 4))  # K = 1
    @example(CodeSpec.from_i_min({19}, 6))  # (64,37)
    @example(CodeSpec.from_i_min({15}, 6))  # RM(2,6) = (64,22)
    def test_dual_is_reversed_frozen_set(self, code):
        # the rows weight_distribution_via_dual counts: N - K of them,
        # orthogonal to the code, spanning the elimination's nullspace
        seen = []
        count = _kernels.gray_weight_histogram

        def recording(basis, nbits):
            seen.append([int(w) for w in basis])
            return count(basis, nbits)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(_kernels, "gray_weight_histogram", recording)
            weight_distribution_via_dual(code)
        (dual,) = seen
        rows = code.generator_rows_packed()
        assert len(dual) == code.N - code.K
        assert all((d & g).bit_count() % 2 == 0 for d in dual for g in rows)
        null = reference.nullspace(rows, code.N)
        rank = reference.rank
        assert rank(dual) == rank(null) == rank(dual + null) == code.N - code.K

    def test_64_37_distribution(self):
        assert weight_distribution_via_dual(CodeSpec.from_i_min({19}, 6)) == DIST_64_37

    def test_64_37_dual_is_split(self, monkeypatch):
        # 2^17 + 2^17 popcounts for the 2^27 dual words (positions split by
        # index bit 0), not a walk
        counted = []
        popcount = _kernels._popcount_u64

        def counting(arr):
            counted.append(arr.size)
            return popcount(arr)

        monkeypatch.setattr(_kernels, "_popcount_u64", counting)
        weight_distribution_via_dual(CodeSpec.from_i_min({19}, 6))
        assert sum(counted) == 1 << 18

    @pytest.mark.parametrize(
        "words, nbits", [([1 << 5], 4), ([1 << 4], 4), ([1, 2, 1 << 40], 40), ([1], 0)]
    )
    def test_word_beyond_nbits_is_refused(self, words, nbits):
        with pytest.raises(ValueError, match="at or above nbits"):
            _kernels.gray_weight_histogram(np.array(words, dtype=np.uint64), nbits)

    def test_count_beyond_int64_is_refused(self):
        # 2^63 combinations of zero words: the walk never finished, a shifted
        # count would wrap
        zeros = np.zeros(63, dtype=np.uint64)
        assert _kernels.gray_weight_histogram(zeros[:62], 1).tolist() == [1 << 62, 0]
        with pytest.raises(ValueError, match="overflow"):
            _kernels.gray_weight_histogram(zeros, 1)
