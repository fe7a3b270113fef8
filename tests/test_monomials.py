import itertools
import math
from functools import reduce

import numpy as np
import pytest
from hypothesis import example, given, seed, settings
from hypothesis import strategies as st

import _reference as reference
from rmpsc.codes import CodeSpec
from rmpsc.monomials import (
    _closure_pass,
    _members,
    _minimal_members,
    _steps_below,
    _word,
    derivative_dimensions,
    min_distance,
    minimal_generators,
    symmetry,
    upward_closure,
)

T2 = np.array([[1, 0], [1, 1]], dtype=np.uint8)


def kron_transform(n):
    return reduce(np.kron, [T2] * n) if n else np.array([[1]], dtype=np.uint8)


def variables(mask: int) -> tuple[int, ...]:
    return tuple(v for v in range(mask.bit_length()) if (mask >> v) & 1)


def leq_by_divisors(m1: int, m2: int) -> bool:
    # Literal form of the order definition on monomial masks: equal degrees
    # compare sorted variable tuples entry-wise, otherwise some divisor of m2
    # must dominate m1.
    v1, v2 = variables(m1), variables(m2)
    if len(v1) == len(v2):
        return all(a <= b for a, b in zip(v1, v2))
    if len(v1) > len(v2):
        return False
    return any(
        all(a <= b for a, b in zip(v1, sub))
        for sub in itertools.combinations(v2, len(v1))
    )


def mask_of(i: int, n: int) -> int:
    """The monomial of row index i: the variables at the zero bits of i."""
    return ~i & ((1 << n) - 1)


def rm_info(r, n):
    """Information set of RM(r, n): the rows whose monomial has degree <= r."""
    return frozenset(i for i in range(1 << n) if n - i.bit_count() <= r)


def is_closed(info, n):
    return upward_closure(info, n) == info


def enumerate_codewords(info, n):
    rows = kron_transform(n)[sorted(info)]
    for sel in itertools.product((0, 1), repeat=len(rows)):
        cw = np.zeros(1 << n, dtype=np.uint8)
        for bit, row in zip(sel, rows):
            if bit:
                cw ^= row
        yield cw


class TestMonomialIndexBijection:
    def test_all_ones_index_is_constant(self):
        for n in range(1, 6):
            top = (1 << n) - 1
            assert derivative_dimensions({top}, n) == (0,) * n
            assert CodeSpec.from_info_set({top}, n).generator_rows().tolist() == [[1] * (1 << n)]

    def test_zero_index_is_full_product(self):
        for n in range(1, 6):
            assert derivative_dimensions({0}, n) == (1,) * n

    def test_index_27_n7(self):
        dims = derivative_dimensions({27}, 7)
        assert variables(sum(d << v for v, d in enumerate(dims))) == (2, 5, 6)

    def test_round_trip(self):
        # the variables read off a single row's derivatives are its monomial
        for n in range(1, 7):
            for l in range(1 << n):
                dims = derivative_dimensions({l}, n)
                assert sum(d << v for v, d in enumerate(dims)) == mask_of(l, n)

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            upward_closure({8}, 3)
        with pytest.raises(ValueError):
            upward_closure({-1}, 3)


class TestEvaluation:
    """A code's generator rows are the Kronecker rows at its indices."""

    def test_constant(self):
        assert CodeSpec.from_info_set({3}, 2).generator_rows().tolist() == [[1, 1, 1, 1]]

    def test_full_product(self):
        assert CodeSpec.from_i_min({0}, 2).generator_rows()[0].tolist() == [1, 0, 0, 0]

    def test_single_variable_row(self):
        assert CodeSpec.from_i_min({1}, 2).generator_rows()[0].tolist() == [1, 1, 0, 0]

    def test_rows_of_kronecker_power(self):
        rng = np.random.default_rng(13)
        for n in range(0, 7):
            t = kron_transform(n)
            full = CodeSpec.from_i_min({0}, n).generator_rows()
            assert full.dtype == np.uint8 and np.array_equal(full, t), n
            for _ in range(10):
                code = CodeSpec.from_i_min(set(rng.integers(0, 1 << n, size=3).tolist()), n)
                assert np.array_equal(code.generator_rows(), t[code.info_positions]), n

    def test_weight_law(self):
        # row i evaluates a degree n - popcount(i) monomial: weight 2^popcount(i)
        for n in range(1, 9):
            rows = CodeSpec.from_i_min({0}, n).generator_rows()
            weights = rows.sum(axis=1).tolist()
            assert weights == [1 << i.bit_count() for i in range(1 << n)]


class TestPartialOrder:
    """The index order is the monomial order reversed: i lies above j iff
    the monomial of i divides-and-dominates below the monomial of j."""

    def test_small_comparable_pairs(self):
        # v0 <= v1, v1 <= v0*v1, and v2 is not below v0*v1
        assert mask_of(0b01, 2) in upward_closure({mask_of(0b10, 2)}, 2)
        assert mask_of(0b10, 2) in upward_closure({mask_of(0b11, 2)}, 2)
        assert mask_of(0b100, 3) not in upward_closure({mask_of(0b011, 3)}, 3)

    def test_matches_divisor_definition(self):
        for n in range(1, 6):
            N = 1 << n
            for j in range(N):
                below = {i for i in range(N) if leq_by_divisors(mask_of(i, n), mask_of(j, n))}
                assert upward_closure({j}, n) == below, (n, j)

    def test_index_order_reverses_monomial_order(self):
        # the same relation against the reference's prefix-count form
        for n in range(1, 6):
            for j in range(1 << n):
                above = upward_closure({j}, n)
                for i in range(1 << n):
                    expect = reference._mask_leq(mask_of(i, n), mask_of(j, n), n)
                    assert (i in above) == expect, (n, i, j)

    def test_index_extremes(self):
        for n in range(1, 5):
            top = (1 << n) - 1
            assert upward_closure({0}, n) == frozenset(range(1 << n))
            assert upward_closure({top}, n) == {top}

    def test_poset_axioms(self):
        for n in range(1, 6):
            N = 1 << n
            above = [upward_closure({j}, n) for j in range(N)]
            rel = [[i in above[j] for i in range(N)] for j in range(N)]
            for i in range(N):
                assert rel[i][i]
                for j in range(N):
                    if rel[i][j] and rel[j][i]:
                        assert i == j
                    for k in range(N):
                        if rel[i][j] and rel[j][k]:
                            assert rel[i][k]


class TestClosureAndGenerators:
    def test_closure_of_zero_is_everything(self):
        for n in range(1, 6):
            assert upward_closure({0}, n) == frozenset(range(1 << n))

    def test_known_closure_sizes(self):
        assert len(upward_closure({27}, 7)) == 60
        assert len(upward_closure({19}, 6)) == 37
        assert len(upward_closure({63, 121}, 10)) == 512
        assert len(upward_closure({183, 207, 241, 391, 928}, 10)) == 512

    def test_empty(self):
        assert upward_closure(set(), 4) == frozenset()

    def test_round_trip(self):
        assert minimal_generators(upward_closure({27}, 7), 7) == {27}
        assert minimal_generators(upward_closure({63, 121}, 10), 10) == {63, 121}
        assert minimal_generators(frozenset(range(16)), 4) == {0}

    def test_round_trip_random(self):
        rng = np.random.default_rng(11)
        for n in range(2, 9):
            for _ in range(20):
                size = int(rng.integers(1, 5))
                x = set(int(v) for v in rng.integers(0, 1 << n, size=size))
                closed = upward_closure(x, n)
                assert minimal_generators(closed, n) == reference.reduce_to_antichain(x, n)

    def test_not_closed_rejected(self):
        with pytest.raises(ValueError):
            minimal_generators({1}, 3)   # misses everything above 1

    def test_closures_are_decreasing(self):
        rng = np.random.default_rng(3)
        for n in range(2, 8):
            for _ in range(10):
                x = set(int(v) for v in rng.integers(0, 1 << n, size=3))
                assert is_closed(upward_closure(x, n), n)

    def test_non_decreasing_detected(self):
        lone_v1 = {mask_of(0b10, 2)}   # v1 alone, missing v0
        assert not is_closed(lone_v1, 2)

    def test_rm_codes_decreasing(self):
        for n in range(2, 7):
            for r in range(n + 1):
                assert is_closed(rm_info(r, n), n)


@st.composite
def index_sets(draw):
    n = draw(st.integers(0, 8))
    return n, draw(st.sets(st.integers(0, (1 << n) - 1), max_size=8))


class TestMatchesReference:
    """Closure, antichain and closedness from the generating steps against
    the pairwise prefix-count forms in ``tests/_reference.py``."""

    @seed(12)
    @settings(max_examples=300, deadline=None, derandomize=False, database=None)
    @given(index_sets())
    def test_random_index_sets(self, case):
        n, s = case
        closure = reference.upward_closure(s, n)
        antichain = reference.reduce_to_antichain(s, n)
        assert upward_closure(s, n) == closure
        assert minimal_generators(closure, n) == antichain
        if closure == s:
            assert minimal_generators(s, n) == antichain
        else:
            with pytest.raises(ValueError, match="not closed"):
                minimal_generators(s, n)


@st.composite
def word_cases(draw):
    n = draw(st.integers(0, 10))
    N = 1 << n
    index = st.integers(0, N - 1)
    s = draw(st.one_of(
        st.just(set()),
        st.builds(lambda i: {i}, index),
        st.sets(index, max_size=12),
        # the full set only where the pairwise antichain reference is quick
        st.just(set(range(N))) if n <= 6 else st.just(set()),
    ))
    return n, s


class TestWordForms:
    """Index sets as N-bit words: closure, minimal generators, minimal and
    maximal members and derivative counts against the per-index forms."""

    @seed(26)
    @settings(max_examples=200, deadline=None, derandomize=False, database=None)
    @given(word_cases())
    @example((0, set()))
    @example((0, {0}))
    @example((6, set(range(64))))
    @example((10, set()))
    @example((10, {0}))
    @example((10, {1023}))
    def test_random_index_sets(self, case):
        n, s = case
        word = _word(s, n)
        assert word.bit_count() == len(s) and set(_members(word)) == s
        closure, gens = _closure_pass(word, n)
        assert set(_members(closure)) == reference.upward_closure(s, n)
        assert set(_members(gens)) == reference.reduce_to_antichain(s, n)
        # the members no step leads up to inside the set
        assert set(_members(_minimal_members(word, n))) == {
            i for i in s if s.isdisjoint(_steps_below(i))
        }
        for members in (s, set(_members(closure))):
            assert derivative_dimensions(members, n) == tuple(
                sum(1 for i in members if not (i >> v) & 1) for v in range(n)
            )

    def test_out_of_range_index_refused(self):
        for n in range(11):
            for bad in (-1, 1 << n):
                for fn in (_word, upward_closure, minimal_generators, derivative_dimensions):
                    with pytest.raises(ValueError, match=f"index {bad} out of range"):
                        fn({0, bad}, n)


class TestDerivativesAndSymmetry:
    def test_rm_derivative_is_lower_order_rm(self):
        for n in range(2, 7):
            for r in range(1, n):
                expect = sum(math.comb(n - 1, d) for d in range(r))
                assert derivative_dimensions(rm_info(r, n), n) == (expect,) * n

    def test_constant_only(self):
        assert derivative_dimensions({7}, 3) == (0, 0, 0)

    def test_derivative_monotone_for_decreasing(self):
        rng = np.random.default_rng(5)
        for n in range(2, 9):
            for _ in range(15):
                x = set(int(v) for v in rng.integers(0, 1 << n, size=3))
                dims = derivative_dimensions(upward_closure(x, n), n)
                assert all(a >= b for a, b in zip(dims, dims[1:]))

    def test_rm_fully_symmetric(self):
        for n in range(2, 8):
            for r in range(n):
                assert symmetry(rm_info(r, n), n) == n

    def test_known_code_symmetries(self):
        assert symmetry(upward_closure({63, 121}, 10), 10) == 7
        assert symmetry(upward_closure({183, 207, 241, 391, 928}, 10), 10) == 3
        assert symmetry(upward_closure({19}, 6), 6) == 2
        with pytest.raises(ValueError, match="empty information set has no symmetry"):
            symmetry(set(), 3)


class TestMinDistance:
    def test_first_order_rm(self):
        info = rm_info(1, 3)
        # brute force over all 16 codewords
        weights = sorted(int(c.sum()) for c in enumerate_codewords(info, 3))
        assert min(w for w in weights if w > 0) == 4
        assert min_distance(info, 3) == 4

    def test_repetition(self):
        for n in range(1, 6):
            assert min_distance({(1 << n) - 1}, n) == 1 << n

    def test_closure_27(self):
        assert min_distance(upward_closure({27}, 7), 7) == 16

    def test_length32_analogue_brute_force(self):
        info = upward_closure({11}, 5)
        nonzero = [int(c.sum()) for c in enumerate_codewords(info, 5)]
        d_brute = min(w for w in nonzero if w > 0)
        assert d_brute == min_distance(info, 5) == 8

    def test_brute_force_every_small_decreasing_set(self):
        # exhaustive: every decreasing set with n <= 4 and dimension <= 12
        checked = 0
        for n in (2, 3, 4):
            for bits in range(1, 1 << (1 << n)):
                chosen = frozenset(i for i in range(1 << n) if (bits >> i) & 1)
                if len(chosen) > 12 or not is_closed(chosen, n):
                    continue
                d_brute = min(
                    int(c.sum()) for c in enumerate_codewords(chosen, n) if c.any()
                )
                assert d_brute == min_distance(chosen, n), sorted(chosen)
                checked += 1
        assert checked == 35   # 4 sets at n=2, 9 at n=3, 22 at n=4

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            min_distance(frozenset(), 2)
