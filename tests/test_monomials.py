import itertools
from functools import reduce

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

import _reference as reference
from rmpsc.monomials import (
    GeneratorSet,
    Monomial,
    derivative_dimensions,
    evaluate_monomial,
    index_leq,
    is_decreasing,
    min_distance,
    minimal_generators,
    monomial_from_index,
    monomial_leq,
    partial_derivative,
    symmetry,
    upward_closure,
)

T2 = np.array([[1, 0], [1, 1]], dtype=np.uint8)


def kron_transform(n):
    return reduce(np.kron, [T2] * n) if n else np.array([[1]], dtype=np.uint8)


def leq_by_divisors(m1: Monomial, m2: Monomial) -> bool:
    # Literal form of the order definition: equal degrees compare sorted
    # index tuples entry-wise, otherwise some divisor of m2 must dominate m1.
    v1, v2 = m1.variables, m2.variables
    if len(v1) == len(v2):
        return all(a <= b for a, b in zip(v1, v2))
    if len(v1) > len(v2):
        return False
    return any(
        all(a <= b for a, b in zip(v1, sub))
        for sub in itertools.combinations(v2, len(v1))
    )


def closure_genset(i_min, n):
    return GeneratorSet.from_indices(upward_closure(i_min, n), n)


def rm_genset(r, n):
    masks = [m for m in range(1 << n) if m.bit_count() <= r]
    return GeneratorSet(n, frozenset(masks))


def enumerate_codewords(g: GeneratorSet):
    rows = [evaluate_monomial(m) for m in g.members()]
    k = len(rows)
    for sel in itertools.product((0, 1), repeat=k):
        cw = np.zeros(1 << g.n, dtype=np.uint8)
        for bit, row in zip(sel, rows):
            if bit:
                cw ^= row
        yield cw


class TestMonomialIndexBijection:
    def test_all_ones_index_is_constant(self):
        for n in range(1, 6):
            m = monomial_from_index((1 << n) - 1, n)
            assert m.degree == 0 and m.mask == 0

    def test_zero_index_is_full_product(self):
        for n in range(1, 6):
            m = monomial_from_index(0, n)
            assert m.degree == n

    def test_index_27_n7(self):
        m = monomial_from_index(27, 7)
        assert m.variables == (2, 5, 6)
        assert m.degree == 3

    def test_round_trip(self):
        for n in range(1, 7):
            for l in range(1 << n):
                assert monomial_from_index(l, n).index == l

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            monomial_from_index(8, 3)
        with pytest.raises(ValueError):
            monomial_from_index(-1, 3)


class TestEvaluation:
    def test_constant(self):
        m = Monomial(0, 2)
        assert evaluate_monomial(m).tolist() == [1, 1, 1, 1]

    def test_full_product(self):
        m = Monomial(0b11, 2)
        assert evaluate_monomial(m).tolist() == [1, 0, 0, 0]

    def test_single_variable_row(self):
        m = monomial_from_index(1, 2)
        assert evaluate_monomial(m).tolist() == [1, 1, 0, 0]

    def test_rows_of_kronecker_power(self):
        for n in range(1, 7):
            t = kron_transform(n)
            for l in range(1 << n):
                row = evaluate_monomial(monomial_from_index(l, n))
                assert np.array_equal(row, t[l]), (n, l)

    def test_weight_law(self):
        rng = np.random.default_rng(7)
        for n in range(1, 9):
            for mask in rng.integers(0, 1 << n, size=32):
                m = Monomial(int(mask), n)
                assert int(evaluate_monomial(m).sum()) == 1 << (n - m.degree)


class TestPartialOrder:
    def test_small_comparable_pairs(self):
        assert monomial_leq(Monomial(0b01, 2), Monomial(0b10, 2))
        assert monomial_leq(Monomial(0b10, 2), Monomial(0b11, 2))
        assert not monomial_leq(Monomial(0b100, 3), Monomial(0b011, 3))

    def test_matches_divisor_definition(self):
        for n in range(1, 6):
            for a in range(1 << n):
                for b in range(1 << n):
                    m1, m2 = Monomial(a, n), Monomial(b, n)
                    assert monomial_leq(m1, m2) == leq_by_divisors(m1, m2), (n, a, b)

    def test_mismatched_n(self):
        with pytest.raises(ValueError):
            monomial_leq(Monomial(0, 2), Monomial(0, 3))

    def test_index_order_reverses_monomial_order(self):
        for n in range(1, 6):
            for i in range(1 << n):
                for j in range(1 << n):
                    expect = monomial_leq(
                        monomial_from_index(i, n), monomial_from_index(j, n)
                    )
                    assert index_leq(j, i, n) == expect

    def test_index_extremes(self):
        for n in range(1, 5):
            top = (1 << n) - 1
            for k in range(1 << n):
                assert index_leq(0, k, n)
                assert index_leq(top, k, n) == (k == top)

    def test_poset_axioms(self):
        for n in range(1, 6):
            N = 1 << n
            rel = [[index_leq(j, i, n) for i in range(N)] for j in range(N)]
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
                g = closure_genset(x, n)
                assert is_decreasing(g)

    def test_non_decreasing_detected(self):
        g = GeneratorSet(2, frozenset({0b10}))   # v1 alone, missing v0
        assert not is_decreasing(g)

    def test_rm_codes_decreasing(self):
        for n in range(2, 7):
            for r in range(n + 1):
                assert is_decreasing(rm_genset(r, n))


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
        closed = closure == s
        assert is_decreasing(GeneratorSet.from_indices(s, n)) == closed
        if closed:
            assert minimal_generators(s, n) == antichain
        else:
            with pytest.raises(ValueError, match="not closed"):
                minimal_generators(s, n)


class TestDerivativesAndSymmetry:
    def test_rm_derivative_is_lower_order_rm(self):
        import math

        for n in range(2, 7):
            for r in range(1, n):
                g = rm_genset(r, n)
                for i in range(n):
                    gi = partial_derivative(g, i)
                    expect = sum(math.comb(n - 1, d) for d in range(r))
                    assert gi.dimension == expect
                    assert gi.masks == rm_genset(r - 1, n - 1).masks

    def test_constant_only(self):
        g = GeneratorSet(3, frozenset({0}))
        for i in range(3):
            assert partial_derivative(g, i).dimension == 0

    def test_derivative_monotone_for_decreasing(self):
        rng = np.random.default_rng(5)
        for n in range(2, 9):
            for _ in range(15):
                x = set(int(v) for v in rng.integers(0, 1 << n, size=3))
                dims = derivative_dimensions(closure_genset(x, n))
                assert all(a >= b for a, b in zip(dims, dims[1:]))

    def test_rm_fully_symmetric(self):
        for n in range(2, 8):
            for r in range(n):
                assert symmetry(rm_genset(r, n)) == n

    def test_known_code_symmetries(self):
        assert symmetry(closure_genset({63, 121}, 10)) == 7
        assert symmetry(closure_genset({183, 207, 241, 391, 928}, 10)) == 3
        assert symmetry(closure_genset({19}, 6)) == 2

    def test_symmetry_rejects_non_decreasing(self):
        with pytest.raises(ValueError):
            symmetry(GeneratorSet(2, frozenset({0b10})))

    def test_index_out_of_range(self):
        with pytest.raises(ValueError):
            partial_derivative(rm_genset(1, 3), 3)


class TestMinDistance:
    def test_first_order_rm(self):
        g = rm_genset(1, 3)
        # brute force over all 16 codewords
        weights = sorted(int(c.sum()) for c in enumerate_codewords(g))
        assert min(w for w in weights if w > 0) == 4
        assert min_distance(g) == 4

    def test_repetition(self):
        for n in range(1, 6):
            g = GeneratorSet(n, frozenset({0}))
            assert min_distance(g) == 1 << n

    def test_closure_27(self):
        assert min_distance(closure_genset({27}, 7)) == 16

    def test_length32_analogue_brute_force(self):
        g = closure_genset({11}, 5)
        nonzero = [int(c.sum()) for c in enumerate_codewords(g)]
        d_brute = min(w for w in nonzero if w > 0)
        assert d_brute == min_distance(g) == 8

    def test_brute_force_every_small_decreasing_set(self):
        # exhaustive: every decreasing set with n <= 4 and dimension <= 12
        checked = 0
        for n in (2, 3, 4):
            masks = list(range(1 << n))
            for bits in range(1, 1 << (1 << n)):
                chosen = frozenset(m for m in masks if (bits >> m) & 1)
                if len(chosen) > 12:
                    continue
                g = GeneratorSet(n, chosen)
                if not is_decreasing(g):
                    continue
                d_brute = min(
                    int(c.sum()) for c in enumerate_codewords(g) if c.any()
                )
                assert d_brute == min_distance(g), sorted(chosen)
                checked += 1
        assert checked == 35   # 4 sets at n=2, 9 at n=3, 22 at n=4

    def test_rejects_non_decreasing(self):
        with pytest.raises(ValueError):
            min_distance(GeneratorSet(2, frozenset({0b10})))

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            min_distance(GeneratorSet(2, frozenset()))
