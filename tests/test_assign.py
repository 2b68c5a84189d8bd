import math
import time
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from storysort.assign import (
    additive_score,
    check_score_matrix,
    hungarian_max,
    topk_assignments,
)
from storysort.errors import EnumerationCapError, SizeError, ValidationError
from conftest import enumerate_permutations, exact_ranking, identity


def brute_force_max(s):
    """Independent oracle: scan all permutations for the best additive score."""
    best_perm, best_score = None, None
    for p in enumerate_permutations(s.shape[0]):
        score = additive_score(s, p)
        if best_score is None or score > best_score:
            best_perm, best_score = p, score
    return best_perm, best_score


def exact_brute_force_max(s):
    """Exact oracle: Fraction totals, lexicographically first maximum.

    Visits every positions tuple in lexicographic order, sharing each
    prefix's partial sum, and keeps the first strict maximum.
    """
    n = s.shape[0]
    exact = [[Fraction(float(x)) for x in row] for row in s]
    best = None

    def extend(positions, total):
        nonlocal best
        i = len(positions)
        if i == n:
            if best is None or total > best[0]:
                best = (total, positions)
            return
        for p in range(n):
            if p not in positions:
                extend(positions + (p,), total + exact[i][p])

    extend((), Fraction(0))
    return best[1]


# Tie-heavy kinds: small integers (float sums exact), non-dyadic tenths (float
# sums round, so float equality misses true ties) and an extreme range (float
# totals overflow or lose the subnormal entirely).
TIE_KINDS = {
    "int012": [0.0, 1.0, 2.0],
    "tenths": [0.1, 0.2, 0.3],
    "extreme": [5e-324, 0.1, 1e308, -1e308],
}


class TestValidation:
    def test_non_square(self):
        with pytest.raises(ValidationError):
            hungarian_max(np.zeros((2, 3)))

    def test_non_finite(self):
        m = np.zeros((3, 3))
        m[0, 0] = np.nan
        with pytest.raises(ValidationError):
            hungarian_max(m)

    def test_size_bounds(self):
        with pytest.raises(SizeError):
            hungarian_max(np.zeros((1, 1)))
        with pytest.raises(SizeError):
            hungarian_max(np.zeros((17, 17)))

    def test_check_returns_float64(self):
        a = check_score_matrix([[0, 1], [1, 0]])
        assert a.dtype == np.float64


class TestHungarianMax:
    def test_identity_matrix(self):
        perm, score = hungarian_max(np.eye(5))
        assert perm.tolist() == [0, 1, 2, 3, 4]
        assert score == 5.0

    def test_forced_swap_2x2(self):
        perm, score = hungarian_max(np.array([[0.0, 1.0], [1.0, 0.0]]))
        assert perm.tolist() == [1, 0]
        assert score == 2.0

    def test_matches_enumeration_on_200_random_matrices(self):
        rng = np.random.default_rng(42)
        for _ in range(200):
            s = rng.uniform(-1.0, 1.0, size=(5, 5))
            perm, score = hungarian_max(s)
            oracle_perm, oracle_score = brute_force_max(s)
            assert score == oracle_score
            assert tuple(perm.tolist()) == oracle_perm

    def test_lexicographic_tie_break_vs_oracle(self):
        # small-integer matrices force tied optima; first-in-lex-order wins
        rng = np.random.default_rng(7)
        for _ in range(150):
            n = int(rng.integers(2, 7))
            s = rng.integers(0, 3, size=(n, n)).astype(np.float64)
            perm, score = hungarian_max(s)
            oracle_perm, oracle_score = brute_force_max(s)
            assert score == oracle_score
            assert tuple(perm.tolist()) == oracle_perm

    @pytest.mark.parametrize("n", range(2, 9))
    @pytest.mark.parametrize("kind", sorted(TIE_KINDS))
    def test_lexicographic_tie_break_vs_exact_oracle(self, kind, n):
        rng = np.random.default_rng(100 * n + sorted(TIE_KINDS).index(kind))
        for _ in range(1 if n == 8 else 5):
            s = rng.choice(TIE_KINDS[kind], size=(n, n))
            perm, score = hungarian_max(s)
            assert tuple(perm.tolist()) == exact_brute_force_max(s)
            if kind != "extreme":  # the extreme kind's float total overflows
                assert score == additive_score(s, perm)

    def test_all_equal_matrix_gives_identity(self):
        perm, _ = hungarian_max(np.full((5, 5), 0.2))
        assert perm.tolist() == [0, 1, 2, 3, 4]

    def test_row_shift_leaves_argmax(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            s = rng.uniform(-1.0, 1.0, size=(5, 5))
            base, _ = hungarian_max(s)
            shifted = s.copy()
            shifted[2, :] += 3.7
            after, _ = hungarian_max(shifted)
            assert base.tolist() == after.tolist()

    def test_supports_n16(self):
        rng = np.random.default_rng(3)
        s = rng.uniform(0.0, 1.0, size=(16, 16))
        perm, score = hungarian_max(s)
        assert perm.shape == (16,) and perm.dtype == np.intp
        # score must match the greedy re-sum of the returned assignment
        assert score == additive_score(s, perm)


class TestTopK:
    def test_identity_k1(self):
        orders, totals = topk_assignments(np.eye(3), 1)
        assert orders.tolist() == [[0, 1, 2]]
        assert totals.tolist() == [3.0]

    def test_k_equals_factorial_exhaustive_sorted(self):
        rng = np.random.default_rng(0)
        s = rng.uniform(size=(3, 3))
        orders, totals = topk_assignments(s, 6)
        assert orders.shape == (6, 3) and totals.shape == (6,)
        scores = totals.tolist()
        assert scores == sorted(scores, reverse=True)
        assert set(map(tuple, orders.tolist())) == set(enumerate_permutations(3))

    def test_first_entry_matches_hungarian(self):
        rng = np.random.default_rng(9)
        for _ in range(50):
            s = rng.uniform(-1.0, 1.0, size=(5, 5))
            orders, totals = topk_assignments(s, 3)
            h_perm, h_score = hungarian_max(s)
            assert orders[0].tolist() == h_perm.tolist()
            assert totals[0] == h_score

    def test_tenths_rank_by_exact_totals(self):
        # float totals of tenths round, so float ranking alone misorders near
        # ties; the list must rank by exact totals, ties lexicographic, and so
        # start with hungarian_max's permutation
        rng = np.random.default_rng(418)
        for _ in range(150):
            n = int(rng.integers(3, 7))
            s = rng.choice([0.0, 0.1, 0.2, 0.3], size=(n, n))
            exact = [[Fraction(float(x)) for x in row] for row in s]
            oracle = exact_ranking(n, lambda pos: sum(exact[i][p] for i, p in enumerate(pos)))
            orders, totals = topk_assignments(s, 5)
            assert list(map(tuple, orders.tolist())) == oracle[:5]
            assert all(total == additive_score(s, p) for p, total in zip(orders, totals))
            assert orders[0].tolist() == hungarian_max(s)[0].tolist()

    def test_k_too_large(self):
        with pytest.raises(SizeError):
            topk_assignments(np.eye(3), 7)

    def test_k_too_small(self):
        with pytest.raises(SizeError):
            topk_assignments(np.eye(3), 0)

    def test_enumeration_cap(self):
        with pytest.raises(EnumerationCapError):
            topk_assignments(np.eye(9), 1)


class TestAdditiveScore:
    @given(st.integers(min_value=2, max_value=6))
    @settings(max_examples=20)
    def test_index_order_accumulation_matches_python_sum(self, n):
        rng = np.random.default_rng(n)
        s = rng.uniform(size=(n, n))
        perm = identity(n)
        assert additive_score(s, perm) == sum(
            (float(s[i, i]) for i in range(n)), 0.0
        )


def test_500_matrix_oracle_equivalence_under_one_second():
    rng = np.random.default_rng(2024)
    start = time.monotonic()
    for _ in range(500):
        s = rng.uniform(-1.0, 1.0, size=(5, 5))
        _, score = hungarian_max(s)
        _, oracle = brute_force_max(s)
        assert score == oracle
    assert time.monotonic() - start < 1.0
