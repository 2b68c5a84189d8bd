import math
import time
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from storysort import assign
from storysort.assign import (
    _lockstep_min,
    check_score_matrix,
    hungarian_max,
    topk_assignments,
)
from storysort.core import exact_ints
from storysort.ensemble import accumulate_votes
from storysort.errors import EnumerationCapError, SizeError, ValidationError
from conftest import (
    additive_score, enumerate_permutations, exact_ranking, identity, tie_keyed_max,
)


def brute_force_max(s):
    """Independent oracle: scan all permutations for the best additive score."""
    best_perm, best_score = None, None
    for p in enumerate_permutations(s.shape[0]):
        score = additive_score(s, p)
        if best_score is None or score > best_score:
            best_perm, best_score = p, score
    return best_perm, best_score


def exact_optima(s):
    """Exact oracle: every positions tuple of maximal Fraction total, lexicographic.

    Visits every positions tuple in lexicographic order, sharing each
    prefix's partial sum.
    """
    n = s.shape[0]
    exact = [[Fraction(float(x)) for x in row] for row in s]
    best, optima = None, []

    def extend(positions, total):
        nonlocal best, optima
        i = len(positions)
        if i == n:
            if best is None or total > best:
                best, optima = total, [positions]
            elif total == best:
                optima.append(positions)
            return
        for p in range(n):
            if p not in positions:
                extend(positions + (p,), total + exact[i][p])

    extend((), Fraction(0))
    return optima


def exact_brute_force_max(s):
    """Exact oracle: the lexicographically first order of maximal Fraction total."""
    return exact_optima(s)[0]


def exact_table_max(s):
    """Exact oracle for n up to 8: the first lexicographic order of maximal total, with the
    entries scaled to Python ints over their common denominator."""
    n = s.shape[0]
    exact = [[Fraction(float(x)) for x in row] for row in s]
    denom = math.lcm(*(x.denominator for row in exact for x in row))
    ints = np.array([[x.numerator * (denom // x.denominator) for x in row] for row in exact],
                    dtype=object)
    table = np.array(list(enumerate_permutations(n)))
    totals = ints[np.arange(n), table].sum(axis=1)
    return tuple(table[max(range(len(table)), key=totals.__getitem__)].tolist())


def hungarian_one(s):
    """hungarian_max on a stack of one matrix: its (n,) order."""
    (perm,) = hungarian_max(np.asarray(s)[None])
    return perm


@pytest.fixture
def exact_solves(monkeypatch):
    """A list that grows by one each time hungarian_max falls back to its exact solve,
    which starts from core.exact_ints."""
    calls = []

    def counting(a):
        calls.append(a)
        return exact_ints(a)

    monkeypatch.setattr(assign, "exact_ints", counting)
    return calls


@pytest.fixture
def verdicts(monkeypatch):
    """A list of the (S,) bool arrays that _certified returns, one per call: False marks a
    matrix the certificate rejects, which the exact solve then decides."""
    calls = []
    certified = assign._certified

    def recording(*args):
        calls.append(certified(*args))
        return calls[-1]

    monkeypatch.setattr(assign, "_certified", recording)
    return calls


def reject_all(monkeypatch):
    """Make the certificate reject every matrix, so the exact solve decides each one."""
    monkeypatch.setattr(assign, "_certified",
                        lambda c, positions, u, v: np.zeros(len(c), dtype=bool))


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
            hungarian_max(np.zeros((1, 2, 3)))

    def test_one_matrix_is_not_a_stack(self):
        with pytest.raises(ValidationError):
            hungarian_max(np.eye(3))

    def test_non_finite(self):
        m = np.zeros((2, 3, 3))
        m[1, 0, 0] = np.nan
        with pytest.raises(ValidationError):
            hungarian_max(m)

    def test_size_bounds(self):
        with pytest.raises(SizeError):
            hungarian_max(np.zeros((1, 1, 1)))
        with pytest.raises(SizeError):
            hungarian_max(np.zeros((1, 17, 17)))

    def test_empty_stack(self):
        orders = hungarian_max(np.zeros((0, 4, 4)))
        assert orders.shape == (0, 4)

    def test_check_returns_float64(self):
        a = check_score_matrix([[[0, 1], [1, 0]]])
        assert a.dtype == np.float64


class TestHungarianMax:
    def test_identity_matrix(self):
        perm = hungarian_one(np.eye(5))
        assert perm.tolist() == [0, 1, 2, 3, 4]
        assert additive_score(np.eye(5), perm) == 5.0

    def test_forced_swap_2x2(self):
        s = np.array([[0.0, 1.0], [1.0, 0.0]])
        perm = hungarian_one(s)
        assert perm.tolist() == [1, 0]
        assert additive_score(s, perm) == 2.0

    def test_matches_enumeration_on_200_random_matrices(self):
        rng = np.random.default_rng(42)
        for _ in range(200):
            s = rng.uniform(-1.0, 1.0, size=(5, 5))
            perm = hungarian_one(s)
            oracle_perm, oracle_score = brute_force_max(s)
            assert additive_score(s, perm) == oracle_score
            assert tuple(perm.tolist()) == oracle_perm

    def test_lexicographic_tie_break_vs_oracle(self):
        # small-integer matrices force tied optima; first-in-lex-order wins
        rng = np.random.default_rng(7)
        for _ in range(150):
            n = int(rng.integers(2, 7))
            s = rng.integers(0, 3, size=(n, n)).astype(np.float64)
            perm = hungarian_one(s)
            oracle_perm, oracle_score = brute_force_max(s)
            assert additive_score(s, perm) == oracle_score
            assert tuple(perm.tolist()) == oracle_perm

    @pytest.mark.parametrize("n", range(2, 9))
    @pytest.mark.parametrize("kind", sorted(TIE_KINDS))
    def test_lexicographic_tie_break_vs_exact_oracle(self, kind, n, exact_solves):
        # a tied optimum, or the extreme kind's overflowing scale (+-1e308), must reach
        # the exact solve
        rng = np.random.default_rng(100 * n + sorted(TIE_KINDS).index(kind))
        for _ in range(1 if n == 8 else 5):
            s = rng.choice(TIE_KINDS[kind], size=(n, n))
            solves = len(exact_solves)
            perm = hungarian_one(s)
            optima = exact_optima(s)
            assert tuple(perm.tolist()) == optima[0]
            if len(optima) > 1 or kind == "extreme":
                assert len(exact_solves) == solves + 1

    def test_all_equal_matrix_gives_identity(self, exact_solves):
        # every order ties, -0.0 entries included, so the exact solve decides each matrix
        orders = hungarian_max(np.stack([np.full((5, 5), 0.2), np.full((5, 5), -0.0)]))
        assert orders.tolist() == [[0, 1, 2, 3, 4]] * 2
        assert len(exact_solves) == 2

    def test_row_shift_leaves_argmax(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            s = rng.uniform(-1.0, 1.0, size=(5, 5))
            base = hungarian_one(s)
            shifted = s.copy()
            shifted[2, :] += 3.7
            after = hungarian_one(shifted)
            assert base.tolist() == after.tolist()

    def test_supports_n16(self):
        rng = np.random.default_rng(3)
        s = rng.uniform(0.0, 1.0, size=(16, 16))
        perm = hungarian_one(s)
        assert perm.shape == (16,) and perm.dtype == np.intp
        assert sorted(perm.tolist()) == list(range(16))


def dominant_softmax(n, seed):
    """A row-softmax matrix whose logits favour one random permutation, as a trained
    unary model's position probabilities do."""
    rng = np.random.default_rng(seed)
    logits = 3.0 * rng.standard_normal((n, n))
    logits[np.arange(n), rng.permutation(n)] += 4.0
    p = np.exp(logits)
    return p / p.sum(axis=1, keepdims=True)


def near_tie(n, seed, delta):
    """(s, sigma, tau): s scores 1 on the entries of sigma and of tau, sigma with two
    elements swapped, and -1 to -3 elsewhere, and delta is added to one entry of tau only.
    So tau wins by delta when it is positive, sigma by -delta when it is negative."""
    rng = np.random.default_rng(seed)
    s = -rng.integers(1, 4, size=(n, n)).astype(np.float64)
    sigma = rng.permutation(n)
    i, j = rng.choice(n, size=2, replace=False)
    tau = sigma.copy()
    tau[[i, j]] = sigma[[j, i]]
    rows = np.arange(n)
    s[rows, sigma] = 1.0
    s[rows, tau] = 1.0
    s[i, tau[i]] += delta
    return s, tuple(sigma.tolist()), tuple(tau.tolist())


class TestFloatSolveCertificate:
    """hungarian_max answers from a float solve only where its potentials prove that answer
    the unique exact optimum; exact_solves counts the fallbacks to the exact solve."""

    def test_learned_scores_need_no_exact_solve(self, exact_solves, monkeypatch):
        stack = np.stack([dominant_softmax(16, seed) for seed in range(50)])
        orders = hungarian_max(stack)
        assert exact_solves == []
        reject_all(monkeypatch)
        assert np.array_equal(orders, hungarian_max(stack))
        assert len(exact_solves) == 50

    @pytest.mark.parametrize("n", [*range(2, 9), 16])
    def test_degenerate_duals_are_certified_by_the_cycle_check(self, n, exact_solves):
        # element i scores 1 at positions p >= i, so only the identity scores n; the float
        # duals leave off-identity entries with zero reduced cost, which form a path
        s = np.triu(np.ones((n, n)))
        (positions,), (u,), (v,) = _lockstep_min(-s[None])
        assert positions.tolist() == list(range(n))
        assert any(-s[i, p] - u[i] - v[p] == 0 for i in range(n) for p in range(n) if p != i)
        perm = hungarian_one(s)
        assert perm.tolist() == positions.tolist() and additive_score(s, perm) == n
        assert exact_solves == []
        if n <= 8:
            assert tuple(perm.tolist()) == exact_brute_force_max(s)

    @pytest.mark.parametrize("n", range(2, 9))
    @pytest.mark.parametrize("gap", ["round_up", "round_down", "ulp_up", "ulp_down"])
    def test_near_ties_match_the_exact_oracle(self, gap, n):
        # round_*: the two float totals round equal while the exact ones differ; ulp_*: the
        # float totals are exact and differ by about one unit in the last place
        delta = {"round_up": np.spacing(1.0), "round_down": -np.spacing(1.0) / 2,
                 "ulp_up": np.spacing(float(n)), "ulp_down": -np.spacing(float(n))}[gap]
        for seed in range(1 if n == 8 else 3):
            s, sigma, tau = near_tie(n, 10 * n + seed, delta)
            rounds_equal = additive_score(s, sigma) == additive_score(s, tau)
            assert rounds_equal == gap.startswith("round")
            perm = hungarian_one(s)
            winner = tau if delta > 0 else sigma
            assert tuple(perm.tolist()) == exact_brute_force_max(s) == winner

    def test_planted_ties_among_rounded_entries_match_the_exact_oracle(self):
        # sigma and tau tie exactly but for a few units in the last place of one entry, and
        # the entries are not short binary fractions, so float reduced costs round near zero
        rng = np.random.default_rng(31)
        for _ in range(1000):
            n = int(rng.integers(2, 6))
            s = rng.uniform(-1.0, 1.0, (n, n)) * 10.0 ** rng.integers(-2, 3)
            sigma = rng.permutation(n)
            i, j = rng.choice(n, size=2, replace=False)
            tau = sigma.copy()
            tau[[i, j]] = sigma[[j, i]]
            rows = np.arange(n)
            others = sum(Fraction(s[k, tau[k]]) for k in rows if k != i)
            tie = float(sum(Fraction(s[k, sigma[k]]) for k in rows) - others)
            s[i, tau[i]] = tie + int(rng.integers(-3, 4)) * np.spacing(tie)
            off = np.ones((n, n), dtype=bool)
            off[rows, sigma] = off[rows, tau] = False
            s[off] -= 50 * np.abs(s).max() + 1  # only sigma and tau can be optimal
            perm = hungarian_one(s)
            assert tuple(perm.tolist()) == exact_brute_force_max(s)


def mixed_stack(n, count, seed):
    """(stack, kinds): count matrices of size n, in shuffled turns (from a seeded first
    kind) of int012, tenths and extreme tie-heavy matrices and dominant_softmax ones, with
    every extreme matrix at overflow scale, and the kind of each."""
    rng = np.random.default_rng(seed)
    kinds = [*sorted(TIE_KINDS), "softmax"]
    first = rng.integers(len(kinds))
    kinds = rng.permutation([kinds[(first + k) % len(kinds)] for k in range(count)])
    stack = np.empty((count, n, n))
    for k, kind in enumerate(kinds):
        if kind == "softmax":
            stack[k] = dominant_softmax(n, int(rng.integers(2**31)))
        else:
            stack[k] = rng.choice(TIE_KINDS[kind], size=(n, n))
            if kind == "extreme":
                stack[k, rng.integers(n), rng.integers(n)] = 1e308
    return stack, kinds


def vote_stack(n, count, seed):
    """(stack, kinds): count integer vote matrices of size n, as ensemble.decode_votes gets
    them, each tallied by ensemble.accumulate_votes from 6 candidate rows (two members' top-3
    lists) drawn with repeats from 2 to 4 random orders, so that totals often tie; and
    "votes" as the kind of each."""
    rng = np.random.default_rng(seed)
    pools = [np.array([rng.permutation(n) for _ in range(rng.integers(2, 5))])
             for _ in range(count)]
    candidates = np.stack([pool[rng.integers(len(pool), size=6)] for pool in pools])
    return accumulate_votes(candidates), np.array(["votes"] * count)


# stacks of one, as the per-story ensemble sends, and of a few and of many matrices, as
# chunked unary decodes send: every size takes the one float solve
STACKS = [(mixed_stack, 1), (mixed_stack, 5), (mixed_stack, 22), (vote_stack, 1),
          (vote_stack, 22)]


class TestStacks:
    """A stack's rows are decoded as each matrix alone would be, whatever the stack's size,
    and the exact solve runs on exactly the rows that the certificate rejects."""

    @pytest.mark.parametrize("make,size", STACKS,
                             ids=[f"{make.__name__}-{size}" for make, size in STACKS])
    @pytest.mark.parametrize("n", [*range(2, 9), 16])
    def test_rows_match_the_exact_oracle(self, n, make, size, exact_solves, verdicts):
        stack, kinds = make(n, size, seed=100 * n + size)
        orders = hungarian_max(stack)
        assert orders.shape == (len(stack), n) and orders.dtype == np.intp
        (certified,) = verdicts
        assert len(exact_solves) == np.count_nonzero(~certified)
        assert not certified[kinds == "extreme"].any() and certified[kinds == "softmax"].all()
        expected = [(exact_table_max if n <= 8 else tie_keyed_max)(s) for s in stack]
        assert list(map(tuple, orders.tolist())) == expected

    @pytest.mark.parametrize("size", [1, 5, 22])
    @pytest.mark.parametrize("n", [5, 16])
    def test_overflow_scale_rows_raise_no_warning(self, n, size):
        stack, _ = mixed_stack(n, size, seed=n)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            orders = hungarian_max(stack)
            alone = [hungarian_one(s) for s in stack]
        assert np.array_equal(orders, alone)


def warm_start_stack(n, count, seed):
    """count matrices of size n, in shuffled turns (from a seeded first kind) of uniform
    floats, int012 and tenths matrices, dominant_softmax ones, and the two extremes of the
    lockstep solve's column reduction: "assigned" matrices, where each row holds the maximum
    of one column, so every row is assigned before any search, and "one_holder" ones, where
    one row holds the maximum of every column, so n - 1 rows search."""
    rng = np.random.default_rng(seed)
    kinds = ["float", "int012", "tenths", "softmax", "assigned", "one_holder"]
    first = rng.integers(len(kinds))
    stack = np.empty((count, n, n))
    for k, kind in enumerate(rng.permutation([kinds[(first + k) % len(kinds)]
                                              for k in range(count)])):
        if kind == "float":
            stack[k] = rng.uniform(-1.0, 1.0, (n, n))
        elif kind in TIE_KINDS:
            stack[k] = rng.choice(TIE_KINDS[kind], size=(n, n))
        elif kind == "softmax":
            stack[k] = dominant_softmax(n, int(rng.integers(2**31)))
        else:
            stack[k] = rng.uniform(-1.0, 0.0, (n, n))
            if kind == "assigned":
                stack[k, np.arange(n), rng.permutation(n)] = 1.0
            else:
                stack[k, rng.integers(n)] = 1.0
    return stack


class TestLockstepInvariants:
    """On a stack of one matrix and on a stack of many, the lockstep float solve's potentials
    are dual feasible and tight on the order it returns, up to rounding, whichever rows its
    column reduction leaves to search, and hungarian_max's orders are the exact oracle's."""

    @pytest.mark.parametrize("size", [1, 24])
    @pytest.mark.parametrize("n", range(2, 17))
    def test_potentials_are_feasible_and_tight(self, n, size):
        stack = warm_start_stack(n, size, seed=100 * n + size)
        c = -stack
        positions, u, v = _lockstep_min(c)
        assert positions.shape == (len(c), n)
        assert (np.sort(positions, axis=1) == np.arange(n)).all()
        r = c - (u[:, :, None] + v[:, None, :])
        # the rounding allowance of _certified
        tol = 4 * assign.EPS * (np.abs(c).max(axis=(1, 2)) + np.abs(u).max(axis=1)
                                + np.abs(v).max(axis=1))
        assert (r >= -tol[:, None, None]).all()
        assert (np.abs(np.take_along_axis(r, positions[:, :, None], axis=2)[..., 0])
                <= tol[:, None]).all()
        orders = hungarian_max(stack)
        expected = [(exact_table_max if n <= 8 else tie_keyed_max)(s) for s in stack]
        assert list(map(tuple, orders.tolist())) == expected


class TestTopK:
    def test_identity_k1(self):
        (orders,) = topk_assignments(np.eye(3)[None], 1)
        assert orders.tolist() == [[0, 1, 2]]
        assert [additive_score(np.eye(3), p) for p in orders] == [3.0]

    def test_k_equals_factorial_exhaustive_sorted(self):
        rng = np.random.default_rng(0)
        s = rng.uniform(size=(3, 3))
        (orders,) = topk_assignments(s[None], 6)
        assert orders.shape == (6, 3)
        scores = [additive_score(s, p) for p in orders]
        assert scores == sorted(scores, reverse=True)
        assert set(map(tuple, orders.tolist())) == set(enumerate_permutations(3))

    def test_first_entry_matches_hungarian(self):
        rng = np.random.default_rng(9)
        for _ in range(50):
            s = rng.uniform(-1.0, 1.0, size=(5, 5))
            (orders,) = topk_assignments(s[None], 3)
            assert orders[0].tolist() == hungarian_one(s).tolist()

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
            (orders,) = topk_assignments(s[None], 5)
            assert list(map(tuple, orders.tolist())) == oracle[:5]
            assert orders[0].tolist() == hungarian_one(s).tolist()

    def test_k_too_large(self):
        with pytest.raises(SizeError):
            topk_assignments(np.eye(3)[None], 7)

    def test_k_too_small(self):
        with pytest.raises(SizeError):
            topk_assignments(np.eye(3)[None], 0)

    def test_enumeration_cap(self):
        with pytest.raises(EnumerationCapError):
            topk_assignments(np.eye(9)[None], 1)


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
        perm = hungarian_one(s)
        _, oracle = brute_force_max(s)
        assert additive_score(s, perm) == oracle
    assert time.monotonic() - start < 1.0
