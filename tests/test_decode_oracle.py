"""The array-op decoders against the per-permutation loops they replaced.

The references below score every permutation of enumerate_permutations
one at a time with pairwise_objective and additive_score, exactly as the
decoders did before they scored the whole permutation table at once, and
rank them by that float score, ties lexicographic. On these matrices the
float scores rank as the exact totals do, so the decoders' orders must
equal the references', ties included. Where float objectives round or
overflow, the pair decoders are checked against an exact Fraction ranking
instead.
"""

import functools
import math
from fractions import Fraction

import numpy as np
import pytest

from storysort import core
from storysort.assign import topk_assignments
from storysort.errors import SizeError
from storysort.pairwise import decode_pairwise, rank_permutations
from conftest import additive_score, enumerate_permutations, exact_ranking, pairwise_objective

KINDS = ("float", "ties", "zeros", "certified")
TENTHS = (0.0, 0.1, 0.2, 0.3)
HUGE = (-1.7e308, -1e308, 1e308, 1.7e308)  # the difference of two entries can overflow


def reference_scores(s, score):
    """(permutation, score) for every permutation, in lexicographic order."""
    return [(p, score(s, p)) for p in enumerate_permutations(s.shape[0])]


def reference_argmax(scored):
    """The first permutation with the highest score, as the decode loop kept it."""
    best_perm, best_val = None, -np.inf
    for p, val in scored:
        if val > best_val:
            best_perm, best_val = p, val
    return best_perm


def reference_ranking(scored):
    """Every (positions, score), descending, ties lexicographic."""
    return sorted(scored, key=lambda t: (-t[1], t[0]))


def matrix_count(kind, n):
    """How many matrices one (kind, n) case checks.

    A reference pass over the 8! orders takes seconds, so n = 8 checks only
    the tie-heavy matrix, which exercises the tie-break most, and one
    certified matrix.
    """
    if n == 8:
        return 1 if kind in ("ties", "certified") else 0
    if kind == "zeros":
        return 1
    return 2 if n == 7 else 5


CASES = [(n, kind) for n in range(2, 9) for kind in KINDS if matrix_count(kind, n)]


@functools.cache
def case(kind, n, index):
    """(pair matrix, additive matrix) of one kind, seeded by (n, index).

    A certified matrix is near a potential, x_i - x_j with the x_i a permutation of
    0..n-1, plus noise far below the spacing: its pair preferences are transitive.
    """
    rng = np.random.default_rng(1000 * n + index)
    if kind == "float":
        m = rng.standard_normal((n, n))
    elif kind == "certified":
        x = rng.permutation(n)
        m = x[:, None] - x[None, :] + 0.01 * rng.standard_normal((n, n))
    elif kind == "ties":
        m = rng.integers(-1, 2, size=(n, n)).astype(np.float64)
    else:
        m = np.zeros((n, n))
    pair = m.copy()
    np.fill_diagonal(pair, 0.0)
    return pair, m


def ks(n):
    return sorted({1, min(3, math.factorial(n)), math.factorial(n)})


def as_tuples(ranked):
    """A ranker's (1, k, n) orders for a stack of one matrix as a list of positions tuples."""
    (orders,) = ranked
    return list(map(tuple, orders.tolist()))


def positions(ranking):
    """The positions tuples of a reference ranking."""
    return [p for p, _ in ranking]


@pytest.mark.parametrize("n,kind", CASES)
def test_pair_decoders_equal_reference(kind, n):
    matrices = [case(kind, n, index)[0] for index in range(matrix_count(kind, n))]
    argmaxes = []
    for s in matrices:
        scored = reference_scores(s, pairwise_objective)
        expected = positions(reference_ranking(scored))
        argmaxes.append(reference_argmax(scored))
        assert as_tuples(rank_permutations(s[None], math.factorial(n))) == expected
        for k in ks(n):
            assert as_tuples(rank_permutations(s[None], k)) == expected[:k]
    assert list(map(tuple, decode_pairwise(np.stack(matrices)).tolist())) == argmaxes


@pytest.mark.parametrize("n,kind", CASES)
def test_topk_assignments_equal_reference(kind, n):
    for index in range(matrix_count(kind, n)):
        _, s = case(kind, n, index)
        scored = reference_scores(s, additive_score)
        expected = positions(reference_ranking(scored))
        assert as_tuples(topk_assignments(s[None], 1)) == [reference_argmax(scored)]
        for k in ks(n):
            assert as_tuples(topk_assignments(s[None], k)) == expected[:k]


@pytest.mark.parametrize("k", [0, 7])
def test_rank_permutations_k_out_of_range(k):
    with pytest.raises(SizeError):
        rank_permutations(np.zeros((1, 3, 3)), k)


@pytest.mark.parametrize("entries", [TENTHS, HUGE], ids=["tenths", "overflow"])
@pytest.mark.parametrize("n", range(3, 7))
def test_pair_decoders_rank_by_exact_totals(entries, n):
    # float objectives of tenths round, and those of huge entries overflow to
    # inf or nan, so a float ranking misorders near ties; the decoders must
    # rank by exact totals, ties lexicographic
    stack = np.random.default_rng(n).choice(entries, size=(40, n, n))
    stack[:, range(n), range(n)] = 0.0
    oracles = []
    for s in stack:
        exact = [[Fraction(float(x)) for x in row] for row in s]
        oracles.append(exact_ranking(n, lambda pos: sum(
            exact[i][j] - exact[j][i] if pos[i] < pos[j] else exact[j][i] - exact[i][j]
            for i in range(n) for j in range(i + 1, n))))
    assert list(map(tuple, decode_pairwise(stack).tolist())) == [oracle[0] for oracle in oracles]
    for s, oracle in zip(stack, oracles):
        for k in (1, 3):
            assert as_tuples(rank_permutations(s[None], k)) == oracle[:k]


def float_tied_swap(n, pair):
    """A matrix whose two best orders, the identity and the swap of its last two elements,
    have equal float totals though the swap wins by an exact 2·eps; every other order is
    far below, so a ranking by float totals alone puts the identity, the lower row, first."""
    eps = np.finfo(float).eps
    if pair:
        a = np.triu(np.ones((n, n)), 1)
        a[n - 2, n - 1] = -eps
    else:
        a = np.eye(n)
        a[n - 2, n - 1] = a[n - 1, n - 2] = 1 + eps
    return a


@pytest.mark.parametrize("pair", [True, False], ids=["pair", "additive"])
@pytest.mark.parametrize("n", [4, 5])
@pytest.mark.parametrize("k", [2, 3])
def test_one_stack_of_separated_near_tied_and_tied_matrices(monkeypatch, pair, n, k):
    # rank_orders settles a matrix whose k best float totals are each more than the error
    # bound apart in one sort across the stack, and ranks only the others exactly, one at
    # a time: on a stack that mixes both kinds, each list must still be that matrix's own
    rng = np.random.default_rng(10 * n + k)
    stack = np.concatenate([
        rng.standard_normal((6, n, n)),  # separated
        rng.choice(TENTHS, size=(6, n, n)),  # float totals of tenths round: near ties
        rng.integers(-1, 2, size=(6, n, n)).astype(np.float64),  # exact ties
        np.zeros((1, n, n)),  # every order tied
        float_tied_swap(n, pair)[None],
    ])
    rng.shuffle(stack)
    if pair:
        stack[:, range(n), range(n)] = 0.0
    exact_calls, exact_ints = [], core.exact_ints
    monkeypatch.setattr(core, "exact_ints", lambda a: exact_calls.append(1) or exact_ints(a))
    ranked = core.rank_orders(stack, k, pair)
    assert 0 < len(exact_calls) < len(stack)  # both paths ran
    for s, orders in zip(stack, ranked):
        assert np.array_equal(orders, core.rank_orders(s[None], k, pair)[0])
        exact = [[Fraction(float(x)) for x in row] for row in s]
        if pair:
            oracle = exact_ranking(n, lambda pos: sum(
                exact[i][j] - exact[j][i] if pos[i] < pos[j] else exact[j][i] - exact[i][j]
                for i in range(n) for j in range(i + 1, n)))
        else:
            oracle = exact_ranking(n, lambda pos: sum(exact[i][pos[i]] for i in range(n)))
        assert list(map(tuple, orders.tolist())) == oracle[:k]
