"""The array-op decoders against the per-permutation loops they replaced.

The references below score every permutation of enumerate_permutations
one at a time with pairwise_objective and additive_score, exactly as the
decoders did before they scored the whole permutation table at once.
The array decoders add the same terms in the same order, so permutations
and float values must be equal with ==, ties included. Where float
objectives round or overflow, the pair decoders are checked against an
exact Fraction ranking instead.
"""

import functools
import math
from fractions import Fraction

import numpy as np
import pytest

from storysort.assign import topk_assignments
from storysort.errors import SizeError
from storysort.pairwise import decode_pairwise, rank_permutations
from conftest import additive_score, enumerate_permutations, exact_ranking, pairwise_objective

KINDS = ("float", "ties", "zeros")
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
    the tie-heavy matrix, which exercises the tie-break most.
    """
    if n == 8:
        return 1 if kind == "ties" else 0
    if kind == "zeros":
        return 1
    return 2 if n == 7 else 5


CASES = [(n, kind) for n in range(2, 9) for kind in KINDS if matrix_count(kind, n)]


@functools.cache
def case(kind, n, index):
    """(pair matrix, additive matrix) of one kind, seeded by (n, index)."""
    rng = np.random.default_rng(1000 * n + index)
    if kind == "float":
        m = rng.standard_normal((n, n))
    elif kind == "ties":
        m = rng.integers(-1, 2, size=(n, n)).astype(np.float64)
    else:
        m = np.zeros((n, n))
    pair = m.copy()
    np.fill_diagonal(pair, 0.0)
    return pair, m


def ks(n):
    return sorted({1, min(3, math.factorial(n)), math.factorial(n)})


def as_pairs(ranked):
    """A ranker's (orders, totals) arrays for a stack of one matrix as a list of
    (positions tuple, total)."""
    (orders,), (totals,) = ranked
    return list(zip(map(tuple, orders.tolist()), totals.tolist()))


@pytest.mark.parametrize("n,kind", CASES)
def test_pair_decoders_equal_reference(kind, n):
    matrices = [case(kind, n, index)[0] for index in range(matrix_count(kind, n))]
    argmaxes = []
    for s in matrices:
        scored = reference_scores(s, pairwise_objective)
        expected = reference_ranking(scored)
        argmaxes.append(reference_argmax(scored))
        assert as_pairs(rank_permutations(s[None], math.factorial(n))) == expected
        for k in ks(n):
            assert as_pairs(rank_permutations(s[None], k)) == expected[:k]
    assert list(map(tuple, decode_pairwise(np.stack(matrices)).tolist())) == argmaxes


@pytest.mark.parametrize("n,kind", CASES)
def test_topk_assignments_equal_reference(kind, n):
    for index in range(matrix_count(kind, n)):
        _, s = case(kind, n, index)
        scored = reference_scores(s, additive_score)
        expected = reference_ranking(scored)
        assert tuple(topk_assignments(s[None], 1)[0][0, 0].tolist()) == reference_argmax(scored)
        for k in ks(n):
            assert as_pairs(topk_assignments(s[None], k)) == expected[:k]


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
    with np.errstate(over="ignore", invalid="ignore"):
        for s, oracle in zip(stack, oracles):
            for k in (1, 3):
                (orders,), (totals,) = rank_permutations(s[None], k)
                assert list(map(tuple, orders.tolist())) == oracle[:k]
                assert np.array_equal(totals, [pairwise_objective(s, p) for p in orders],
                                      equal_nan=True)
