"""The array-op decoders against the per-permutation loops they replaced.

The references below score every permutation of enumerate_permutations
one at a time with pairwise_objective and additive_score, exactly as the
decoders did before they scored the whole permutation table at once.
The array decoders add the same terms in the same order, so permutations
and float values must be equal with ==, ties included.
"""

import functools
import math

import numpy as np
import pytest

from storysort.assign import additive_score, topk_assignments
from storysort.errors import SizeError
from storysort.pairwise import decode_pairwise, pairwise_objective, rank_permutations
from conftest import enumerate_permutations

KINDS = ("float", "ties", "zeros")


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
    ranked = sorted(scored, key=lambda t: (-t[1], t[0].positions))
    return [(p.positions, val) for p, val in ranked]


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
    return [(p.positions, val) for p, val in ranked]


@pytest.mark.parametrize("n,kind", CASES)
def test_pair_decoders_equal_reference(kind, n):
    matrices = [case(kind, n, index)[0] for index in range(matrix_count(kind, n))]
    argmaxes = []
    for s in matrices:
        scored = reference_scores(s, pairwise_objective)
        expected = reference_ranking(scored)
        argmaxes.append(reference_argmax(scored))
        assert as_pairs(rank_permutations(s)) == expected
        for k in ks(n):
            assert as_pairs(rank_permutations(s, k)) == expected[:k]
    assert decode_pairwise(np.stack(matrices)) == argmaxes


@pytest.mark.parametrize("n,kind", CASES)
def test_topk_assignments_equal_reference(kind, n):
    for index in range(matrix_count(kind, n)):
        _, s = case(kind, n, index)
        scored = reference_scores(s, lambda a, p: additive_score(a, p.positions))
        expected = reference_ranking(scored)
        assert topk_assignments(s, 1)[0][0] == reference_argmax(scored)
        for k in ks(n):
            assert as_pairs(topk_assignments(s, k)) == expected[:k]


@pytest.mark.parametrize("k", [0, 7])
def test_rank_permutations_k_out_of_range(k):
    with pytest.raises(SizeError):
        rank_permutations(np.zeros((3, 3)), k)
