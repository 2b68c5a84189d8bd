"""Linear assignment: exact maximum-score permutation under additive scores.

A score matrix is a square float64 array where s[i][p] is the score of
placing element i at position p. The solver is one O(n^3) shortest
augmenting path / potentials method run on exact integer costs that
carry a tie key (see hungarian_max), so ties among optimal assignments,
which are exact ties of the real totals, resolve to the smallest
positions tuple.

Additive scores are accumulated in element-index order everywhere
(solver result, top-k totals, downstream scoring), so equal
permutations produce bit-identical float totals. Orders are ranked by
their exact totals, not the rounded float ones, in both the solver and
the top-k lists, so a k-best list starts with hungarian_max's choice.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .core import MAX_N, MIN_N, Permutation, check_top_k, permutation_table
from .errors import SizeError, ValidationError

_EPS = float(np.finfo(np.float64).eps)


def check_score_matrix(s) -> np.ndarray:
    """Validate a square, finite score matrix with n in [2, 16]."""
    a = np.asarray(s, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValidationError(f"score matrix must be square, got shape {a.shape}")
    n = a.shape[0]
    if not MIN_N <= n <= MAX_N:
        raise SizeError(f"score matrix size must be in [{MIN_N}, {MAX_N}], got {n}")
    if not np.all(np.isfinite(a)):
        raise ValidationError("score matrix contains non-finite entries")
    return a


def additive_score(s: np.ndarray, positions: Sequence[int]) -> float:
    """Sum s[i][positions[i]] in index order i = 0..n-1."""
    total = 0.0
    for i, p in enumerate(positions):
        total += float(s[i, p])
    return total


def _exact_ints(a: np.ndarray) -> list[list[int]]:
    """The matrix as exact ints over one common denominator, row by row.

    Every float is an integer over a power of two, so scaling each entry
    to the largest denominator keeps it, and every sum of entries, exact.
    """
    n = a.shape[0]
    ratios = [x.as_integer_ratio() for x in a.ravel().tolist()]
    denom = max(d for _, d in ratios)
    scaled = [num * (denom // d) for num, d in ratios]
    return [scaled[i * n:(i + 1) * n] for i in range(n)]


def _solve_min(cost: list[list[int]]) -> list[int]:
    """Min-cost assignment via shortest augmenting paths with dual potentials.

    Returns positions[i] = column assigned to row i. The costs are Python
    ints and the potentials start as int 0, so every reduced cost is exact
    and the returned assignment is a true minimum (Kuhn 1955; Burkard,
    Dell'Amico & Martello, Assignment Problems, 2009). A float potential
    would round the large ints that hungarian_max builds.
    """
    n = len(cost)
    inf = math.inf
    u = [0] * (n + 1)
    v = [0] * (n + 1)
    match = [0] * (n + 1)  # match[j] = row assigned to column j, 1-based, 0 = free
    way = [0] * (n + 1)
    for i in range(1, n + 1):
        match[0] = i
        j0 = 0
        minv = [inf] * (n + 1)
        used = [False] * (n + 1)
        while True:
            used[j0] = True
            i0 = match[j0]
            delta = inf
            j1 = -1
            row = cost[i0 - 1]
            for j in range(1, n + 1):
                if not used[j]:
                    cur = row[j - 1] - u[i0] - v[j]
                    if cur < minv[j]:
                        minv[j] = cur
                        way[j] = j0
                    if minv[j] < delta:
                        delta = minv[j]
                        j1 = j
            for j in range(n + 1):
                if used[j]:
                    u[match[j]] += delta
                    v[j] -= delta
                else:
                    minv[j] -= delta
            j0 = j1
            if match[j0] == 0:
                break
        while j0:
            j1 = way[j0]
            match[j0] = match[j1]
            j0 = j1
    positions = [0] * n
    for j in range(1, n + 1):
        positions[match[j] - 1] = j - 1
    return positions


def hungarian_max(s) -> tuple[Permutation, float]:
    """Permutation maximizing the additive score, with its total.

    Among optima whose real totals tie exactly, the lexicographically
    smallest positions tuple is returned. Every float is an integer over a
    power of two, so over one common denominator the matrix becomes exact
    ints A. The cost of placing i at p is -A[i][p] * n**n plus the tie key
    p * n**(n-1-i): summed over a permutation, the keys read its positions
    tuple as a base-n number, which stays below n**n, one unit of score.
    One exact min-cost solve therefore maximizes the real total first and
    takes the smallest positions tuple among its ties second. The total is
    the index-order float sum of additive_score.
    """
    a = check_score_matrix(s)
    n = a.shape[0]
    unit = n**n
    cost = [
        [-x * unit + p * n ** (n - 1 - i) for p, x in enumerate(row)]
        for i, row in enumerate(_exact_ints(a))
    ]
    positions = _solve_min(cost)
    return Permutation(tuple(positions)), additive_score(a, positions)


def topk_assignments(s, k: int) -> list[tuple[Permutation, float]]:
    """The k best permutations by additive score, with their totals.

    Ranked as hungarian_max ranks them: by exact total, ties of the real
    totals going to the lexicographically smallest positions tuple, so the
    first entry is hungarian_max's permutation. The float totals of all n!
    orders are computed at once over the permutation table, accumulated in
    element-index order as additive_score does, so each returned total is
    bit-identical to it. Only the rows whose float total lies near the
    k-th best are re-ranked exactly. permutation_table raises
    EnumerationCapError beyond MAX_ENUMERATION_N.
    """
    a = check_score_matrix(s)
    n = a.shape[0]
    table = permutation_table(n)
    check_top_k(n, k)
    values = np.zeros(len(table))
    for i in range(n):
        values += a[i, table[:, i]]
    # n - 1 rounded adds leave a finite float total within err / 2 of its exact
    # total, so the exact top k lie within err of the k-th float total, and
    # float totals more than err apart are ranked as their exact totals are
    if np.isfinite(values).all():
        err = n * n * _EPS * float(np.abs(a).max())
        near = np.flatnonzero(values >= -np.partition(-values, k - 1)[k - 1] - err)
    else:  # an overflowed total has no error bound: rank every row exactly
        err, near = np.inf, np.arange(len(values))
    near = near[np.argsort(-values[near], kind="stable")]
    if len(near) > k or not (-np.diff(values[near]) > err).all():
        exact = _exact_ints(a)
        near = sorted(near.tolist(),
                      key=lambda r: (-sum(exact[i][p] for i, p in enumerate(table[r])), r))
    return [(Permutation(tuple(table[r])), float(values[r])) for r in near[:k]]
