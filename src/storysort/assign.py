"""Linear assignment: exact maximum-score permutation under additive scores.

A score matrix is a square float64 array where s[i][p] is the score of
placing element i at position p. The solver is an O(n^3) shortest
augmenting path / potentials method run on the negated matrix, followed
by a lexicographic refinement pass so that ties among optimal
assignments always resolve to the smallest positions tuple.

Additive scores are accumulated in element-index order everywhere
(solver result, top-k totals, downstream scoring), so equal
permutations produce bit-identical float totals.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .core import (
    MAX_ENUMERATION_N,
    MAX_N,
    MIN_N,
    Permutation,
    best_rows,
    check_top_k,
    permutation_table,
)
from .errors import EnumerationCapError, SizeError, ValidationError


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


def _solve_min(cost: np.ndarray) -> list[int]:
    """Min-cost assignment via shortest augmenting paths with dual potentials.

    Returns positions[i] = column assigned to row i. Deterministic scan
    order; ties are later resolved by the caller's refinement pass.
    """
    n = cost.shape[0]
    if n == 1:
        return [0]
    c = cost.tolist()
    inf = math.inf
    u = [0.0] * (n + 1)
    v = [0.0] * (n + 1)
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
            row = c[i0 - 1]
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


def _argmax_positions(s: np.ndarray) -> list[int]:
    return _solve_min(-s)


def _complete(a: np.ndarray, prefix: list[int]) -> list[int]:
    """Optimal completion of a partial assignment fixing elements 0..len(prefix)-1."""
    n = a.shape[0]
    k = len(prefix)
    if k == n:
        return list(prefix)
    cols = sorted(set(range(n)) - set(prefix))
    sub = a[np.ix_(range(k, n), cols)]
    sub_positions = _argmax_positions(sub)
    return list(prefix) + [cols[j] for j in sub_positions]


def hungarian_max(s) -> tuple[Permutation, float]:
    """Permutation maximizing the additive score, with its total.

    Among equally scoring optima the lexicographically smallest positions
    tuple is returned, found by greedily fixing each element at the
    smallest position that still completes to the optimal total. The
    feasibility test is exact float equality of index-order sums, which
    is reliable wherever ties actually arise (integer or repeated-entry
    matrices, where float sums are exact).
    """
    a = check_score_matrix(s)
    n = a.shape[0]
    cur = _argmax_positions(a)
    best = additive_score(a, cur)
    chosen: list[int] = []
    used: set[int] = set()
    for i in range(n):
        for p in sorted(set(range(n)) - used):
            if p == cur[i]:
                break
            cand = _complete(a, chosen + [p])
            if additive_score(a, cand) == best:
                cur = cand
                break
        chosen.append(cur[i])
        used.add(cur[i])
    return Permutation(tuple(cur)), best


def topk_assignments(s, k: int) -> list[tuple[Permutation, float]]:
    """The k best permutations by additive score, with their totals.

    The totals of all n! orders are computed at once over the permutation
    table (exact for n <= 8), accumulated in element-index order as
    additive_score does, so each total is bit-identical to it. Sorted by
    descending score; ties break lexicographically on positions.
    """
    a = check_score_matrix(s)
    n = a.shape[0]
    if n > MAX_ENUMERATION_N:
        raise EnumerationCapError(
            f"top-k enumeration capped at n <= {MAX_ENUMERATION_N}, got {n}"
        )
    check_top_k(n, k)
    table = permutation_table(n)
    values = np.zeros(len(table))
    for i in range(n):
        values += a[i, table[:, i]]
    return best_rows(table, values, k)
