"""Linear assignment: exact maximum-score permutation under additive scores.

A score matrix is a square float64 array where s[i][p] is the score of
placing element i at position p. The solver is one O(n^3) shortest
augmenting path / potentials method run on exact integer costs that
carry a tie key (see hungarian_max), so ties among optimal assignments,
which are exact ties of the real totals, resolve to the smallest
positions tuple.

Top-k lists come from core.rank_orders, the one ranker of permutation
table rows, with the same exact totals and tie rule. Orders are intp
rows: hungarian_max returns one (n,) row, topk_assignments a (k, n)
array. Additive scores are accumulated in element-index order
everywhere, so equal permutations produce bit-identical float totals.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .core import MAX_N, MIN_N, exact_ints, rank_orders
from .errors import SizeError, ValidationError


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


def hungarian_max(s) -> tuple[np.ndarray, float]:
    """The (n,) order maximizing the additive score, with its total.

    Among optima whose real totals tie exactly, the lexicographically
    smallest positions tuple is returned. Over one common denominator
    (core.exact_ints) the matrix is exact ints A. The cost of placing i at
    p is -A[i][p] * n**n plus the tie key
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
        for i, row in enumerate(exact_ints(a).tolist())
    ]
    positions = _solve_min(cost)
    return np.array(positions, dtype=np.intp), additive_score(a, positions)


def topk_assignments(s, k: int) -> tuple[np.ndarray, np.ndarray]:
    """The (k, n) best orders by additive score, with their (k,) additive_score totals.

    core.rank_orders ranks them as hungarian_max does, so the first is its choice.
    """
    orders, totals = rank_orders(check_score_matrix(s)[None], k, pair=False)
    return orders[0], totals[0]
