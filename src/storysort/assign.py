"""Linear assignment: exact maximum-score permutation under additive scores.

A score matrix is a square float64 array where s[i][p] is the score of
placing element i at position p. The solver is one O(n^3) shortest
augmenting path / potentials method. hungarian_max runs it first on the
float costs -s, then proves from its potentials (LP duality) that the
float answer is the unique exact optimum. Only where that proof fails,
near a tie or at overflow scale, does it solve again on exact integer
costs that carry a tie key, so ties among optimal assignments, which are
exact ties of the real totals, resolve to the smallest positions tuple.

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


def _solve_min(cost: list[list]) -> tuple[list[int], list, list]:
    """Min-cost assignment via shortest augmenting paths with dual potentials.

    Returns positions[i] = column assigned to row i, with the row and column
    potentials u and v: u[i] + v[j] <= cost[i][j], with equality on the
    assignment. On Python int costs the potentials stay ints, so every
    reduced cost is exact and the assignment is a true minimum (Kuhn 1955;
    Burkard, Dell'Amico & Martello, Assignment Problems, 2009). A float
    potential would round the large ints that hungarian_max builds. On float
    costs all of this holds only up to rounding; _certified_min checks it.
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
    return positions, u[1:], v[1:]


def _certified_min(a: np.ndarray) -> list[int] | None:
    """The order pi minimizing the costs c = -a from a float solve, if the solve's
    potentials prove it the unique exact minimum, else None.

    For any potentials u, v the exact reduced costs rho = c - u - v give
    C(sigma) - C(pi) = sum_i rho[i, sigma_i] - sum_i rho[i, pi_i] for orders sigma
    and pi, since each potential appears once in both sums. With the float
    reduced costs r within e of rho, an order that uses an entry with r > t
    costs more than the solve's pi: that entry adds more than t - e, each of
    its other n - 1 entries at least min r - e, while pi's entries add at
    most n * max(0, max r on pi + e). Any other order that uses only entries
    with r <= t differs from pi on a directed cycle of the graph with an edge
    pi_i -> p for each such entry (i, p) off pi. Peeling the nodes with no
    successor left (Kahn 1962) empties the graph when it has no cycle, and
    then pi is the only exact minimum, so no tie rule has anything to settle.
    """
    n = len(a)
    c = -a
    scale = float(np.abs(a).max())
    # the solve keeps its potentials and reduced costs within 8 * max|c|: within each
    # augmentation its steps sum to between -max|c| and max|c|, and between them a free
    # column bounds every row potential by max|c|. So it cannot overflow here
    if not math.isfinite(16 * scale):
        return None
    cost = c.tolist()
    positions, u, v = _solve_min(cost)
    eps = np.finfo(float).eps
    # r = c - (u + v) rounds twice, each within eps / 2 of its result, so
    # |r - rho| <= eps * (|c| + |u| + |v|) * (1 + eps / 2) <= e
    r = c - np.add.outer(u, v)
    e = 4 * eps * (scale + max(map(abs, u)) + max(map(abs, v)))
    high = max(cost[i][p] - (u[i] + v[p]) for i, p in enumerate(positions))
    t = e + (n - 1) * (e + max(0.0, -r.min())) + n * max(0.0, high + e)
    if not math.isfinite(t):
        return None
    # t sums nonnegative terms with six roundings: raised by 8 eps, it bounds its exact value.
    # succ[pi_i] has bit q for each entry (i, q) off pi with r <= t
    succ = [0] * n
    for mask, p in zip(((r <= t * (1 + 8 * eps)) @ (1 << np.arange(n))).tolist(), positions):
        succ[p] = mask & ~(1 << p)
    live = (1 << n) - 1
    for _ in range(n):  # after n sweeps only nodes on or leading to a cycle are left
        live = sum(1 << p for p in range(n) if succ[p] & live)  # the nodes with a live successor
        if not live:
            return positions
    return None


def hungarian_max(s) -> tuple[np.ndarray, float]:
    """The (n,) order maximizing the additive score, with its total.

    Among optima whose real totals tie exactly, the lexicographically
    smallest positions tuple is returned. A float solve of the costs -s
    gives the order wherever _certified_min proves it the unique exact
    optimum, so there is no tie to settle. Otherwise, near a tie or at
    overflow scale, an exact solve decides: over one common denominator
    (core.exact_ints) the matrix is exact ints A. The cost of placing i at
    p is -A[i][p] * n**n plus the tie key
    p * n**(n-1-i): summed over a permutation, the keys read its positions
    tuple as a base-n number, which stays below n**n, one unit of score.
    One exact min-cost solve therefore maximizes the real total first and
    takes the smallest positions tuple among its ties second. The total is
    the index-order float sum of additive_score.
    """
    a = check_score_matrix(s)
    positions = _certified_min(a)
    if positions is None:
        n = a.shape[0]
        unit = n**n
        positions, _, _ = _solve_min([
            [-x * unit + p * n ** (n - 1 - i) for p, x in enumerate(row)]
            for i, row in enumerate(exact_ints(a).tolist())
        ])
    return np.array(positions, dtype=np.intp), additive_score(a, positions)


def topk_assignments(s, k: int) -> tuple[np.ndarray, np.ndarray]:
    """The (k, n) best orders by additive score, with their (k,) additive_score totals.

    core.rank_orders ranks them as hungarian_max does, so the first is its choice.
    """
    orders, totals = rank_orders(check_score_matrix(s)[None], k, pair=False)
    return orders[0], totals[0]
