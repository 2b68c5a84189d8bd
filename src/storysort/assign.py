"""Linear assignment: exact maximum-score permutation under additive scores.

A score matrix is a square float64 array where s[i][p] is the score of
placing element i at position p. The solver is the O(n^3) shortest
augmenting path / potentials method. hungarian_max decodes an (S, n, n)
stack of matrices in three steps. A float solve of the costs -s runs over
the whole stack in lockstep, one numpy call per step of every matrix's
search (one matrix at a time on small stacks). One certificate then
proves from the solve's potentials (LP duality), for the whole stack at
once, which answers are the unique exact optimum. Only the matrices where
that proof fails, near a tie or at overflow scale, are solved again, one
at a time, on exact integer costs that carry a tie key, so ties among
optimal assignments, which are exact ties of the real totals, resolve to
the smallest positions tuple.

check_score_matrix, hungarian_max and topk_assignments take an (S, n, n)
stack, one matrix per story, and orders are intp arrays: hungarian_max
returns (S, n) orders and (S,) totals, and topk_assignments (S, k, n)
orders and (S, k) totals, which core.rank_orders ranks with the same exact
totals and tie rule. An order's total adds s[i][order[i]] in
element-index order i = 0..n-1, starting from 0.0, everywhere, so equal
permutations produce bit-identical float totals.
"""

from __future__ import annotations

import math

import numpy as np

from .core import MAX_N, MIN_N, exact_ints, rank_orders
from .errors import SizeError, ValidationError

EPS = np.finfo(float).eps


def check_score_matrix(s) -> np.ndarray:
    """Validate an (S, n, n) stack of square, finite score matrices with n in [2, 16]."""
    a = np.asarray(s, dtype=np.float64)
    if a.ndim != 3 or a.shape[-1] != a.shape[-2]:
        raise ValidationError(f"score stack must hold square (n, n) matrices, got shape {a.shape}")
    n = a.shape[-1]
    if not MIN_N <= n <= MAX_N:
        raise SizeError(f"score matrix size must be in [{MIN_N}, {MAX_N}], got {n}")
    if not np.isfinite(a).all():
        raise ValidationError("score matrix contains non-finite entries")
    return a


def _solve_min(cost: list[list]) -> tuple[list[int], list, list]:
    """Min-cost assignment via shortest augmenting paths with dual potentials.

    Returns positions[i] = column assigned to row i, with the row and column
    potentials u and v: u[i] + v[j] <= cost[i][j], with equality on the
    assignment. On Python int costs the potentials stay ints, so every
    reduced cost is exact and the assignment is a true minimum (Kuhn 1955;
    Burkard, Dell'Amico & Martello, Assignment Problems, 2009). A float
    potential would round the large ints that hungarian_max builds. On float
    costs all of this holds only up to rounding; _certified checks it.

    With M = max|cost|, 0 <= u <= M and -2M <= v <= 0: row potentials only
    rise and column potentials only fall, a column still free keeps v = 0,
    so u[i] <= cost[i][free] <= M, and a matched column's v is its cost less
    its row's u. Every reduced cost and step then lies within 3M.
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


def _lockstep_min(c: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Min-cost assignments of an (S, n, n) stack of float costs, with their potentials.

    The shortest augmenting path method of _solve_min with lazy potential
    updates (Jonker & Volgenant 1987; Crouse 2016), run on every matrix of
    the stack in lockstep: each numpy call takes one step of every story's
    search from the current row, and a story drops out of the row's search
    once it reaches a free column. The potentials and paths are then updated
    for the whole stack at once. The column potentials start at the column
    minima, which is dual feasible and often leaves a free column at zero
    reduced cost. Returns (S, n) positions and (S, n) row and column
    potentials, each an exact minimum only up to rounding, as _solve_min's
    are on float costs.

    With M = max|c|, the potentials stay within 3M and every path length and
    reduced cost within 6M: a row potential is at most 2M, since a column
    still free keeps its starting potential of at least -M, and never falls
    below 0; a matched column's potential is its cost less its row's.
    """
    count, n, _ = c.shape
    stories = np.arange(count)
    u = np.zeros((count, n + 1))  # slot n takes the updates addressed to row -1 of free columns
    v = c.min(axis=1)
    red = c - v[:, None, :]  # the reduced costs c - u - v, renewed after each row's search
    row4col = np.full((count, n), -1, dtype=np.intp)
    col4row = np.full((count, n), -1, dtype=np.intp)
    for root in range(n):
        searching = np.ones(count, dtype=bool)
        row = np.full(count, root)  # the tree row each story scans next
        low = np.zeros(count)  # the length of each story's shortest path to its last column
        dist = np.full((count, n), np.inf)
        path = np.zeros((count, n), dtype=np.intp)  # the tree row each column is reached from
        tree = np.zeros((count, n), dtype=bool)
        sink = np.zeros(count, dtype=np.intp)  # the free column each story reached
        while searching.any():
            r = low[:, None] + red[stories, row]
            closer = ~tree & (r < dist) & searching[:, None]
            np.putmask(dist, closer, r)
            path = np.where(closer, row[:, None], path)
            j = np.where(tree, np.inf, dist).argmin(axis=1)
            low = dist[stories, j]
            tree[stories, j] |= searching
            row = row4col[stories, j]
            np.putmask(sink, searching, j)
            searching &= row >= 0
        # update the potentials, renew the reduced costs, then flip each augmenting path
        low = dist[stories, sink]
        shift = np.subtract(low[:, None], dist, out=np.zeros((count, n)), where=tree)
        u[stories[:, None], row4col] += shift
        u[:, root] += low
        v -= shift
        red = c - (u[:, :n, None] + v[:, None, :])
        col, k = sink, stories
        while k.size:
            i = path[k, col]
            row4col[k, col] = i
            col4row[k, i], col = col, col4row[k, i]
            keep = i != root
            k, col = k[keep], col[keep]
    return col4row, u[:, :n], v


def _certified(c: np.ndarray, positions: np.ndarray, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Whether the potentials u, v of a float solve prove its order pi the unique exact
    minimum of the costs c, as an (S,) bool for an (S, n, n) stack.

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
    Each peeling sweep is one boolean matrix product over the whole stack.
    """
    count, n, _ = c.shape
    rows, cols = np.arange(count)[:, None], np.arange(n)
    # r = c - (u + v) rounds twice, each within eps / 2 of its result, so
    # |r - rho| <= eps * (|c| + |u| + |v|) * (1 + eps / 2) <= e
    r = c - (u[:, :, None] + v[:, None, :])
    e = 4 * EPS * (np.abs(c).max(axis=(1, 2)) + np.abs(u).max(axis=1) + np.abs(v).max(axis=1))
    high = r[rows, cols, positions].max(axis=1)
    t = e + (n - 1) * (e - r.min(axis=(1, 2), initial=0.0)) + n * np.maximum(high + e, 0.0)
    # t sums nonnegative terms with six roundings: raised by 8 eps, it bounds its exact value.
    # Node j stands for element j, at position pi_j, so the edges of element i are the
    # entries (i, pi_j) of row i
    near = r <= (t * (1 + 8 * EPS))[:, None, None]
    edges = near[rows[:, :, None], cols[:, None], positions[:, None, :]]
    edges[:, cols, cols] = False
    live = edges.any(axis=2, keepdims=True)  # the nodes with a successor
    for _ in range(n - 1):  # after n sweeps only nodes on or leading to a cycle are left
        if not live.any():
            break
        live = edges @ live  # the nodes with a live successor
    return ~live.any(axis=(1, 2))


# Stacks of at least this many matrices take the lockstep float solve; smaller ones
# solve one matrix at a time, where numpy's fixed cost per call outweighs the loop.
# Measured on dominant row-softmax stacks, lockstep starts to win at 14 to 28
# matrices, depending on n (4 to 16).
LOCKSTEP_MIN_STORIES = 20

# Both float solves keep their potentials, path lengths and reduced costs within
# 6 max|a| (see _lockstep_min and _solve_min), and the certificate's t sums 31 such
# terms, so below this scale nothing they compute overflows.
FLOAT_SCALE_LIMIT = np.finfo(float).max / 256


def hungarian_max(s) -> tuple[np.ndarray, np.ndarray]:
    """The (S, n) orders maximizing the additive score of each matrix of an (S, n, n)
    stack, with their (S,) totals.

    Among optima whose real totals tie exactly, the lexicographically
    smallest positions tuple is returned. A float solve of the costs -s,
    over the whole stack in lockstep (or one matrix at a time below
    LOCKSTEP_MIN_STORIES), gives the order wherever _certified proves it
    the unique exact optimum, so there is no tie to settle. Otherwise, near
    a tie or at overflow scale, an exact solve decides, one matrix at a
    time: over one common denominator (core.exact_ints) the matrix is exact
    ints A. The cost of placing i at p is -A[i][p] * n**n plus the tie key
    p * n**(n-1-i): summed over a permutation, the keys read its positions
    tuple as a base-n number, which stays below n**n, one unit of score.
    One exact min-cost solve therefore maximizes the real total first and
    takes the smallest positions tuple among its ties second. Each total is
    the float sum of the order's entries in element-index order.
    """
    a = check_score_matrix(s)
    count, n, _ = a.shape
    # a matrix at overflow scale is float-solved as zeros instead: a tie of every order,
    # which the certificate rejects, so the exact solve decides it
    fits = np.abs(a).max(axis=(1, 2)) < FLOAT_SCALE_LIMIT
    c = np.where(fits[:, None, None], -a, 0.0)
    if 0 < count < LOCKSTEP_MIN_STORIES:
        orders, u, v = (np.array(x) for x in zip(*map(_solve_min, c.tolist())))
    else:
        orders, u, v = _lockstep_min(c)
    exact = ~_certified(c, orders, u, v)
    unit = n**n
    for k in np.flatnonzero(exact):
        orders[k], _, _ = _solve_min([
            [-x * unit + p * n ** (n - 1 - i) for p, x in enumerate(row)]
            for i, row in enumerate(exact_ints(a[k]).tolist())
        ])
    # running sums are sequential, and adding 0.0 turns a -0.0 into the 0.0 that a sum
    # from 0.0 gives; overflow-scale totals stay inf or nan
    with np.errstate(over="ignore", invalid="ignore"):
        totals = np.add.accumulate(a[np.arange(count)[:, None], np.arange(n), orders], axis=1)
    return orders, totals[:, -1] + 0.0


def topk_assignments(s, k: int) -> tuple[np.ndarray, np.ndarray]:
    """The (S, k, n) best orders of each matrix of an (S, n, n) stack by additive score,
    with their (S, k) totals.

    core.rank_orders ranks them as hungarian_max does, so each list starts with its choice.
    """
    return rank_orders(check_score_matrix(s), k, pair=False)
