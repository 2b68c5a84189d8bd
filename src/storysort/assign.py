"""Linear assignment: exact maximum-score permutation under additive scores.

A score matrix is a square float64 array where s[i][p] is the score of
placing element i at position p. The solver is the O(n^3) shortest
augmenting path / potentials method, one implementation, _lockstep_min,
which runs on float costs and on exact integer costs alike. hungarian_max
decodes an (S, n, n) stack of matrices in three steps. One float solve of
the costs -s runs over the whole stack in lockstep, one numpy call per
step of every matrix's search, whatever the stack's size. It starts from
column reduction, each row taking a column whose minimum it holds, so
only the rows it leaves free search: 1 to 4 of 16 on a trained unary
model's position probabilities at n = 16. One certificate then proves
from the solve's potentials (LP duality), for the whole stack at once,
which answers are the unique exact optimum. The matrices where that proof
fails, near a tie or at overflow scale, are solved again together, by the
same lockstep solve on exact Python int costs that carry a tie key, so
ties among optimal assignments, which are exact ties of the real totals,
resolve to the smallest positions tuple.

check_score_matrix, hungarian_max and topk_assignments take an (S, n, n)
stack, one matrix per story, and return orders only, as intp arrays:
hungarian_max the (S, n) best orders, and topk_assignments the (S, k, n)
best lists, which core.rank_orders ranks by the same exact totals and tie
rule.
"""

from __future__ import annotations

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


def _lockstep_min(c: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Min-cost assignments of an (S, n, n) stack of costs, with their potentials.

    hungarian_max's one solve: the shortest augmenting path method with
    lazy potential updates (Jonker & Volgenant 1987; Crouse 2016), run on
    every matrix of the stack in lockstep, from Jonker & Volgenant's column
    reduction: the column potentials start at the column minima and the row
    potentials at 0, which is dual feasible, and each row takes the first
    column whose minimum it holds, at zero reduced cost. Only the rows this
    leaves free search. Round t searches from the t-th free row of every
    story that has one; each numpy call takes one step of each such story's
    search, and a story drops out once it reaches a free column. The
    potentials and paths are then updated for the whole stack at once,
    where a story that sat the round out adds zeros. Returns (S, n)
    positions and (S, n) row and column potentials.

    Every array it computes takes c's dtype. On float costs the potentials
    are dual feasible and tight on the positions only up to rounding, so
    each order is an exact minimum only where _certified proves it one. On
    an object array of Python ints every step is exact, and so is every
    order it returns.

    With M = max|c|, the potentials stay within 3M and every path length and
    reduced cost within 6M, which keeps a float solve below overflow: a row
    potential is at most 2M, since a column still free keeps its starting
    potential of at least -M, and never falls below 0; a matched column's
    potential is its cost less its row's. A row the column reduction assigns
    starts as a search leaves its rows: at a potential of 0 on a tight
    entry, so the bounds hold for it too.
    """
    count, n, _ = c.shape
    stories = np.arange(count)
    zero = np.zeros(n, dtype=c.dtype)
    # slot n of u takes the updates addressed to row -1 of free columns
    u = np.zeros((count, n + 1), dtype=c.dtype)
    v = c.min(axis=1)
    red = c - v[:, None, :]  # the reduced costs c - u - v, renewed after each round
    # column j's minimum is held by row holder[s, j] (the first such row on ties), and
    # each row takes the first column it holds
    holder = red.argmin(axis=1)
    holds = holder[:, None, :] == np.arange(n)[:, None]
    col4row = np.where(holds.any(axis=2), holds.argmax(axis=2), -1)
    row4col = np.where(np.take_along_axis(col4row, holder, axis=1) == np.arange(n), holder, -1)
    free = col4row < 0
    free_rows = np.argsort(~free, axis=1, kind="stable")  # each story's free rows first
    free_count = free.sum(axis=1)
    for t in range(free_count.max(initial=0)):
        searched = t < free_count  # the stories with a t-th free row
        searching = searched.copy()
        root = free_rows[:, t]
        row = root  # the tree row each story scans next
        low = np.zeros(count, dtype=c.dtype)  # each story's shortest path to its last column
        # a story that sits the round out keeps zero distances: inf plus an int beyond
        # float range would raise
        dist = np.where(searched[:, None], np.inf, zero)
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
        # update the potentials of the stories that searched, renew the reduced costs,
        # then flip each augmenting path
        low = np.where(searched, dist[stories, sink], 0)
        shift = np.subtract(low[:, None], dist, out=np.zeros((count, n), c.dtype), where=tree)
        u[stories[:, None], row4col] += shift
        u[stories, root] += low
        v -= shift
        red = c - (u[:, :n, None] + v[:, None, :])
        k = stories[searched]
        col = sink[k]
        while k.size:
            i = path[k, col]
            row4col[k, col] = i
            col4row[k, i], col = col, col4row[k, i]
            keep = i != root[k]
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


# The float solve keeps its potentials, path lengths and reduced costs within 6 max|a|
# (see _lockstep_min), and the certificate's t sums 31 such terms, so below this scale
# nothing they compute overflows.
FLOAT_SCALE_LIMIT = np.finfo(float).max / 256


def hungarian_max(s) -> np.ndarray:
    """The (S, n) orders maximizing the additive score of each matrix of an (S, n, n) stack.

    Among optima whose real totals tie exactly, the lexicographically
    smallest positions tuple is returned. One float solve of the costs -s,
    _lockstep_min over the whole stack, gives the order wherever _certified
    proves it the unique exact optimum, so there is no tie to settle. The
    matrices it does not prove, near a tie or at overflow scale, are
    decided by one more _lockstep_min call, on exact ints: over one common
    denominator (core.exact_ints) each matrix is exact ints A. The cost of
    placing i at p is -A[i][p] * n**n plus the tie key p * n**(n-1-i):
    summed over a permutation, the keys read its positions tuple as a
    base-n number, which stays below n**n, one unit of score. One exact
    min-cost solve therefore maximizes the real total first and takes the
    smallest positions tuple among its ties second.
    """
    a = check_score_matrix(s)
    n = a.shape[-1]
    # a matrix at overflow scale is float-solved as zeros instead: a tie of every order,
    # which the certificate rejects, so the exact solve decides it
    fits = np.abs(a).max(axis=(1, 2)) < FLOAT_SCALE_LIMIT
    c = np.where(fits[:, None, None], -a, 0.0)
    orders, u, v = _lockstep_min(c)
    exact = ~_certified(c, orders, u, v)
    if exact.any():
        i = np.arange(n, dtype=object)  # Python ints: at n = 16 the tie keys pass 2**63
        key = n ** (n - 1 - i)[:, None] * i
        ints = np.stack([exact_ints(a[k]) for k in np.flatnonzero(exact)])
        orders[exact] = _lockstep_min(key - ints * n**n)[0]
    return orders


def topk_assignments(s, k: int) -> np.ndarray:
    """The (S, k, n) best orders of each matrix of an (S, n, n) stack by additive score,
    ranked by core.rank_orders with hungarian_max's tie rule, so each starts with its choice."""
    return rank_orders(check_score_matrix(s), k, pair=False)
