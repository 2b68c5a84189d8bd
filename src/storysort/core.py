"""Orders, the one ranker of permutation-table rows, and the one JSON parse and field checks.

Positions are 0-based everywhere. An order maps element index i to the
position ``order[i]``. An order is an integer row, and a batch of S orders
of n elements is an (S, n) intp array, from the decoders to the metrics and
to the library's result type, data.Orders; is_permutation checks such
rows, one bool per row. The permutation table holds all n! orders of n
elements, and rank_orders is the one function that ranks its rows, for
additive (unary) and pair (pairwise, NPE) scores alike: by exact total,
ties going to the lowest row, which is the lexicographically smallest
positions tuple. rank_orders is also the one function that sizes an array
n! wide, its table of order values, so it bounds that table itself: it
ranks at most CHUNK_FLOATS // n! matrices (at least one) per pass, and a
larger stack in several passes. Callers may hand it a stack of any
length. All operations here are pure, and every source of randomness is
an explicitly seeded generator.

Every file of JSON (a dataset or predictions line, a checkpoint) is parsed by
parse_json, which owns its two error lines. Float arrays on disk are float
blocks, one codec for all: a JSON string of padded base64 of the array's
little-endian float64 (``<f8``) bytes in C order.
"""

from __future__ import annotations

import base64
import functools
import itertools
import json
import math

import numpy as np

from .errors import EnumerationCapError, ParseError, SizeError

MIN_N = 2
MAX_N = 16
MAX_ENUMERATION_N = 8  # 8! = 40320 permutations, always brute-forceable

# Floats in the largest intermediate array of one pass: rank_orders' table of n! order
# values per matrix, and a storysort.models chunk's hidden activations or NPE order
# margins. Measured per story, larger budgets were no faster at n = 5 and slower at
# n = 7, and whole-dataset chunks raise peak memory.
CHUNK_FLOATS = 2**16


def as_rng(seed: int | np.random.Generator) -> np.random.Generator:
    """Coerce an int seed or an existing generator into a Generator."""
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def is_permutation(rows) -> np.ndarray:
    """Whether each row of an (..., n) array is a permutation of 0..n-1, as a bool per row."""
    rows = np.asarray(rows)
    return (np.sort(rows, axis=-1) == np.arange(rows.shape[-1])).all(axis=-1)


def check_enumeration_cap(n: int) -> None:
    """Raise EnumerationCapError unless n <= MAX_ENUMERATION_N."""
    if n > MAX_ENUMERATION_N:
        raise EnumerationCapError(f"enumeration capped at n <= {MAX_ENUMERATION_N}, got {n}")


@functools.lru_cache(maxsize=MAX_ENUMERATION_N)
def permutation_table(n: int) -> np.ndarray:
    """All n! permutations as a read-only (n!, n) integer array, built once per n.

    Rows are the positions tuples of itertools.permutations(range(n)), in
    lexicographic order. n must be in [MIN_N, MAX_ENUMERATION_N].
    """
    if n < MIN_N:
        raise SizeError(f"n must be at least {MIN_N}, got {n}")
    check_enumeration_cap(n)
    table = np.array(list(itertools.permutations(range(n))), dtype=np.intp)
    table.flags.writeable = False
    return table


def check_top_k(n: int, k: int) -> None:
    """Raise SizeError unless 1 <= k <= n!."""
    if not 1 <= k <= math.factorial(n):
        raise SizeError(f"k={k} out of range for n={n}")


def exact_ints(a: np.ndarray) -> np.ndarray:
    """a's entries as exact Python ints over one common denominator, in an object array.

    Every float is an integer over a power of two, so scaling each entry to
    the largest denominator keeps it, and every sum of entries, exact.
    """
    ratios = [x.as_integer_ratio() for x in a.ravel().tolist()]
    denom = max(d for _, d in ratios)
    return np.array([num * (denom // d) for num, d in ratios], dtype=object).reshape(a.shape)


@functools.lru_cache(maxsize=2 * MAX_ENUMERATION_N)
def _term_index(n: int, pair: bool) -> np.ndarray:
    """Read-only (n!, m) flat indices into an (n, n) term matrix: each table row's terms.

    Additive totals add a[i, σᵢ] for i = 0..n-1. Pair
    totals add, for i < j row-major, (a - aᵀ)[i, j] when the row puts i first,
    else (a - aᵀ)[j, i], which is exactly its negation.
    Column-major, as order_values reads a column of n! indices at a time.
    """
    table = permutation_table(n)
    i, j = np.triu_indices(n, 1)
    index = np.asfortranarray(np.where(table[:, i] < table[:, j], i * n + j, j * n + i)
                              if pair else np.arange(n) * n + table)
    index.flags.writeable = False
    return index


def order_values(a: np.ndarray, pair: bool) -> np.ndarray:
    """(S, n!) float totals of every permutation_table row, for each matrix of an (S, n, n)
    stack, by which rank_orders ranks before it settles near ties exactly."""
    index = _term_index(a.shape[-1], pair)
    terms = (a - a.transpose(0, 2, 1) if pair else a).reshape(-1, a.shape[-1] ** 2).T.copy()
    values = np.zeros((len(index), len(a)))  # a story per column, so gathers copy rows
    for column in index.T:
        values += terms.take(column, axis=0)
    return values.T.copy()


def rank_orders(a: np.ndarray, k: int, pair: bool) -> np.ndarray:
    """The k best orders of each matrix of an (S, n, n) stack, as an (S, k, n) array.

    Orders are ranked by exact total, taken for pair scores from a's own
    entries rather than their rounded differences; ties go to the lowest
    row. Only rows whose float total lies within the error bound of the k-th
    are re-ranked exactly. A story costs no Python work when it has exactly
    k such rows, each more than the bound from the next (at k = 1, one row,
    the argmax): their float totals rank as the exact ones do, so one
    stable sort over the stack ranks them, whatever k. Only the other
    stories, near ties, more than k rows near the k-th, or totals that
    overflow, are ranked one at a time.
    At most CHUNK_FLOATS // n! matrices (at least one) are ranked per pass,
    so no table of order values outgrows CHUNK_FLOATS.
    permutation_table raises EnumerationCapError beyond MAX_ENUMERATION_N.
    """
    n = a.shape[-1]
    check_top_k(n, k)
    index = _term_index(n, pair)
    per_pass = max(1, CHUNK_FLOATS // len(index))
    if len(a) > per_pass:
        return np.concatenate([rank_orders(a[s:s + per_pass], k, pair)
                               for s in range(0, len(a), per_pass)])
    m = index.shape[1]
    with np.errstate(over="ignore", invalid="ignore"):
        values = order_values(a, pair)
        # m - 1 rounded adds of m terms, each at most 2 max|a| and within eps / 2 of exact,
        # leave a finite total within err / 2 of exact: the exact top k lie within err of
        # the k-th float total, and float totals more than err apart rank as exact ones do
        bound = 2 * m * (m + 1) * np.finfo(float).eps * np.abs(a).max(axis=(1, 2))
        err = np.where(np.isfinite(values).all(axis=1), bound, np.inf)  # overflow: no bound
        kth = np.partition(values, -k, axis=1)[:, -k]
        near = ~(values < (kth - err)[:, None])
    ranked = np.empty((len(a), k), dtype=np.intp)
    # a story with exactly k near rows, each more than err from the next, ranks them by
    # float total: one stable sort of those k values across the stack
    settled = np.flatnonzero(near.sum(axis=1) == k)
    rows = np.nonzero(near[settled])[1].reshape(-1, k)
    top = np.take_along_axis(values[settled], rows, axis=1)
    by_value = np.argsort(-top, axis=1, kind="stable")
    top = np.take_along_axis(top, by_value, axis=1)
    separated = (-np.diff(top, axis=1) > err[settled, None]).all(axis=1)
    ranked[settled[separated]] = np.take_along_axis(rows, by_value, axis=1)[separated]
    rest = np.ones(len(a), dtype=bool)
    rest[settled[separated]] = False
    for s in np.flatnonzero(rest):
        rows = np.flatnonzero(near[s])
        rows = rows[np.argsort(-values[s, rows], kind="stable")]
        if len(rows) > k or not (-np.diff(values[s, rows]) > err[s]).all():
            exact = exact_ints(a[s])
            exact = (exact - exact.T if pair else exact).ravel()[index[rows]].sum(axis=1)
            rows = [r for _, r in sorted(zip(-exact, rows.tolist()))]
        ranked[s] = rows[:k]
    return permutation_table(n)[ranked]


def random_permutation(n: int, seed: int | np.random.Generator) -> tuple[int, ...]:
    """Uniform random order of n elements via Fisher-Yates on the given seed or generator."""
    rng = as_rng(seed)
    items = list(range(n))
    if not MIN_N <= n <= MAX_N:
        raise SizeError(f"n must be in [{MIN_N}, {MAX_N}], got {n}")
    for i in range(n - 1, 0, -1):
        j = int(rng.integers(0, i + 1))
        items[i], items[j] = items[j], items[i]
    return tuple(items)


def parse_json(raw: bytes, path, lineno: int | None = None):
    """The JSON value of raw, UTF-8 bytes of a whole file or of its line lineno.

    Bytes that are not UTF-8 raise ParseError ``<path>: not UTF-8 text:
    <reason>``, and text that is not JSON ``<path>[:<lineno>]: malformed
    JSON: <error>``.
    """
    try:
        return json.loads(raw.decode("utf-8"))
    except UnicodeDecodeError as e:
        raise ParseError(f"{path}: not UTF-8 text: {e.reason}") from e
    except json.JSONDecodeError as e:
        raise ParseError(f"{path}{f':{lineno}' if lineno else ''}: malformed JSON: {e}") from e


def json_value(value, types: tuple[type, ...], name: str):
    """value itself if its type is one of types, else ValueError naming the field.

    The check is on the exact type, so a JSON true is not an integer and a
    numeric string is not a number.
    """
    if type(value) not in types:
        raise ValueError(f"{name} must be {_type_names(types)}, got {value!r:.60}")
    return value


def json_list(value, types: tuple[type, ...], name: str) -> list:
    """value itself if it is a list whose entries all have one of types, else ValueError."""
    if type(value) is not list or not set(map(type, value)) <= set(types):
        raise ValueError(f"{name} must be a list of {_type_names(types)}, got {value!r:.60}")
    return value


def float_block(a: np.ndarray) -> str:
    """a as a float block: padded base64 of its little-endian float64 bytes, in C order."""
    return base64.b64encode(np.asarray(a, dtype="<f8").tobytes()).decode("ascii")


def json_floats(value, shape: tuple[int, ...], name: str) -> np.ndarray:
    """The float block value as a read-only float64 array of shape, else ValueError.

    value must be a string of strict base64 with exactly shape's byte length.
    One entry of shape may be -1, as in reshape: the byte length then sets it,
    and it must be a positive whole number. Finiteness is the caller's check.
    """
    text = json_value(value, (str,), name)
    try:
        raw = base64.b64decode(text, validate=True)
    except ValueError as e:  # binascii.Error, or a character beyond ASCII
        raise ValueError(f"{name} must be a base64 float block: {e}") from e
    try:
        array = np.frombuffer(raw, dtype="<f8").reshape(shape)
    except ValueError:
        array = np.empty(0)
    if array.size == 0:
        raise ValueError(f"{name} must be a float64 block of shape {shape}, got {len(raw)} bytes")
    return array


def _type_names(types: tuple[type, ...]) -> str:
    return " or ".join(t.__name__ for t in types)
