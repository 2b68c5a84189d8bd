"""Permutation arithmetic and shared numeric primitives.

Positions are 0-based everywhere. A permutation maps element index i to
the position ``positions[i]``. Feature vectors are float64 numpy arrays,
validated at module boundaries; all operations here are pure, and every
source of randomness is an explicitly seeded generator.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np

from .errors import DimensionError, EnumerationCapError, SizeError, ValidationError

MIN_N = 2
MAX_N = 16
MAX_ENUMERATION_N = 8  # 8! = 40320 permutations, always brute-forceable


def as_rng(seed: int | np.random.Generator) -> np.random.Generator:
    """Coerce an int seed or an existing generator into a Generator."""
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


@dataclass(frozen=True)
class Permutation:
    """Bijection from element index to position: positions[i] is where element i goes."""

    positions: tuple[int, ...]

    def __post_init__(self) -> None:
        pos = tuple(int(p) for p in self.positions)
        object.__setattr__(self, "positions", pos)
        n = len(pos)
        if not MIN_N <= n <= MAX_N:
            raise SizeError(f"permutation length must be in [{MIN_N}, {MAX_N}], got {n}")
        if sorted(pos) != list(range(n)):
            raise ValidationError(f"positions {pos} are not a bijection on 0..{n - 1}")

    @property
    def n(self) -> int:
        return len(self.positions)

    def __len__(self) -> int:
        return len(self.positions)

    def __getitem__(self, i: int) -> int:
        return self.positions[i]

    def __iter__(self) -> Iterator[int]:
        return iter(self.positions)


def identity_permutation(n: int) -> Permutation:
    """The permutation that keeps every element in place."""
    if not MIN_N <= n <= MAX_N:
        raise SizeError(f"n must be in [{MIN_N}, {MAX_N}], got {n}")
    return Permutation(tuple(range(n)))


def inverse(p: Permutation) -> Permutation:
    """Inverse mapping: result[p[i]] = i."""
    inv = [0] * p.n
    for i, pos in enumerate(p.positions):
        inv[pos] = i
    return Permutation(tuple(inv))


def reverse(p: Permutation) -> Permutation:
    """Mirror a permutation: position q becomes n-1-q."""
    n = p.n
    return Permutation(tuple(n - 1 - q for q in p.positions))


def _check_enumerable(n: int) -> None:
    if n < MIN_N:
        raise SizeError(f"n must be at least {MIN_N}, got {n}")
    if n > MAX_ENUMERATION_N:
        raise EnumerationCapError(
            f"enumeration capped at n <= {MAX_ENUMERATION_N}, got {n}"
        )


def enumerate_permutations(n: int) -> Iterator[Permutation]:
    """Yield all n! permutations in lexicographic order of the positions tuple."""
    _check_enumerable(n)
    for pos in itertools.permutations(range(n)):
        yield Permutation(pos)


@functools.lru_cache(maxsize=MAX_ENUMERATION_N)
def permutation_table(n: int) -> np.ndarray:
    """All n! permutations as a read-only (n!, n) integer array, built once per n.

    Row r is the positions tuple of the r-th permutation yielded by
    enumerate_permutations(n), so rows are in lexicographic order. The
    array is column-major: decoders read it a column at a time, and a
    contiguous column of n! entries reads about twice as fast at n = 8.
    """
    _check_enumerable(n)
    table = np.array(list(itertools.permutations(range(n))), dtype=np.intp, order="F")
    table.flags.writeable = False
    return table


def check_top_k(n: int, k: int) -> None:
    """Raise SizeError unless 1 <= k <= n!."""
    if not 1 <= k <= math.factorial(n):
        raise SizeError(f"k={k} out of range for n={n}")


def best_rows(table: np.ndarray, values: np.ndarray,
              k: int) -> list[tuple[Permutation, float]]:
    """The k rows of a permutation table with the highest values, with their values.

    Sorted by descending value. The sort is stable, so tied rows keep
    table order: ties break lexicographically on the positions tuple.
    """
    rows = np.argsort(-values, kind="stable")[:k]
    return [(Permutation(tuple(table[r])), float(values[r])) for r in rows]


def random_permutation(n: int, seed: int | np.random.Generator) -> Permutation:
    """Uniform random permutation via Fisher-Yates on the given seed or generator."""
    rng = as_rng(seed)
    items = list(range(n))
    if not MIN_N <= n <= MAX_N:
        raise SizeError(f"n must be in [{MIN_N}, {MAX_N}], got {n}")
    for i in range(n - 1, 0, -1):
        j = int(rng.integers(0, i + 1))
        items[i], items[j] = items[j], items[i]
    return Permutation(tuple(items))


def apply_permutation(p: Permutation, items: Sequence) -> list:
    """Place items[i] at slot p[i]; applying p then inverse(p) restores the input."""
    if len(items) != p.n:
        raise DimensionError(f"cannot apply length-{p.n} permutation to {len(items)} items")
    out = [None] * p.n
    for i, pos in enumerate(p.positions):
        out[pos] = items[i]
    return out


def as_float_vector(values: Iterable[float], name: str = "vector") -> np.ndarray:
    """Validate and copy values into a finite 1-D float64 array."""
    arr = np.array(list(values) if not isinstance(values, np.ndarray) else values,
                   dtype=np.float64)
    if arr.ndim != 1:
        raise ValidationError(f"{name} must be 1-D, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValidationError(f"{name} contains non-finite entries")
    return arr
