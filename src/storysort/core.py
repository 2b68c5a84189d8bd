"""Permutations, the permutation table, and exact-type JSON field checks.

Positions are 0-based everywhere. A permutation maps element index i to
the position ``positions[i]``. The permutation table holds all n! orders
of n elements for the decoders that rank every order; k-best lists take
their rows from it. All operations here are pure, and every source of
randomness is an explicitly seeded generator.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .errors import EnumerationCapError, SizeError, ValidationError

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


@functools.lru_cache(maxsize=MAX_ENUMERATION_N)
def permutation_table(n: int) -> np.ndarray:
    """All n! permutations as a read-only (n!, n) integer array, built once per n.

    Rows are the positions tuples of itertools.permutations(range(n)), in
    lexicographic order. The array is column-major: decoders read it a
    column at a time, and a contiguous column of n! entries reads about
    twice as fast at n = 8. n must be in [MIN_N, MAX_ENUMERATION_N].
    """
    if n < MIN_N:
        raise SizeError(f"n must be at least {MIN_N}, got {n}")
    if n > MAX_ENUMERATION_N:
        raise EnumerationCapError(f"enumeration capped at n <= {MAX_ENUMERATION_N}, got {n}")
    table = np.array(list(itertools.permutations(range(n))), dtype=np.intp, order="F")
    table.flags.writeable = False
    return table


def check_top_k(n: int, k: int) -> None:
    """Raise SizeError unless 1 <= k <= n!."""
    if not 1 <= k <= math.factorial(n):
        raise SizeError(f"k={k} out of range for n={n}")


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


def _type_names(types: tuple[type, ...]) -> str:
    return " or ".join(t.__name__ for t in types)
