"""Voting ensemble: pool each member's top-k orders and decode by assignment.

Members may be of any registered model kind (storysort.models). A
member's top-k list is keyed by its score type: additive position scores
(unary) give the k best assignments, pair scores (pairwise, NPE) the k
best orders by the ordering objective. A story's candidates are an
(m, n) intp array of orders, a batch's an (S, m, n) one; every candidate
casts one vote per element for the position it assigns, and the
consensus order is the assignment maximizing total votes received. Votes
are unweighted, so a member's first and third choice count the same.
Each member lists k orders, 1 <= k < n!, and top_k(n) by default:
DEFAULT_TOP_K, at most n! - 1. A list of all n! orders would give every
element the same votes at every position, a full tie that ignores the
members, so k = n! is refused; at n = 2 each member lists its best order
only. ensemble_sort takes one story, a data.Stories batch of one (any
other batch is a ValidationError naming S), and returns a
core.Permutation, the one-story public type.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from . import models
from .assign import hungarian_max
from .core import Permutation, is_permutation
from .data import Stories, one_story
from .errors import DimensionError, EmptyInputError, MemberError, SizeError, ValidationError

DEFAULT_TOP_K = 3


def top_k(n: int) -> int:
    """The length of each member's list when no k is given: DEFAULT_TOP_K, at most n! - 1."""
    return min(DEFAULT_TOP_K, math.factorial(n) - 1)


def check_k(n: int, k: int) -> None:
    """Raise ValidationError unless k >= 1, and SizeError unless k < n!: a list of all n!
    orders ties every vote."""
    if k < 1:
        raise ValidationError(f"k must be >= 1, got {k}")
    if k >= math.factorial(n):
        raise SizeError(f"k={k} out of range for n={n}")


def accumulate_votes(candidates) -> np.ndarray:
    """(S, n, n) votes of (S, m, n) candidates: v[s][i][j] counts story s's rows placing
    element i at position j. Rows that are not permutations raise ValidationError."""
    cands = np.asarray(candidates)
    if not cands.size:
        raise EmptyInputError("accumulate_votes requires at least one candidate")
    if cands.ndim != 3:
        raise DimensionError(f"candidates must be an (S, m, n) array of orders, got {cands.shape}")
    if not is_permutation(cands).all():
        raise ValidationError("candidates must be permutations of 0..n-1")
    count, _, n = cands.shape
    votes = np.zeros((count, n, n), dtype=np.int64)
    np.add.at(votes, (np.arange(count)[:, None, None], np.arange(n), cands), 1)
    return votes


def decode_votes(v) -> np.ndarray:
    """The (S, n) assignments maximizing the total votes of each matrix of an (S, n, n)
    stack of non-negative integer vote counts; ties go to the smallest positions tuple."""
    a = np.asarray(v)
    if not np.issubdtype(a.dtype, np.integer):
        raise ValidationError(f"vote matrix must be integer, got dtype {a.dtype}")
    if np.any(a < 0):
        raise ValidationError("vote matrix entries must be non-negative")
    return hungarian_max(a)


def ensemble_sort(members: Sequence[models.AnyModel], story: Stories,
                  k: int | None = None) -> Permutation:
    """Pool each member's top-k candidates for a batch of one story, tally votes, decode
    the consensus; k defaults to top_k(n), and k >= n! raises SizeError."""
    if not members:
        raise EmptyInputError("ensemble requires at least one member")
    one_story(story, "ensemble_sort")
    if k is None:
        k = top_k(story.n)
    check_k(story.n, k)
    candidates = []
    for idx, member in enumerate(members):
        try:
            candidates.append(models.top_permutations(member, story, k))
        except Exception as e:
            raise MemberError(
                f"member {idx} ({type(member).__name__}) failed on story "
                f"{story.story_id}: {e}"
            ) from e
    (order,) = decode_votes(accumulate_votes(np.concatenate(candidates, axis=1)))
    return Permutation(tuple(order))
