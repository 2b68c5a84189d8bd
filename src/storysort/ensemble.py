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
only.

ensemble_sort takes any data.Stories batch and votes over it in passes of
at most CHUNK_FLOATS // n² stories, so that no pass's vote stack outgrows
core.CHUNK_FLOATS: each member's top_permutations of the pass, joined on
the candidate axis, then one accumulate_votes and one decode_votes. It
returns the batch's data.Orders, whose row s equals the vote over
stories[s] alone.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from . import models
from .assign import hungarian_max
from .core import CHUNK_FLOATS, is_permutation
from .data import Orders, Stories
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


def ensemble_sort(members: Sequence[models.AnyModel], stories: Stories,
                  k: int | None = None) -> Orders:
    """Pool each member's top-k candidates for every story of a batch, tally votes, and
    decode each story's consensus, CHUNK_FLOATS // n² stories (at least one) a pass.

    k defaults to top_k(n), and k >= n! raises SizeError; no stories give (0, n)
    rows whatever k. A member that fails raises MemberError naming it.
    """
    if not members:
        raise EmptyInputError("ensemble requires at least one member")
    if stories:
        k = top_k(stories.n) if k is None else k
        check_k(stories.n, k)
        per_pass = max(1, CHUNK_FLOATS // stories.n**2)
        rows = np.concatenate([_vote(members, stories[start:start + per_pass], k)
                               for start in range(0, len(stories), per_pass)])
    else:
        rows = np.empty((0, stories.n), dtype=np.intp)
    return Orders(rows)


def _vote(members: Sequence[models.AnyModel], stories: Stories, k: int) -> np.ndarray:
    """The (S, n) consensus rows of one pass: one vote stack, decoded in one call."""
    candidates = []
    for idx, member in enumerate(members):
        try:
            candidates.append(models.top_permutations(member, stories, k))
        except Exception as e:
            ids = stories.story_ids
            where = f"story {ids[0]}" if len(ids) == 1 else f"stories {ids[0]} to {ids[-1]}"
            raise MemberError(
                f"member {idx} ({type(member).__name__}) failed on {where}: {e}", idx
            ) from e
    return decode_votes(accumulate_votes(np.concatenate(candidates, axis=1)))
