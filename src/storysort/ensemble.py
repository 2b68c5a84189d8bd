"""Voting ensemble: pool each member's top-k permutations and decode by assignment.

Members may be of any registered model kind (storysort.models). A
member's top-k list is keyed by its score type: additive position scores
(unary) give the k best assignments, pair scores (pairwise, NPE) the k
best orders by the ordering objective. Every candidate permutation casts
one vote per element for the position it assigns; the consensus order is
the assignment maximizing total votes received. Votes are unweighted, so
a member's first and third choice count the same.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from . import models
from .assign import hungarian_max
from .core import Permutation
from .data import Story
from .errors import DimensionError, EmptyInputError, MemberError, ValidationError

DEFAULT_TOP_K = 3


def accumulate_votes(candidates: Sequence[Permutation]) -> np.ndarray:
    """Vote matrix v[i][j] = number of candidates placing element i at position j."""
    candidates = list(candidates)
    if not candidates:
        raise EmptyInputError("accumulate_votes requires at least one candidate")
    n = candidates[0].n
    votes = np.zeros((n, n), dtype=np.int64)
    for cand in candidates:
        if cand.n != n:
            raise DimensionError(f"candidate n={cand.n} does not match n={n}")
        for i, pos in enumerate(cand.positions):
            votes[i, pos] += 1
    return votes


def check_vote_matrix(v) -> np.ndarray:
    a = np.asarray(v)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValidationError(f"vote matrix must be square, got shape {a.shape}")
    if not np.issubdtype(a.dtype, np.integer):
        raise ValidationError(f"vote matrix must be integer, got dtype {a.dtype}")
    if np.any(a < 0):
        raise ValidationError("vote matrix entries must be non-negative")
    return a


def decode_votes(v) -> Permutation:
    """Assignment maximizing total votes; ties go to the smallest positions tuple."""
    a = check_vote_matrix(v)
    perm, _ = hungarian_max(a.astype(np.float64))
    return perm


def ensemble_sort(members: Sequence[models.AnyModel], story: Story,
                  k: int = DEFAULT_TOP_K) -> Permutation:
    """Pool each member's top-k candidates, tally votes, decode the consensus."""
    if not members:
        raise EmptyInputError("ensemble requires at least one member")
    if k < 1:
        raise ValidationError(f"k must be >= 1, got {k}")
    candidates: list[Permutation] = []
    for idx, member in enumerate(members):
        try:
            candidates.extend(models.top_permutations(member, story, k))
        except Exception as e:
            raise MemberError(
                f"member {idx} ({type(member).__name__}) failed on story "
                f"{story.story_id}: {e}"
            ) from e
    return decode_votes(accumulate_votes(candidates))
