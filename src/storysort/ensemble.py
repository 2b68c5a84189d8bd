"""Voting ensemble: pool each member's top-k orders and decode by assignment.

Members may be of any registered model kind (storysort.models). A
member's top-k list is keyed by its score type: additive position scores
(unary) give the k best assignments, pair scores (pairwise, NPE) the k
best orders by the ordering objective. Candidates are the rows of an
(m, n) intp array of orders; every candidate casts one vote per element
for the position it assigns, and the consensus order is the assignment
maximizing total votes received. Votes are unweighted, so a member's
first and third choice count the same. ensemble_sort runs one story and
returns a core.Permutation, the one-story public type.
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


def accumulate_votes(candidates) -> np.ndarray:
    """Vote matrix v[i][j] = number of rows of an (m, n) candidate array placing element i
    at position j. Rows must be permutations of 0..n-1, as the decoders return them."""
    cands = np.asarray(candidates)
    if not cands.size:
        raise EmptyInputError("accumulate_votes requires at least one candidate")
    if cands.ndim != 2:
        raise DimensionError(f"candidates must be an (m, n) array of orders, got {cands.shape}")
    n = cands.shape[1]
    votes = np.zeros((n, n), dtype=np.int64)
    np.add.at(votes, (np.arange(n), cands), 1)
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


def decode_votes(v) -> np.ndarray:
    """The (n,) assignment maximizing total votes; ties go to the smallest positions tuple."""
    return hungarian_max(check_vote_matrix(v).astype(np.float64))[0]


def ensemble_sort(members: Sequence[models.AnyModel], story: Story,
                  k: int = DEFAULT_TOP_K) -> Permutation:
    """Pool each member's top-k candidates, tally votes, decode the consensus."""
    if not members:
        raise EmptyInputError("ensemble requires at least one member")
    if k < 1:
        raise ValidationError(f"k must be >= 1, got {k}")
    candidates = []
    for idx, member in enumerate(members):
        try:
            candidates.append(models.top_permutations(member, story, k)[0])
        except Exception as e:
            raise MemberError(
                f"member {idx} ({type(member).__name__}) failed on story "
                f"{story.story_id}: {e}"
            ) from e
    return Permutation(tuple(decode_votes(accumulate_votes(np.concatenate(candidates)))))
