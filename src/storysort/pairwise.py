"""Pairwise order model: learned scores for placing one element before another.

A pair scorer maps the concatenated features of an ordered element pair
(i, j) to a scalar s[i][j], the score for putting i before j. A
permutation's objective sums, over every unordered pair, the score
difference of the orientation it chooses, so it is antisymmetric under
reversal by construction. Decoding is exact for n <= 8: the objective of
all n! orders is computed at once with array operations over the
permutation table, adding the pair terms in the order pairwise_objective
does, so every value is bit-identical to it. Training uses a binary hinge
on both orientations of every gold pair.

Scoring and decoding run over a sequence of S stories at once:
pair_scores makes one forward pass over every story's pair rows and
returns an (S, n, n) stack, each matrix bit-identical to scoring its
story alone, and decode_pairwise scores all n! orders of every matrix in
the stack with the same per-pair adds, then takes one argmax per story.
predict is the one-story case.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import neural
from .core import Permutation, check_top_k, permutation_table
from .data import Story, gold_features, presented_features
from .errors import DimensionError, ValidationError
from .neural import MlpParams, TrainConfig

MODEL_KIND = "pairwise"

DEFAULT_MARGIN = 1.0


@dataclass
class PairwiseModel:
    """MLP from a concatenated feature pair to one before/after score."""

    mlp: MlpParams
    use_image: bool = False
    margin: float = DEFAULT_MARGIN
    train_config: TrainConfig | None = None

    def __post_init__(self) -> None:
        if self.mlp.output_dim != 1:
            raise ValidationError(
                f"pairwise model must output one score, got dim {self.mlp.output_dim}"
            )
        if not self.margin > 0:
            raise ValidationError(f"margin must be > 0, got {self.margin}")


def check_pair_matrix(s, ndim: int = 2) -> np.ndarray:
    """Square, finite, zero-diagonal matrix of ordered-pair scores; with ndim=3, a stack of them."""
    a = np.asarray(s, dtype=np.float64)
    if a.ndim != ndim or a.shape[-1] != a.shape[-2]:
        what = "matrix" if ndim == 2 else "stack of (n, n) matrices"
        raise ValidationError(f"pair score {what} must be square, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValidationError("pair score matrix contains non-finite entries")
    if np.any(np.diagonal(a, axis1=-2, axis2=-1) != 0.0):
        raise ValidationError("pair score matrix diagonal must be fixed at 0")
    return a


def pair_rows(feats: np.ndarray) -> np.ndarray:
    """Rows [x_i, x_j] for every ordered pair i != j, row-major in (i, j).

    feats has shape (..., n, d); the result has shape (..., n(n-1), 2d).
    """
    i, j = np.nonzero(~np.eye(feats.shape[-2], dtype=bool))
    return np.concatenate([feats[..., i, :], feats[..., j, :]], axis=-1)


def pair_scores(model: PairwiseModel, stories: Sequence[Story]) -> np.ndarray:
    """(S, n, n) stack; s[k][i][j] = score of presented element i before presented
    element j of stories[k]; diagonals 0.

    Orientations are scored independently, no symmetry is imposed.
    """
    feats = presented_features(stories, model.use_image)
    count, n, _ = feats.shape
    s = np.zeros((count, n, n))
    s[:, ~np.eye(n, dtype=bool)] = neural.mlp_forward(model.mlp, pair_rows(feats))[..., 0]
    return s


def pairwise_objective(s, sigma: Permutation) -> float:
    """For each unordered pair, add the score difference of the chosen orientation."""
    a = check_pair_matrix(s)
    n = a.shape[0]
    if sigma.n != n:
        raise DimensionError(f"permutation n={sigma.n} does not match matrix n={n}")
    pos = sigma.positions
    total = 0.0
    for i in range(n):
        for j in range(i + 1, n):
            diff = a[i, j] - a[j, i]
            total += diff if pos[i] < pos[j] else -diff
    return float(total)


def _all_objectives(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The permutation table of n and pairwise_objective of each of its rows, per matrix.

    a is an (S, n, n) stack; values has shape (S, n!). Pair terms are added
    in pairwise_objective's order (i < j, row-major), so each value is
    bit-identical to the scalar one. permutation_table raises
    EnumerationCapError beyond MAX_ENUMERATION_N.
    """
    n = a.shape[-1]
    table = permutation_table(n)
    diff = a - a.transpose(0, 2, 1)  # diff[:, i, j] = a[:, i, j] - a[:, j, i]
    values = np.zeros((len(a), len(table)))
    for i in range(n):
        for j in range(i + 1, n):
            d = diff[:, i, j, None]
            values += np.where(table[:, i] < table[:, j], d, -d)
    return table, values


def rank_permutations(s, k: int | None = None) -> list[tuple[Permutation, float]]:
    """The k best permutations (all n! when k is None) by descending objective.

    Ties break lexicographically on the positions tuple.
    """
    a = check_pair_matrix(s)
    if k is not None:
        check_top_k(a.shape[0], k)
    table, values = _all_objectives(a[None])
    # the sort is stable, so tied rows keep the table's lexicographic order
    rows = np.argsort(-values[0], kind="stable")[:k]
    return [(Permutation(tuple(table[r])), float(values[0, r])) for r in rows]


def decode_pairwise(s) -> list[Permutation]:
    """Argmax of the pairwise objective over all n! permutations, for each
    matrix of an (S, n, n) stack.

    Ties go to the lexicographically smallest positions tuple.
    """
    table, values = _all_objectives(check_pair_matrix(s, ndim=3))
    return [Permutation(tuple(table[r])) for r in np.argmax(values, axis=1)]


def predict(model: PairwiseModel, story: Story) -> Permutation:
    return decode_pairwise(pair_scores(model, [story]))[0]


def train_pairwise(
    stories: Sequence[Story],
    cfg: TrainConfig,
    margin: float = DEFAULT_MARGIN,
    use_image: bool = False,
    hidden_units: int = neural.DEFAULT_HIDDEN_UNITS,
) -> PairwiseModel:
    """Hinge-train on every ordered element pair of every story.

    The pair (a, b) is labeled +1 when a's gold position precedes b's,
    otherwise -1; both orientations appear as separate examples so the
    two directed scores are learned independently.
    """
    feats = gold_features(stories, use_image)
    if not margin > 0:
        raise ValidationError(f"margin must be > 0, got {margin}")
    X = pair_rows(feats)
    count, pairs, width = X.shape
    # in gold order the pair (i, j) is +1 exactly when i < j
    i, j = pair_rows(np.arange(feats.shape[1])[:, None]).T
    labels = np.where(i < j, 1.0, -1.0)
    rng = np.random.default_rng(cfg.seed)
    params = neural.init_mlp((width, hidden_units, 1), rng)
    params = neural.sgd_train(params, X.reshape(count * pairs, width), np.tile(labels, count),
                              neural.pairwise_hinge_head(margin), cfg)
    return PairwiseModel(mlp=params, use_image=use_image, margin=margin, train_config=cfg)


def score_floats(model: PairwiseModel, n: int) -> int:
    """Floats in the largest array pair_scores builds per n-element story."""
    return n * (n - 1) * max(model.mlp.layer_dims)


# The names every model module exposes to the registry in storysort.models.
Model = PairwiseModel
scores = pair_scores
train = train_pairwise
