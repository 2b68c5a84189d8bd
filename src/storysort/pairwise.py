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
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import neural
from .core import MAX_ENUMERATION_N, Permutation, best_rows, check_top_k, permutation_table
from .data import Story, check_dataset, concat_features, feature_dim, story_feature_matrix
from .errors import DimensionError, EmptyInputError, EnumerationCapError, ValidationError
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


def check_pair_matrix(s) -> np.ndarray:
    """Square, finite, zero-diagonal matrix of ordered-pair scores."""
    a = np.asarray(s, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValidationError(f"pair score matrix must be square, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValidationError("pair score matrix contains non-finite entries")
    if np.any(np.diagonal(a) != 0.0):
        raise ValidationError("pair score matrix diagonal must be fixed at 0")
    return a


def pair_scores(model: PairwiseModel, story: Story) -> np.ndarray:
    """s[i][j] = score of presented element i before presented element j; diagonal 0.

    Orientations are scored independently, no symmetry is imposed.
    """
    feats = story_feature_matrix(story, model.use_image, view="presented")
    n = story.n
    pairs = [(i, j) for i in range(n) for j in range(n) if i != j]
    batch = np.stack([np.concatenate([feats[i], feats[j]]) for i, j in pairs])
    out = neural.mlp_forward(model.mlp, batch)[:, 0]
    s = np.zeros((n, n))
    for (i, j), val in zip(pairs, out):
        s[i, j] = val
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


def _decodable_matrix(s) -> np.ndarray:
    """check_pair_matrix, then the n <= MAX_ENUMERATION_N decoding cap."""
    a = check_pair_matrix(s)
    n = a.shape[0]
    if n > MAX_ENUMERATION_N:
        raise EnumerationCapError(
            f"pairwise decoding capped at n <= {MAX_ENUMERATION_N}, got {n}"
        )
    return a


def _all_objectives(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The permutation table of n and pairwise_objective of each of its rows.

    Pair terms are added in pairwise_objective's order (i < j, row-major),
    so each value is bit-identical to the scalar one.
    """
    table = permutation_table(a.shape[0])
    values = np.zeros(len(table))
    for i in range(a.shape[0]):
        for j in range(i + 1, a.shape[0]):
            diff = a[i, j] - a[j, i]
            values += np.where(table[:, i] < table[:, j], diff, -diff)
    return table, values


def rank_permutations(s, k: int | None = None) -> list[tuple[Permutation, float]]:
    """The k best permutations (all n! when k is None) by descending objective.

    Ties break lexicographically on the positions tuple.
    """
    a = _decodable_matrix(s)
    if k is not None:
        check_top_k(a.shape[0], k)
    table, values = _all_objectives(a)
    return best_rows(table, values, len(table) if k is None else k)


def decode_pairwise(s) -> Permutation:
    """Argmax of the pairwise objective over all n! permutations.

    Ties go to the lexicographically smallest positions tuple.
    """
    a = _decodable_matrix(s)
    table, values = _all_objectives(a)
    return Permutation(tuple(table[np.argmax(values)]))


def predict(model: PairwiseModel, story: Story) -> Permutation:
    return decode_pairwise(pair_scores(model, story))


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
    stories = list(stories)
    if not stories:
        raise EmptyInputError("train_pairwise requires at least one story")
    check_dataset(stories)
    if not margin > 0:
        raise ValidationError(f"margin must be > 0, got {margin}")
    dim = feature_dim(stories, use_image)
    data = []
    for story in stories:
        feats = [concat_features(e, use_image) for e in story.elements]
        for i, a in enumerate(story.elements):
            for j, b in enumerate(story.elements):
                if i == j:
                    continue
                label = 1.0 if a.gold_position < b.gold_position else -1.0
                data.append((np.concatenate([feats[i], feats[j]]), label))
    rng = np.random.default_rng(cfg.seed)
    params = neural.init_mlp((2 * dim, hidden_units, 1), rng)
    params = neural.sgd_train(params, data, neural.pairwise_hinge_head(margin), cfg)
    return PairwiseModel(mlp=params, use_image=use_image, margin=margin, train_config=cfg)



# The names every model module exposes to the registry in storysort.models.
Model = PairwiseModel
scores = pair_scores
train = train_pairwise
