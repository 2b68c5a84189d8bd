"""Unary position model: per-element position distributions decoded by assignment.

Each element is scored independently with an n-way softmax over
positions; the story-level score of a permutation is the sum of the
chosen per-element probabilities, maximized exactly by the assignment
solver. Training is per-element softmax cross-entropy on gold positions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import neural
from .assign import additive_score, check_score_matrix, hungarian_max
from .core import Permutation
from .data import Story, gold_features, story_feature_matrix
from .errors import DimensionError, ValidationError
from .neural import MlpParams, TrainConfig

MODEL_KIND = "unary"


@dataclass
class UnaryModel:
    """MLP from element features to n position logits."""

    mlp: MlpParams
    n: int
    use_image: bool = False
    train_config: TrainConfig | None = None

    def __post_init__(self) -> None:
        if self.mlp.output_dim != self.n:
            raise ValidationError(
                f"unary output dim {self.mlp.output_dim} must equal n={self.n}"
            )


def position_probs(model: UnaryModel, story: Story) -> np.ndarray:
    """(n, n) row-stochastic matrix; row k is the position distribution of
    the k-th presented element."""
    if story.n != model.n:
        raise DimensionError(f"story has n={story.n}, model expects n={model.n}")
    feats = story_feature_matrix(story, model.use_image, view="presented")
    logits = neural.mlp_forward(model.mlp, feats)
    return neural.softmax(logits)


def unary_score(probs, sigma: Permutation) -> float:
    """Sum of probs[i][sigma[i]] in element-index order."""
    a = check_score_matrix(probs)
    if sigma.n != a.shape[0]:
        raise DimensionError(f"permutation n={sigma.n} does not match matrix n={a.shape[0]}")
    return additive_score(a, sigma.positions)


def decode_unary(probs) -> Permutation:
    """Exact argmax of the unary score over all permutations."""
    perm, _ = hungarian_max(probs)
    return perm


def predict(model: UnaryModel, story: Story) -> Permutation:
    return decode_unary(position_probs(model, story))


def train_unary(
    stories: Sequence[Story],
    cfg: TrainConfig,
    use_image: bool = False,
    hidden_units: int = neural.DEFAULT_HIDDEN_UNITS,
) -> UnaryModel:
    """Fit position classification: each element's features, labeled with its gold position."""
    feats = gold_features(stories, use_image)
    count, n, dim = feats.shape
    rng = np.random.default_rng(cfg.seed)
    params = neural.init_mlp((dim, hidden_units, n), rng)
    params = neural.sgd_train(params, feats.reshape(count * n, dim),
                              np.tile(np.arange(n), count), neural.softmax_ce_head(), cfg)
    return UnaryModel(mlp=params, n=n, use_image=use_image, train_config=cfg)



# The names every model module exposes to the registry in storysort.models.
Model = UnaryModel
scores = position_probs
train = train_unary
