"""Unary position model: per-element position distributions decoded by assignment.

Each element is scored independently with an n-way softmax over
positions; the story-level score of a permutation is the sum of the
chosen per-element probabilities, maximized exactly by the assignment
solver. Training is per-element softmax cross-entropy on gold positions.

Scoring runs over a sequence of S stories at once: one (S, n, d) feature
array and one forward pass give an (S, n, n) stack of probability
matrices, and each story's matrix is bit-identical to scoring that story
alone. Decoding stays one assignment solve per story, and decode_unary
returns the orders as an (S, n) intp array. predict is the one-story
case and returns a core.Permutation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import neural
from .assign import hungarian_max
from .core import Permutation
from .data import Story, gold_features, presented_features
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


def position_probs(model: UnaryModel, stories: Sequence[Story]) -> np.ndarray:
    """(S, n, n) stack of row-stochastic matrices; row k of matrix s is the
    position distribution of the k-th presented element of stories[s]."""
    feats = presented_features(stories, model.use_image)
    if feats.shape[1] != model.n:
        raise DimensionError(f"story has n={feats.shape[1]}, model expects n={model.n}")
    return neural.softmax(neural.mlp_forward(model.mlp, feats))


def decode_unary(probs) -> np.ndarray:
    """(S, n) exact argmax orders of the unary score of the matrices of an (S, n, n) stack."""
    a = np.asarray(probs, dtype=np.float64)
    if a.ndim != 3:
        raise ValidationError(f"expected an (S, n, n) stack of score matrices, got shape {a.shape}")
    return np.array([hungarian_max(m)[0] for m in a], dtype=np.intp).reshape(a.shape[:2])


def predict(model: UnaryModel, story: Story) -> Permutation:
    return Permutation(tuple(decode_unary(position_probs(model, [story]))[0]))


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


def score_floats(model: UnaryModel, n: int) -> int:
    """Floats in the largest array position_probs builds per n-element story."""
    return n * max(model.mlp.layer_dims)


# The names every model module exposes to the registry in storysort.models.
Model = UnaryModel
scores = position_probs
train = train_unary
