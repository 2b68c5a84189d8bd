"""Unary position model: per-element position distributions decoded by assignment.

Each element is scored independently with an n-way softmax over
positions; the story-level score of a permutation is the sum of the
chosen per-element probabilities, maximized exactly by the assignment
solver. Training is per-element softmax cross-entropy on gold positions:
cross_entropy is the loss neural.sgd_train minimizes.

Scoring runs over a data.Stories batch of S stories at once: one
(S, n, d) feature array and one forward pass give an (S, n, n) stack of
probability matrices, each bit-identical to scoring its story alone.
Decoding is one hungarian_max call per stack, which solves its matrices
together, and decode_unary returns the orders as an (S, n) intp array,
each row the order its story decodes to alone. A story is a batch of one:
predict takes one and returns a core.Permutation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import neural
from .assign import hungarian_max
from .core import Permutation
from .data import Stories, gold_features, presented_features
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


def position_probs(model: UnaryModel, stories: Stories) -> np.ndarray:
    """(S, n, n) stack of row-stochastic matrices; row k of matrix s is the
    position distribution of the k-th presented element of stories[s]."""
    feats = presented_features(stories, model.use_image)
    if feats.shape[1] != model.n:
        raise DimensionError(f"story has n={feats.shape[1]}, model expects n={model.n}")
    return neural.softmax(neural.mlp_forward(model.mlp, feats))


def decode_unary(probs) -> np.ndarray:
    """(S, n) exact argmax orders of the unary score of the matrices of an (S, n, n) stack."""
    return hungarian_max(probs)[0]


def predict(model: UnaryModel, story: Stories) -> Permutation:
    (order,) = decode_unary(position_probs(model, story))
    return Permutation(tuple(order))


def cross_entropy(logits: np.ndarray, positions: np.ndarray) -> tuple[float, np.ndarray]:
    """Mean softmax cross-entropy of (batch, n) logits against gold positions, and its
    gradient w.r.t. the logits."""
    m = logits.max(axis=1, keepdims=True)
    # one exp serves the log-sum-exp loss and the softmax of the gradient;
    # non-finite logits make the loss NaN, which sgd_train reports
    e = np.exp(logits - m)
    total = e.sum(axis=1, keepdims=True)
    rows = np.arange(len(logits))
    loss = float((m[:, 0] + np.log(total[:, 0]) - logits[rows, positions]).mean())
    probs = e / total
    probs[rows, positions] -= 1.0
    return loss, probs / len(logits)


def train_unary(
    stories: Stories,
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
                              np.tile(np.arange(n), count), cross_entropy, cfg)
    return UnaryModel(mlp=params, n=n, use_image=use_image, train_config=cfg)


# The names every model module exposes to the registry in storysort.models.
Model = UnaryModel
scores = position_probs
train = train_unary
