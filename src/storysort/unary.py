"""Unary position model: per-element position distributions decoded by assignment.

Each element is scored independently with an n-way softmax over
positions; the story-level score of a permutation is the sum of the
chosen per-element probabilities, maximized exactly by the assignment
solver. Training is per-element softmax cross-entropy on gold positions:
cross_entropy is the loss neural.sgd_train minimizes. Both take the one
softmax, _softmax_parts, which checks nothing: non-finite logits give
non-finite probabilities, which hungarian_max rejects, and a NaN loss,
which sgd_train reports.

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
from functools import lru_cache

import numpy as np

from . import neural
from .assign import hungarian_max
from .core import Permutation
from .data import Stories, gold_features, one_story, presented_features
from .errors import DimensionError, ValidationError
from .neural import EpochLog, MlpParams, TrainConfig

MODEL_KIND = "unary"


@dataclass
class UnaryModel:
    """MLP from element features to n position logits."""

    mlp: MlpParams
    n: int
    use_image: bool = False
    train_config: TrainConfig | None = None
    epoch_log: EpochLog | None = None  # from training; checkpoints do not hold it

    def __post_init__(self) -> None:
        if self.mlp.output_dim != self.n:
            raise ValidationError(
                f"unary output dim {self.mlp.output_dim} must equal n={self.n}"
            )


def _softmax_parts(logits: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Each row's max m, e = exp(logits - m) and the row sums of e, over the last axis,
    keeping that axis: the softmax is e / sums, and its log-sum-exp m + log(sums)."""
    # the reductions of np.max and np.sum, called without their wrappers
    m = np.maximum.reduce(logits, axis=-1, keepdims=True)
    e = np.exp(logits - m)
    return m, e, np.add.reduce(e, axis=-1, keepdims=True)


def position_probs(model: UnaryModel, stories: Stories) -> np.ndarray:
    """(S, n, n) stack of row-stochastic matrices; row k of matrix s is the
    position distribution of the k-th presented element of stories[s]."""
    feats = presented_features(stories, model.use_image)
    if feats.shape[1] != model.n:
        raise DimensionError(f"story has n={feats.shape[1]}, model expects n={model.n}")
    _, e, total = _softmax_parts(neural.mlp_forward(model.mlp, feats))
    return e / total


def decode_unary(probs) -> np.ndarray:
    """(S, n) exact argmax orders of the unary score of the matrices of an (S, n, n) stack."""
    return hungarian_max(probs)


def predict(model: UnaryModel, story: Stories) -> Permutation:
    (order,) = decode_unary(position_probs(model, one_story(story, "unary.predict")))
    return Permutation(tuple(order))


@lru_cache(maxsize=8)
def _row_index(count: int) -> np.ndarray:
    """np.arange(count), read-only: built once per batch size and shared by every step."""
    rows = np.arange(count)
    rows.flags.writeable = False
    return rows


def cross_entropy(logits: np.ndarray, positions: np.ndarray) -> tuple[float, np.ndarray]:
    """Mean softmax cross-entropy of (batch, n) logits against gold positions, and its
    gradient w.r.t. the logits."""
    # one exp serves the log-sum-exp loss and the softmax of the gradient
    m, e, total = _softmax_parts(logits)
    rows = _row_index(len(logits))
    # .mean()'s reduction, called without its wrapper
    loss = float(np.add.reduce(m[:, 0] + np.log(total[:, 0]) - logits[rows, positions])
                 / len(logits))
    probs = e / total
    probs[rows, positions] -= 1.0
    return loss, probs / len(logits)


def _rows(stories: Stories, use_image: bool) -> tuple[np.ndarray, np.ndarray]:
    """Training rows: each element's features, labeled with its gold position."""
    feats = gold_features(stories, use_image)
    count, n, dim = feats.shape
    return feats.reshape(count * n, dim), np.tile(np.arange(n), count)


def train_unary(
    stories: Stories,
    cfg: TrainConfig,
    use_image: bool = False,
    hidden_units: int = neural.DEFAULT_HIDDEN_UNITS,
    val: Stories | None = None,
) -> UnaryModel:
    """Fit position classification by SGD, stopped early on the val stories if any.

    The model scores only stories of the training stories' n, so val stories
    of another n raise DimensionError before training starts.
    """
    n = stories.n
    if val and val.n != n:
        raise DimensionError(f"validation stories have n={val.n}, but a unary model trained "
                             f"on stories of n={n} scores only n={n}")
    X, y = _rows(stories, use_image)
    rng = np.random.default_rng(cfg.seed)
    params = neural.init_mlp((X.shape[1], hidden_units, n), rng)
    params, log = neural.sgd_train(params, X, y, cross_entropy, cfg,
                                   val=_rows(val, use_image) if val else None)
    return UnaryModel(mlp=params, n=n, use_image=use_image, train_config=cfg, epoch_log=log)


# The names every model module exposes to the registry in storysort.models.
Model = UnaryModel
scores = position_probs
train = train_unary
