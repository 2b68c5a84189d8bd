"""Pairwise order model: learned scores for placing one element before another.

A pair scorer maps the concatenated features of an ordered element pair
(i, j) to a scalar s[i][j], the score for putting i before j. A
permutation's objective sums, over every unordered pair, the score
difference of the orientation it chooses, so it is antisymmetric under
reversal by construction. Decoding is exact for n <= 8: core.rank_orders,
the one ranker of permutation table rows, ranks all n! orders by exact
objective, ties going to the lexicographically smallest positions tuple,
with float objectives that add the pairs row-major in (i, j). Training
uses a binary hinge on both orientations of every gold pair.

Scoring and decoding run over a data.Stories batch of S stories at once:
pair_scores makes one forward pass over every story's pair rows and
returns an (S, n, n) stack, each matrix bit-identical to scoring its story
alone, and decode_pairwise ranks them in one rank_orders call and returns
the orders as an (S, n) intp array. A story is a batch of one: predict
takes one and returns a core.Permutation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import neural
from .core import Permutation, rank_orders
from .data import Stories, gold_features, presented_features
from .errors import ValidationError
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


def pair_scores(model: PairwiseModel, stories: Stories) -> np.ndarray:
    """(S, n, n) stack; s[k][i][j] = score of presented element i before presented
    element j of stories[k]; diagonals 0.

    Orientations are scored independently, no symmetry is imposed.
    """
    feats = presented_features(stories, model.use_image)
    count, n, _ = feats.shape
    s = np.zeros((count, n, n))
    s[:, ~np.eye(n, dtype=bool)] = neural.mlp_forward(model.mlp, pair_rows(feats))[..., 0]
    return s


def rank_permutations(s, k: int) -> tuple[np.ndarray, np.ndarray]:
    """The (k, n) best orders by objective, with their (k,) objectives, ranked by
    core.rank_orders."""
    orders, totals = rank_orders(check_pair_matrix(s)[None], k, pair=True)
    return orders[0], totals[0]


def decode_pairwise(s) -> np.ndarray:
    """The (S, n) best orders of the matrices of an (S, n, n) stack, ranked by core.rank_orders."""
    return rank_orders(check_pair_matrix(s, ndim=3), 1, pair=True)[0][:, 0]


def predict(model: PairwiseModel, story: Stories) -> Permutation:
    (order,) = decode_pairwise(pair_scores(model, story))
    return Permutation(tuple(order))


def train_pairwise(
    stories: Stories,
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
