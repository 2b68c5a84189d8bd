"""Pairwise order model: learned scores for placing one element before another.

A pair scorer maps the concatenated features of an ordered element pair
(i, j) to a scalar s[i][j], the score for putting i before j. A
permutation's objective sums, over every unordered pair, the score
difference of the orientation it chooses, so it is antisymmetric under
reversal by construction. Decoding is exact for n <= 8: core.rank_orders,
the one ranker of permutation table rows, ranks all n! orders by exact
objective, ties going to the lexicographically smallest positions tuple,
with float objectives that add the pairs row-major in (i, j). Training
uses a binary hinge on both orientations of every gold pair: hinge is the
loss neural.sgd_train minimizes, its margin bound by functools.partial.

Scoring and decoding run over a data.Stories batch of S stories at once:
pair_scores makes one forward pass over every story's pair rows and
returns an (S, n, n) stack, each matrix bit-identical to scoring its story
alone. decode_pairwise and rank_permutations take that stack and rank it
in one rank_orders call: the (S, n) intp array of best orders, and the
(S, k, n) k-best lists. A story is a batch of one: predict takes one and
returns a core.Permutation.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from . import neural
from .assign import check_score_matrix
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


def check_pair_matrix(s) -> np.ndarray:
    """assign.check_score_matrix's (S, n, n) stack, each diagonal fixed at 0."""
    a = check_score_matrix(s)
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
    """The (S, k, n) best orders of each matrix of an (S, n, n) stack by objective, with
    their (S, k) objectives, ranked by core.rank_orders."""
    return rank_orders(check_pair_matrix(s), k, pair=True)


def decode_pairwise(s) -> np.ndarray:
    """The (S, n) best orders of the matrices of an (S, n, n) stack, ranked by core.rank_orders."""
    return rank_orders(check_pair_matrix(s), 1, pair=True)[0][:, 0]


def predict(model: PairwiseModel, story: Stories) -> Permutation:
    (order,) = decode_pairwise(pair_scores(model, story))
    return Permutation(tuple(order))


def hinge(out: np.ndarray, labels: np.ndarray, margin: float) -> tuple[float, np.ndarray]:
    """Mean hinge max(0, margin - y*s) of (batch, 1) scores s against +-1 labels y, and
    its gradient w.r.t. the scores."""
    slack = margin - labels * out[:, 0]
    active = slack > 0  # subgradient 0 exactly at the kink
    batch = len(out)
    loss = float(np.sum(np.where(active, slack, 0.0)) / batch)
    return loss, ((-labels * active) / batch)[:, None]


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
                              partial(hinge, margin=margin), cfg)
    return PairwiseModel(mlp=params, use_image=use_image, margin=margin, train_config=cfg)


# The names every model module exposes to the registry in storysort.models.
Model = PairwiseModel
scores = pair_scores
train = train_pairwise
