"""Pairwise order model: learned scores for placing one element before another.

A pair scorer maps the concatenated features of an ordered element pair
(i, j) to a scalar s[i][j], the score for putting i before j. A
permutation's objective sums, over every unordered pair, the score
difference of the orientation it chooses, so it is antisymmetric under
reversal by construction. Decoding is exact for n <= 8. A story whose
pair preferences form a transitive tournament is certified in O(n²): the
order of its win counts is the unique exact optimum. Only the other
stories go to core.rank_orders, the one ranker of permutation table rows,
which ranks all n! orders by exact objective, ties going to the
lexicographically smallest positions tuple.
Training uses a binary hinge on both orientations of every gold pair: hinge
is the loss neural.sgd_train minimizes, its margin bound by functools.partial.
The training set's pair rows are gathered per mini-batch, never all at once:
PairRowSource holds the gold-order element features and, per pair row, the
indices of its two elements, 16 bytes a row where the row itself holds 2d
floats. pair_rows (scoring) and PairRowSource (training) take their pairs
from one table, _pairs, so the two cannot drift apart.

Scoring and decoding run over a data.Stories batch of S stories at once:
pair_scores makes one forward pass over every story's pair rows and
returns an (S, n, n) stack, each matrix bit-identical to scoring its story
alone. decode_pairwise and rank_permutations take that stack.
decode_pairwise gives the (S, n) intp array of best orders: the certified
stories' from one pass of win counts, the rest from one rank_orders call.
rank_permutations gives the (S, k, n) k-best lists, always from
rank_orders. A story is a batch of one: predict takes one and returns a
core.Permutation.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, partial

import numpy as np

from . import neural
from .assign import check_score_matrix
from .core import Permutation, check_enumeration_cap, rank_orders
from .data import Stories, gold_features, one_story, presented_features
from .errors import ValidationError
from .neural import EpochLog, MlpParams, TrainConfig

MODEL_KIND = "pairwise"

DEFAULT_MARGIN = 1.0


@dataclass
class PairwiseModel:
    """MLP from a concatenated feature pair to one before/after score."""

    mlp: MlpParams
    use_image: bool = False
    margin: float = DEFAULT_MARGIN
    train_config: TrainConfig | None = None
    epoch_log: EpochLog | None = None  # from training; checkpoints do not hold it

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


@lru_cache(maxsize=8)
def _pairs(n: int) -> np.ndarray:
    """(n(n-1), 2) read-only table of the ordered pairs (i, j), i != j, row-major in
    (i, j): the order of pair rows, built once per n."""
    pairs = np.argwhere(~np.eye(n, dtype=bool))
    pairs.flags.writeable = False
    return pairs


def pair_rows(feats: np.ndarray) -> np.ndarray:
    """Rows [x_i, x_j] for every ordered pair i != j, row-major in (i, j).

    feats has shape (..., n, d); the result has shape (..., n(n-1), 2d).
    """
    *lead, n, d = feats.shape
    return feats[..., _pairs(n), :].reshape(*lead, n * (n - 1), 2 * d)


class PairRowSource:
    """The rows of pair_rows(feats) for an (S, n, d) stack, as one (S·n(n-1), 2d)
    training set whose rows are gathered per mini-batch.

    It holds feats as (S·n, d) element rows and an (S·n(n-1), 2) table of
    the element rows of each pair row. source[idx] equals
    pair_rows(feats).reshape(-1, 2d)[idx], float for float and C-contiguous,
    from one take; it is the row source neural.sgd_train accepts for X.
    """

    ndim = 2

    def __init__(self, feats: np.ndarray) -> None:
        count, n, d = feats.shape
        self._elements = feats.reshape(count * n, d)
        self._table = (np.arange(0, count * n, n)[:, None, None] + _pairs(n)).reshape(-1, 2)
        self.shape = (len(self._table), 2 * d)

    def __len__(self) -> int:
        return self.shape[0]

    def __getitem__(self, idx: np.ndarray) -> np.ndarray:
        return self._elements.take(self._table[idx], axis=0).reshape(-1, self.shape[1])


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


def rank_permutations(s, k: int) -> np.ndarray:
    """The (S, k, n) best orders of each matrix of an (S, n, n) stack by objective."""
    return rank_orders(check_pair_matrix(s), k, pair=True)


def decode_pairwise(s) -> np.ndarray:
    """The (S, n) best orders of the matrices of an (S, n, n) stack.

    A story whose preferences (i beats j when s[i, j] > s[j, i]) form a
    transitive tournament, win counts 0..n-1, is certified: the order of its
    wins takes every pair term at its strict maximum, so it is the unique
    exact optimum. Only the other stories are ranked by core.rank_orders.
    The n <= MAX_ENUMERATION_N cap holds for every stack.
    """
    a = check_pair_matrix(s)
    n = a.shape[-1]
    check_enumeration_cap(n)
    wins = (a > a.transpose(0, 2, 1)).sum(axis=2, dtype=np.intp)  # compares, never subtracts
    orders = n - 1 - wins
    rest = np.flatnonzero(~(np.sort(wins, axis=1) == np.arange(n)).all(axis=1))
    if len(rest):
        orders[rest] = rank_orders(a[rest], 1, pair=True)[:, 0]
    return orders


def predict(model: PairwiseModel, story: Stories) -> Permutation:
    (order,) = decode_pairwise(pair_scores(model, one_story(story, "pairwise.predict")))
    return Permutation(tuple(order))


def hinge(out: np.ndarray, labels: np.ndarray, margin: float) -> tuple[float, np.ndarray]:
    """Mean hinge max(0, margin - y*s) of (batch, 1) scores s against +-1 labels y, and
    its gradient w.r.t. the scores."""
    slack = margin - labels * out[:, 0]
    active = slack > 0  # subgradient 0 exactly at the kink
    batch = len(out)
    loss = float(np.add.reduce(np.where(active, slack, 0.0)) / batch)  # np.sum's reduction
    return loss, ((-labels * active) / batch)[:, None]


def _rows(stories: Stories, use_image: bool) -> tuple[PairRowSource, np.ndarray]:
    """Training rows: every ordered element pair of every story, labeled +1 when its
    first element's gold position precedes its second's, otherwise -1."""
    feats = gold_features(stories, use_image)
    # in gold order the pair (i, j) is +1 exactly when i < j
    i, j = _pairs(feats.shape[1]).T
    return PairRowSource(feats), np.tile(np.where(i < j, 1.0, -1.0), len(feats))


def train_pairwise(
    stories: Stories,
    cfg: TrainConfig,
    margin: float = DEFAULT_MARGIN,
    use_image: bool = False,
    hidden_units: int = neural.DEFAULT_HIDDEN_UNITS,
    val: Stories | None = None,
) -> PairwiseModel:
    """Hinge-train on every ordered element pair of every story, stopped early on the
    val stories if any.

    Both orientations of a pair appear as separate examples, so the two
    directed scores are learned independently.
    """
    if not margin > 0:
        raise ValidationError(f"margin must be > 0, got {margin}")
    X, y = _rows(stories, use_image)
    rng = np.random.default_rng(cfg.seed)
    params = neural.init_mlp((X.shape[1], hidden_units, 1), rng)
    params, log = neural.sgd_train(params, X, y, partial(hinge, margin=margin), cfg,
                                   val=_rows(val, use_image) if val else None)
    return PairwiseModel(mlp=params, use_image=use_image, margin=margin, train_config=cfg,
                         epoch_log=log)


# The names every model module exposes to the registry in storysort.models.
Model = PairwiseModel
scores = pair_scores
train = train_pairwise
