"""Ordered position embeddings with an asymmetric margin penalty.

Elements are embedded into the non-negative orthant: the ReLU of the MLP
output. For a gold-ordered pair (earlier i, later j) the penalty is
||max(0, alpha - (x_j - x_i))||^2, zero exactly when the later embedding
exceeds the earlier one by at least alpha in every coordinate, so
training pushes later elements farther from the origin. At test time the
penalty of orienting i before j is negated into a pair score matrix:
low penalty means preferred order. In the model registry
(storysort.models) NPE is therefore a pair-score kind, like the pairwise
model: it is decoded by the pairwise ordering decoder, and its top-k
list comes from the same ranking of all orders.

npe_scores runs over a data.Stories batch of S stories at once: one
forward pass embeds every presented element, and the penalties of all
ordered pairs form an (S, n, n) stack, each matrix bit-identical to
scoring its story alone. A story is a batch of one: predict takes one and
returns a core.Permutation. The training loss, order_loss, is the same
penalty summed over each story's gold-ordered pairs: order_margins serves
both, so scoring and training cannot drift apart.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from . import neural, pairwise
from .core import Permutation
from .data import Stories, gold_features, presented_features
from .errors import ValidationError
from .neural import MlpParams, TrainConfig

MODEL_KIND = "npe"

DEFAULT_ALPHA = 1.0
DEFAULT_EMBED_DIM = 32


@dataclass
class NpeModel:
    """MLP embedder whose output goes through a ReLU; alpha is the per-coordinate margin."""

    mlp: MlpParams
    alpha: float = DEFAULT_ALPHA
    use_image: bool = False
    train_config: TrainConfig | None = None

    def __post_init__(self) -> None:
        if not self.alpha > 0:
            raise ValidationError(f"alpha must be > 0, got {self.alpha}")


def order_margins(emb: np.ndarray, alpha: float) -> np.ndarray:
    """m[..., i, j, :] = max(0, alpha - (e_j - e_i)) for embeddings emb of shape (..., n, k).

    The squared norm of m[..., i, j, :] is the penalty of placing i before j;
    the result has shape (..., n, n, k).
    """
    return np.maximum(0.0, alpha - (emb[..., None, :, :] - emb[..., :, None, :]))


def _penalties(emb: np.ndarray, alpha: float) -> np.ndarray:
    """P[..., i, j] = ||max(0, alpha - (e_j - e_i))||^2 for embeddings of shape (..., n, k)."""
    m = order_margins(emb, alpha)
    return np.sum(m * m, axis=-1)


def order_loss(out: np.ndarray, y: None, alpha: float) -> tuple[float, np.ndarray]:
    """Mean per-story penalty of the gold order, and its gradient w.r.t. the MLP output.

    out is the (batch, n, k) output for gold-ordered stories, before the
    ReLU that makes it embeddings. Each story contributes the sum over
    ordered pairs i < j of ||max(0, alpha - (e_j - e_i))||^2.
    """
    batch, n, _ = out.shape
    earlier = np.triu(np.ones((n, n)), 1)[:, :, None]  # pairs i < j
    m = order_margins(neural.relu(out), alpha) * earlier
    loss = float(np.sum(m * m)) / batch
    # e_i gains +2m from each later j, e_j gains -2m from each earlier i
    d_emb = 2.0 * (m.sum(axis=2) - m.sum(axis=1)) / batch
    return loss, d_emb * (out > 0)


def npe_scores(model: NpeModel, stories: Stories) -> np.ndarray:
    """(S, n, n) stack of pair score matrices s[k][i][j] = -penalty(i before j)
    over the presented elements of stories[k].

    Raw entries are not antisymmetric (both directed penalties are
    non-negative); only the orientation differences matter downstream.
    The negation makes the decoder prefer orientations with low penalty.
    """
    feats = presented_features(stories, model.use_image)
    emb = neural.relu(neural.mlp_forward(model.mlp, feats))
    s = -_penalties(emb, model.alpha)
    diagonal = np.arange(s.shape[-1])
    s[:, diagonal, diagonal] = 0.0
    return s


def predict(model: NpeModel, story: Stories) -> Permutation:
    (order,) = pairwise.decode_pairwise(npe_scores(model, story))
    return Permutation(tuple(order))


def train_npe(
    stories: Stories,
    cfg: TrainConfig,
    use_image: bool = False,
    hidden_units: int = neural.DEFAULT_HIDDEN_UNITS,
    embed_dim: int = DEFAULT_EMBED_DIM,
    alpha: float = DEFAULT_ALPHA,
) -> NpeModel:
    """Minimize the mean per-story ordered-embedding penalty by SGD.

    Each training row is one story's gold-ordered feature matrix;
    gradients flow through the elementwise margin max and the ReLU with
    subgradient 0 at each kink. embed_dim must be >= 1 and alpha > 0.
    """
    if not alpha > 0:
        raise ValidationError(f"alpha must be > 0, got {alpha}")
    X = gold_features(stories, use_image)
    rng = np.random.default_rng(cfg.seed)
    params = neural.init_mlp((X.shape[-1], hidden_units, embed_dim), rng)
    params = neural.sgd_train(params, X, None, partial(order_loss, alpha=alpha), cfg)
    return NpeModel(mlp=params, alpha=alpha, use_image=use_image, train_config=cfg)


# The names every model module exposes to the registry in storysort.models.
Model = NpeModel
scores = npe_scores
train = train_npe
