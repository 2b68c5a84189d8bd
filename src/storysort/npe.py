"""Ordered position embeddings with an asymmetric margin penalty.

Elements are embedded into the non-negative orthant (terminal ReLU).
For a gold-ordered pair (earlier i, later j) the penalty is
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
returns a core.Permutation. The training loss, the same penalty summed
over a story's gold-ordered pairs, is neural.npe_order_head.
"""

from __future__ import annotations

from dataclasses import dataclass

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
    """MLP embedder with terminal ReLU; alpha is the per-coordinate margin."""

    mlp: MlpParams
    alpha: float = DEFAULT_ALPHA
    use_image: bool = False
    train_config: TrainConfig | None = None

    def __post_init__(self) -> None:
        if not self.alpha > 0:
            raise ValidationError(f"alpha must be > 0, got {self.alpha}")

    @property
    def embed_dim(self) -> int:
        return self.mlp.output_dim


def _penalties(emb: np.ndarray, alpha: float) -> np.ndarray:
    """P[..., i, j] = ||max(0, alpha - (e_j - e_i))||^2 for embeddings of shape (..., n, k)."""
    m = neural.order_margins(emb, alpha)
    return np.sum(m * m, axis=-1)


def npe_scores(model: NpeModel, stories: Stories) -> np.ndarray:
    """(S, n, n) stack of pair score matrices s[k][i][j] = -penalty(i before j)
    over the presented elements of stories[k].

    Raw entries are not antisymmetric (both directed penalties are
    non-negative); only the orientation differences matter downstream.
    The negation makes the decoder prefer orientations with low penalty.
    """
    feats = presented_features(stories, model.use_image)
    emb = neural.mlp_forward(model.mlp, feats, terminal_relu=True)
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
    gradients flow through the elementwise margin max with subgradient 0
    at the kink. embed_dim must be >= 1 and alpha > 0.
    """
    X = gold_features(stories, use_image)
    rng = np.random.default_rng(cfg.seed)
    params = neural.init_mlp((X.shape[-1], hidden_units, embed_dim), rng)
    params = neural.sgd_train(params, X, None, neural.npe_order_head(alpha), cfg)
    return NpeModel(mlp=params, alpha=alpha, use_image=use_image, train_config=cfg)


def score_floats(model: NpeModel, n: int) -> int:
    """Floats in the largest array npe_scores builds per n-element story: the
    hidden activations or the (n, n, embed_dim) order margins."""
    return max(n * max(model.mlp.layer_dims), n * n * model.embed_dim)


# The names every model module exposes to the registry in storysort.models.
Model = NpeModel
scores = npe_scores
train = train_npe
