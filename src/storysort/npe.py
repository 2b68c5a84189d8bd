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
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import neural, pairwise
from .core import Permutation, as_float_vector
from .data import Story, check_dataset, feature_dim, story_feature_matrix
from .errors import DimensionError, EmptyInputError, ValidationError
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


@dataclass(frozen=True)
class NpeConfig:
    train: TrainConfig
    embed_dim: int = DEFAULT_EMBED_DIM
    alpha: float = DEFAULT_ALPHA

    def __post_init__(self) -> None:
        if self.embed_dim < 1:
            raise ValidationError(f"embed_dim must be >= 1, got {self.embed_dim}")
        if not self.alpha > 0:
            raise ValidationError(f"alpha must be > 0, got {self.alpha}")


def embed(model: NpeModel, features) -> np.ndarray:
    """Embed one feature vector; every output coordinate is >= 0."""
    x = as_float_vector(features, "features")
    if x.shape[0] != model.mlp.input_dim:
        raise DimensionError(
            f"feature dim {x.shape[0]} does not match model dim {model.mlp.input_dim}"
        )
    return neural.mlp_forward(model.mlp, x, terminal_relu=True)


def npe_pair_loss(x_i, x_j, alpha: float) -> float:
    """||max(0, alpha - (x_j - x_i))||^2, elementwise margin then squared norm."""
    a = as_float_vector(x_i, "x_i")
    b = as_float_vector(x_j, "x_j")
    if a.shape != b.shape:
        raise DimensionError(f"embedding dims differ: {a.shape} vs {b.shape}")
    if not alpha > 0:
        raise ValidationError(f"alpha must be > 0, got {alpha}")
    m = np.maximum(0.0, alpha - (b - a))
    return float(np.dot(m, m))


def npe_story_loss(model: NpeModel, story: Story) -> float:
    """Sum of pair penalties over all gold-ordered pairs of one story."""
    feats = story_feature_matrix(story, model.use_image, view="gold")
    emb = neural.mlp_forward(model.mlp, feats, terminal_relu=True)
    n = story.n
    total = 0.0
    for i in range(n):
        for j in range(i + 1, n):
            total += npe_pair_loss(emb[i], emb[j], model.alpha)
    return total


def npe_scores(model: NpeModel, story: Story) -> np.ndarray:
    """Pair score matrix s[i][j] = -penalty(i before j) over presented elements.

    Raw entries are not antisymmetric (both directed penalties are
    non-negative); only the orientation differences matter downstream.
    The negation makes the decoder prefer orientations with low penalty.
    """
    feats = story_feature_matrix(story, model.use_image, view="presented")
    emb = neural.mlp_forward(model.mlp, feats, terminal_relu=True)
    n = story.n
    s = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            if i != j:
                s[i, j] = -npe_pair_loss(emb[i], emb[j], model.alpha)
    return s


def predict(model: NpeModel, story: Story) -> Permutation:
    return pairwise.decode_pairwise(npe_scores(model, story))


def train_npe(
    stories: Sequence[Story],
    cfg: NpeConfig,
    use_image: bool = False,
    hidden_units: int = neural.DEFAULT_HIDDEN_UNITS,
) -> NpeModel:
    """Minimize the mean per-story ordered-embedding penalty by SGD.

    Each training item is one story's gold-ordered feature matrix;
    gradients flow through the elementwise margin max with subgradient 0
    at the kink.
    """
    stories = list(stories)
    if not stories:
        raise EmptyInputError("train_npe requires at least one story")
    check_dataset(stories)
    dim = feature_dim(stories, use_image)
    data = [
        (story_feature_matrix(story, use_image, view="gold"), None)
        for story in stories
    ]
    rng = np.random.default_rng(cfg.train.seed)
    params = neural.init_mlp((dim, hidden_units, cfg.embed_dim), rng)
    params = neural.sgd_train(params, data, neural.npe_order_head(cfg.alpha), cfg.train)
    return NpeModel(mlp=params, alpha=cfg.alpha, use_image=use_image,
                    train_config=cfg.train)



def train(stories: Sequence[Story], cfg: TrainConfig, use_image: bool = False,
          hidden_units: int = neural.DEFAULT_HIDDEN_UNITS,
          embed_dim: int = DEFAULT_EMBED_DIM, alpha: float = DEFAULT_ALPHA) -> NpeModel:
    """train_npe with the keyword arguments the registry passes to every kind."""
    return train_npe(stories, NpeConfig(cfg, embed_dim, alpha), use_image, hidden_units)


# The names every model module exposes to the registry in storysort.models.
Model = NpeModel
scores = npe_scores
