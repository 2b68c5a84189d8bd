"""One trainable MLP and its mini-batch SGD trainer.

Everything runs on float64 numpy. Hidden layers are affine + ReLU and the
final layer is affine. Gradients are hand-derived; the tests check them
against central finite differences. The trainer is plain mini-batch SGD
with optional L2 weight decay; all shuffling comes from the config seed,
so identical inputs produce bit-identical parameters.

Inputs are matrices or stacks of them, never single vectors: mlp_forward
takes a (batch, d) matrix or a (..., batch, d) stack. Training sets are
arrays, built once by the caller: ``X`` holds the input rows, of shape
(rows, d) or (rows, n, d) for rows of n elements, and ``y`` their targets
(or None), row k of one belonging to row k of the other.
sgd_train checks the width d against the model once, then runs one
forward and backward pass per mini-batch ``X[idx]``. The model kind's
loss sees only the network output, shaped as ``X[idx]`` with the output
width in place of d: ``loss(out, y[idx])`` returns the mean batch loss and
its gradient with respect to out. Each kind's module holds its own loss;
this module knows neither model kinds nor files.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import DimensionError, NumericError, ValidationError

# loss(out, y) -> (mean batch loss, gradient of that loss w.r.t. out), on one mini-batch
Loss = Callable[[np.ndarray, "np.ndarray | None"], tuple[float, np.ndarray]]

DEFAULT_HIDDEN_UNITS = 64


@dataclass
class MlpParams:
    """Per-layer weight matrices (fan_in x fan_out) and bias vectors."""

    layer_dims: tuple[int, ...]
    weights: list[np.ndarray]
    biases: list[np.ndarray]

    def __post_init__(self) -> None:
        dims = tuple(int(d) for d in self.layer_dims)
        object.__setattr__(self, "layer_dims", dims)
        if len(dims) < 2 or any(d < 1 for d in dims):
            raise ValidationError(f"layer_dims must be >= 2 positive entries, got {dims}")
        if len(self.weights) != len(dims) - 1 or len(self.biases) != len(dims) - 1:
            raise ValidationError("one weight matrix and bias vector per layer required")
        for k, (w, b) in enumerate(zip(self.weights, self.biases)):
            if w.shape != (dims[k], dims[k + 1]) or b.shape != (dims[k + 1],):
                raise ValidationError(
                    f"layer {k} shapes {w.shape}/{b.shape} do not match dims {dims}"
                )
            if not (np.all(np.isfinite(w)) and np.all(np.isfinite(b))):
                raise ValidationError(f"layer {k} has non-finite parameters")

    @property
    def input_dim(self) -> int:
        return self.layer_dims[0]

    @property
    def output_dim(self) -> int:
        return self.layer_dims[-1]


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float
    epochs: int
    batch_size: int = 32
    seed: int = 0
    l2: float = 0.0

    def __post_init__(self) -> None:
        if not 0 < self.learning_rate < math.inf:
            raise ValidationError(f"learning_rate must be > 0 and finite, got {self.learning_rate}")
        if self.epochs < 1:
            raise ValidationError(f"epochs must be >= 1, got {self.epochs}")
        if self.batch_size < 1:
            raise ValidationError(f"batch_size must be >= 1, got {self.batch_size}")
        if not 0 <= self.l2 < math.inf:
            raise ValidationError(f"l2 must be >= 0 and finite, got {self.l2}")


def init_mlp(layer_dims: Sequence[int], rng: np.random.Generator) -> MlpParams:
    """Uniform scaled init, limit sqrt(6/(fan_in+fan_out)); biases zero."""
    dims = tuple(int(d) for d in layer_dims)
    if any(d < 1 for d in dims):
        raise ValidationError(f"layer_dims must all be >= 1, got {dims}")
    weights, biases = [], []
    for d_in, d_out in zip(dims[:-1], dims[1:]):
        limit = np.sqrt(6.0 / (d_in + d_out))
        weights.append(rng.uniform(-limit, limit, size=(d_in, d_out)))
        biases.append(np.zeros(d_out))
    return MlpParams(dims, weights, biases)


def clone_params(params: MlpParams) -> MlpParams:
    return MlpParams(
        params.layer_dims,
        [w.copy() for w in params.weights],
        [b.copy() for b in params.biases],
    )


def relu(x: np.ndarray) -> np.ndarray:
    return np.maximum(x, 0.0)


def softmax(z) -> np.ndarray:
    """Stable softmax over the last axis; shift-invariant, rows sum to 1."""
    a = np.asarray(z, dtype=np.float64)
    if not np.all(np.isfinite(a)):
        raise ValidationError("softmax input contains non-finite entries")
    shifted = a - np.max(a, axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / np.sum(e, axis=-1, keepdims=True)


def _forward_cached(
    params: MlpParams, X: np.ndarray
) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """Forward pass keeping each layer's input and pre-activation for backprop.

    The network output is the last pre-activation.
    """
    acts = [X]
    pres = []
    for k, (w, b) in enumerate(zip(params.weights, params.biases)):
        if k:
            acts.append(relu(pres[-1]))
        pres.append(acts[-1] @ w + b)
    return acts, pres


def mlp_forward(params: MlpParams, x) -> np.ndarray:
    """Forward pass on a (batch, dim) matrix or a (..., batch, dim) stack.

    A stack is multiplied one (batch, dim) matrix at a time, so each
    matrix's output is bit-identical to a call on that matrix alone: BLAS
    picks its kernels by matrix shape, and flattening a stack into one
    matrix changes the last bits of some rows.
    """
    a = np.asarray(x, dtype=np.float64)
    if a.ndim < 2:
        raise DimensionError(f"input must be a (batch, dim) matrix or a stack, got {a.shape}")
    if a.shape[-1] != params.input_dim:
        raise DimensionError(f"input dim {a.shape[-1]} does not match model dim {params.input_dim}")
    return _forward_cached(params, a)[1][-1]


def _backward(
    params: MlpParams,
    acts: list[np.ndarray],
    pres: list[np.ndarray],
    dz: np.ndarray,
) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """Backprop from dz, the gradient w.r.t. the network output.

    ReLU subgradient at exactly zero pre-activation is 0.
    """
    L = len(params.weights)
    gws: list = [None] * L
    gbs: list = [None] * L
    for k in reversed(range(L)):
        gws[k] = acts[k].T @ dz
        gbs[k] = dz.sum(axis=0)
        if k > 0:
            dz = (dz @ params.weights[k].T) * (pres[k - 1] > 0)
    return gws, gbs


def _loss_and_grads(
    params: MlpParams, X: np.ndarray, y: np.ndarray | None, loss: Loss
) -> tuple[float, tuple[list[np.ndarray], list[np.ndarray]]]:
    """One mini-batch's mean loss and its (weight, bias) gradients.

    Rows of n elements are flattened into one (rows * n, d) matrix for the
    forward and backward pass, and loss sees their output as (rows, n, width).
    """
    acts, pres = _forward_cached(params, X.reshape(-1, params.input_dim))
    value, d_out = loss(pres[-1].reshape(*X.shape[:-1], params.output_dim), y)
    return value, _backward(params, acts, pres, d_out.reshape(-1, params.output_dim))


def sgd_train(
    params: MlpParams,
    X: np.ndarray,
    y: np.ndarray | None,
    loss: Loss,
    cfg: TrainConfig,
) -> MlpParams:
    """Mini-batch SGD over the rows of X (and y); returns updated copies of the parameters.

    Shuffling is driven by cfg.seed only. L2 decay applies to weight
    matrices, not biases, and is not included in the reported loss.
    """
    params = clone_params(params)
    if X.ndim < 2 or X.shape[-1] != params.input_dim or (y is not None and len(y) != len(X)):
        raise DimensionError(
            f"training set X {X.shape}, y {None if y is None else len(y)} rows "
            f"does not match model dim {params.input_dim}"
        )
    if len(X) == 0:
        return params
    rng = np.random.default_rng(cfg.seed)
    for epoch in range(cfg.epochs):
        order = rng.permutation(len(X))
        for start in range(0, len(X), cfg.batch_size):
            idx = order[start:start + cfg.batch_size]
            value, (gws, gbs) = _loss_and_grads(params, X[idx], None if y is None else y[idx],
                                                loss)
            if not np.isfinite(value):
                raise NumericError(
                    f"non-finite loss at epoch {epoch}, batch {start // cfg.batch_size}"
                )
            for k in range(len(params.weights)):
                gw = gws[k]
                if cfg.l2 > 0:
                    gw = gw + cfg.l2 * params.weights[k]
                params.weights[k] -= cfg.learning_rate * gw
                params.biases[k] -= cfg.learning_rate * gbs[k]
    return params
