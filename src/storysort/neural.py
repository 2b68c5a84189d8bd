"""One trainable MLP and its mini-batch SGD trainer.

Everything runs on float64 numpy. Hidden layers are affine + ReLU and the
final layer is affine. Gradients are hand-derived; the tests check them
against central finite differences. The trainer is plain mini-batch SGD
with optional L2 weight decay; all shuffling comes from the config seed,
so identical inputs produce bit-identical parameters.

Inputs are matrices or stacks of them, never single vectors: mlp_forward
takes a (batch, d) matrix or a (..., batch, d) stack. A training set is
built once by the caller: ``X`` holds the input rows, of shape (rows, d)
or (rows, n, d) for rows of n elements, and ``y`` their targets (or
None), row k of one belonging to row k of the other. ``X`` is an array,
or a row source that gathers its rows on demand (pairwise.PairRowSource,
which never holds all its rows at once): anything with ``shape``,
``ndim``, ``len`` and ``X[idx]`` for an index array idx, returning the
C-contiguous rows an array would. sgd_train checks the width d against
the model once, then runs one forward and backward pass per mini-batch
``X[idx]``. The model kind's loss sees only the network output, shaped
as ``X[idx]`` with the output width in place of d: ``loss(out, y[idx])``
returns the mean batch loss and its gradient with respect to out. Each
kind's module holds its own loss, and turns the output into its scores
(unary's softmax too); this module knows neither model kinds nor files.

During training the parameters live in one flat buffer, every weight
matrix and then every bias vector, and the trained MlpParams holds views
of it. The gradients live in a second buffer of the same layout, written
in place by the backward pass, so an update is two numpy calls on whole
buffers. A step whose update cannot move a parameter ends after its
loss: with no L2 decay, an all-zero output gradient, and finite layer
inputs and output, every gradient is ±0 and w - lr * (±0) is w. (A
weight of -0.0 could turn +0.0; init and updates never make one.) A
batch whose pairs all meet the pairwise hinge's margin, or whose NPE
penalty sits wholly on ReLU-closed coordinates, gives such a step.

Training stops early on a validation set, built as the training set is
(Prechelt, "Early Stopping -- But When?", 1998). cfg.epochs is then a
cap: after each epoch sgd_train takes the mean loss over the validation
rows and keeps a copy of the parameters of the best epoch so far. An
epoch improves when its loss is below best * (1 - TOL); training stops
after PATIENCE epochs in a row without improvement, and returns the best
epoch's parameters. The relative threshold TOL = 1e-4 is PyTorch's
plateau default (sklearn's MLP uses the same 1e-4): NPE's validation loss
keeps creeping down by parts in 10^5 an epoch, and on 270 training
stories of n = 4 a strict rule stopped NPE after 33-40 of its 40 epochs,
against 9-14 with the threshold. PATIENCE = 3 lets a validation loss that
rises for one or two epochs and then falls below the best keep training.
The validation pass draws nothing from the shuffle generator, so epoch k's
parameters equal those of a run of k epochs, byte for byte. Its rows are
gathered once, into a stack of blocks no taller than a training batch,
and each epoch scores the stack in one forward pass and takes one loss
over all its rows; a stack is multiplied one matrix at a time (see
mlp_forward). One tall matrix (say 360 pair rows by 64) can wake
OpenBLAS's worker threads, and on a 2-core machine the training run after
it then took about twice as long. Importing storysort starts OpenBLAS on
one thread (see the package docstring), so the CLI has none to wake; a
library caller that imports numpy before storysort, as tests/conftest.py
does, keeps them, and the blocks stay for it. A non-finite validation
loss raises NumericError naming its epoch. With no validation set, or an
empty one, every epoch runs and the last one's parameters are returned.
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

# the early-stopping rule of the module docstring
PATIENCE = 3
TOL = 1e-4


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
class EpochLog:
    """What sgd_train's epochs did: how many ran, which one (1-based) gave the returned
    parameters, and each epoch's mean training loss (batch losses weighted by batch
    size) and validation loss (empty without a validation set)."""

    run: int
    best: int
    train_loss: tuple[float, ...]
    val_loss: tuple[float, ...]


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
        if self.seed < 0:
            raise ValidationError(f"seed must be >= 0, got {self.seed}")
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


def _layer_views(dims: tuple[int, ...], flat: np.ndarray) -> tuple[list, list]:
    """Views of flat as the weight matrices and the bias vectors of an MLP of
    layer_dims dims: flat holds every weight matrix, then every bias vector."""
    shapes = [*zip(dims[:-1], dims[1:]), *((d,) for d in dims[1:])]
    views, start = [], 0
    for shape in shapes:
        size = math.prod(shape)
        views.append(flat[start:start + size].reshape(shape))
        start += size
    layers = len(dims) - 1
    return views[:layers], views[layers:]


def relu(x: np.ndarray) -> np.ndarray:
    return np.maximum(x, 0.0)


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
        p = acts[-1] @ w
        p += b
        pres.append(p)
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
    gws: list[np.ndarray],
    gbs: list[np.ndarray],
) -> None:
    """Backprop from dz, the gradient w.r.t. the network output, into the weight
    and bias gradient arrays gws and gbs, in place.

    ReLU subgradient at exactly zero pre-activation is 0.
    """
    for k in reversed(range(len(params.weights))):
        np.matmul(acts[k].T, dz, out=gws[k])
        np.add.reduce(dz, axis=0, out=gbs[k])  # dz.sum(axis=0), without its wrapper
        if k > 0:
            dz = dz @ params.weights[k].T
            dz *= pres[k - 1] > 0


def _check_rows(name: str, X, y, dims: tuple[int, ...]) -> None:
    """DimensionError unless X's rows are dims[0] wide and y, if given, has one per row."""
    if X.ndim < 2 or X.shape[-1] != dims[0] or (y is not None and len(y) != len(X)):
        raise DimensionError(
            f"{name} set X {X.shape}, y {None if y is None else len(y)} rows "
            f"does not match model dim {dims[0]}"
        )


def _blocks(X, rows: int) -> np.ndarray:
    """The rows of X, gathered once and padded with zero rows to whole blocks of rows
    rows, as the stack of the matrices such blocks flatten to in training."""
    gathered = X[np.arange(len(X))]
    padded = np.concatenate([gathered, np.zeros((-len(X) % rows, *gathered.shape[1:]))])
    return padded.reshape(-1, rows * math.prod(gathered.shape[1:-1]), gathered.shape[-1])


def sgd_train(
    params: MlpParams,
    X,
    y: np.ndarray | None,
    loss: Loss,
    cfg: TrainConfig,
    val: tuple | None = None,
) -> tuple[MlpParams, EpochLog]:
    """Mini-batch SGD over the rows of X (and y): trained copies of the parameters,
    and the EpochLog of the epochs run.

    X is an array or a row source (see the module docstring). Shuffling is
    driven by cfg.seed only. L2 decay applies to weight matrices, not
    biases, and is not included in the reported loss. val, a validation
    set (X_val, y_val) built as X and y are, stops training early by the
    rule of the module docstring; without one, or with an empty one, every
    cfg.epochs epoch runs and the last one's parameters are returned.
    """
    dims = params.layer_dims
    _check_rows("training", X, y, dims)
    theta = np.concatenate([*(w.ravel() for w in params.weights), *params.biases])
    params = MlpParams(dims, *_layer_views(dims, theta))
    if len(X) == 0:
        return params, EpochLog(0, 0, (), ())
    if val is not None and len(val[0]):
        X_val, y_val = val
        _check_rows("validation", X_val, y_val, dims)
        # blocks no taller than a training batch (see the module docstring)
        val_blocks = _blocks(X_val, min(cfg.batch_size, len(X), len(X_val)))
    else:
        val = None
    grad = np.empty_like(theta)
    gws, gbs = _layer_views(dims, grad)
    # the weight matrices lead both buffers: L2 decay applies to this prefix only
    decayed = sum(w.size for w in gws)
    theta_w, grad_w = theta[:decayed], grad[:decayed]
    rng = np.random.default_rng(cfg.seed)
    lr, l2, batch_size, width = cfg.learning_rate, cfg.l2, cfg.batch_size, dims[-1]
    train_loss, val_loss = [], []
    best, best_epoch, best_theta = math.inf, 0, None
    for epoch in range(cfg.epochs):
        order = rng.permutation(len(X))
        total = 0.0
        for start in range(0, len(X), batch_size):
            idx = order[start:start + batch_size]
            batch = X[idx]
            acts, pres = _forward_cached(params, batch.reshape(-1, dims[0]))
            value, d_out = loss(pres[-1].reshape(*batch.shape[:-1], width),
                                None if y is None else y[idx])
            if not math.isfinite(value):
                raise NumericError(
                    f"non-finite loss at epoch {epoch}, batch {start // batch_size}"
                )
            total += value * len(idx)
            # the skip rule of the module docstring: this step moves no parameter
            if (not l2 and not d_out.any()
                    and all(np.isfinite(a).all() for a in (*acts, pres[-1]))):
                continue
            _backward(params, acts, pres, d_out.reshape(-1, width), gws, gbs)
            # rounds as w -= lr * (gw + l2 * w) and b -= lr * gb do
            if l2 > 0:
                grad_w += l2 * theta_w
            grad *= lr
            theta -= grad
        train_loss.append(total / len(X))
        if val is None:
            best_epoch = epoch
            continue
        out = _forward_cached(params, val_blocks)[1][-1]
        val_loss.append(loss(out.reshape(-1, *X_val.shape[1:-1], width)[:len(X_val)], y_val)[0])
        if not math.isfinite(val_loss[-1]):
            raise NumericError(f"non-finite validation loss at epoch {epoch}")
        if val_loss[-1] < best * (1.0 - TOL):
            best, best_epoch, best_theta = val_loss[-1], epoch, theta.copy()
        elif epoch - best_epoch == PATIENCE:
            break
    if best_theta is not None:
        theta[:] = best_theta
    return params, EpochLog(len(train_loss), best_epoch + 1, tuple(train_loss), tuple(val_loss))
