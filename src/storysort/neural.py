"""Minimal trainable MLP with softmax, hinge, and ordered-embedding heads.

Everything runs on float64 numpy. Hidden layers are affine + ReLU, the
final layer is affine (an optional terminal ReLU serves the ordered
embedding head). Gradients are hand-derived; the tests check them against
central finite differences. The trainer is plain mini-batch SGD
with optional L2 weight decay; all shuffling comes from the config seed,
so identical inputs produce bit-identical parameters.

Training sets are arrays, built once by the caller: ``X`` holds the
input rows and ``y`` their targets, row k of one belonging to row k of
the other. The softmax and hinge heads take ``X`` of shape (batch, d);
the ordered-embedding head takes ``X`` of shape (batch, n, d), one
gold-ordered story per row, and ``y = None``. sgd_train checks the
width d against the model once, then hands each mini-batch to the head
as ``X[idx]`` and ``y[idx]``.

Checkpoints are single JSON objects holding model_kind, layer_dims,
row-major weight arrays, bias arrays, and the training config used.
Python's float repr round-trips exactly, so reloaded parameters
reproduce forward outputs bit for bit.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from .core import json_list, json_value
from .errors import (
    DimensionError,
    NumericError,
    ParseError,
    ValidationError,
)

# head(params, X, y) -> (mean batch loss, (weight grads, bias grads)), on one mini-batch
LossHead = Callable[["MlpParams", np.ndarray, "np.ndarray | None"], tuple[float, tuple]]

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
        if not self.learning_rate > 0:
            raise ValidationError(f"learning_rate must be > 0, got {self.learning_rate}")
        if self.epochs < 1:
            raise ValidationError(f"epochs must be >= 1, got {self.epochs}")
        if self.batch_size < 1:
            raise ValidationError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.l2 < 0:
            raise ValidationError(f"l2 must be >= 0, got {self.l2}")


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
    params: MlpParams, X: np.ndarray, terminal_relu: bool
) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """Forward pass keeping activations and pre-activations for backprop."""
    acts = [X]
    pres = []
    last = len(params.weights) - 1
    for k, (w, b) in enumerate(zip(params.weights, params.biases)):
        z = acts[-1] @ w + b
        pres.append(z)
        if k < last or terminal_relu:
            acts.append(relu(z))
        else:
            acts.append(z)
    return acts, pres


def mlp_forward(params: MlpParams, x, terminal_relu: bool = False) -> np.ndarray:
    """Forward pass on a single vector, a (batch, dim) matrix or a (..., batch, dim) stack.

    A stack is multiplied one (batch, dim) matrix at a time, so each
    matrix's output is bit-identical to a call on that matrix alone: BLAS
    picks its kernels by matrix shape, and flattening a stack into one
    matrix changes the last bits of some rows.
    """
    a = np.asarray(x, dtype=np.float64)
    single = a.ndim == 1
    if single:
        a = a[None, :]
    if a.ndim < 2 or a.shape[-1] != params.input_dim:
        raise DimensionError(
            f"input dim {a.shape[-1] if a.ndim else '?'} does not match model dim {params.input_dim}"
        )
    acts, _ = _forward_cached(params, a, terminal_relu)
    out = acts[-1]
    return out[0] if single else out


def _backward(
    params: MlpParams,
    acts: list[np.ndarray],
    pres: list[np.ndarray],
    d_out: np.ndarray,
    terminal_relu: bool,
) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """Backprop from a gradient w.r.t. the network output.

    ReLU subgradient at exactly zero pre-activation is 0.
    """
    L = len(params.weights)
    dz = d_out * (pres[-1] > 0) if terminal_relu else d_out
    gws: list = [None] * L
    gbs: list = [None] * L
    for k in reversed(range(L)):
        gws[k] = acts[k].T @ dz
        gbs[k] = dz.sum(axis=0)
        if k > 0:
            dz = (dz @ params.weights[k].T) * (pres[k - 1] > 0)
    return gws, gbs


def softmax_ce_head() -> LossHead:
    """Mean cross-entropy of (batch, d) rows X against integer class targets y."""

    def head(params: MlpParams, X: np.ndarray, y: np.ndarray) -> tuple[float, tuple]:
        y = y.astype(np.int64)
        acts, pres = _forward_cached(params, X, terminal_relu=False)
        logits = acts[-1]
        m = logits.max(axis=1, keepdims=True)
        # one exp serves the log-sum-exp loss and the softmax of the gradient;
        # non-finite logits make the loss NaN, which sgd_train reports
        e = np.exp(logits - m)
        total = e.sum(axis=1, keepdims=True)
        rows = np.arange(len(X))
        loss = float((m[:, 0] + np.log(total[:, 0]) - logits[rows, y]).mean())
        probs = e / total
        probs[rows, y] -= 1.0
        grads = _backward(params, acts, pres, probs / len(X), terminal_relu=False)
        return loss, grads

    return head


def pairwise_hinge_head(margin: float) -> LossHead:
    """Mean hinge max(0, margin - y*s) of scalar scores of (batch, d) rows X; y is +-1."""
    if not margin > 0:
        raise ValidationError(f"hinge margin must be > 0, got {margin}")

    def head(params: MlpParams, X: np.ndarray, y: np.ndarray) -> tuple[float, tuple]:
        y = y.astype(np.float64)
        acts, pres = _forward_cached(params, X, terminal_relu=False)
        scores = acts[-1][:, 0]
        slack = margin - y * scores
        active = slack > 0  # subgradient 0 exactly at the kink
        batch = len(X)
        loss = float(np.sum(np.where(active, slack, 0.0)) / batch)
        d_scores = (-y * active) / batch
        grads = _backward(params, acts, pres, d_scores[:, None], terminal_relu=False)
        return loss, grads

    return head


def order_margins(emb: np.ndarray, alpha: float) -> np.ndarray:
    """m[..., i, j, :] = max(0, alpha - (e_j - e_i)) for embeddings emb of shape (..., n, k).

    The squared norm of m[..., i, j, :] is the penalty of placing i before j;
    the result has shape (..., n, n, k).
    """
    return np.maximum(0.0, alpha - (emb[..., None, :, :] - emb[..., :, None, :]))


def npe_order_head(alpha: float) -> LossHead:
    """Mean per-story ordered-embedding penalty; X is (batch, n, d) gold-order stories.

    Each story contributes sum over ordered pairs i<j of
    ||max(0, alpha - (e_j - e_i))||^2 on terminal-ReLU embeddings.
    """
    if not alpha > 0:
        raise ValidationError(f"alpha must be > 0, got {alpha}")

    def head(params: MlpParams, X: np.ndarray, y: None) -> tuple[float, tuple]:
        batch, n, d_in = X.shape
        acts, pres = _forward_cached(params, X.reshape(batch * n, d_in), terminal_relu=True)
        emb = acts[-1].reshape(batch, n, params.output_dim)
        earlier = np.triu(np.ones((n, n)), 1)[:, :, None]  # pairs i < j
        m = order_margins(emb, alpha) * earlier
        loss = float(np.sum(m * m)) / batch
        # e_i gains +2m from each later j, e_j gains -2m from each earlier i
        d_emb = 2.0 * (m.sum(axis=2) - m.sum(axis=1)) / batch
        grads = _backward(
            params, acts, pres, d_emb.reshape(batch * n, params.output_dim),
            terminal_relu=True,
        )
        return loss, grads

    return head


def sgd_train(
    params: MlpParams,
    X: np.ndarray,
    y: np.ndarray | None,
    loss_head: LossHead,
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
            loss, (gws, gbs) = loss_head(params, X[idx], None if y is None else y[idx])
            if not np.isfinite(loss):
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


def train_config_to_dict(cfg: TrainConfig) -> dict:
    return {
        "learning_rate": cfg.learning_rate,
        "epochs": cfg.epochs,
        "batch_size": cfg.batch_size,
        "seed": cfg.seed,
        "l2": cfg.l2,
    }


def train_config_from_dict(d: dict) -> TrainConfig:
    """Reads each field with its exact JSON type: 2.7 epochs or a string rate is a ValueError."""
    return TrainConfig(
        learning_rate=float(json_value(d["learning_rate"], (int, float), "learning_rate")),
        epochs=json_value(d["epochs"], (int,), "epochs"),
        batch_size=json_value(d["batch_size"], (int,), "batch_size"),
        seed=json_value(d["seed"], (int,), "seed"),
        l2=float(json_value(d["l2"], (int, float), "l2")),
    )


def mlp_to_dict(params: MlpParams) -> dict:
    return {
        "layer_dims": list(params.layer_dims),
        "weights": [w.tolist() for w in params.weights],
        "biases": [b.tolist() for b in params.biases],
    }


def mlp_from_dict(d: dict) -> MlpParams:
    """layer_dims must be integers and every weight and bias a JSON number."""
    dims = tuple(json_list(d["layer_dims"], (int,), "layer_dims"))
    weights = [_matrix(w, "weights") for w in json_list(d["weights"], (list,), "weights")]
    biases = [np.array(_numbers(b, "biases"), dtype=np.float64)
              for b in json_list(d["biases"], (list,), "biases")]
    return MlpParams(dims, weights, biases)


def _numbers(values, name: str) -> list:
    return json_list(values, (int, float), name)


def _matrix(rows, name: str) -> np.ndarray:
    return np.array([_numbers(row, name) for row in json_list(rows, (list,), name)],
                    dtype=np.float64)


def save_checkpoint(payload: dict, path: str | Path) -> None:
    """Write a checkpoint dict as a single deterministic JSON object."""
    if "model_kind" not in payload:
        raise ValidationError("checkpoint payload requires a model_kind")
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload) + "\n", encoding="utf-8")


def load_checkpoint_dict(path: str | Path) -> dict:
    path = Path(path)
    try:
        payload = json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as e:
        raise ParseError(f"{path} is not valid JSON: {e}") from e
    except UnicodeDecodeError as e:
        raise ParseError(f"{path}: not UTF-8 text: {e.reason}") from e
    if not isinstance(payload, dict) or "model_kind" not in payload:
        raise ValidationError(f"{path} is not a model checkpoint (missing model_kind)")
    return payload
