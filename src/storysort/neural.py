"""Minimal trainable MLP with softmax, hinge, and ordered-embedding heads.

Everything runs on float64 numpy. Hidden layers are affine + ReLU, the
final layer is affine (an optional terminal ReLU serves the ordered
embedding head). Gradients are hand-derived and verified against central
finite differences via grad_check. The trainer is plain mini-batch SGD
with optional L2 weight decay; all shuffling comes from the config seed,
so identical inputs produce bit-identical parameters.

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

from .errors import (
    DimensionError,
    NumericError,
    ParseError,
    ValidationError,
)

LossHead = Callable[["MlpParams", list], tuple[float, tuple[list, list]]]

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
    """Forward pass on a single vector or a (batch, dim) matrix."""
    a = np.asarray(x, dtype=np.float64)
    single = a.ndim == 1
    if single:
        a = a[None, :]
    if a.ndim != 2 or a.shape[1] != params.input_dim:
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


def _stack_vector_batch(params: MlpParams, items: list) -> tuple[np.ndarray, np.ndarray]:
    xs = np.stack([np.asarray(x, dtype=np.float64) for x, _ in items])
    if xs.shape[1] != params.input_dim:
        raise DimensionError(
            f"batch feature dim {xs.shape[1]} does not match model dim {params.input_dim}"
        )
    ys = np.asarray([t for _, t in items])
    return xs, ys


def softmax_ce_head() -> LossHead:
    """Mean cross-entropy against integer class targets; items are (x, label)."""

    def head(params: MlpParams, items: list) -> tuple[float, tuple[list, list]]:
        X, y = _stack_vector_batch(params, items)
        y = y.astype(np.int64)
        acts, pres = _forward_cached(params, X, terminal_relu=False)
        logits = acts[-1]
        m = np.max(logits, axis=1, keepdims=True)
        lse = m[:, 0] + np.log(np.sum(np.exp(logits - m), axis=1))
        batch = len(items)
        loss = float(np.mean(lse - logits[np.arange(batch), y]))
        probs = softmax(logits)
        probs[np.arange(batch), y] -= 1.0
        grads = _backward(params, acts, pres, probs / batch, terminal_relu=False)
        return loss, grads

    return head


def pairwise_hinge_head(margin: float) -> LossHead:
    """Mean hinge max(0, margin - y*s) on scalar scores; items are (x, y) with y = +-1."""
    if not margin > 0:
        raise ValidationError(f"hinge margin must be > 0, got {margin}")

    def head(params: MlpParams, items: list) -> tuple[float, tuple[list, list]]:
        X, y = _stack_vector_batch(params, items)
        y = y.astype(np.float64)
        acts, pres = _forward_cached(params, X, terminal_relu=False)
        scores = acts[-1][:, 0]
        slack = margin - y * scores
        active = slack > 0  # subgradient 0 exactly at the kink
        batch = len(items)
        loss = float(np.sum(np.where(active, slack, 0.0)) / batch)
        d_scores = (-y * active) / batch
        grads = _backward(params, acts, pres, d_scores[:, None], terminal_relu=False)
        return loss, grads

    return head


def npe_order_head(alpha: float) -> LossHead:
    """Mean per-story ordered-embedding penalty; items are ((n, d) gold-order features, None).

    Each story contributes sum over ordered pairs i<j of
    ||max(0, alpha - (e_j - e_i))||^2 on terminal-ReLU embeddings.
    """
    if not alpha > 0:
        raise ValidationError(f"alpha must be > 0, got {alpha}")

    def head(params: MlpParams, items: list) -> tuple[float, tuple[list, list]]:
        feats = np.stack([np.asarray(x, dtype=np.float64) for x, _ in items])
        batch, n, d_in = feats.shape
        if d_in != params.input_dim:
            raise DimensionError(
                f"feature dim {d_in} does not match model dim {params.input_dim}"
            )
        flat = feats.reshape(batch * n, d_in)
        acts, pres = _forward_cached(params, flat, terminal_relu=True)
        emb = acts[-1].reshape(batch, n, params.output_dim)
        d_emb = np.zeros_like(emb)
        total = 0.0
        for i in range(n):
            for j in range(i + 1, n):
                m = np.maximum(0.0, alpha - (emb[:, j] - emb[:, i]))
                total += float(np.sum(m * m))
                d_emb[:, j] -= 2.0 * m / batch
                d_emb[:, i] += 2.0 * m / batch
        loss = total / batch
        grads = _backward(
            params, acts, pres, d_emb.reshape(batch * n, params.output_dim),
            terminal_relu=True,
        )
        return loss, grads

    return head


def grad_check(loss_fn: Callable[[MlpParams], tuple], params: MlpParams,
               eps: float = 1e-5) -> float:
    """Max relative error between analytic gradients and central differences.

    loss_fn(params) must return (loss, (weight_grads, bias_grads)). The
    relative error per parameter is |ga - gn| / max(|ga|, |gn|, 1e-8).
    """
    if not 1e-7 <= eps <= 1e-3:
        raise ValidationError(f"eps must be in [1e-7, 1e-3], got {eps}")
    base_loss, (gws, gbs) = loss_fn(params)
    if not np.isfinite(base_loss):
        raise NumericError(f"loss is non-finite: {base_loss}")
    work = clone_params(params)
    max_rel = 0.0
    for arrays, grads in ((work.weights, gws), (work.biases, gbs)):
        for arr, g in zip(arrays, grads):
            flat = arr.reshape(-1)
            gflat = np.asarray(g).reshape(-1)
            for idx in range(flat.size):
                orig = flat[idx]
                flat[idx] = orig + eps
                plus = loss_fn(work)[0]
                flat[idx] = orig - eps
                minus = loss_fn(work)[0]
                flat[idx] = orig
                if not (np.isfinite(plus) and np.isfinite(minus)):
                    raise NumericError("perturbed loss is non-finite")
                gn = (plus - minus) / (2.0 * eps)
                ga = gflat[idx]
                rel = abs(ga - gn) / max(abs(ga), abs(gn), 1e-8)
                max_rel = max(max_rel, rel)
    return max_rel


def sgd_train(
    params: MlpParams,
    data: Sequence[tuple],
    loss_head: LossHead,
    cfg: TrainConfig,
) -> MlpParams:
    """Mini-batch SGD over (x, target) items; returns updated copies of the parameters.

    Shuffling is driven by cfg.seed only. L2 decay applies to weight
    matrices, not biases, and is not included in the reported loss.
    """
    params = clone_params(params)
    data = list(data)
    if not data:
        return params
    rng = np.random.default_rng(cfg.seed)
    for epoch in range(cfg.epochs):
        order = rng.permutation(len(data))
        for start in range(0, len(data), cfg.batch_size):
            batch = [data[i] for i in order[start:start + cfg.batch_size]]
            loss, (gws, gbs) = loss_head(params, batch)
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


def mean_loss(params: MlpParams, data: Sequence[tuple], loss_head: LossHead,
              batch_size: int = 256) -> float:
    """Dataset mean of the head loss, computed in batches without updates."""
    data = list(data)
    if not data:
        raise ValidationError("mean_loss requires at least one item")
    total = 0.0
    for start in range(0, len(data), batch_size):
        batch = data[start:start + batch_size]
        loss, _ = loss_head(params, batch)
        total += loss * len(batch)
    return total / len(data)


def train_config_to_dict(cfg: TrainConfig) -> dict:
    return {
        "learning_rate": cfg.learning_rate,
        "epochs": cfg.epochs,
        "batch_size": cfg.batch_size,
        "seed": cfg.seed,
        "l2": cfg.l2,
    }


def train_config_from_dict(d: dict) -> TrainConfig:
    return TrainConfig(
        learning_rate=float(d["learning_rate"]),
        epochs=int(d["epochs"]),
        batch_size=int(d["batch_size"]),
        seed=int(d["seed"]),
        l2=float(d["l2"]),
    )


def mlp_to_dict(params: MlpParams) -> dict:
    return {
        "layer_dims": list(params.layer_dims),
        "weights": [w.tolist() for w in params.weights],
        "biases": [b.tolist() for b in params.biases],
    }


def mlp_from_dict(d: dict) -> MlpParams:
    dims = tuple(int(x) for x in d["layer_dims"])
    weights = [np.array(w, dtype=np.float64) for w in d["weights"]]
    biases = [np.array(b, dtype=np.float64) for b in d["biases"]]
    return MlpParams(dims, weights, biases)


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
    if not isinstance(payload, dict) or "model_kind" not in payload:
        raise ValidationError(f"{path} is not a model checkpoint (missing model_kind)")
    return payload
