"""Model registry: one entry per checkpoint ``model_kind``.

Each model module exposes the same names: ``MODEL_KIND``, ``Model``,
``scores``, ``predict`` and ``train``. An entry holds what differs: the
module and its score type, the training hyperparameters, and the
checkpoint fields the kind adds. ADDITIVE scores (unary) are an (n, n)
element-at-position matrix decoded by assignment; PAIR scores (pairwise,
NPE) are an (n, n) i-before-j matrix decoded by pairwise.decode_pairwise,
which certifies the stories whose preferences are transitive and ranks
the rest with core.rank_orders, the one ranker of permutation-table rows.
rank_orders also gives both types' top-k lists: orders rank by exact
total, ties going to the lexicographically smallest positions tuple.
Decoders, top-k lists and decode size limits are keyed by score type.
Entries hold modules, not functions, so rebinding a module attribute (as
a profiler does) reaches every caller.

Scoring runs along a story axis: ``scores(model, stories)`` returns an
(S, n, n) stack for a data.Stories batch of S stories, and every decoder
and top-k list takes that stack. score_chunks walks a dataset in slices
of chunk_size stories, each scored with one forward pass, and is the one
caller of ``scores`` here: chunk_size bounds the forward pass's
activations, CHUNK_FLOATS // (rows · widest layer) stories with n rows a
story for additive scores and n² for pair scores, and core.rank_orders
bounds its own table of n! order values. predict_stories decodes each
slice's stack in one call, into one (S, n) intp array of orders;
top_permutations ranks each slice's stack into the batch's (S, k, n)
best orders. A story is a batch of one: a module's ``predict``
passes it to the same scorers and decoders and returns a
core.Permutation, the one-story public type.

This module also owns the checkpoint file: save_model and load_model
write and read one JSON object of model_kind, the kind's fields (in the
entry's order), layer_dims, weights, biases and train_config (the
TrainConfig fields, or null). weights and biases hold one float block
(core.float_block) per layer k: the (layer_dims[k], layer_dims[k + 1])
weight matrix and the layer_dims[k + 1] bias vector, each of exactly that
shape's byte length. Reloaded parameters are bit-identical, so scores are
too, and a load then save reproduces the file byte for byte.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from pathlib import Path
from types import ModuleType
from typing import Iterator

import numpy as np

from . import npe, pairwise, unary
from .assign import topk_assignments
from .core import (CHUNK_FLOATS, MAX_ENUMERATION_N, check_top_k, float_block, json_floats,
                   json_list, json_value, parse_json)
from .data import Stories
from .errors import EnumerationCapError, UsageError, ValidationError
from .neural import MlpParams, TrainConfig

ADDITIVE = "additive"
PAIR = "pair"

AnyModel = unary.UnaryModel | pairwise.PairwiseModel | npe.NpeModel


@dataclass(frozen=True)
class ModelSpec:
    module: ModuleType
    score_type: str
    train_defaults: dict[str, float]  # epochs (a cap: training stops early), lr, batch_size
    train_args: dict[str, float]  # kind-specific train keyword -> default
    fields: tuple[tuple[str, tuple], ...]  # checkpoint (name, accepted JSON types), file order


REGISTRY = {
    unary.MODEL_KIND: ModelSpec(
        unary, ADDITIVE, {"epochs": 30, "lr": 0.05, "batch_size": 32}, {},
        (("n", (int,)), ("use_image", (bool,))),
    ),
    pairwise.MODEL_KIND: ModelSpec(
        pairwise, PAIR, {"epochs": 12, "lr": 0.05, "batch_size": 64},
        {"margin": pairwise.DEFAULT_MARGIN},
        (("use_image", (bool,)), ("margin", (int, float))),
    ),
    npe.MODEL_KIND: ModelSpec(
        npe, PAIR, {"epochs": 40, "lr": 0.0025, "batch_size": 16},
        {"embed_dim": npe.DEFAULT_EMBED_DIM, "alpha": npe.DEFAULT_ALPHA},
        (("alpha", (int, float)), ("use_image", (bool,))),
    ),
}


def spec_for(model) -> ModelSpec:
    """The registry entry of a model object."""
    for spec in REGISTRY.values():
        if type(model) is spec.module.Model:
            return spec
    raise ValidationError(f"unknown model type {type(model).__name__}")


def check_decodable(spec: ModelSpec, n: int, k: int | None = None) -> None:
    """Raise SizeError unless n-element stories decode, as k-best lists when k is given.

    k-best lists rank all n! orders, and pair scores rank them for every story
    the transitive-tournament certificate does not settle, which is known only
    after scoring, so both stop at MAX_ENUMERATION_N; additive scores decode by
    assignment at every n.
    """
    if (spec.score_type == PAIR or k is not None) and n > MAX_ENUMERATION_N:
        what = "pair-score" if k is None else f"top-{k}"
        raise EnumerationCapError(
            f"{spec.module.MODEL_KIND}: {what} decoding is capped at "
            f"n <= {MAX_ENUMERATION_N}, got n={n}"
        )
    if k is not None:
        check_top_k(n, k)


def chunk_size(model: AnyModel, n: int) -> int:
    """Stories per chunk: CHUNK_FLOATS // (rows · w), and at least one, so that no
    activation array of a chunk's forward pass outgrows core.CHUNK_FLOATS.

    w is the widest layer, and rows a story's rows: n for additive scores,
    n² for pair scores (pair-row activations, NPE margins). The decoders'
    tables of n! order values are bounded by core.rank_orders itself.
    """
    rows = n if spec_for(model).score_type == ADDITIVE else n * n
    return max(1, CHUNK_FLOATS // (rows * max(model.mlp.layer_dims)))


def score_chunks(model: AnyModel, stories: Stories) -> Iterator[np.ndarray]:
    """The model's score stacks of consecutive chunks of stories, chunk_size stories
    each, one forward pass per chunk; no stories give none."""
    if not stories:
        return
    scores = spec_for(model).module.scores
    size = chunk_size(model, stories.n)
    for start in range(0, len(stories), size):  # a batch of one chunk goes unsliced
        yield scores(model, stories[start:start + size] if size < len(stories) else stories)


def full_ties(spec: ModelSpec, a: np.ndarray) -> np.ndarray:
    """One bool per matrix of an (S, n, n) score stack: whether it scores every order
    the same, for pair scores a == aᵀ, for additive scores every row equal."""
    return (a == (a.transpose(0, 2, 1) if spec.score_type == PAIR else a[:, :1])).all(axis=(1, 2))


def predict_stories(model: AnyModel, stories: Stories) -> np.ndarray:
    """The model's best order for each story as an (S, n) array, scored and decoded
    chunk by chunk.

    Row s equals the module's predict on stories[s] alone; no stories give a
    (0, 0) array.
    """
    if not stories:
        return np.empty((0, 0), dtype=np.intp)
    decode = (unary.decode_unary if spec_for(model).score_type == ADDITIVE
              else pairwise.decode_pairwise)
    return np.concatenate([decode(s) for s in score_chunks(model, stories)])


def top_permutations(model: AnyModel, stories: Stories, k: int) -> np.ndarray:
    """The model's (S, k, n) best orders for a batch of S stories, best first, ties
    lexicographic; row s is that of stories[s] alone. No stories give (0, k, n) for k >= 1."""
    spec = spec_for(model)
    if not stories and k >= 1:
        return np.empty((0, k, stories.n), dtype=np.intp)
    check_decodable(spec, stories.n, k)
    rank = topk_assignments if spec.score_type == ADDITIVE else pairwise.rank_permutations
    return np.concatenate([rank(s, k) for s in score_chunks(model, stories)])


def save_model(model: AnyModel, path: str | Path) -> None:
    """Write a checkpoint as one deterministic JSON object."""
    spec = spec_for(model)
    payload = {
        "model_kind": spec.module.MODEL_KIND,
        **{name: getattr(model, name) for name, _ in spec.fields},
        "layer_dims": list(model.mlp.layer_dims),
        "weights": [float_block(w) for w in model.mlp.weights],
        "biases": [float_block(b) for b in model.mlp.biases],
        "train_config": None if model.train_config is None
        else asdict(model.train_config),
    }
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload) + "\n", encoding="utf-8")


def _mlp(payload: dict) -> MlpParams:
    """layer_dims must be integers, and weights and biases one float block per layer."""
    dims = json_list(payload["layer_dims"], (int,), "layer_dims")
    weights = json_list(payload["weights"], (str,), "weights")
    biases = json_list(payload["biases"], (str,), "biases")
    if not len(weights) == len(biases) == len(dims) - 1:
        raise ValueError(f"layer_dims {dims} need {len(dims) - 1} weight and bias blocks")
    return MlpParams(
        tuple(dims),
        [json_floats(w, shape, "weights") for w, shape in zip(weights, zip(dims, dims[1:]))],
        [json_floats(b, (width,), "biases") for b, width in zip(biases, dims[1:])],
    )


def _train_config(d: dict) -> TrainConfig:
    """Reads each field with its exact JSON type: 2.7 epochs or a string rate is a ValueError."""
    return TrainConfig(
        learning_rate=float(json_value(d["learning_rate"], (int, float), "learning_rate")),
        epochs=json_value(d["epochs"], (int,), "epochs"),
        batch_size=json_value(d["batch_size"], (int,), "batch_size"),
        seed=json_value(d["seed"], (int,), "seed"),
        l2=float(json_value(d["l2"], (int, float), "l2")),
    )


def load_model(path: str | Path) -> AnyModel:
    """Read a checkpoint of any kind.

    Text that is not UTF-8 JSON raises ParseError, a missing model_kind or
    a missing or malformed field ValidationError, and an unknown
    model_kind UsageError.
    """
    path = Path(path)
    payload = parse_json(path.read_bytes(), path)
    if not isinstance(payload, dict) or "model_kind" not in payload:
        raise ValidationError(f"{path} is not a model checkpoint (missing model_kind)")
    kind = payload["model_kind"]
    if not isinstance(kind, str) or kind not in REGISTRY:
        raise UsageError(f"unknown model_kind {kind!r} in {path}")
    spec = REGISTRY[kind]
    fields = {}
    for name, types in spec.fields:
        if name not in payload:
            raise ValidationError(f"{path}: bad checkpoint field {name!r}: missing")
        try:
            fields[name] = json_value(payload[name], types, name)
        except ValueError as e:
            raise ValidationError(f"{path}: bad checkpoint field {name!r}: {e}") from e
    try:
        mlp = _mlp(payload)
        cfg = payload.get("train_config")
        train_config = None if cfg is None else _train_config(cfg)
        return spec.module.Model(mlp=mlp, train_config=train_config, **fields)
    except (KeyError, TypeError, ValueError, OverflowError) as e:
        raise ValidationError(f"{path}: bad checkpoint: {type(e).__name__}: {e}") from e
