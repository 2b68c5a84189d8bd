"""Model registry: one entry per checkpoint ``model_kind``.

Each model module exposes the same names: ``MODEL_KIND``, ``Model``,
``scores``, ``score_floats``, ``predict`` and ``train``. An entry holds
what differs: the module and its score type, the training
hyperparameters, and the checkpoint fields the kind adds. ADDITIVE
scores (unary) are an (n, n) element-at-position matrix decoded by
assignment; PAIR scores (pairwise, NPE) are an (n, n) i-before-j matrix
decoded by core.rank_orders, the one ranker of permutation-table rows,
which also gives both types' top-k lists: orders rank by exact total,
ties going to the lexicographically smallest positions tuple.
Decoders, top-k lists and decode size limits are keyed by score type.
Entries hold modules, not functions, so rebinding a module attribute (as
a profiler does) reaches every caller.

Scoring runs along a story axis: ``scores(model, stories)`` returns an
(S, n, n) stack for a data.Stories batch of S stories. Orders are intp
arrays: predict_stories walks a dataset in slices, each scored with one
forward pass and decoded in one call, and returns one (S, n) array. A
story is a batch of one: top_permutations gives its (k, n) best orders,
and a module's ``predict`` passes it to the same scorers and decoders and
returns a core.Permutation, the one-story public type.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from types import ModuleType

import numpy as np

from . import neural, npe, pairwise, unary
from .assign import topk_assignments
from .core import MAX_ENUMERATION_N, check_top_k, json_value
from .data import Stories
from .errors import EnumerationCapError, UsageError, ValidationError

ADDITIVE = "additive"
PAIR = "pair"

# Floats in the largest intermediate array of one chunk: hidden activations
# of its pair rows, NPE order margins, or the chunk's table of n! order
# values. Measured per story, larger budgets were no faster at n = 5 and
# slower at n = 7, and whole-dataset chunks raise peak memory.
CHUNK_FLOATS = 2**16

AnyModel = unary.UnaryModel | pairwise.PairwiseModel | npe.NpeModel


@dataclass(frozen=True)
class ModelSpec:
    module: ModuleType
    score_type: str
    train_defaults: dict[str, float]  # epochs, lr, batch_size
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
        npe, PAIR, {"epochs": 40, "lr": 0.01, "batch_size": 16},
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

    Pair scores and k-best lists rank all n! orders, so both stop at
    MAX_ENUMERATION_N; additive scores decode by assignment at every n.
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
    """Stories per chunk: as many n-element stories as keep each intermediate
    array within CHUNK_FLOATS, and at least one."""
    spec = spec_for(model)
    per_story = spec.module.score_floats(model, n)
    if spec.score_type == PAIR:
        per_story = max(per_story, math.factorial(n))
    return max(1, CHUNK_FLOATS // per_story)


def predict_stories(model: AnyModel, stories: Stories) -> np.ndarray:
    """The model's best order for each story as an (S, n) array, scored and decoded
    chunk by chunk.

    Row s equals the module's predict on stories[s] alone; no stories give a
    (0, 0) array.
    """
    if not stories:
        return np.empty((0, 0), dtype=np.intp)
    spec = spec_for(model)
    decode = unary.decode_unary if spec.score_type == ADDITIVE else pairwise.decode_pairwise
    size = chunk_size(model, stories.n)
    return np.concatenate([decode(spec.module.scores(model, stories[start:start + size]))
                           for start in range(0, len(stories), size)])


def top_permutations(model: AnyModel, story: Stories, k: int) -> tuple[np.ndarray, np.ndarray]:
    """The model's (k, n) best orders for a batch of one story, best first, ties
    lexicographic, with their (k,) totals."""
    spec = spec_for(model)
    check_decodable(spec, story.n, k)
    (s,) = spec.module.scores(model, story)
    rank = topk_assignments if spec.score_type == ADDITIVE else pairwise.rank_permutations
    return rank(s, k)


def save_model(model: AnyModel, path: str | Path) -> None:
    """Write a checkpoint: model_kind, the kind's fields, the MLP, train_config."""
    spec = spec_for(model)
    payload = {
        "model_kind": spec.module.MODEL_KIND,
        **{name: getattr(model, name) for name, _ in spec.fields},
        **neural.mlp_to_dict(model.mlp),
        "train_config": None if model.train_config is None
        else neural.train_config_to_dict(model.train_config),
    }
    neural.save_checkpoint(payload, path)


def load_model(path: str | Path) -> AnyModel:
    """Read a checkpoint of any kind; a missing or malformed field raises ValidationError."""
    payload = neural.load_checkpoint_dict(path)
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
        mlp = neural.mlp_from_dict(payload)
        cfg = payload.get("train_config")
        train_config = None if cfg is None else neural.train_config_from_dict(cfg)
        return spec.module.Model(mlp=mlp, train_config=train_config, **fields)
    except (KeyError, TypeError, ValueError, OverflowError) as e:
        raise ValidationError(f"{path}: bad checkpoint: {type(e).__name__}: {e}") from e
