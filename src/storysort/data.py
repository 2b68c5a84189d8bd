"""Story batches, feature assembly, splits, and synthetic data.

A dataset is one Stories batch of S stories of n elements, whose row s
is story s: ``element_ids[s][i]``, ``gold[s, i]`` (the gold position),
``presented[s, i]`` (the position in the jumbled view models see), and
``text[s, i]`` and ``image[s, i]`` (features) all describe element i of
story s, in the order the file lists the elements. Models read features
only through presented_features, an (S, n, d) array, so inference code
never touches gold positions by accident. Training reads the same rows in
gold order through gold_features, and presented_gold gives the (S, n)
orders models must recover. The constructor checks every story once, as
array operations, so stories share n and feature dims by construction. A
slice or index array of a batch is a batch of rows already checked, and
is not checked again; a story is a batch of one.

Datasets are line-delimited JSON, one story per "\n"-ended line, so line
tools split and join them; lines of ASCII whitespace are skipped. A line is
one object: ``story_id`` (a string), ``element_ids`` (n strings), ``gold``
(n integers), ``presented_order`` (n integers, or null for the listed order,
which loads and saves as the identity row), and ``text`` and ``image`` (or
null) as float blocks (core.float_block). n is the length of gold; a block's
width, its byte length over 8 * n, must be a positive whole number, and every
line must have the first line's n and widths. Save and load are bit-exact,
and save deterministic.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .core import (
    MAX_N,
    MIN_N,
    as_rng,
    float_block,
    is_permutation,
    json_floats,
    json_list,
    json_value,
    random_permutation,
)
from .errors import EmptyInputError, FeatureError, ParseError, StoryError, ValidationError

SIGNAL_MODES = ("monotone", "none")


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


def _check_rows(ok: np.ndarray, story_ids, message: str) -> None:
    """Raise StoryError with message for the first story whose entry of ok is False."""
    if not ok.all():
        s = int(ok.argmin())
        raise StoryError(f"story {story_ids[s]}: {message}", s)


def _features(name: str, value, story_ids, shape: tuple[int, int]) -> np.ndarray:
    """value as a read-only finite float64 array with one (n, d) matrix per story: a copy,
    unless value is a read-only float64 array that owns its data, which is taken over."""
    taken = (type(value) is np.ndarray and value.dtype == np.float64 and value.flags.owndata
             and not value.flags.writeable)
    arr = value if taken else np.array(value, dtype=np.float64)
    if arr.ndim != 3 or arr.shape[:2] != shape:
        raise ValidationError(f"{name} features must have shape ({shape[1]}, d) per story, "
                              f"got {arr.shape} for {shape[0]} stories")
    _check_rows(np.isfinite(arr).all(axis=(1, 2)), story_ids,
                f"{name} features contain non-finite entries")
    return _read_only(arr)


@dataclass(frozen=True, eq=False)
class Stories:
    """S stories of n elements as arrays; presented is the jumbled view shown to models.

    gold and presented are read-only (S, n) intp arrays, text a read-only
    (S, n, d_text) float64 array and image an (S, n, d_image) one or None,
    all copies of what was passed in, except that a feature array that is
    already read-only float64 and owns its data is taken over as it is.
    stories[s] is the batch of story s alone, and iterating gives each story
    as a batch of one.
    """

    story_ids: tuple[str, ...]
    element_ids: tuple[tuple[str, ...], ...]
    gold: np.ndarray
    presented: np.ndarray
    text: np.ndarray
    image: np.ndarray | None

    def __post_init__(self) -> None:
        ids, elements = tuple(self.story_ids), tuple(map(tuple, self.element_ids))
        gold, presented = np.asarray(self.gold), np.asarray(self.presented)
        if gold.ndim != 2 or len(gold) != len(ids):
            raise ValidationError(f"gold shape {gold.shape} is not (S, n) for S = {len(ids)}")
        if presented.shape != gold.shape:
            raise ValidationError(f"presented_order shape {presented.shape} != {gold.shape}")
        n = gold.shape[1]
        _check_rows(np.full(len(ids), MIN_N <= n <= MAX_N), ids,
                    f"length must be in [{MIN_N}, {MAX_N}], got {n}")
        ok = is_permutation(np.stack([gold, presented]))
        _check_rows(ok[0], ids, f"gold positions are not a permutation of 0..{n - 1}")
        _check_rows(ok[1], ids, f"presented_order is not a permutation of 0..{n - 1}")
        _check_rows(np.array([len(row) == n for row in elements], dtype=bool), ids,
                    f"element_ids must hold one id for each of the {n} elements")
        text = _features("text", self.text, ids, gold.shape)
        image = None if self.image is None else _features("image", self.image, ids, gold.shape)
        first = np.zeros(len(ids), dtype=bool)
        first[np.unique(np.array(ids, dtype=str), return_index=True)[1]] = True
        _check_rows(first, ids, "repeated story_id")
        # the dataclass is frozen, so the checked copies are stored directly
        vars(self).update(story_ids=ids, element_ids=elements, text=text, image=image,
                          gold=_read_only(gold.astype(np.intp)),
                          presented=_read_only(presented.astype(np.intp)))

    def __len__(self) -> int:
        return len(self.story_ids)

    def __iter__(self):
        return (self[s] for s in range(len(self)))

    def __getitem__(self, index) -> Stories:
        """The stories at a slice or an index array, or the one at an int index, as a batch
        built without checking again. A slice's arrays are views of this batch's."""
        if isinstance(index, (int, np.integer)):
            s = range(len(self))[index]
            index = slice(s, s + 1)
        if isinstance(index, slice):
            rows, ids, elements = index, self.story_ids[index], self.element_ids[index]
        else:
            rows = np.arange(len(self))[index].tolist()
            ids = tuple(self.story_ids[s] for s in rows)
            elements = tuple(self.element_ids[s] for s in rows)
        batch = object.__new__(Stories)
        vars(batch).update(story_ids=ids, element_ids=elements, **{
            name: _read_only(getattr(self, name)[rows]) for name in ("gold", "presented", "text")
        }, image=None if self.image is None else _read_only(self.image[rows]))
        return batch

    @property
    def n(self) -> int:
        return self.gold.shape[1]

    @property
    def story_id(self) -> str:
        """The id of a batch of one story."""
        if len(self) != 1:
            raise ValidationError(f"story_id needs a batch of one story, got {len(self)}")
        return self.story_ids[0]


def _feature_stack(stories: Stories, use_image: bool, positions: np.ndarray) -> np.ndarray:
    """(S, n, d) rows of text, or of [text | image], placed by positions.

    positions[s][i] is where element i of story s goes, so row k of a story
    is its element at position k.
    """
    if not stories:
        raise EmptyInputError("cannot build a feature array from an empty dataset")
    if use_image and stories.image is None:
        raise FeatureError("stories have no image features but use_image was requested")
    feats = np.concatenate([stories.text, stories.image], axis=2) if use_image else stories.text
    return np.take_along_axis(feats, np.argsort(positions, axis=1)[:, :, None], axis=1)


def presented_features(stories: Stories, use_image: bool) -> np.ndarray:
    """(S, n, d) features in presented order: the rows models score at inference."""
    return _feature_stack(stories, use_image, stories.presented)


def presented_gold(stories: Stories) -> np.ndarray:
    """(S, n) intp gold positions of each story's presented elements: row s is the
    order models must recover for story s."""
    return np.take_along_axis(stories.gold, np.argsort(stories.presented, axis=1), axis=1)


def gold_features(stories: Stories, use_image: bool) -> np.ndarray:
    """(S, n, d) features in gold order: row k of a story is its element at position k."""
    return _feature_stack(stories, use_image, stories.gold)


@dataclass(frozen=True)
class SyntheticSpec:
    """Planted-signal generator settings.

    monotone mode embeds the gold position g linearly: features are
    g * u + noise for a fixed unit direction u drawn once per dataset
    (text and image directions independent). none mode keeps only the
    noise term, so there is nothing to learn and models should sit at
    chance.
    """

    story_count: int
    n: int = 5
    text_dim: int = 32
    image_dim: int = 16
    noise_sigma: float = 0.1
    signal_mode: str = "monotone"
    seed: int = 0

    def __post_init__(self) -> None:
        if self.story_count < 1:
            raise ValidationError(f"story_count must be >= 1, got {self.story_count}")
        if not MIN_N <= self.n <= MAX_N:
            raise ValidationError(f"n must be in [{MIN_N}, {MAX_N}], got {self.n}")
        if self.text_dim < 1 or self.image_dim < 1:
            raise ValidationError("feature dims must be >= 1")
        if not 0 <= self.noise_sigma < math.inf:
            raise ValidationError(f"noise_sigma must be >= 0 and finite, got {self.noise_sigma}")
        if self.signal_mode not in SIGNAL_MODES:
            raise ValidationError(
                f"signal_mode must be one of {SIGNAL_MODES}, got {self.signal_mode!r}"
            )


def _unit_direction(rng: np.random.Generator, dim: int) -> np.ndarray:
    v = rng.standard_normal(dim)
    return v / np.linalg.norm(v)


def generate_synthetic(spec: SyntheticSpec) -> Stories:
    """Deterministic planted-signal dataset; stories come pre-jumbled.

    Elements are listed in gold order. Each story draws its noise, then its
    presented order. Each element draws its text noise, then its image
    noise, so one (n, text_dim + image_dim) draw per story takes them all in
    that order.
    """
    rng = as_rng(spec.seed)
    u_text = _unit_direction(rng, spec.text_dim)
    u_image = _unit_direction(rng, spec.image_dim)
    count, n = spec.story_count, spec.n
    noise = np.empty((count, n, spec.text_dim + spec.image_dim))
    presented = np.empty((count, n), dtype=np.intp)
    for k in range(count):
        noise[k] = rng.standard_normal(noise.shape[1:])
        presented[k] = random_permutation(n, rng)
    noise *= spec.noise_sigma
    if spec.signal_mode == "monotone":
        noise += np.arange(n)[:, None] * np.concatenate([u_text, u_image])
    story_ids = [f"story-{k:05d}" for k in range(count)]
    return Stories(story_ids=story_ids,
                   element_ids=[[f"{story_id}-e{g}" for g in range(n)] for story_id in story_ids],
                   gold=np.tile(np.arange(n), (count, 1)), presented=presented,
                   text=noise[..., :spec.text_dim], image=noise[..., spec.text_dim:])


def split_dataset(stories: Stories, val_frac: float,
                  seed: int | np.random.Generator) -> tuple[Stories, Stories]:
    """Seeded shuffle, then int((1 - val_frac) * S) training stories and the rest for
    validation; the parts are disjoint and exhaustive, and views of one shuffled copy."""
    if not 0 <= val_frac <= 1:
        raise ValidationError(f"val_frac must be in [0, 1], got {val_frac}")
    shuffled = stories[as_rng(seed).permutation(len(stories))]
    n_train = int((1.0 - val_frac) * len(stories) + 1e-9)
    return shuffled[:n_train], shuffled[n_train:]


def _records(stories: Stories):
    """Each story's file record in turn, as save_dataset writes them."""
    images = [None] * len(stories) if stories.image is None else map(float_block, stories.image)
    for story_id, element_ids, gold, presented, text, image in zip(
            stories.story_ids, stories.element_ids, stories.gold.tolist(),
            stories.presented.tolist(), stories.text, images):
        yield {"story_id": story_id, "element_ids": list(element_ids), "gold": gold,
               "presented_order": presented, "text": float_block(text), "image": image}


def _record_fields(record: dict) -> tuple:
    """(story_id, element_ids, gold, presented, text, image) of one record, each checked."""
    story_id = json_value(record["story_id"], (str,), "story_id")
    n = len(json_list(record["gold"], (int,), "gold"))
    presented, image = record["presented_order"], record["image"]
    if presented is None:
        presented = list(range(n))
    elif len(json_list(presented, (int,), "presented_order")) != n:
        raise ValueError(f"story {story_id}: presented_order length {len(presented)} != {n}")
    return (story_id, json_list(record["element_ids"], (str,), "element_ids"), record["gold"],
            presented, json_floats(record["text"], (n, -1), "text"),
            None if image is None else json_floats(image, (n, -1), "image"))


def save_dataset(stories: Stories, path: str | Path) -> None:
    """Line-delimited JSON, one story per line, deterministic byte-for-byte."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", encoding="utf-8") as fh:
        fh.writelines(json.dumps(record) + "\n" for record in _records(stories))


def load_dataset(path: str | Path) -> Stories:
    """Parse and validate a dataset file; an empty file is a valid empty dataset.

    A line that fails a check, its own or the batch's, is a ParseError
    naming it as <path>:<line>. A first pass counts the stories, so each
    line's float blocks decode straight into the batch's feature arrays.
    """
    path = Path(path)
    columns, dims, text, image = [], None, np.empty((0, 0, 0)), None
    with path.open("rb", buffering=1 << 16) as fh:  # a buffer wider than a line reads fastest
        count = sum(not line.isspace() for line in fh)
        fh.seek(0)
        for lineno, line in enumerate(fh, start=1):
            if line.isspace():
                continue
            if len(columns) == count:
                raise ParseError(f"{path}:{lineno}: the file changed while it was read")
            try:
                record = json.loads(line.decode("utf-8"))
            except UnicodeDecodeError as e:
                raise ParseError(f"{path}: not UTF-8 text: {e.reason}") from e
            except json.JSONDecodeError as e:
                raise ParseError(f"{path}:{lineno}: malformed JSON: {e}") from e
            try:
                story_id, *fields, text_block, image_block = _record_fields(record)
            except (KeyError, TypeError, ValueError, OverflowError) as e:
                raise ParseError(f"{path}:{lineno}: missing or bad field: {e}") from e
            line_dims = (len(text_block), text_block.shape[1],
                         None if image_block is None else image_block.shape[1])
            if dims is None:
                dims = line_dims
                text = np.empty((count, *text_block.shape))
                image = None if image_block is None else np.empty((count, *image_block.shape))
            elif line_dims != dims:
                raise ParseError(f"{path}:{lineno}: story {story_id}: (n, text dim, "
                                 f"image dim) {line_dims} differs from dataset {dims}")
            text[len(columns)] = text_block
            if image is not None:
                image[len(columns)] = image_block
            # tuples, as the batch keeps them, so each line's JSON lists are freed now
            columns.append((lineno, story_id, *map(tuple, fields)))
    if len(columns) != count:
        raise ParseError(f"{path}: the file changed while it was read")
    linenos, story_ids, element_ids, gold, presented = list(zip(*columns)) or [()] * 5
    shape = (len(columns), text.shape[1])
    try:
        return Stories(story_ids, element_ids, np.reshape(gold, shape),
                       np.reshape(presented, shape), _read_only(text),
                       None if image is None else _read_only(image))
    except StoryError as e:
        raise ParseError(f"{path}:{linenos[e.row]}: missing or bad field: {e}") from e
