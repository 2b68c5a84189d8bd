"""Story ingestion, feature assembly, splits, and synthetic data.

A story of n elements is a handful of arrays, indexed by element in the
order the elements are listed in the file: ``text`` is an (n, d_text)
float64 matrix, ``image`` an (n, d_image) one or None, and
``element_ids[i]`` and ``gold[i]`` name element i and give its gold
position. The jumbled view models actually see is stored separately as
presented_order, and models read features only through
presented_features, an (S, n, d) array for S stories, so inference code
never touches gold positions by accident. Training reads the same rows
in gold order through gold_features.

Story.__post_init__ checks each story on its own (length, gold
positions, feature shapes, one finiteness check per array);
check_dataset checks what stories must share (unique ids, n and feature
dims).

Datasets are line-delimited JSON, one story per line. Floats serialize
in shortest round-trip decimal form, so save and load are exact.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .core import (
    MAX_N,
    MIN_N,
    Permutation,
    as_rng,
    json_list,
    json_value,
    random_permutation,
)
from .errors import DimensionError, EmptyInputError, FeatureError, ParseError, ValidationError

SIGNAL_MODES = ("monotone", "none")


@dataclass(frozen=True)
class Story:
    """n elements as arrays; presented_order is the jumbled view shown to models.

    Row i of text and image, element_ids[i] and gold[i] all describe
    element i. The feature arrays are read-only float64 copies of what
    was passed in.
    """

    story_id: str
    text: np.ndarray
    image: np.ndarray | None
    element_ids: tuple[str, ...]
    gold: tuple[int, ...]
    presented_order: Permutation | None = None

    def __post_init__(self) -> None:
        n = len(self.gold)
        if not MIN_N <= n <= MAX_N:
            raise ValidationError(
                f"story {self.story_id}: length must be in [{MIN_N}, {MAX_N}], got {n}"
            )
        object.__setattr__(self, "gold", tuple(int(g) for g in self.gold))
        if sorted(self.gold) != list(range(n)):
            raise ValidationError(
                f"story {self.story_id}: gold positions are not a permutation of 0..{n - 1}"
            )
        object.__setattr__(self, "element_ids", tuple(self.element_ids))
        if len(self.element_ids) != n:
            raise ValidationError(
                f"story {self.story_id}: {len(self.element_ids)} element ids for {n} elements"
            )
        object.__setattr__(self, "text", _feature_array(self.story_id, "text", self.text, n))
        if self.image is not None:
            object.__setattr__(self, "image",
                               _feature_array(self.story_id, "image", self.image, n))
        if self.presented_order is not None and self.presented_order.n != n:
            raise ValidationError(
                f"story {self.story_id}: presented_order length {self.presented_order.n} != {n}"
            )

    @property
    def n(self) -> int:
        return len(self.gold)

    def presented_gold(self) -> Permutation:
        """Gold positions of the presented elements, the target models must recover."""
        return Permutation(tuple(self.gold[i] for i in np.argsort(_presented_positions(self))))


def _feature_array(story_id: str, name: str, rows, n: int) -> np.ndarray:
    """rows (an array or a list of equal-length rows) as a read-only finite (n, d) array."""
    if not isinstance(rows, np.ndarray):
        dims = sorted({len(row) for row in rows})
        if len(dims) > 1:
            raise ValidationError(f"story {story_id}: inconsistent {name} feature dims {dims}")
    arr = np.array(rows, dtype=np.float64)
    if arr.ndim != 2 or arr.shape[0] != n:
        raise ValidationError(
            f"story {story_id}: {name} features must have shape ({n}, d), got {arr.shape}"
        )
    if not np.isfinite(arr).all():
        raise ValidationError(f"story {story_id}: {name} features contain non-finite entries")
    arr.flags.writeable = False
    return arr


def _presented_positions(story: Story) -> tuple[int, ...]:
    """Where each element sits in the presented order; the listed order if unjumbled."""
    if story.presented_order is None:
        return tuple(range(story.n))
    return story.presented_order.positions


def _feature_stack(stories: Sequence[Story], use_image: bool,
                   positions: Sequence[tuple[int, ...]]) -> np.ndarray:
    """(stories, n, d) rows of text, or of [text | image], placed by positions.

    positions[s][i] is where element i of stories[s] goes, so row k of a
    story is its element at position k. The stories must share n and
    feature dims.
    """
    if not stories:
        raise EmptyInputError("cannot build a feature array from an empty dataset")
    dims = {_dims(s) for s in stories}
    if len(dims) > 1:
        raise DimensionError(f"stories differ in (n, text dim, image dim): {sorted(dims, key=str)}")
    n = stories[0].n
    # row of each story's k-th element in the stories' arrays stacked to (S * n, d)
    rows = np.argsort(positions, axis=1)
    rows += np.arange(0, len(stories) * n, n)[:, None]
    text = np.concatenate([s.text for s in stories])[rows]
    if not use_image:
        return text
    missing = next((s for s in stories if s.image is None), None)
    if missing is not None:
        raise FeatureError(
            f"story {missing.story_id} has no image features but use_image was requested"
        )
    return np.concatenate([text, np.concatenate([s.image for s in stories])[rows]], axis=2)


def presented_features(stories: Sequence[Story], use_image: bool) -> np.ndarray:
    """(stories, n, d) features in presented order: the rows models score at inference.

    The stories must share n and feature dims.
    """
    return _feature_stack(stories, use_image, [_presented_positions(s) for s in stories])


def gold_features(stories: Sequence[Story], use_image: bool) -> np.ndarray:
    """(stories, n, d) features in gold order: row k of a story is its element at position k.

    The stories are checked with check_dataset first, so they share n and d.
    """
    check_dataset(stories)
    return _feature_stack(stories, use_image, [s.gold for s in stories])


def _dims(story: Story) -> tuple[int, int, int | None]:
    """(n, text dim, image dim or None)."""
    return story.n, story.text.shape[1], None if story.image is None else story.image.shape[1]


def check_dataset(stories: Sequence[Story]) -> None:
    """Enforce unique story_ids and one n, text dim and image dim across a dataset."""
    seen: set[str] = set()
    for story in stories:
        if story.story_id in seen:
            raise ValidationError(f"story {story.story_id}: repeated story_id")
        seen.add(story.story_id)
        if _dims(story) != _dims(stories[0]):
            raise ValidationError(
                f"story {story.story_id}: (n, text dim, image dim) {_dims(story)} differs "
                f"from dataset {_dims(stories[0])}"
            )


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
        if self.noise_sigma < 0:
            raise ValidationError(f"noise_sigma must be >= 0, got {self.noise_sigma}")
        if self.signal_mode not in SIGNAL_MODES:
            raise ValidationError(
                f"signal_mode must be one of {SIGNAL_MODES}, got {self.signal_mode!r}"
            )


def _unit_direction(rng: np.random.Generator, dim: int) -> np.ndarray:
    v = rng.standard_normal(dim)
    return v / np.linalg.norm(v)


def generate_synthetic(spec: SyntheticSpec) -> list[Story]:
    """Deterministic planted-signal dataset; stories come pre-jumbled.

    Elements are listed in gold order. Each element draws its text noise,
    then its image noise, so one (n, text_dim + image_dim) draw per story
    takes them all in that order.
    """
    rng = as_rng(spec.seed)
    u_text = _unit_direction(rng, spec.text_dim)
    u_image = _unit_direction(rng, spec.image_dim)
    position = np.arange(spec.n)[:, None]
    stories = []
    for k in range(spec.story_count):
        noise = rng.standard_normal((spec.n, spec.text_dim + spec.image_dim)) * spec.noise_sigma
        text, image = noise[:, :spec.text_dim], noise[:, spec.text_dim:]
        if spec.signal_mode == "monotone":
            text = text + position * u_text
            image = image + position * u_image
        stories.append(Story(
            story_id=f"story-{k:05d}", text=text, image=image,
            element_ids=tuple(f"story-{k:05d}-e{g}" for g in range(spec.n)),
            gold=tuple(range(spec.n)), presented_order=random_permutation(spec.n, rng),
        ))
    return stories


def split_dataset(
    stories: Sequence[Story],
    fractions: tuple[float, float, float],
    seed: int | np.random.Generator,
) -> tuple[list[Story], list[Story], list[Story]]:
    """Seeded shuffle then contiguous split; parts are disjoint and exhaustive."""
    if abs(sum(fractions) - 1.0) > 1e-9:
        raise ValidationError(f"fractions must sum to 1, got {fractions}")
    if any(f < 0 for f in fractions):
        raise ValidationError(f"fractions must be non-negative, got {fractions}")
    rng = as_rng(seed)
    stories = list(stories)
    order = rng.permutation(len(stories))
    shuffled = [stories[i] for i in order]
    n_train = int(fractions[0] * len(stories) + 1e-9)
    n_val = int(fractions[1] * len(stories) + 1e-9)
    train = shuffled[:n_train]
    val = shuffled[n_train:n_train + n_val]
    test = shuffled[n_train + n_val:]
    return train, val, test


def _story_to_record(story: Story) -> dict:
    text = story.text.tolist()
    image = None if story.image is None else story.image.tolist()
    return {
        "story_id": story.story_id,
        "n": story.n,
        "elements": [
            {
                "element_id": element_id,
                "gold_position": gold,
                "text_features": text[i],
                "image_features": None if image is None else image[i],
            }
            for i, (element_id, gold) in enumerate(zip(story.element_ids, story.gold))
        ],
        "presented_order": None if story.presented_order is None
        else list(story.presented_order.positions),
    }


def _story_from_record(record: dict) -> Story:
    story_id = json_value(record["story_id"], (str,), "story_id")
    element_ids, gold, text, image = [], [], [], []
    for item in record["elements"]:
        element_ids.append(json_value(item["element_id"], (str,), "element_id"))
        gold.append(json_value(item["gold_position"], (int,), "gold_position"))
        text.append(json_list(item["text_features"], (int, float), "text_features"))
        row = item["image_features"]
        image.append(None if row is None else json_list(row, (int, float), "image_features"))
    if any(row is None for row in image):
        if any(row is not None for row in image):
            raise ValidationError(
                f"story {story_id}: inconsistent image features across elements"
            )
        image = None
    presented = record.get("presented_order")
    story = Story(
        story_id=story_id, text=text, image=image, element_ids=element_ids, gold=gold,
        presented_order=None if presented is None
        else Permutation(tuple(json_list(presented, (int,), "presented_order"))),
    )
    if json_value(record["n"], (int,), "n") != story.n:
        raise ValidationError(
            f"story {story.story_id}: declared n={record['n']} but has {story.n} elements"
        )
    return story


def save_dataset(stories: Sequence[Story], path: str | Path) -> None:
    """Line-delimited JSON, one story per line, deterministic byte-for-byte."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", encoding="utf-8") as fh:
        for story in stories:
            fh.write(json.dumps(_story_to_record(story)) + "\n")


def load_dataset(path: str | Path) -> list[Story]:
    """Parse and validate a dataset file; an empty file is a valid empty dataset."""
    path = Path(path)
    stories = []
    try:
        with path.open("r", encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, start=1):
                if not line.strip():
                    continue
                try:
                    record = json.loads(line)
                except json.JSONDecodeError as e:
                    raise ParseError(f"{path}:{lineno}: malformed JSON: {e}") from e
                try:
                    stories.append(_story_from_record(record))
                except (KeyError, TypeError, ValueError, OverflowError) as e:
                    raise ParseError(f"{path}:{lineno}: missing or bad field: {e}") from e
    except UnicodeDecodeError as e:
        raise ParseError(f"{path}: not UTF-8 text: {e.reason}") from e
    check_dataset(stories)
    return stories
