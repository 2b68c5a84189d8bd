"""Story ingestion, feature assembly, jumbling, splits, and synthetic data.

A story is a fixed-length list of elements, each carrying a text feature
vector, an optional image feature vector, and its gold position. The
canonical element order is gold order; the jumbled view models actually
see is stored separately as presented_order, so inference code never
touches gold positions by accident.

Datasets are line-delimited JSON, one story per line. Floats serialize
in shortest round-trip decimal form, so save and load are exact.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .core import (
    MAX_N,
    MIN_N,
    Permutation,
    apply_permutation,
    as_float_vector,
    as_rng,
    inverse,
    random_permutation,
)
from .errors import (
    DimensionError,
    EmptyInputError,
    FeatureError,
    ParseError,
    ValidationError,
)

SIGNAL_MODES = ("monotone", "none")


@dataclass(frozen=True)
class Element:
    """One story element: features plus its gold position within the story."""

    element_id: str
    text_features: np.ndarray
    image_features: np.ndarray | None
    gold_position: int

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "text_features", as_float_vector(self.text_features, "text_features")
        )
        if self.image_features is not None:
            object.__setattr__(
                self,
                "image_features",
                as_float_vector(self.image_features, "image_features"),
            )
        if self.gold_position < 0:
            raise ValidationError(
                f"element {self.element_id}: gold_position must be >= 0"
            )


@dataclass(frozen=True)
class Story:
    """An ordered set of elements; presented_order is the jumbled view shown to models."""

    story_id: str
    elements: tuple[Element, ...]
    presented_order: Permutation | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "elements", tuple(self.elements))
        n = len(self.elements)
        if not MIN_N <= n <= MAX_N:
            raise ValidationError(
                f"story {self.story_id}: length must be in [{MIN_N}, {MAX_N}], got {n}"
            )
        golds = sorted(e.gold_position for e in self.elements)
        if golds != list(range(n)):
            raise ValidationError(
                f"story {self.story_id}: gold positions are not a permutation of 0..{n - 1}"
            )
        text_dims = {e.text_features.shape[0] for e in self.elements}
        if len(text_dims) != 1:
            raise ValidationError(
                f"story {self.story_id}: inconsistent text feature dims {sorted(text_dims)}"
            )
        image_dims = {
            None if e.image_features is None else e.image_features.shape[0]
            for e in self.elements
        }
        if len(image_dims) != 1:
            raise ValidationError(
                f"story {self.story_id}: inconsistent image features across elements"
            )
        if self.presented_order is not None and self.presented_order.n != n:
            raise ValidationError(
                f"story {self.story_id}: presented_order length {self.presented_order.n} != {n}"
            )

    @property
    def n(self) -> int:
        return len(self.elements)

    def presented_elements(self) -> list[Element]:
        """Elements in the jumbled order shown to models (listed order if unjumbled)."""
        if self.presented_order is None:
            return list(self.elements)
        return apply_permutation(self.presented_order, self.elements)

    def presented_gold(self) -> Permutation:
        """Gold positions of the presented elements, the target models must recover."""
        return Permutation(tuple(e.gold_position for e in self.presented_elements()))

    def gold_elements(self) -> list[Element]:
        return sorted(self.elements, key=lambda e: e.gold_position)


def concat_features(element: Element, use_image: bool = False) -> np.ndarray:
    """Text features, optionally followed by image features, in that fixed order."""
    if not use_image:
        return element.text_features
    if element.image_features is None:
        raise FeatureError(
            f"element {element.element_id} has no image features but use_image was requested"
        )
    return np.concatenate([element.text_features, element.image_features])


def story_feature_matrix(story: Story, use_image: bool = False,
                         view: str = "presented") -> np.ndarray:
    """(n, d) feature matrix over the presented or the gold element order."""
    if view == "presented":
        elems = story.presented_elements()
    elif view == "gold":
        elems = story.gold_elements()
    else:
        raise ValidationError(f"unknown view {view!r}")
    return np.stack([concat_features(e, use_image) for e in elems])


def feature_dim(stories: Sequence[Story], use_image: bool = False) -> int:
    if not stories:
        raise EmptyInputError("cannot infer feature dim from an empty dataset")
    return concat_features(stories[0].elements[0], use_image).shape[0]


def check_dataset(stories: Sequence[Story]) -> None:
    """Enforce unique story_ids and constant n and feature dims across a dataset."""
    if not stories:
        return
    first = stories[0]
    n = first.n
    text_dim = first.elements[0].text_features.shape[0]
    has_image = first.elements[0].image_features is not None
    image_dim = first.elements[0].image_features.shape[0] if has_image else None
    seen: set[str] = set()
    for story in stories:
        if story.story_id in seen:
            raise ValidationError(f"story {story.story_id}: repeated story_id")
        seen.add(story.story_id)
        if story.n != n:
            raise ValidationError(
                f"story {story.story_id}: n={story.n} differs from dataset n={n}"
            )
        e = story.elements[0]
        if e.text_features.shape[0] != text_dim:
            raise ValidationError(
                f"story {story.story_id}: text dim {e.text_features.shape[0]} != {text_dim}"
            )
        if (e.image_features is not None) != has_image or (
            has_image and e.image_features.shape[0] != image_dim
        ):
            raise ValidationError(
                f"story {story.story_id}: image features inconsistent with dataset"
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
    """Deterministic planted-signal dataset; stories come pre-jumbled."""
    rng = as_rng(spec.seed)
    u_text = _unit_direction(rng, spec.text_dim)
    u_image = _unit_direction(rng, spec.image_dim)
    stories = []
    for k in range(spec.story_count):
        elements = []
        for g in range(spec.n):
            text = rng.standard_normal(spec.text_dim) * spec.noise_sigma
            image = rng.standard_normal(spec.image_dim) * spec.noise_sigma
            if spec.signal_mode == "monotone":
                text = text + g * u_text
                image = image + g * u_image
            elements.append(
                Element(
                    element_id=f"story-{k:05d}-e{g}",
                    text_features=text,
                    image_features=image,
                    gold_position=g,
                )
            )
        presented = random_permutation(spec.n, rng)
        stories.append(
            Story(story_id=f"story-{k:05d}", elements=tuple(elements),
                  presented_order=presented)
        )
    return stories


def jumble(story: Story, seed: int | np.random.Generator) -> Story:
    """Fresh random presented_order; gold positions are untouched."""
    rng = as_rng(seed)
    return dataclasses.replace(story, presented_order=random_permutation(story.n, rng))


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
    return {
        "story_id": story.story_id,
        "n": story.n,
        "elements": [
            {
                "element_id": e.element_id,
                "gold_position": e.gold_position,
                "text_features": e.text_features.tolist(),
                "image_features": None if e.image_features is None
                else e.image_features.tolist(),
            }
            for e in story.elements
        ],
        "presented_order": None if story.presented_order is None
        else list(story.presented_order.positions),
    }


def _story_from_record(record: dict) -> Story:
    elements = tuple(
        Element(
            element_id=str(item["element_id"]),
            text_features=item["text_features"],
            image_features=item["image_features"],
            gold_position=int(item["gold_position"]),
        )
        for item in record["elements"]
    )
    presented = record.get("presented_order")
    story = Story(
        story_id=str(record["story_id"]),
        elements=elements,
        presented_order=None if presented is None else Permutation(tuple(presented)),
    )
    if int(record["n"]) != story.n:
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
            except (KeyError, TypeError) as e:
                raise ParseError(f"{path}:{lineno}: missing or bad field: {e}") from e
    check_dataset(stories)
    return stories
