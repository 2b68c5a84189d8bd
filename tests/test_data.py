import dataclasses
import json
import re

import numpy as np
import pytest

from storysort.core import random_permutation
from storysort.data import (
    SyntheticSpec,
    _story_to_record,
    check_dataset,
    generate_synthetic,
    gold_features,
    load_dataset,
    presented_features,
    save_dataset,
    split_dataset,
)
from storysort.errors import FeatureError, ParseError, ValidationError
from storysort.metrics import score_story
from conftest import make_story


def write_records(path, records):
    path.write_text("".join(json.dumps(r) + "\n" for r in records), encoding="utf-8")


def bad_element_file(tmp_path, field, values):
    """A two-story dataset file whose second story (line 2) has field = values[i] on element i."""
    record = _story_to_record(make_story([0, 1], story_id="bad", image=np.zeros((2, 2))))
    for element, value in zip(record["elements"], values):
        element[field] = value
    path = tmp_path / "bad.jsonl"
    ok = make_story([0, 1], story_id="ok", image=np.zeros((2, 2)))
    write_records(path, [_story_to_record(ok), record])
    return path


class TestStoryInvariants:
    def test_duplicate_gold_positions_rejected(self):
        with pytest.raises(ValidationError, match="gold positions"):
            make_story([0, 0, 2])

    def test_inconsistent_text_dims_rejected(self, tmp_path):
        with pytest.raises(ValidationError, match="text feature dims"):
            make_story([0, 1], text=[np.zeros(3), np.zeros(4)])
        path = bad_element_file(tmp_path, "text_features", [[0.0] * 3, [0.0] * 4])
        with pytest.raises(ParseError, match=f"{re.escape(str(path))}:2: .*text feature dims"):
            load_dataset(path)

    def test_partial_image_features_rejected(self, tmp_path):
        # only a file can leave image features off some elements: in memory image is
        # one array or None
        path = bad_element_file(tmp_path, "image_features", [[0.0, 1.0], None])
        with pytest.raises(ParseError, match=f"{re.escape(str(path))}:2: .*image features"):
            load_dataset(path)

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), 10 ** 400])
    def test_non_finite_feature_rejected_at_load(self, tmp_path, value):
        path = bad_element_file(tmp_path, "text_features", [[0.0, value], [0.0, 1.0]])
        with pytest.raises(ParseError, match=f"{re.escape(str(path))}:2: "):
            load_dataset(path)

    def test_non_finite_feature_rejected(self):
        with pytest.raises(ValidationError, match="non-finite"):
            make_story([0, 1], image=np.array([[0.0], [np.nan]]))

    def test_feature_rows_must_match_n(self):
        with pytest.raises(ValidationError, match=r"text features must have shape \(3, d\)"):
            make_story([0, 1, 2], text=np.zeros((2, 4)))
        with pytest.raises(ValidationError, match=r"image features must have shape \(2, d\)"):
            make_story([0, 1], image=np.zeros(2))

    def test_presented_order_length_checked(self, tmp_path):
        with pytest.raises(ValidationError, match="presented_order"):
            make_story([0, 1, 2], presented=[0, 1])
        record = _story_to_record(make_story([0, 1, 2], story_id="bad"))
        record["presented_order"] = [1, 0]
        path = tmp_path / "bad.jsonl"
        write_records(path, [record])
        with pytest.raises(ParseError, match=f"{re.escape(str(path))}:1: .*presented_order"):
            load_dataset(path)

    def test_features_are_read_only_copies(self):
        text = np.eye(2)
        story = make_story([0, 1], text=text)
        text[0, 0] = 5.0
        assert story.text[0, 0] == 1.0
        with pytest.raises(ValueError):
            story.text[0, 0] = 5.0

    def test_presented_views(self):
        # elements listed in gold order; presented_order sends gold g to slot
        story = make_story([0, 1, 2], presented=[2, 0, 1])
        presented = presented_features([story], use_image=False)[0]
        assert presented.argmax(axis=1).tolist() == [1, 2, 0]
        assert story.presented_gold().positions == (1, 2, 0)

    def test_perfect_oracle_invariant_to_jumbling(self):
        story = make_story([0, 1, 2, 3, 4])
        for seed in range(5):
            jumbled = dataclasses.replace(story, presented_order=random_permutation(5, seed))
            pred = jumbled.presented_gold()
            assert score_story(pred, jumbled.presented_gold()) == (1.0, 1.0, 0.0)


class TestConcatFeatures:
    """presented_features with use_image puts image columns after text columns."""

    def story(self, image):
        return make_story([0, 1], text=np.array([[1.0, 2.0], [4.0, 5.0]]), image=image)

    def test_concat_order(self):
        story = self.story(np.array([[3.0], [6.0]]))
        assert presented_features([story], use_image=True).tolist() == [
            [[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]]]

    def test_text_only(self):
        story = self.story(np.array([[3.0], [6.0]]))
        assert presented_features([story], use_image=False).tolist() == [[[1.0, 2.0], [4.0, 5.0]]]

    def test_missing_image_raises(self):
        with pytest.raises(FeatureError):
            presented_features([self.story(None)], use_image=True)


class TestSynthetic:
    def test_deterministic(self):
        spec = SyntheticSpec(story_count=5, seed=3)
        a = generate_synthetic(spec)
        b = generate_synthetic(spec)
        for sa, sb in zip(a, b):
            assert sa.presented_order.positions == sb.presented_order.positions
            assert (sa.text == sb.text).all()
            assert (sa.image == sb.image).all()

    def test_monotone_signal_orders_projections(self):
        # noiseless features are g * u, so projection on u recovers gold order
        spec = SyntheticSpec(story_count=3, noise_sigma=0.0, seed=8)
        stories = generate_synthetic(spec)
        for story in stories:
            norms = np.linalg.norm(gold_features([story], use_image=False)[0], axis=1).tolist()
            assert norms == sorted(norms)
            assert norms[0] == pytest.approx(0.0)

    def test_none_mode_has_no_position_signal(self):
        spec = SyntheticSpec(story_count=200, noise_sigma=1.0, signal_mode="none", seed=8)
        stories = generate_synthetic(spec)
        # mean feature norm must not grow with gold position
        by_pos = np.zeros(5)
        for story in stories:
            by_pos[list(story.gold)] += np.linalg.norm(story.text, axis=1)
        by_pos /= 200
        assert by_pos.max() - by_pos.min() < 0.2 * by_pos.mean()

    def test_invalid_spec(self):
        with pytest.raises(ValidationError):
            SyntheticSpec(story_count=0)
        with pytest.raises(ValidationError):
            SyntheticSpec(story_count=1, signal_mode="sine")
        with pytest.raises(ValidationError):
            SyntheticSpec(story_count=1, noise_sigma=-0.1)
        with pytest.raises(ValidationError):
            SyntheticSpec(story_count=1, n=1)


class TestSplit:
    def test_sizes_80_10_10(self):
        stories = generate_synthetic(SyntheticSpec(story_count=100, text_dim=2, image_dim=2, seed=0))
        train, val, test = split_dataset(stories, (0.8, 0.1, 0.1), seed=1)
        assert (len(train), len(val), len(test)) == (80, 10, 10)

    def test_disjoint_and_exhaustive(self):
        stories = generate_synthetic(SyntheticSpec(story_count=37, text_dim=2, image_dim=2, seed=0))
        train, val, test = split_dataset(stories, (0.5, 0.25, 0.25), seed=2)
        ids = [s.story_id for s in train + val + test]
        assert sorted(ids) == sorted(s.story_id for s in stories)
        assert len(set(ids)) == len(ids)

    def test_deterministic(self):
        stories = generate_synthetic(SyntheticSpec(story_count=20, text_dim=2, image_dim=2, seed=0))
        a = split_dataset(stories, (0.8, 0.1, 0.1), seed=5)
        b = split_dataset(stories, (0.8, 0.1, 0.1), seed=5)
        assert [s.story_id for s in a[0]] == [s.story_id for s in b[0]]

    def test_bad_fractions(self):
        with pytest.raises(ValidationError):
            split_dataset([], (0.5, 0.1, 0.1), seed=0)


class TestDatasetIO:
    def test_empty_file_is_valid(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("", encoding="utf-8")
        assert load_dataset(path) == []

    def test_round_trip_exact(self, tmp_path):
        stories = generate_synthetic(SyntheticSpec(story_count=8, seed=12))
        path = tmp_path / "data.jsonl"
        save_dataset(stories, path)
        loaded = load_dataset(path)
        assert len(loaded) == len(stories)
        for a, b in zip(stories, loaded):
            assert a.story_id == b.story_id
            assert a.presented_order.positions == b.presented_order.positions
            assert a.element_ids == b.element_ids
            assert a.gold == b.gold
            assert (a.text == b.text).all()
            assert (a.image == b.image).all()
        # and the bytes themselves are reproducible
        path2 = tmp_path / "data2.jsonl"
        save_dataset(loaded, path2)
        assert path.read_bytes() == path2.read_bytes()

    def test_malformed_line_reports_number(self, tmp_path):
        good = json.dumps(_story_to_record(make_story([0, 1], story_id="ok")))
        path = tmp_path / "bad.jsonl"
        path.write_text(good + "\nnot json\n", encoding="utf-8")
        with pytest.raises(ParseError, match=":2"):
            load_dataset(path)

    def test_duplicate_gold_rejected_with_story_id(self, tmp_path):
        record = {
            "story_id": "dup-story",
            "n": 2,
            "elements": [
                {"element_id": "a", "gold_position": 0, "text_features": [0.0], "image_features": None},
                {"element_id": "b", "gold_position": 0, "text_features": [0.0], "image_features": None},
            ],
            "presented_order": None,
        }
        path = tmp_path / "dup.jsonl"
        path.write_text(json.dumps(record) + "\n", encoding="utf-8")
        with pytest.raises(ValidationError, match="dup-story"):
            load_dataset(path)

    def test_repeated_story_id_rejected(self, tmp_path):
        stories = [make_story([0, 1], story_id="a"), make_story([1, 0], story_id="b"),
                   make_story([0, 1], story_id="a")]
        with pytest.raises(ValidationError, match="story a: repeated story_id"):
            check_dataset(stories)
        path = tmp_path / "dup.jsonl"
        save_dataset(stories, path)
        with pytest.raises(ValidationError, match="repeated story_id"):
            load_dataset(path)

    def test_mixed_n_rejected(self, tmp_path):
        stories = [make_story([0, 1], story_id="a"), make_story([0, 1, 2], story_id="b")]
        # bypass save-level checks by writing records directly
        path = tmp_path / "mixed.jsonl"
        with path.open("w", encoding="utf-8") as fh:
            for s in stories:
                fh.write(json.dumps(_story_to_record(s)) + "\n")
        with pytest.raises(ValidationError, match="differs from dataset"):
            load_dataset(path)


    @pytest.mark.parametrize("other", [
        make_story([0, 1], story_id="b", text=np.zeros((2, 3))),
        make_story([0, 1], story_id="b", image=np.zeros((2, 1))),
    ], ids=["text_dim", "image"])
    def test_mixed_feature_dims_rejected(self, other):
        with pytest.raises(ValidationError, match="story b: .* differs from dataset"):
            check_dataset([make_story([0, 1], story_id="a"), other])


class TestFeatureMatrix:
    def test_presented_vs_gold_views(self):
        story = make_story([0, 1, 2], presented=[2, 0, 1])
        gold_view = gold_features([story], use_image=False)[0]
        presented_view = presented_features([story], use_image=False)[0]
        assert (gold_view == np.eye(3)).all()
        assert (presented_view == np.eye(3)[[1, 2, 0]]).all()
