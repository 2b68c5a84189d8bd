import json
from collections import Counter

import numpy as np
import pytest

from storysort.core import Permutation, enumerate_permutations, identity_permutation
from storysort.data import (
    Element,
    Story,
    SyntheticSpec,
    check_dataset,
    concat_features,
    feature_dim,
    generate_synthetic,
    jumble,
    load_dataset,
    save_dataset,
    split_dataset,
    story_feature_matrix,
)
from storysort.errors import FeatureError, ParseError, ValidationError
from storysort.metrics import score_story
from conftest import make_story


class TestStoryInvariants:
    def test_duplicate_gold_positions_rejected(self):
        with pytest.raises(ValidationError, match="gold positions"):
            make_story([0, 0, 2])

    def test_inconsistent_text_dims_rejected(self):
        with pytest.raises(ValidationError, match="text feature dims"):
            make_story([0, 1], text=[np.zeros(3), np.zeros(4)])

    def test_partial_image_features_rejected(self):
        with pytest.raises(ValidationError, match="image features"):
            make_story([0, 1], image=[np.zeros(2), None])

    def test_presented_order_length_checked(self):
        with pytest.raises(ValidationError, match="presented_order"):
            make_story([0, 1, 2], presented=[0, 1])

    def test_presented_views(self):
        # elements listed in gold order; presented_order sends gold g to slot
        story = make_story([0, 1, 2], presented=[2, 0, 1])
        presented = story.presented_elements()
        assert [e.gold_position for e in presented] == [1, 2, 0]
        assert story.presented_gold().positions == (1, 2, 0)

    def test_perfect_oracle_invariant_to_jumbling(self):
        story = make_story([0, 1, 2, 3, 4])
        for seed in range(5):
            jumbled = jumble(story, seed)
            pred = jumbled.presented_gold()
            assert score_story(pred, jumbled.presented_gold()) == (1.0, 1.0, 0.0)


class TestConcatFeatures:
    def test_concat_order(self):
        e = Element("e", np.array([1.0, 2.0]), np.array([3.0]), 0)
        assert concat_features(e, use_image=True).tolist() == [1.0, 2.0, 3.0]

    def test_text_only(self):
        e = Element("e", np.array([1.0, 2.0]), np.array([3.0]), 0)
        assert concat_features(e, use_image=False).tolist() == [1.0, 2.0]

    def test_missing_image_raises(self):
        e = Element("e", np.array([1.0]), None, 0)
        with pytest.raises(FeatureError):
            concat_features(e, use_image=True)


class TestJumble:
    def test_deterministic(self):
        story = make_story([0, 1, 2, 3, 4])
        a = jumble(story, 99).presented_order.positions
        b = jumble(story, 99).presented_order.positions
        assert a == b

    def test_gold_untouched(self):
        story = make_story([0, 1, 2, 3, 4])
        jumbled = jumble(story, 1)
        assert [e.gold_position for e in jumbled.elements] == [0, 1, 2, 3, 4]

    def test_uniform_over_120k_draws(self):
        story = make_story([0, 1, 2, 3, 4])
        rng = np.random.default_rng(13)
        counts = Counter(
            jumble(story, rng).presented_order.positions for _ in range(120_000)
        )
        assert len(counts) == 120
        for p in enumerate_permutations(5):
            assert abs(counts[p.positions] / 120_000 - 1 / 120) < 0.005


class TestSynthetic:
    def test_deterministic(self):
        spec = SyntheticSpec(story_count=5, seed=3)
        a = generate_synthetic(spec)
        b = generate_synthetic(spec)
        for sa, sb in zip(a, b):
            assert sa.presented_order.positions == sb.presented_order.positions
            for ea, eb in zip(sa.elements, sb.elements):
                assert (ea.text_features == eb.text_features).all()
                assert (ea.image_features == eb.image_features).all()

    def test_monotone_signal_orders_projections(self):
        # noiseless features are g * u, so projection on u recovers gold order
        spec = SyntheticSpec(story_count=3, noise_sigma=0.0, seed=8)
        stories = generate_synthetic(spec)
        for story in stories:
            norms = [np.linalg.norm(e.text_features) for e in story.gold_elements()]
            assert norms == sorted(norms)
            assert norms[0] == pytest.approx(0.0)

    def test_none_mode_has_no_position_signal(self):
        spec = SyntheticSpec(story_count=200, noise_sigma=1.0, signal_mode="none", seed=8)
        stories = generate_synthetic(spec)
        # mean feature norm must not grow with gold position
        by_pos = np.zeros(5)
        for story in stories:
            for e in story.elements:
                by_pos[e.gold_position] += np.linalg.norm(e.text_features)
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
            for ea, eb in zip(a.elements, b.elements):
                assert ea.element_id == eb.element_id
                assert ea.gold_position == eb.gold_position
                assert (ea.text_features == eb.text_features).all()
                assert (ea.image_features == eb.image_features).all()
        # and the bytes themselves are reproducible
        path2 = tmp_path / "data2.jsonl"
        save_dataset(loaded, path2)
        assert path.read_bytes() == path2.read_bytes()

    def test_malformed_line_reports_number(self, tmp_path):
        from storysort.data import _story_to_record

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
        from storysort.data import _story_to_record

        path = tmp_path / "mixed.jsonl"
        with path.open("w", encoding="utf-8") as fh:
            for s in stories:
                fh.write(json.dumps(_story_to_record(s)) + "\n")
        with pytest.raises(ValidationError, match="differs from dataset"):
            load_dataset(path)


class TestFeatureMatrix:
    def test_presented_vs_gold_views(self):
        story = make_story([0, 1, 2], presented=[2, 0, 1])
        gold_view = story_feature_matrix(story, view="gold")
        presented_view = story_feature_matrix(story, view="presented")
        assert (gold_view == np.eye(3)).all()
        assert (presented_view == np.eye(3)[[1, 2, 0]]).all()

    def test_unknown_view(self):
        with pytest.raises(ValidationError):
            story_feature_matrix(make_story([0, 1]), view="sideways")

    def test_feature_dim_helper(self):
        stories = [make_story([0, 1], image=[np.zeros(4), np.zeros(4)])]
        assert feature_dim(stories, use_image=False) == 2
        assert feature_dim(stories, use_image=True) == 6
