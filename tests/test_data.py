import base64
import dataclasses
import json
import re
import tracemalloc

import numpy as np
import pytest

from storysort.core import random_permutation
from storysort.data import (
    Orders,
    Stories,
    SyntheticSpec,
    _records,
    generate_synthetic,
    gold_features,
    load_dataset,
    presented_features,
    presented_gold,
    save_dataset,
    split_dataset,
)
from storysort.errors import FeatureError, ParseError, ValidationError
from storysort.metrics import score_story
from storysort.models import load_model, save_model
from storysort.neural import MlpParams
from storysort.unary import UnaryModel
from conftest import join, make_story


def write_records(path, records):
    path.write_text("".join(json.dumps(r) + "\n" for r in records), encoding="utf-8")


def block(values):
    """A float block written by hand: base64 of the values' little-endian float64 bytes."""
    return base64.b64encode(np.asarray(values, dtype="<f8").tobytes()).decode("ascii")


def bad_record_file(tmp_path, **fields):
    """A two-story dataset file whose second story (line 2) has the given fields replaced."""
    ok, record = _records(join(make_story([0, 1], story_id="ok", image=np.zeros((2, 2))),
                               make_story([0, 1], story_id="bad", image=np.zeros((2, 2)))))
    path = tmp_path / "bad.jsonl"
    write_records(path, [ok, {**record, **fields}])
    return path


class TestStoryInvariants:
    def test_duplicate_gold_positions_rejected(self):
        with pytest.raises(ValidationError, match="gold positions"):
            make_story([0, 0, 2])

    def test_inconsistent_text_dims_rejected(self, tmp_path):
        # in a file, rows of 3 and 4 features are 7 floats: no whole width for 2 rows
        path = bad_record_file(tmp_path, text=block([0.0] * 7))
        with pytest.raises(ParseError, match=f"{re.escape(str(path))}:2: .*text must be a "
                                             r"float64 block of shape \(2, -1\), got 56 bytes"):
            load_dataset(path)

    def test_partial_image_features_rejected(self, tmp_path):
        # only a file can leave image features off some elements: in memory image is
        # one array or None, and in a file one float block or null
        for image, message in [
            ([[0.0, 1.0], None], "image must be str"),
            (block([0.0, 1.0, 2.0]), r"image must be a float64 block of shape \(2, -1\), got 24"),
        ]:
            path = bad_record_file(tmp_path, image=image)
            with pytest.raises(ParseError, match=f"{re.escape(str(path))}:2: .*{message}"):
                load_dataset(path)

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_feature_rejected_at_load(self, tmp_path, value):
        path = bad_record_file(tmp_path, text=block([[0.0, value], [0.0, 1.0]]))
        with pytest.raises(ParseError, match=f"{re.escape(str(path))}:2: .*story bad: text "
                                             "features contain non-finite entries"):
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
        (record,) = _records(make_story([0, 1, 2], story_id="bad"))
        record["presented_order"] = [1, 0]
        path = tmp_path / "bad.jsonl"
        write_records(path, [record])
        with pytest.raises(ParseError, match=f"{re.escape(str(path))}:1: .*presented_order"):
            load_dataset(path)

    @pytest.mark.parametrize("presented", [[0, 0, 1], [1, 2, 3], [0, 1, 10**30]])
    def test_presented_order_must_be_a_permutation(self, presented):
        with pytest.raises(ValidationError,
                           match="story s: presented_order is not a permutation of 0..2"):
            make_story([0, 1, 2], presented=presented)

    def test_features_are_read_only_copies(self):
        text = np.eye(2)
        story = make_story([0, 1], text=text)
        text[0, 0] = 5.0
        assert story.text[0, 0, 0] == 1.0
        with pytest.raises(ValueError):
            story.text[0, 0, 0] = 5.0
        # a read-only view is copied too: its base can still be written
        base = np.eye(2)[None]
        view = base[:]
        view.flags.writeable = False
        batch = Stories(("s",), (("a", "b"),), [[0, 1]], [[0, 1]], view, None)
        base[0, 0, 0] = 5.0
        assert batch.text[0, 0, 0] == 1.0

    @pytest.mark.parametrize("index", [slice(1, 3), [2, 0], 1], ids=["slice", "array", "int"])
    def test_parts_are_read_only_rows_of_the_batch(self, index):
        batch = generate_synthetic(SyntheticSpec(story_count=4, seed=2))
        part = batch[index]
        rows = np.arange(4)[index].reshape(-1)
        assert part.story_ids == tuple(batch.story_ids[s] for s in rows)
        assert part.element_ids == tuple(batch.element_ids[s] for s in rows)
        for name in ("gold", "presented", "text", "image"):
            array = getattr(part, name)
            assert np.array_equal(array, getattr(batch, name)[rows])
            assert not array.flags.writeable
            if not isinstance(index, list):
                assert np.shares_memory(array, getattr(batch, name))
        assert [s.story_id for s in part] == list(part.story_ids)
        if len(part) != 1:
            with pytest.raises(ValidationError, match="story_id needs a batch of one story"):
                part.story_id

    def test_presented_views(self):
        # elements listed in gold order; presented_order sends gold g to slot
        story = make_story([0, 1, 2], presented=[2, 0, 1])
        presented = presented_features(story, use_image=False)[0]
        assert presented.argmax(axis=1).tolist() == [1, 2, 0]
        assert presented_gold(story).tolist() == [[1, 2, 0]]

    def test_perfect_oracle_invariant_to_jumbling(self):
        story = make_story([0, 1, 2, 3, 4])
        for seed in range(5):
            jumbled = dataclasses.replace(story, presented=[random_permutation(5, seed)])
            pred = presented_gold(jumbled)
            assert score_story(pred, presented_gold(jumbled)).tolist() == [[1.0, 1.0, 0.0]]


class TestOrders:
    """Orders, the one result type of the sorting entry points; test_ensemble.py checks
    what each entry point returns and what positions refuses."""

    def test_the_constructor_makes_rows_read_only(self):
        rows = np.array([[1, 0, 2], [0, 2, 1]])
        orders = Orders(rows)
        assert orders.rows is rows and not rows.flags.writeable
        with pytest.raises(dataclasses.FrozenInstanceError):
            orders.rows = np.zeros((2, 3), dtype=np.intp)


class TestConcatFeatures:
    """presented_features with use_image puts image columns after text columns."""

    def story(self, image):
        return make_story([0, 1], text=np.array([[1.0, 2.0], [4.0, 5.0]]), image=image)

    def test_concat_order(self):
        story = self.story(np.array([[3.0], [6.0]]))
        assert presented_features(story, use_image=True).tolist() == [
            [[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]]]

    def test_text_only(self):
        story = self.story(np.array([[3.0], [6.0]]))
        assert presented_features(story, use_image=False).tolist() == [[[1.0, 2.0], [4.0, 5.0]]]

    def test_missing_image_raises(self):
        with pytest.raises(FeatureError):
            presented_features(self.story(None), use_image=True)


class TestSynthetic:
    def test_deterministic(self):
        spec = SyntheticSpec(story_count=5, seed=3)
        a = generate_synthetic(spec)
        b = generate_synthetic(spec)
        assert (a.presented == b.presented).all()
        assert (a.text == b.text).all()
        assert (a.image == b.image).all()

    def test_monotone_signal_orders_projections(self):
        # noiseless features are g * u, so projection on u recovers gold order
        spec = SyntheticSpec(story_count=3, noise_sigma=0.0, seed=8)
        stories = generate_synthetic(spec)
        for story in stories:
            norms = np.linalg.norm(gold_features(story, use_image=False)[0], axis=1).tolist()
            assert norms == sorted(norms)
            assert norms[0] == pytest.approx(0.0)

    def test_none_mode_has_no_position_signal(self):
        spec = SyntheticSpec(story_count=200, noise_sigma=1.0, signal_mode="none", seed=8)
        stories = generate_synthetic(spec)
        # mean feature norm must not grow with gold position
        by_pos = np.zeros(5)
        for gold, text in zip(stories.gold, stories.text):
            by_pos[gold] += np.linalg.norm(text, axis=1)
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
    def test_sizes_90_10(self):
        stories = generate_synthetic(SyntheticSpec(story_count=100, text_dim=2, image_dim=2, seed=0))
        train, val = split_dataset(stories, 0.1, seed=1)
        assert (len(train), len(val)) == (90, 10)

    def test_disjoint_and_exhaustive(self):
        stories = generate_synthetic(SyntheticSpec(story_count=37, text_dim=2, image_dim=2, seed=0))
        train, val = split_dataset(stories, 0.25, seed=2)
        ids = train.story_ids + val.story_ids
        assert sorted(ids) == sorted(stories.story_ids)
        assert len(set(ids)) == len(ids)

    def test_deterministic(self):
        stories = generate_synthetic(SyntheticSpec(story_count=20, text_dim=2, image_dim=2, seed=0))
        a = split_dataset(stories, 0.1, seed=5)
        b = split_dataset(stories, 0.1, seed=5)
        assert a[0].story_ids == b[0].story_ids

    def test_bad_fractions(self):
        stories = generate_synthetic(SyntheticSpec(story_count=2, text_dim=2, image_dim=2, seed=0))
        for val_frac in (-0.1, 1.5):
            with pytest.raises(ValidationError, match="val_frac must be in"):
                split_dataset(stories, val_frac, seed=0)


class TestDatasetIO:
    def test_empty_file_is_valid(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("", encoding="utf-8")
        assert len(load_dataset(path)) == 0

    def test_round_trip_exact(self, tmp_path):
        stories = generate_synthetic(SyntheticSpec(story_count=8, seed=12))
        path = tmp_path / "data.jsonl"
        save_dataset(stories, path)
        loaded = load_dataset(path)
        assert loaded.story_ids == stories.story_ids
        assert loaded.element_ids == stories.element_ids
        for name in ("gold", "presented", "text", "image"):
            assert np.array_equal(getattr(loaded, name), getattr(stories, name))
        # and the bytes themselves are reproducible
        path2 = tmp_path / "data2.jsonl"
        save_dataset(loaded, path2)
        assert path.read_bytes() == path2.read_bytes()

    def test_float_blocks_keep_every_bit(self, tmp_path):
        extremes = np.array([[-0.0, 5e-324], [1.7976931348623157e308, -1.7976931348623157e308]])
        path = tmp_path / "extremes.jsonl"
        save_dataset(make_story([0, 1], text=extremes, image=extremes[::-1]), path)
        story = load_dataset(path)
        assert (story.text[0].view(np.uint64) == extremes.view(np.uint64)).all()
        assert (story.image[0].view(np.uint64) == extremes[::-1].view(np.uint64)).all()
        params = MlpParams((2, 2), [extremes], [extremes[:, 1]])
        save_model(UnaryModel(mlp=params, n=2), tmp_path / "extremes.json")
        loaded = load_model(tmp_path / "extremes.json").mlp
        assert (loaded.weights[0].view(np.uint64) == extremes.view(np.uint64)).all()
        assert (loaded.biases[0].view(np.uint64) == extremes[:, 1].view(np.uint64)).all()

    def test_blank_lines_and_crlf_endings_are_skipped(self, tmp_path):
        stories = generate_synthetic(SyntheticSpec(story_count=3, seed=5))
        lines = [json.dumps(record) for record in _records(stories)]
        path = tmp_path / "crlf.jsonl"
        path.write_bytes("\r\n".join([lines[0], "", lines[1], " \t", lines[2], ""]).encode())
        loaded = load_dataset(path)
        assert loaded.story_ids == stories.story_ids
        for name in ("gold", "presented", "text", "image"):
            assert np.array_equal(getattr(loaded, name), getattr(stories, name))

    def test_load_holds_the_features_once(self, tmp_path):
        # each line's float blocks decode into the batch's own arrays, which the batch takes
        # over, so a load never holds the features twice
        stories = generate_synthetic(SyntheticSpec(story_count=1000, n=16, seed=3))
        feature_bytes = stories.text.nbytes + stories.image.nbytes
        path = tmp_path / "data.jsonl"
        save_dataset(stories, path)
        del stories
        tracemalloc.start()
        try:
            loaded = load_dataset(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(loaded) == 1000
        assert peak <= 1.5 * feature_bytes

    def test_malformed_line_reports_number(self, tmp_path):
        (good,) = map(json.dumps, _records(make_story([0, 1], story_id="ok")))
        path = tmp_path / "bad.jsonl"
        path.write_text(good + "\nnot json\n", encoding="utf-8")
        with pytest.raises(ParseError, match=":2"):
            load_dataset(path)

    def test_duplicate_gold_rejected_with_story_id(self, tmp_path):
        record = {
            "story_id": "dup-story",
            "element_ids": ["a", "b"],
            "gold": [0, 0],
            "presented_order": None,
            "text": block([[0.0], [0.0]]),
            "image": None,
        }
        path = tmp_path / "dup.jsonl"
        path.write_text(json.dumps(record) + "\n", encoding="utf-8")
        with pytest.raises(ParseError, match=f"{re.escape(str(path))}:1: .*dup-story"):
            load_dataset(path)

    def test_null_presented_order_is_the_listed_order(self, tmp_path):
        (record,) = _records(make_story([2, 0, 1], presented=[1, 2, 0]))
        path = tmp_path / "null.jsonl"
        write_records(path, [{**record, "presented_order": None}])
        story = load_dataset(path)
        assert story.presented.tolist() == [[0, 1, 2]]
        assert presented_gold(story).tolist() == [[2, 0, 1]]
        resaved = tmp_path / "resaved.jsonl"
        save_dataset(story, resaved)
        assert json.loads(resaved.read_text(encoding="utf-8"))["presented_order"] == [0, 1, 2]

    def test_repeated_story_id_rejected(self, tmp_path):
        a, b = make_story([0, 1], story_id="a"), make_story([1, 0], story_id="b")
        with pytest.raises(ValidationError, match="story a: repeated story_id"):
            join(a, b, a)
        path = tmp_path / "dup.jsonl"
        write_records(path, [*_records(join(a, b)), *_records(a)])
        with pytest.raises(ParseError, match=f"{re.escape(str(path))}:3: .*repeated story_id"):
            load_dataset(path)

    # a batch cannot hold stories that differ in n or feature dims, so only a file can mix them
    @staticmethod
    def check_mixed_file(tmp_path, other):
        path = tmp_path / "mixed.jsonl"
        write_records(path, [*_records(make_story([0, 1], story_id="a")), *_records(other)])
        with pytest.raises(ParseError,
                           match=f"{re.escape(str(path))}:2: story b: .* differs from dataset"):
            load_dataset(path)

    def test_mixed_n_rejected(self, tmp_path):
        self.check_mixed_file(tmp_path, make_story([0, 1, 2], story_id="b"))

    @pytest.mark.parametrize("other", [
        make_story([0, 1], story_id="b", text=np.zeros((2, 3))),
        make_story([0, 1], story_id="b", image=np.zeros((2, 1))),
    ], ids=["text_dim", "image"])
    def test_mixed_feature_dims_rejected(self, tmp_path, other):
        self.check_mixed_file(tmp_path, other)


class TestFeatureMatrix:
    def test_presented_vs_gold_views(self):
        story = make_story([0, 1, 2], presented=[2, 0, 1])
        gold_view = gold_features(story, use_image=False)[0]
        presented_view = presented_features(story, use_image=False)[0]
        assert (gold_view == np.eye(3)).all()
        assert (presented_view == np.eye(3)[[1, 2, 0]]).all()
