import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from storysort import metrics as M
from storysort import models, unary
from storysort.assign import hungarian_max
from storysort.data import SyntheticSpec, generate_synthetic, presented_gold, split_dataset
from storysort.errors import DimensionError, EmptyInputError, ValidationError
from storysort.models import REGISTRY, load_model, predict_stories, save_model, top_permutations
from storysort.neural import MlpParams, TrainConfig
from storysort.unary import (
    UnaryModel,
    decode_unary,
    position_probs,
    predict,
    train_unary,
)
from conftest import additive_score, enumerate_permutations, make_story, softmax


def zero_model(n, dim):
    mlp = MlpParams((dim, n), [np.zeros((dim, n))], [np.zeros(n)])
    return UnaryModel(mlp=mlp, n=n)


def identity_like_probs(n):
    probs = np.full((n, n), 1e-9)
    np.fill_diagonal(probs, 1.0)
    return probs / probs.sum(axis=1, keepdims=True)


class TestPositionProbs:
    def test_zero_weights_give_uniform_rows(self):
        story = make_story([0, 1, 2, 3, 4])
        model = zero_model(5, 5)
        probs = position_probs(model, story)[0]
        assert probs == pytest.approx(np.full((5, 5), 0.2))

    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(0)
        story = make_story([0, 1, 2], text=[rng.standard_normal(3) for _ in range(3)])
        mlp = MlpParams((3, 3), [rng.standard_normal((3, 3))], [rng.standard_normal(3)])
        probs = position_probs(UnaryModel(mlp=mlp, n=3), story)[0]
        assert np.abs(probs.sum(axis=1) - 1.0).max() <= 1e-12

    def test_hand_set_single_layer(self):
        # 2 elements, weights pick out feature coordinates directly
        story = make_story([0, 1], text=[np.array([2.0, 0.0]), np.array([0.0, 3.0])])
        mlp = MlpParams((2, 2), [np.eye(2)], [np.zeros(2)])
        probs = position_probs(UnaryModel(mlp=mlp, n=2), story)[0]
        e2 = np.exp(2.0)
        e0 = np.exp(0.0)
        assert probs[0] == pytest.approx([e2 / (e2 + e0), e0 / (e2 + e0)], abs=1e-12)

    def test_wrong_story_size(self):
        with pytest.raises(DimensionError):
            position_probs(zero_model(5, 5), make_story([0, 1, 2]))

    def test_output_dim_must_match_n(self):
        mlp = MlpParams((5, 4), [np.zeros((5, 4))], [np.zeros(4)])
        with pytest.raises(ValidationError):
            UnaryModel(mlp=mlp, n=5)


def probs_of_logits(logits):
    """position_probs of a one-layer model whose logits are the rows of an (n, n) matrix:
    element i's text features are row i, and the weights are the identity, so the
    forward pass gives the rows exactly."""
    z = np.asarray(logits, dtype=np.float64)
    n = len(z)
    mlp = MlpParams((n, n), [np.eye(n)], [np.zeros(n)])
    return position_probs(UnaryModel(mlp=mlp, n=n), make_story(range(n), text=z))[0]


class TestSoftmax:
    """position_probs is the softmax of the logits, bit for bit the conftest reference's."""

    def test_large_logit_stable(self):
        z = [[1000.0, 0.0], [0.0, 1000.0]]
        out = probs_of_logits(z)
        assert np.array_equal(out, softmax(z))
        assert np.isfinite(out).all()
        assert out[0, 0] == pytest.approx(1.0)
        assert out[0, 1] == pytest.approx(0.0, abs=1e-300)

    def test_log_integers(self):
        z = np.log([[1.0, 2.0, 3.0], [3.0, 2.0, 1.0], [2.0, 3.0, 1.0]])
        out = probs_of_logits(z)
        assert np.array_equal(out, softmax(z))
        assert out[0] == pytest.approx([1 / 6, 2 / 6, 3 / 6], abs=1e-12)

    @given(st.integers(min_value=2, max_value=8).flatmap(
        lambda n: st.lists(st.floats(min_value=-50, max_value=50), min_size=n * n,
                           max_size=n * n).map(lambda z: np.reshape(z, (n, n)))))
    def test_sums_to_one_and_shift_invariant(self, z):
        out = probs_of_logits(z)
        assert np.array_equal(out, softmax(z))
        assert np.abs(out.sum(axis=1) - 1.0).max() <= 1e-12
        assert probs_of_logits(z + 13.25) == pytest.approx(out, abs=1e-12)

    def test_overflowing_logits_are_rejected_by_the_decoder(self):
        # nothing checks the softmax's input: logits that overflow to inf give NaN
        # probabilities, which hungarian_max's check of its scores refuses
        story = make_story([0, 1], text=np.array([[1e308, 0.0], [0.0, 1.0]]))
        mlp = MlpParams((2, 2), [np.full((2, 2), 10.0)], [np.zeros(2)])
        with np.errstate(all="ignore"), pytest.raises(ValidationError, match="non-finite"):
            predict(UnaryModel(mlp=mlp, n=2), story)


class TestUnaryScore:
    """A permutation's unary score is additive_score of its position probabilities."""

    def test_uniform_probs(self):
        probs = np.full((5, 5), 0.2)
        assert additive_score(probs, range(5)) == pytest.approx(1.0)

    def test_identity_like_diagonal(self):
        probs = np.eye(5)
        assert additive_score(probs, range(5)) == 5.0

    def test_identity_like_on_reversal(self):
        # only the middle element sits on its gold position
        probs = np.eye(5)
        assert additive_score(probs, (4, 3, 2, 1, 0)) == 1.0


class TestDecodeUnary:
    def test_identity_like(self):
        assert decode_unary(identity_like_probs(5)[None]).tolist() == [[0, 1, 2, 3, 4]]

    def test_uniform_rows_tie_break(self):
        assert decode_unary(np.full((1, 5, 5), 0.2)).tolist() == [[0, 1, 2, 3, 4]]

    def test_matches_brute_force_on_100_matrices(self):
        rng = np.random.default_rng(21)
        stack = np.exp(rng.standard_normal((100, 5, 5)))
        stack /= stack.sum(axis=2, keepdims=True)
        for probs, decoded in zip(stack, decode_unary(stack)):
            best = max(enumerate_permutations(5), key=lambda p: additive_score(probs, p))
            assert additive_score(probs, decoded) == additive_score(probs, best)

    def test_one_assignment_solve_per_chunk(self, tiny_clean_dataset, monkeypatch):
        # decode_unary calls hungarian_max by this module's name, once per stack: a
        # profiler that rebinds unary.hungarian_max sees every chunk
        shapes = []

        def counting(s):
            shapes.append(np.shape(s))
            return hungarian_max(s)

        monkeypatch.setattr(unary, "hungarian_max", counting)
        stories = tiny_clean_dataset[:10]
        model = zero_model(stories.n, stories.text.shape[2])
        whole = predict_stories(model, stories)
        assert shapes == [(10, stories.n, stories.n)]
        monkeypatch.setattr(models, "CHUNK_FLOATS", 4 * stories.n * stories.text.shape[2])
        assert np.array_equal(predict_stories(model, stories), whole)
        assert shapes[1:] == [(4, stories.n, stories.n)] * 2 + [(2, stories.n, stories.n)]

    def test_relabel_equivariance(self):
        rng = np.random.default_rng(33)
        for _ in range(25):
            probs = rng.dirichlet(np.ones(5), size=5)
            relabel = rng.permutation(5)
            base, moved = decode_unary(np.stack([probs, probs[relabel]]))
            assert base[relabel].tolist() == moved.tolist()


class TestTrainUnary:
    def test_learns_clean_signal(self, tiny_clean_dataset):
        train, test = split_dataset(tiny_clean_dataset, 0.25, seed=0)
        cfg = TrainConfig(learning_rate=0.05, epochs=12, batch_size=16, seed=0)
        model = train_unary(train, cfg, use_image=True)
        report = M.aggregate(
            [M.score_story(predict(model, s).positions, presented_gold(s)[0]) for s in test]
        )
        assert report.spearman >= 0.95

    def test_deterministic_checkpoints(self, tmp_path, tiny_clean_dataset, quick_cfg):
        a = train_unary(tiny_clean_dataset[:20], quick_cfg)
        b = train_unary(tiny_clean_dataset[:20], quick_cfg)
        pa, pb = tmp_path / "a.json", tmp_path / "b.json"
        save_model(a, pa)
        save_model(b, pb)
        assert pa.read_bytes() == pb.read_bytes()

    @pytest.mark.parametrize("kind", list(REGISTRY))
    def test_empty_dataset_rejected(self, quick_cfg, kind, tiny_clean_dataset):
        with pytest.raises(EmptyInputError):
            REGISTRY[kind].module.train(tiny_clean_dataset[:0], quick_cfg)

    def test_validation_stories_of_another_n_are_refused_before_training(
            self, quick_cfg, tiny_clean_dataset, monkeypatch):
        def no_training(*args, **kwargs):
            raise AssertionError("trained with validation stories of another n")

        monkeypatch.setattr(unary.neural, "sgd_train", no_training)
        val = generate_synthetic(SyntheticSpec(story_count=4, n=7, text_dim=8, seed=1))
        with pytest.raises(DimensionError, match=r"validation stories have n=7, but a unary "
                                                 r"model trained on stories of n=5"):
            train_unary(tiny_clean_dataset[:20], quick_cfg, val=val)

    def test_zero_epochs_rejected(self):
        with pytest.raises(ValidationError):
            TrainConfig(learning_rate=0.1, epochs=0)

    def test_checkpoint_round_trip(self, tmp_path, tiny_clean_dataset, quick_cfg):
        model = train_unary(tiny_clean_dataset[:20], quick_cfg, use_image=True)
        path = tmp_path / "unary.json"
        save_model(model, path)
        loaded = load_model(path)
        story = tiny_clean_dataset[30]
        assert np.max(np.abs(
            position_probs(model, story) - position_probs(loaded, story)
        )) <= 1e-12
        assert loaded.train_config == quick_cfg
        assert loaded.use_image


class TestTopPermutations:
    def test_best_first_matches_decode(self):
        story = make_story([0, 1, 2, 3, 4])
        model = zero_model(5, 5)
        (tops,) = top_permutations(model, story, 3)
        assert tops.shape == (3, 5)
        assert tops[0].tolist() == decode_unary(position_probs(model, story))[0].tolist()
