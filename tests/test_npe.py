import numpy as np
import pytest

from storysort import metrics as M
from storysort import neural
from storysort.data import split_dataset, story_feature_matrix
from storysort.errors import DimensionError, ValidationError
from storysort.models import load_model, save_model, top_permutations
from storysort.neural import MlpParams, TrainConfig
from storysort.npe import (
    NpeConfig,
    NpeModel,
    embed,
    npe_pair_loss,
    npe_scores,
    npe_story_loss,
    predict,
    train_npe,
)
from conftest import make_story


def zero_npe(dim, out):
    mlp = MlpParams((dim, out), [np.zeros((dim, out))], [np.zeros(out)])
    return NpeModel(mlp=mlp, alpha=1.0)


def linear_npe(weight, bias, alpha=1.0):
    mlp = MlpParams(
        (weight.shape[0], weight.shape[1]), [weight.astype(float)], [bias.astype(float)]
    )
    return NpeModel(mlp=mlp, alpha=alpha)


class TestEmbed:
    def test_zero_model_zero_vector(self):
        model = zero_npe(3, 4)
        assert (embed(model, np.array([1.0, -1.0, 2.0])) == 0.0).all()

    def test_never_negative(self):
        rng = np.random.default_rng(0)
        model = linear_npe(rng.standard_normal((3, 4)), rng.standard_normal(4))
        for _ in range(50):
            assert (embed(model, rng.standard_normal(3)) >= 0.0).all()

    def test_hand_set_single_layer(self):
        model = linear_npe(np.array([[1.0, -1.0]]), np.array([0.5, 0.5]))
        out = embed(model, np.array([2.0]))
        # pre-activations (2.5, -1.5), terminal relu clips the negative one
        assert out.tolist() == [2.5, 0.0]

    def test_dim_mismatch(self):
        with pytest.raises(DimensionError):
            embed(zero_npe(3, 4), np.zeros(5))


class TestPairLoss:
    def test_identical_embeddings_alpha_squared_per_coordinate(self):
        x = np.zeros(4)
        assert npe_pair_loss(x, x, alpha=1.0) == 4.0

    def test_margin_exactly_met_is_zero(self):
        x_i = np.zeros(3)
        x_j = np.ones(3)
        assert npe_pair_loss(x_i, x_j, alpha=1.0) == 0.0

    def test_hand_case(self):
        # max(0, 1 - (0.5, 2.0)) = (0.5, 0), squared norm 0.25
        assert npe_pair_loss(np.zeros(2), np.array([0.5, 2.0]), alpha=1.0) == 0.25

    def test_dim_mismatch(self):
        with pytest.raises(DimensionError):
            npe_pair_loss(np.zeros(2), np.zeros(3), alpha=1.0)

    def test_alpha_validated(self):
        with pytest.raises(ValidationError):
            npe_pair_loss(np.zeros(2), np.zeros(2), alpha=0.0)


class TestStoryLoss:
    def test_identical_embeddings_story(self):
        # all elements embed to the zero vector: 10 pairs x 4 coordinates x 1.0
        story = make_story([0, 1, 2, 3, 4])
        model = zero_npe(5, 4)
        assert npe_story_loss(model, story) == 40.0

    def test_perfectly_spread_embeddings_zero_loss(self):
        # feature g one-hot; weight column g maps to g * alpha * ones
        story = make_story([0, 1, 2, 3, 4])
        w = np.outer(np.arange(5.0), np.ones(3))  # (5, 3): row g -> g * ones
        model = linear_npe(w, np.zeros(3))
        assert npe_story_loss(model, story) == 0.0

    def test_two_element_story_equals_pair_loss(self):
        rng = np.random.default_rng(1)
        story = make_story([0, 1], text=[rng.standard_normal(2) for _ in range(2)])
        model = linear_npe(rng.standard_normal((2, 3)), rng.standard_normal(3))
        elems = story.gold_elements()
        expected = npe_pair_loss(
            embed(model, elems[0].text_features),
            embed(model, elems[1].text_features),
            model.alpha,
        )
        assert npe_story_loss(model, story) == expected

    def test_uses_gold_order_not_presented(self):
        story = make_story([0, 1, 2, 3, 4], presented=[4, 3, 2, 1, 0])
        w = np.outer(np.arange(5.0), np.ones(3))
        model = linear_npe(w, np.zeros(3))
        assert npe_story_loss(model, story) == 0.0

    def test_translation_invariance(self):
        # embeddings 0.3 * g * ones give a positive loss; adding a constant
        # vector to every embedding (via bias) must not change it
        story = make_story([0, 1, 2, 3, 4])
        w = np.outer(0.3 * np.arange(5.0), np.ones(3))
        plain = linear_npe(w, np.zeros(3))
        shifted = linear_npe(w, np.full(3, 5.0))
        base = npe_story_loss(plain, story)
        assert base > 0.0
        assert npe_story_loss(shifted, story) == pytest.approx(base, abs=1e-9)


class TestScores:
    def test_identical_embeddings_tie_to_identity(self):
        story = make_story([0, 1, 2, 3, 4])
        model = zero_npe(5, 4)
        s = npe_scores(model, story)
        off_diag = s[~np.eye(5, dtype=bool)]
        assert (off_diag == off_diag[0]).all()
        assert predict(model, story).positions == (0, 1, 2, 3, 4)

    def test_monotone_embeddings_recover_gold(self):
        story = make_story([0, 1, 2, 3, 4], presented=[2, 0, 4, 1, 3])
        w = np.outer(np.arange(5.0), np.ones(3))
        model = linear_npe(w, np.zeros(3))
        assert predict(model, story).positions == story.presented_gold().positions

    def test_scores_not_antisymmetric_raw(self):
        rng = np.random.default_rng(3)
        story = make_story([0, 1, 2], text=[rng.standard_normal(3) for _ in range(3)])
        model = linear_npe(rng.standard_normal((3, 4)), rng.standard_normal(4))
        s = npe_scores(model, story)
        assert (s[~np.eye(3, dtype=bool)] <= 0.0).all()  # negated penalties
        assert s[0, 1] != -s[1, 0]

    def test_diagonal_zero(self):
        story = make_story([0, 1, 2])
        model = zero_npe(3, 4)
        assert (np.diagonal(npe_scores(model, story)) == 0.0).all()


class TestTrainNpe:
    def test_learns_clean_signal(self, tiny_clean_dataset):
        train, _, test = split_dataset(tiny_clean_dataset, (0.75, 0.0, 0.25), seed=0)
        cfg = NpeConfig(
            train=TrainConfig(learning_rate=0.02, epochs=30, batch_size=8, seed=0),
            embed_dim=16,
            alpha=1.0,
        )
        model = train_npe(train, cfg)
        report = M.aggregate(
            [M.score_story(predict(model, s), s.presented_gold()) for s in test]
        )
        assert report.pairwise_accuracy >= 0.9

    def test_loss_decreases_from_init(self, tiny_clean_dataset):
        train, _, _ = split_dataset(tiny_clean_dataset, (0.75, 0.0, 0.25), seed=0)
        base_cfg = TrainConfig(learning_rate=0.02, epochs=50, batch_size=8, seed=0)
        rng = np.random.default_rng(base_cfg.seed)
        from storysort.data import feature_dim

        init = neural.init_mlp((feature_dim(train), 64, 16), rng)
        init_model = NpeModel(mlp=init, alpha=1.0)
        trained = train_npe(train, NpeConfig(train=base_cfg, embed_dim=16, alpha=1.0))
        init_loss = np.mean([npe_story_loss(init_model, s) for s in train])
        final_loss = np.mean([npe_story_loss(trained, s) for s in train])
        assert final_loss < init_loss

    def test_deterministic_checkpoints(self, tmp_path, tiny_clean_dataset):
        cfg = NpeConfig(
            train=TrainConfig(learning_rate=0.02, epochs=3, batch_size=8, seed=4),
            embed_dim=8,
        )
        a = train_npe(tiny_clean_dataset[:15], cfg)
        b = train_npe(tiny_clean_dataset[:15], cfg)
        pa, pb = tmp_path / "a.json", tmp_path / "b.json"
        save_model(a, pa)
        save_model(b, pb)
        assert pa.read_bytes() == pb.read_bytes()

    def test_checkpoint_round_trip(self, tmp_path, tiny_clean_dataset):
        cfg = NpeConfig(
            train=TrainConfig(learning_rate=0.02, epochs=3, batch_size=8, seed=4),
            embed_dim=8,
            alpha=0.5,
        )
        model = train_npe(tiny_clean_dataset[:15], cfg)
        path = tmp_path / "npe.json"
        save_model(model, path)
        loaded = load_model(path)
        assert loaded.alpha == 0.5
        story = tiny_clean_dataset[20]
        assert np.max(np.abs(
            npe_scores(model, story) - npe_scores(loaded, story)
        )) <= 1e-12

    def test_config_validation(self):
        cfg = TrainConfig(learning_rate=0.1, epochs=1)
        with pytest.raises(ValidationError):
            NpeConfig(train=cfg, embed_dim=0)
        with pytest.raises(ValidationError):
            NpeConfig(train=cfg, alpha=0.0)


class TestTopPermutations:
    def test_top1_matches_decode(self, tiny_clean_dataset):
        cfg = NpeConfig(
            train=TrainConfig(learning_rate=0.02, epochs=3, batch_size=8, seed=4),
            embed_dim=8,
        )
        model = train_npe(tiny_clean_dataset[:15], cfg)
        story = tiny_clean_dataset[20]
        tops = top_permutations(model, story, 3)
        assert tops[0].positions == predict(model, story).positions
