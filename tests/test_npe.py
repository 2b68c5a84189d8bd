import numpy as np
import pytest

from storysort import metrics as M
from storysort import neural
from storysort.data import gold_features, presented_gold, split_dataset
from storysort.errors import DimensionError, ValidationError
from storysort.models import load_model, save_model, top_permutations
from storysort.neural import MlpParams, TrainConfig, mlp_forward, relu
from storysort.npe import NpeModel, npe_scores, order_loss, predict, train_npe
from conftest import make_story


def zero_npe(dim, out):
    mlp = MlpParams((dim, out), [np.zeros((dim, out))], [np.zeros(out)])
    return NpeModel(mlp=mlp, alpha=1.0)


def linear_npe(weight, bias, alpha=1.0):
    mlp = MlpParams(
        (weight.shape[0], weight.shape[1]), [weight.astype(float)], [bias.astype(float)]
    )
    return NpeModel(mlp=mlp, alpha=alpha)


def story_loss(model, story):
    """The training loss of one story: order_loss of the MLP output on its gold-ordered
    features."""
    out = mlp_forward(model.mlp, gold_features(story, model.use_image))
    return order_loss(out, None, model.alpha)[0]


def two_element_penalty(first, second, alpha=1.0):
    """Penalty of placing an element embedded at first before one embedded at second.

    A one-layer model maps the one-hot features of a two-element story to
    exactly these embeddings; npe_scores returns the negated penalty.
    """
    model = linear_npe(np.array([first, second]), np.zeros(len(first)), alpha)
    return -npe_scores(model, make_story([0, 1]))[0][0, 1]


class TestEmbed:
    """NPE embeds with the ReLU of mlp_forward's output, as npe_scores does."""

    def test_zero_model_zero_vector(self):
        model = zero_npe(3, 4)
        assert (relu(mlp_forward(model.mlp, np.array([1.0, -1.0, 2.0])[None])) == 0.0).all()

    def test_never_negative(self):
        rng = np.random.default_rng(0)
        model = linear_npe(rng.standard_normal((3, 4)), rng.standard_normal(4))
        out = relu(mlp_forward(model.mlp, rng.standard_normal((50, 3))))
        assert (out >= 0.0).all()

    def test_hand_set_single_layer(self):
        model = linear_npe(np.array([[1.0, -1.0]]), np.array([0.5, 0.5]))
        (out,) = relu(mlp_forward(model.mlp, np.array([2.0])[None]))
        # pre-activations (2.5, -1.5), terminal relu clips the negative one
        assert out.tolist() == [2.5, 0.0]

    def test_dim_mismatch(self):
        with pytest.raises(DimensionError):
            relu(mlp_forward(zero_npe(3, 4).mlp, np.zeros(5)[None]))


class TestPairLoss:
    """The penalty of one ordered pair, read from npe_scores."""

    def test_identical_embeddings_alpha_squared_per_coordinate(self):
        assert two_element_penalty(np.zeros(4), np.zeros(4)) == 4.0

    def test_margin_exactly_met_is_zero(self):
        assert two_element_penalty(np.zeros(3), np.ones(3)) == 0.0

    def test_hand_case(self):
        # max(0, 1 - (0.5, 2.0)) = (0.5, 0), squared norm 0.25
        assert two_element_penalty(np.zeros(2), np.array([0.5, 2.0])) == 0.25

    def test_dim_mismatch(self):
        # features of width 2 against a model that embeds width 3
        with pytest.raises(DimensionError):
            npe_scores(zero_npe(3, 4), make_story([0, 1]))

    def test_alpha_validated(self):
        with pytest.raises(ValidationError):
            NpeModel(mlp=zero_npe(2, 2).mlp, alpha=0.0)
        with pytest.raises(ValidationError):
            train_npe(make_story([0, 1]), TrainConfig(learning_rate=0.1, epochs=1), alpha=0.0)


class TestStoryLoss:
    """The training loss: order_loss on a story's gold-ordered features."""

    def test_identical_embeddings_story(self):
        # all elements embed to the zero vector: 10 pairs x 4 coordinates x 1.0
        story = make_story([0, 1, 2, 3, 4])
        model = zero_npe(5, 4)
        assert story_loss(model, story) == 40.0

    def test_perfectly_spread_embeddings_zero_loss(self):
        # feature g one-hot; weight column g maps to g * alpha * ones
        story = make_story([0, 1, 2, 3, 4])
        w = np.outer(np.arange(5.0), np.ones(3))  # (5, 3): row g -> g * ones
        model = linear_npe(w, np.zeros(3))
        assert story_loss(model, story) == 0.0

    @pytest.mark.parametrize("golds,presented", [
        ([0, 1], None),
        ([3, 0, 4, 2, 1], [2, 4, 0, 1, 3]),
    ], ids=["n2", "n5_jumbled"])
    def test_two_element_story_equals_pair_loss(self, golds, presented):
        # the training loss of a story is the sum, over its gold-ordered pairs, of
        # the penalties npe_scores negates
        n = len(golds)
        rng = np.random.default_rng(1)
        story = make_story(golds, text=[rng.standard_normal(n) for _ in range(n)],
                           presented=presented)
        model = linear_npe(rng.standard_normal((n, 3)), rng.standard_normal(3))
        penalty = -npe_scores(model, story)[0]
        (gold,) = presented_gold(story)
        pairs = [(i, j) for i in range(n) for j in range(n) if gold[i] < gold[j]]
        assert len(pairs) == n * (n - 1) // 2
        total = sum(penalty[i, j] for i, j in pairs)
        assert story_loss(model, story) == pytest.approx(total, rel=1e-12)

    def test_uses_gold_order_not_presented(self):
        story = make_story([0, 1, 2, 3, 4], presented=[4, 3, 2, 1, 0])
        w = np.outer(np.arange(5.0), np.ones(3))
        model = linear_npe(w, np.zeros(3))
        assert story_loss(model, story) == 0.0

    def test_translation_invariance(self):
        # embeddings 0.3 * g * ones give a positive loss; adding a constant
        # vector to every embedding (via bias) must not change it
        story = make_story([0, 1, 2, 3, 4])
        w = np.outer(0.3 * np.arange(5.0), np.ones(3))
        plain = linear_npe(w, np.zeros(3))
        shifted = linear_npe(w, np.full(3, 5.0))
        base = story_loss(plain, story)
        assert base > 0.0
        assert story_loss(shifted, story) == pytest.approx(base, abs=1e-9)


@pytest.mark.parametrize("n,alpha", [(2, 1.0), (4, 1.0), (5, 0.5), (8, 1.0)])
def test_order_loss_bytes_equal_the_plain_formula(n, alpha):
    # order_loss masks and scales in place; its loss and gradient must keep every byte of
    # the formula written out, -0.0 entries included. Outputs on a grid of alpha / 2 give
    # margins of exactly 0 (a gap of alpha) and exactly alpha (equal embeddings, and
    # negative outputs that the ReLU closes)
    rng = np.random.default_rng(n)
    for out in (rng.standard_normal((16, n, 32)),
                rng.integers(-2, 5, size=(16, n, 32)) * (alpha / 2)):
        m = np.maximum(0.0, alpha - (relu(out)[:, None, :, :] - relu(out)[:, :, None, :]))
        m = m * np.triu(np.ones((n, n)), 1)[:, :, None]
        want_loss = float(np.add.reduce(m * m, axis=None)) / 16
        want_grad = 2.0 * (np.add.reduce(m, axis=2) - np.add.reduce(m, axis=1)) / 16 * (out > 0)
        loss, grad = order_loss(out, None, alpha)
        assert np.float64(loss).tobytes() == np.float64(want_loss).tobytes()
        assert grad.tobytes() == want_grad.tobytes()
        assert grad.shape == want_grad.shape and grad.dtype == want_grad.dtype


class TestScores:
    def test_identical_embeddings_tie_to_identity(self):
        story = make_story([0, 1, 2, 3, 4])
        model = zero_npe(5, 4)
        s = npe_scores(model, story)[0]
        off_diag = s[~np.eye(5, dtype=bool)]
        assert (off_diag == off_diag[0]).all()
        assert predict(model, story).positions == (0, 1, 2, 3, 4)

    def test_monotone_embeddings_recover_gold(self):
        story = make_story([0, 1, 2, 3, 4], presented=[2, 0, 4, 1, 3])
        w = np.outer(np.arange(5.0), np.ones(3))
        model = linear_npe(w, np.zeros(3))
        assert [list(predict(model, story).positions)] == presented_gold(story).tolist()

    def test_scores_not_antisymmetric_raw(self):
        rng = np.random.default_rng(3)
        story = make_story([0, 1, 2], text=[rng.standard_normal(3) for _ in range(3)])
        model = linear_npe(rng.standard_normal((3, 4)), rng.standard_normal(4))
        s = npe_scores(model, story)[0]
        assert (s[~np.eye(3, dtype=bool)] <= 0.0).all()  # negated penalties
        assert s[0, 1] != -s[1, 0]

    def test_diagonal_zero(self):
        story = make_story([0, 1, 2])
        model = zero_npe(3, 4)
        assert (np.diagonal(npe_scores(model, story)[0]) == 0.0).all()


class TestTrainNpe:
    def test_learns_clean_signal(self, tiny_clean_dataset):
        train, test = split_dataset(tiny_clean_dataset, 0.25, seed=0)
        cfg = TrainConfig(learning_rate=0.02, epochs=30, batch_size=8, seed=0)
        model = train_npe(train, cfg, embed_dim=16, alpha=1.0)
        report = M.aggregate(
            [M.score_story(predict(model, s).positions, presented_gold(s)[0]) for s in test]
        )
        assert report.pairwise_accuracy >= 0.9

    def test_loss_decreases_from_init(self, tiny_clean_dataset):
        train, _ = split_dataset(tiny_clean_dataset, 0.25, seed=0)
        base_cfg = TrainConfig(learning_rate=0.02, epochs=50, batch_size=8, seed=0)
        rng = np.random.default_rng(base_cfg.seed)
        dim = gold_features(train, use_image=False).shape[-1]
        init = neural.init_mlp((dim, 64, 16), rng)
        init_model = NpeModel(mlp=init, alpha=1.0)
        trained = train_npe(train, base_cfg, embed_dim=16, alpha=1.0)
        init_loss = np.mean([story_loss(init_model, s) for s in train])
        final_loss = np.mean([story_loss(trained, s) for s in train])
        assert final_loss < init_loss

    def test_deterministic_checkpoints(self, tmp_path, tiny_clean_dataset):
        cfg = TrainConfig(learning_rate=0.02, epochs=3, batch_size=8, seed=4)
        a = train_npe(tiny_clean_dataset[:15], cfg, embed_dim=8)
        b = train_npe(tiny_clean_dataset[:15], cfg, embed_dim=8)
        pa, pb = tmp_path / "a.json", tmp_path / "b.json"
        save_model(a, pa)
        save_model(b, pb)
        assert pa.read_bytes() == pb.read_bytes()

    def test_checkpoint_round_trip(self, tmp_path, tiny_clean_dataset):
        cfg = TrainConfig(learning_rate=0.02, epochs=3, batch_size=8, seed=4)
        model = train_npe(tiny_clean_dataset[:15], cfg, embed_dim=8, alpha=0.5)
        path = tmp_path / "npe.json"
        save_model(model, path)
        loaded = load_model(path)
        assert loaded.alpha == 0.5
        story = tiny_clean_dataset[20]
        assert np.max(np.abs(
            npe_scores(model, story) - npe_scores(loaded, story)
        )) <= 1e-12

    def test_config_validation(self, tiny_clean_dataset):
        cfg = TrainConfig(learning_rate=0.1, epochs=1)
        with pytest.raises(ValidationError, match="layer_dims"):
            train_npe(tiny_clean_dataset[:5], cfg, embed_dim=0)
        with pytest.raises(ValidationError, match="alpha"):
            train_npe(tiny_clean_dataset[:5], cfg, alpha=0.0)


class TestTopPermutations:
    def test_top1_matches_decode(self, tiny_clean_dataset):
        cfg = TrainConfig(learning_rate=0.02, epochs=3, batch_size=8, seed=4)
        model = train_npe(tiny_clean_dataset[:15], cfg, embed_dim=8)
        story = tiny_clean_dataset[20]
        (tops,) = top_permutations(model, story, 3)
        assert tops[0].tolist() == list(predict(model, story).positions)
