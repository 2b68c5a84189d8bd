import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from storysort import metrics as M
from storysort.data import presented_gold, split_dataset
from storysort.errors import (
    DimensionError,
    EnumerationCapError,
    ValidationError,
)
from storysort.models import load_model, save_model, top_permutations
from storysort.neural import MlpParams, TrainConfig
from storysort.pairwise import (
    PairwiseModel,
    decode_pairwise,
    pair_scores,
    predict,
    rank_permutations,
    train_pairwise,
)
from conftest import (
    enumerate_permutations,
    make_story,
    mirror,
    pairwise_objective,
    permutations_st,
)


def zero_pair_model(dim):
    mlp = MlpParams((2 * dim, 1), [np.zeros((2 * dim, 1))], [np.zeros(1)])
    return PairwiseModel(mlp=mlp)


def random_pair_matrix(rng, n):
    s = rng.uniform(-2.0, 2.0, size=(n, n))
    np.fill_diagonal(s, 0.0)
    return s


def objective_oracle(s, sigma):
    """Independent evaluator: walk the predicted order and sum directed scores."""
    n = len(sigma)
    order = sorted(range(n), key=lambda i: sigma[i])
    total = 0.0
    for a in range(n):
        for b in range(a + 1, n):
            i, j = order[a], order[b]  # i placed before j
            total += s[i][j] - s[j][i]
    return total


class TestPairScores:
    def test_zero_model_all_zero(self):
        story = make_story([0, 1, 2])
        s = pair_scores(zero_pair_model(3), story)[0]
        assert (s == 0.0).all()

    def test_orientations_independent(self):
        rng = np.random.default_rng(0)
        story = make_story([0, 1], text=[rng.standard_normal(2) for _ in range(2)])
        mlp = MlpParams((4, 1), [rng.standard_normal((4, 1))], [rng.standard_normal(1)])
        s = pair_scores(PairwiseModel(mlp=mlp), story)[0]
        assert s[0, 1] != s[1, 0]
        assert s[0, 0] == 0.0 and s[1, 1] == 0.0

    def test_hand_set_linear_model(self):
        story = make_story([0, 1], text=[np.array([1.0, 0.0]), np.array([0.0, 2.0])])
        w = np.array([[1.0], [2.0], [3.0], [4.0]])
        mlp = MlpParams((4, 1), [w], [np.array([0.5])])
        s = pair_scores(PairwiseModel(mlp=mlp), story)[0]
        # s[0][1] = [1, 0, 0, 2] . w + 0.5 ; s[1][0] = [0, 2, 1, 0] . w + 0.5
        assert s[0, 1] == pytest.approx(1.0 + 8.0 + 0.5)
        assert s[1, 0] == pytest.approx(4.0 + 3.0 + 0.5)


class TestObjective:
    def test_zero_matrix(self):
        s = np.zeros((4, 4))
        for p in enumerate_permutations(4):
            assert pairwise_objective(s, p) == 0.0

    def test_two_element_hand_case(self):
        s = np.array([[0.0, 3.0], [1.0, 0.0]])
        assert pairwise_objective(s, (0, 1)) == 2.0
        assert pairwise_objective(s, (1, 0)) == -2.0

    def test_diagonal_must_be_zero(self):
        s = np.ones((3, 3))
        with pytest.raises(ValidationError):
            pairwise_objective(s, (0, 1, 2))

    def test_dim_mismatch(self):
        with pytest.raises(DimensionError):
            pairwise_objective(np.zeros((3, 3)), (0, 1))

    @given(permutations_st(5), st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=60)
    def test_antisymmetry(self, sigma, seed):
        s = random_pair_matrix(np.random.default_rng(seed), 5)
        assert abs(
            pairwise_objective(s, sigma) + pairwise_objective(s, mirror(sigma))
        ) < 1e-9

    @given(permutations_st(4), st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=40)
    def test_symmetric_constant_shift_invariance(self, sigma, seed):
        rng = np.random.default_rng(seed)
        s = random_pair_matrix(rng, 4)
        shifted = s.copy()
        shifted[1, 3] += 0.73
        shifted[3, 1] += 0.73
        assert abs(
            pairwise_objective(s, sigma) - pairwise_objective(shifted, sigma)
        ) < 1e-9

    def test_matches_independent_oracle(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            s = random_pair_matrix(rng, 5)
            sigma = tuple(rng.permutation(5).tolist())
            assert pairwise_objective(s, sigma) == pytest.approx(
                objective_oracle(s, sigma), abs=1e-12
            )


class TestDecode:
    def test_two_elements(self):
        s = np.array([[0.0, 2.0], [1.0, 0.0]])
        assert decode_pairwise(s[None]).tolist() == [[0, 1]]

    def test_all_zero_ties_to_identity(self):
        assert decode_pairwise(np.zeros((1, 5, 5))).tolist() == [[0, 1, 2, 3, 4]]

    def test_transitive_scores_recover_gold(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            gold = rng.permutation(5)
            s = np.zeros((5, 5))
            for i in range(5):
                for j in range(5):
                    if i != j and gold[i] < gold[j]:
                        s[i, j] = 1.0
            assert decode_pairwise(s[None]).tolist() == [gold.tolist()]

    def test_decode_is_argmax_over_enumeration(self):
        rng = np.random.default_rng(17)
        stack = np.stack([random_pair_matrix(rng, 5) for _ in range(100)])
        for s, decoded in zip(stack, decode_pairwise(stack)):
            best = max(pairwise_objective(s, p) for p in enumerate_permutations(5))
            assert pairwise_objective(s, decoded) == best

    def test_enumeration_cap(self):
        with pytest.raises(EnumerationCapError):
            decode_pairwise(np.zeros((1, 9, 9)))

    def test_rank_permutations_sorted(self):
        rng = np.random.default_rng(2)
        s = random_pair_matrix(rng, 4)
        (orders,), (totals,) = rank_permutations(s[None], math.factorial(4))
        values = totals.tolist()
        assert values == sorted(values, reverse=True)
        assert orders.shape == (24, 4) and len(values) == 24


class TestTrainPairwise:
    def test_learns_clean_signal(self, tiny_clean_dataset):
        train, test = split_dataset(tiny_clean_dataset, 0.25, seed=0)
        cfg = TrainConfig(learning_rate=0.05, epochs=8, batch_size=32, seed=0)
        model = train_pairwise(train, cfg, use_image=True)
        report = M.aggregate(
            [M.score_story(predict(model, s).positions, presented_gold(s)[0]) for s in test]
        )
        assert report.pairwise_accuracy == 1.0
        assert report.spearman >= 0.99

    def test_margin_zero_rejected(self, tiny_clean_dataset, quick_cfg):
        with pytest.raises(ValidationError):
            train_pairwise(tiny_clean_dataset[:5], quick_cfg, margin=0.0)

    def test_deterministic_checkpoints(self, tmp_path, tiny_clean_dataset, quick_cfg):
        a = train_pairwise(tiny_clean_dataset[:15], quick_cfg)
        b = train_pairwise(tiny_clean_dataset[:15], quick_cfg)
        pa, pb = tmp_path / "a.json", tmp_path / "b.json"
        save_model(a, pa)
        save_model(b, pb)
        assert pa.read_bytes() == pb.read_bytes()

    def test_checkpoint_round_trip(self, tmp_path, tiny_clean_dataset, quick_cfg):
        model = train_pairwise(tiny_clean_dataset[:15], quick_cfg, margin=2.0)
        path = tmp_path / "pair.json"
        save_model(model, path)
        loaded = load_model(path)
        story = tiny_clean_dataset[20]
        assert np.max(np.abs(
            pair_scores(model, story) - pair_scores(loaded, story)
        )) <= 1e-12
        assert loaded.margin == 2.0


class TestTopPermutations:
    def test_top1_matches_decode(self, tiny_clean_dataset, quick_cfg):
        model = train_pairwise(tiny_clean_dataset[:15], quick_cfg)
        story = tiny_clean_dataset[20]
        (tops,), (totals,) = top_permutations(model, story, 3)
        assert tops[0].tolist() == list(predict(model, story).positions)
        assert tops.shape == (3, 5) and totals.shape == (3,)
