import math
import tracemalloc
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from storysort import metrics as M
from storysort.core import rank_orders
from storysort.data import (
    SyntheticSpec,
    generate_synthetic,
    gold_features,
    presented_gold,
    split_dataset,
)
from storysort.errors import (
    DimensionError,
    EnumerationCapError,
    ValidationError,
)
from storysort.models import load_model, save_model, top_permutations
from storysort.neural import MlpParams, TrainConfig, init_mlp
from storysort.pairwise import (
    PairRowSource,
    PairwiseModel,
    decode_pairwise,
    hinge,
    pair_rows,
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
    reference_sgd,
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
        x = np.arange(9.0)  # a transitive story is certified, but the cap is a size limit
        with pytest.raises(EnumerationCapError):
            decode_pairwise((x[:, None] - x[None, :])[None])

    @pytest.mark.parametrize("n", range(2, 9))
    def test_transitive_stacks_never_reach_the_ranker(self, monkeypatch, n):
        # near-potential stories, x_i - x_j plus small noise, are transitive tournaments:
        # the win counts certify each order, the element of largest x first
        rng = np.random.default_rng(n)
        x = np.stack([rng.permutation(n) for _ in range(6)])
        stack = x[:, :, None] - x[:, None, :] + 0.01 * rng.standard_normal((6, n, n))
        stack[:, range(n), range(n)] = 0.0
        expected = rank_orders(stack, 1, pair=True)[:, 0]
        assert (expected == n - 1 - x).all()

        def refuse(*args, **kwargs):
            raise AssertionError("a certified story reached rank_orders")

        monkeypatch.setattr("storysort.pairwise.rank_orders", refuse)
        decoded = decode_pairwise(stack)
        assert decoded.dtype == np.intp and decoded.tolist() == expected.tolist()

    @pytest.mark.parametrize("tie", [(0.0, 0.0), (0.0, -0.0), (2.5, 2.5)],
                             ids=["zeros", "signed-zeros", "equal"])
    def test_a_tied_pair_goes_to_the_ranker(self, monkeypatch, tie):
        # elements 1 and 2 tie, and the ranker breaks the tie to the smallest positions
        # tuple, not to the order of the potential; the transitive story is certified
        x = np.array([[4.0, 2.0, 3.0, 1.0, 0.0]] * 2)
        stack = x[:, :, None] - x[:, None, :]
        stack[1, 1, 2], stack[1, 2, 1] = tie
        ranked = []

        def record(a, k, pair):
            ranked.append(a.copy())
            return rank_orders(a, k, pair)

        monkeypatch.setattr("storysort.pairwise.rank_orders", record)
        decoded = decode_pairwise(stack)
        assert len(ranked) == 1 and np.array_equal(ranked[0], stack[1:])
        assert decoded.tolist() == [[0, 2, 1, 3, 4], [0, 1, 2, 3, 4]]
        assert decoded[1:].tolist() == rank_orders(stack[1:], 1, pair=True)[:, 0].tolist()

    def test_rank_permutations_sorted(self):
        rng = np.random.default_rng(2)
        s = random_pair_matrix(rng, 4)
        (orders,) = rank_permutations(s[None], math.factorial(4))
        values = [pairwise_objective(s, p) for p in orders]
        assert values == sorted(values, reverse=True)
        assert orders.shape == (24, 4) and len(set(map(tuple, orders.tolist()))) == 24


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


class TestPairRowGather:
    """Training gathers pair rows per batch; it must train as the materialized rows do."""

    @pytest.mark.parametrize("n", [2, 5, 8])
    def test_batches_equal_the_materialized_rows(self, n):
        feats = gold_features(generate_synthetic(SyntheticSpec(story_count=7, n=n, seed=n)),
                              True)
        rows = pair_rows(feats).reshape(-1, 2 * feats.shape[2])
        source = PairRowSource(feats)
        assert (source.shape, source.ndim, len(source)) == (rows.shape, 2, len(rows))
        idx = np.random.default_rng(n).permutation(len(rows))[:11]
        batch = source[idx]
        assert batch.flags.c_contiguous and batch.tobytes() == rows[idx].tobytes()

    @pytest.mark.parametrize("use_image", [False, True])
    @pytest.mark.parametrize("n", [2, 5, 8])
    def test_trains_as_the_reference_loop_on_materialized_rows(self, n, use_image):
        stories = generate_synthetic(SyntheticSpec(story_count=12, n=n, noise_sigma=0.5,
                                                   seed=n))
        cfg = TrainConfig(learning_rate=0.05, epochs=2, batch_size=16, seed=3)
        model = train_pairwise(stories, cfg, margin=0.5, use_image=use_image, hidden_units=8)
        feats = gold_features(stories, use_image)
        X = pair_rows(feats).reshape(-1, 2 * feats.shape[2])
        # in gold order, pair row (i, j) is labeled +1 exactly when i precedes j
        labels = [1.0 if i < j else -1.0 for i in range(n) for j in range(n) if i != j]
        y = np.tile(labels, len(stories))
        init = init_mlp((X.shape[1], 8, 1), np.random.default_rng(cfg.seed))
        weights, biases = reference_sgd(init, X, y, partial(hinge, margin=0.5), cfg)
        as_bytes = lambda arrays: [a.tobytes() for a in arrays]
        assert as_bytes(model.mlp.weights) == as_bytes(weights)
        assert as_bytes(model.mlp.biases) == as_bytes(biases)

    def test_peak_memory_stays_below_a_quarter_of_the_pair_rows(self):
        # 200 stories of 8 elements: the pair-row matrix holds 200 * 56 rows of 64 floats
        stories = generate_synthetic(SyntheticSpec(story_count=200, n=8, seed=2))
        pair_row_bytes = 200 * 56 * 2 * stories.text.shape[2] * 8
        cfg = TrainConfig(learning_rate=0.05, epochs=1, batch_size=64, seed=0)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            train_pairwise(stories, cfg)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert peak < pair_row_bytes / 4, peak / pair_row_bytes


class TestTopPermutations:
    def test_top1_matches_decode(self, tiny_clean_dataset, quick_cfg):
        model = train_pairwise(tiny_clean_dataset[:15], quick_cfg)
        story = tiny_clean_dataset[20]
        (tops,) = top_permutations(model, story, 3)
        assert tops[0].tolist() == list(predict(model, story).positions)
        assert tops.shape == (3, 5)
