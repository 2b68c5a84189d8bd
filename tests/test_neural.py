import json
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from storysort import models, neural, npe, pairwise
from storysort.errors import DimensionError, NumericError, ParseError, ValidationError
from storysort.neural import (
    MlpParams,
    TrainConfig,
    init_mlp,
    mlp_forward,
    relu,
    sgd_train,
    softmax,
)
from storysort.unary import UnaryModel, cross_entropy
from conftest import grad_check, make_story

GRAD_TOL = 1e-4


def zero_mlp(dims):
    return MlpParams(
        tuple(dims),
        [np.zeros((a, b)) for a, b in zip(dims[:-1], dims[1:])],
        [np.zeros(b) for b in dims[1:]],
    )


def kink_slack(params: MlpParams, X, relu_output: bool = False) -> float:
    """Smallest |pre-activation| across the ReLU layers of a forward pass.

    Central finite differences are only trustworthy when no ReLU (or
    downstream hinge) sits within the perturbation radius of its kink;
    callers of grad_check reject sample points whose slack is too small.
    """
    a = np.asarray(X, dtype=np.float64)
    if a.ndim == 1:
        a = a[None, :]
    _, pres = neural._forward_cached(params, a)
    relu_pres = pres if relu_output else pres[:-1]
    if not relu_pres:
        return np.inf
    return min(float(np.min(np.abs(z))) for z in relu_pres)


def mean_loss(params: MlpParams, X, y, loss, batch_size: int = 256) -> float:
    """Dataset mean of the loss, computed in batches without updates."""
    total = 0.0
    for start in range(0, len(X), batch_size):
        rows = slice(start, start + batch_size)
        value, _ = neural._loss_and_grads(params, X[rows], None if y is None else y[rows], loss)
        total += value * len(X[rows])
    return total / len(X)


def draw_ce_case(seed, slack=1e-3, dims=(6, 8, 5), batch=7):
    """Sample a cross-entropy check point away from every ReLU kink."""
    while True:
        rng = np.random.default_rng(seed)
        params = init_mlp(dims, rng)
        items = [(rng.standard_normal(dims[0]), int(rng.integers(0, dims[-1])))
                 for _ in range(batch)]
        X = np.stack([x for x, _ in items])
        y = np.array([t for _, t in items])
        if kink_slack(params, X) > slack:
            return params, X, y, seed
        seed += 1


def draw_hinge_case(seed, margin=1.0, slack=1e-2, dims=(6, 8, 1), batch=9):
    """Sample a hinge check point with margin and ReLU slack above threshold."""
    while True:
        rng = np.random.default_rng(seed)
        params = init_mlp(dims, rng)
        items = [(rng.standard_normal(dims[0]), 1.0 if rng.random() < 0.5 else -1.0)
                 for _ in range(batch)]
        X = np.stack([x for x, _ in items])
        y = np.array([t for _, t in items])
        scores = mlp_forward(params, X)[:, 0]
        margin_slack = float(np.min(np.abs(margin - y * scores)))
        if kink_slack(params, X) > slack and margin_slack > slack:
            return params, X, y, seed
        seed += 1


def draw_npe_case(seed, alpha=1.0, slack=1e-3, dims=(6, 8, 4), n=5, batch=4):
    """Sample an embedding check point clear of ReLU and margin kinks."""
    while True:
        rng = np.random.default_rng(seed)
        params = init_mlp(dims, rng)
        items = [(rng.standard_normal((n, dims[0])), None) for _ in range(batch)]
        X = np.concatenate([x for x, _ in items])
        emb = relu(mlp_forward(params, X)).reshape(batch, n, dims[-1])
        margin_slack = min(
            float(np.min(np.abs(alpha - (emb[:, j] - emb[:, i]))))
            for i in range(n)
            for j in range(i + 1, n)
        )
        if kink_slack(params, X, relu_output=True) > slack and margin_slack > slack:
            return params, np.stack([x for x, _ in items]), seed
        seed += 1


class TestForward:
    def test_zero_params_give_zero_output(self):
        params = zero_mlp((3, 4, 2))
        assert (mlp_forward(params, np.array([1.0, -2.0, 0.5])[None]) == 0.0).all()

    def test_single_affine_identity(self):
        params = MlpParams((2, 2), [np.eye(2)], [np.zeros(2)])
        (out,) = mlp_forward(params, np.array([1.0, -2.0])[None])
        assert out.tolist() == [1.0, -2.0]

    def test_hand_computed_2_2_2(self):
        # hidden: relu([1, 2] @ I + [0.5, -0.5]) = [1.5, 1.5]
        # out: [1.5, 1.5] @ [[1, 1], [1, -1]] + [0, 1] = [3.0, 1.0]
        params = MlpParams(
            (2, 2, 2),
            [np.eye(2), np.array([[1.0, 1.0], [1.0, -1.0]])],
            [np.array([0.5, -0.5]), np.array([0.0, 1.0])],
        )
        (out,) = mlp_forward(params, np.array([1.0, 2.0])[None])
        assert out.tolist() == [3.0, 1.0]

    def test_dimension_mismatch(self):
        params = zero_mlp((3, 2))
        with pytest.raises(DimensionError):
            mlp_forward(params, np.zeros(4)[None])
        # a single vector is not a (batch, dim) matrix
        with pytest.raises(DimensionError):
            mlp_forward(params, np.zeros(3))

    def test_batch_matches_single(self):
        # BLAS may pick different kernels per shape, so only ulp-level agreement
        rng = np.random.default_rng(0)
        params = init_mlp((4, 6, 3), rng)
        X = rng.standard_normal((5, 4))
        batch_out = mlp_forward(params, X)
        for i in range(5):
            assert batch_out[i] == pytest.approx(mlp_forward(params, X[i][None])[0], abs=1e-12)

    def test_terminal_relu_non_negative(self):
        rng = np.random.default_rng(1)
        params = init_mlp((4, 6, 3), rng)
        out = relu(mlp_forward(params, rng.standard_normal((20, 4))))
        assert (out >= 0.0).all()


class TestSoftmax:
    def test_uniform_on_zeros(self):
        assert softmax(np.zeros(5)).tolist() == [0.2] * 5

    def test_large_logit_stable(self):
        out = softmax(np.array([1000.0, 0.0]))
        assert np.isfinite(out).all()
        assert out[0] == pytest.approx(1.0)
        assert out[1] == pytest.approx(0.0, abs=1e-300)

    def test_log_integers(self):
        out = softmax(np.log(np.array([1.0, 2.0, 3.0])))
        assert out == pytest.approx([1 / 6, 2 / 6, 3 / 6], abs=1e-12)

    def test_rejects_nan(self):
        with pytest.raises(ValidationError):
            softmax(np.array([np.nan, 0.0]))

    @given(st.lists(st.floats(min_value=-50, max_value=50), min_size=2, max_size=8))
    def test_sums_to_one_and_shift_invariant(self, logits):
        z = np.array(logits)
        out = softmax(z)
        assert abs(out.sum() - 1.0) <= 1e-12
        shifted = softmax(z + 13.25)
        assert shifted == pytest.approx(out, abs=1e-12)


class TestGradCheck:
    def test_quadratic_exact(self):
        rng = np.random.default_rng(5)
        params = init_mlp((3, 2), rng)

        def quad(p):
            loss = 0.5 * sum(float(np.sum(w * w)) for w in p.weights)
            loss += 0.5 * sum(float(np.sum(b * b)) for b in p.biases)
            return loss, ([w.copy() for w in p.weights], [b.copy() for b in p.biases])

        assert grad_check(quad, params, eps=1e-5) < 1e-7

    def test_softmax_ce(self):
        params, X, y, _ = draw_ce_case(0)
        loss_fn = lambda p: neural._loss_and_grads(p, X, y, cross_entropy)
        assert grad_check(loss_fn, params, eps=1e-5) < GRAD_TOL

    def test_hinge_at_slack_points(self):
        params, X, y, _ = draw_hinge_case(100)
        hinge = partial(pairwise.hinge, margin=1.0)
        loss_fn = lambda p: neural._loss_and_grads(p, X, y, hinge)
        assert grad_check(loss_fn, params, eps=1e-3) < GRAD_TOL

    def test_npe_story_loss(self):
        params, X, _ = draw_npe_case(200)
        order_loss = partial(npe.order_loss, alpha=1.0)
        loss_fn = lambda p: neural._loss_and_grads(p, X, None, order_loss)
        assert grad_check(loss_fn, params, eps=1e-5) < GRAD_TOL

    def test_eps_bounds(self):
        params = zero_mlp((2, 2))
        with pytest.raises(ValidationError):
            grad_check(lambda p: (0.0, ([], [])), params, eps=1e-2)


class TestHeads:
    """Each kind's loss on the network output, and the checks of its margin or alpha."""

    def test_hinge_rejects_zero_margin(self):
        with pytest.raises(ValidationError, match="margin"):
            pairwise.train_pairwise(make_story([0, 1]), TrainConfig(learning_rate=0.1, epochs=1),
                                    margin=0.0)

    def test_npe_rejects_zero_alpha(self, monkeypatch):
        def no_training(*args):
            raise AssertionError("sgd_train ran before alpha was checked")

        monkeypatch.setattr(neural, "sgd_train", no_training)
        with pytest.raises(ValidationError, match="alpha"):
            npe.train_npe(make_story([0, 1]), TrainConfig(learning_rate=0.1, epochs=1),
                          alpha=0.0)

    def test_ce_loss_matches_manual(self):
        params = zero_mlp((3, 2))
        X = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
        loss, _ = cross_entropy(mlp_forward(params, X), np.array([0, 1]))
        # zero logits: every example costs log(2)
        assert loss == pytest.approx(np.log(2.0), abs=1e-12)


class TestSgdTrain:
    def test_zero_epochs_invalid(self):
        with pytest.raises(ValidationError):
            TrainConfig(learning_rate=0.1, epochs=0)

    def test_empty_data_returns_params_unchanged(self):
        rng = np.random.default_rng(0)
        params = init_mlp((3, 4, 2), rng)
        cfg = TrainConfig(learning_rate=0.1, epochs=1)
        out = sgd_train(params, np.zeros((0, 3)), np.zeros(0, dtype=int),
                        cross_entropy, cfg)
        assert all((a == b).all() for a, b in zip(out.weights, params.weights))

    @pytest.mark.parametrize("rows,width,targets", [(6, 3, 6), (6, 4, 5)])
    def test_training_set_shape_checked_once(self, rows, width, targets):
        params = init_mlp((4, 3, 2), np.random.default_rng(0))
        cfg = TrainConfig(learning_rate=0.1, epochs=1)
        with pytest.raises(DimensionError):
            sgd_train(params, np.zeros((rows, width)), np.zeros(targets, dtype=int),
                      cross_entropy, cfg)

    def test_deterministic_given_seed(self):
        rng = np.random.default_rng(0)
        params = init_mlp((4, 8, 2), rng)
        data_rng = np.random.default_rng(1)
        data = [(data_rng.standard_normal(4), int(data_rng.integers(0, 2)))
                for _ in range(30)]
        X, y = np.stack([x for x, _ in data]), np.array([t for _, t in data])
        cfg = TrainConfig(learning_rate=0.05, epochs=3, batch_size=8, seed=42)
        a = sgd_train(params, X, y, cross_entropy, cfg)
        b = sgd_train(params, X, y, cross_entropy, cfg)
        assert all((x == y).all() for x, y in zip(a.weights, b.weights))
        assert all((x == y).all() for x, y in zip(a.biases, b.biases))

    def test_converges_on_separable_toy_set(self):
        rng = np.random.default_rng(2)
        data = []
        for _ in range(60):
            label = int(rng.integers(0, 2))
            center = np.array([2.0, 2.0]) if label else np.array([-2.0, -2.0])
            data.append((center + 0.3 * rng.standard_normal(2), label))
        X, y = np.stack([x for x, _ in data]), np.array([t for _, t in data])
        params = init_mlp((2, 16, 2), rng)
        cfg = TrainConfig(learning_rate=0.1, epochs=200, batch_size=16, seed=0)
        trained = sgd_train(params, X, y, cross_entropy, cfg)
        final_loss = mean_loss(trained, X, y, cross_entropy)
        assert final_loss < 0.1

    def test_l2_shrinks_weights(self):
        rng = np.random.default_rng(3)
        params = init_mlp((3, 4, 2), rng)
        data = [(rng.standard_normal(3), int(rng.integers(0, 2))) for _ in range(20)]
        X, y = np.stack([x for x, _ in data]), np.array([t for _, t in data])
        cfg_plain = TrainConfig(learning_rate=0.05, epochs=5, seed=1, l2=0.0)
        cfg_l2 = TrainConfig(learning_rate=0.05, epochs=5, seed=1, l2=0.5)
        plain = sgd_train(params, X, y, cross_entropy, cfg_plain)
        decayed = sgd_train(params, X, y, cross_entropy, cfg_l2)
        norm = lambda p: sum(float(np.sum(w * w)) for w in p.weights)
        assert norm(decayed) < norm(plain)


class TestCheckpointIO:
    def test_round_trip_reproduces_forward_outputs(self, tmp_path):
        rng = np.random.default_rng(4)
        params = init_mlp((5, 7, 3), rng)
        path = tmp_path / "ck.json"
        models.save_model(UnaryModel(mlp=params, n=3), path)
        loaded = models.load_model(path).mlp
        x = rng.standard_normal((10, 5))
        a = mlp_forward(params, x)
        b = mlp_forward(loaded, x)
        assert np.max(np.abs(a - b)) <= 1e-12

    def test_train_config_round_trip(self, tmp_path):
        cfg = TrainConfig(learning_rate=0.01, epochs=7, batch_size=3, seed=9, l2=0.125)
        model = UnaryModel(mlp=init_mlp((2, 2), np.random.default_rng(0)), n=2,
                           train_config=cfg)
        models.save_model(model, tmp_path / "ck.json")
        back = models.load_model(tmp_path / "ck.json").train_config
        assert back == cfg

    def test_bad_json_raises_parse_error(self, tmp_path):
        p = tmp_path / "broken.json"
        p.write_text("{not json", encoding="utf-8")
        with pytest.raises(ParseError):
            models.load_model(p)

    def test_missing_kind_rejected(self, tmp_path):
        p = tmp_path / "nokind.json"
        p.write_text(json.dumps({"layer_dims": [2, 2]}), encoding="utf-8")
        with pytest.raises(ValidationError):
            models.load_model(p)


class TestNumericGuards:
    def test_nan_loss_aborts_with_location(self):
        params = zero_mlp((2, 1))

        def bad_loss(out, y):
            return float("nan"), np.zeros_like(out)

        cfg = TrainConfig(learning_rate=0.1, epochs=1, batch_size=2)
        with pytest.raises(NumericError, match="epoch 0"):
            sgd_train(params, np.zeros((4, 2)), np.zeros(4, dtype=int), bad_loss, cfg)

    def test_softmax_head_overflow_aborts_with_location(self):
        # the first step overflows the weights; the next batch's logits are not finite
        rng = np.random.default_rng(0)
        X, y = rng.standard_normal((8, 3)), np.arange(8) % 2
        cfg = TrainConfig(learning_rate=1e300, epochs=1, batch_size=4)
        with np.errstate(all="ignore"), pytest.raises(NumericError, match="epoch 0, batch 1"):
            sgd_train(init_mlp((3, 4, 2), rng), X, y, cross_entropy, cfg)
