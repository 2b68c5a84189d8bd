import json
import tracemalloc
from functools import partial

import numpy as np
import pytest

from storysort import models, neural, npe, pairwise
from storysort.data import SyntheticSpec, generate_synthetic
from storysort.errors import DimensionError, NumericError, ParseError, ValidationError
from storysort.neural import (
    MlpParams,
    TrainConfig,
    init_mlp,
    mlp_forward,
    relu,
    sgd_train,
)
from storysort.unary import UnaryModel, cross_entropy
from conftest import grad_check, loss_and_grads, make_story, reference_sgd

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
        value, _ = loss_and_grads(params, X[rows], None if y is None else y[rows], loss)
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
        loss_fn = lambda p: loss_and_grads(p, X, y, cross_entropy)
        assert grad_check(loss_fn, params, eps=1e-5) < GRAD_TOL

    def test_hinge_at_slack_points(self):
        params, X, y, _ = draw_hinge_case(100)
        hinge = partial(pairwise.hinge, margin=1.0)
        loss_fn = lambda p: loss_and_grads(p, X, y, hinge)
        assert grad_check(loss_fn, params, eps=1e-3) < GRAD_TOL

    def test_npe_story_loss(self):
        params, X, _ = draw_npe_case(200)
        order_loss = partial(npe.order_loss, alpha=1.0)
        loss_fn = lambda p: loss_and_grads(p, X, None, order_loss)
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


# reference_case kinds that hold batches whose output gradient is all zero
ZERO_GRADIENT_CASES = ("pairwise, separable", "npe, closed", "pairwise, overflow",
                       "pairwise, infinite input")


def reference_case(kind):
    """X, y, loss, initial parameters and TrainConfig step arguments of one case of
    TestSgdTrain.test_matches_the_plain_reference_loop."""
    hinge = partial(pairwise.hinge, margin=1.0)
    one_batch = dict(learning_rate=0.05, epochs=1, batch_size=8, seed=4)
    if kind == "pairwise, overflow":
        # hidden activations overflow to +inf and every row is scored +inf on its
        # correct side: loss and output gradient are 0, but the reference's backward
        # makes inf * 0 = NaN in the output layer's weights
        params = MlpParams((2, 2, 1), [np.full((2, 2), 1e200), np.ones((2, 1))],
                           [np.zeros(2), np.zeros(1)])
        return np.full((4, 2), 1e200), np.ones(4), hinge, params, one_batch
    if kind == "pairwise, infinite input":
        # rows holding +inf make every hidden pre-activation -inf: the ReLU closes and
        # the output bias alone scores each row beyond the margin, so the output is
        # finite, but the reference's backward makes inf * 0 = NaN in the first layer
        params = MlpParams((2, 2, 1), [-np.ones((2, 2)), np.ones((2, 1))],
                           [np.zeros(2), np.full(1, 5.0)])
        return np.array([[np.inf, 0.0]] * 4), np.ones(4), hinge, params, one_batch
    rng = np.random.default_rng(17)
    y = None
    if kind == "unary":
        X, y = rng.standard_normal((53, 6)), rng.integers(0, 4, 53)
        loss, dims = cross_entropy, (6, 9, 4)
    elif kind.startswith("pairwise"):
        X, y = rng.standard_normal((53, 12)), rng.choice([-1.0, 1.0], 53)
        loss, dims = hinge, (12, 9, 1)
        if kind == "pairwise, separable":
            # pairs ordered by their first feature, 3 apart: batches the model already
            # scores beyond the margin have a hinge gradient of exactly zero
            y = np.where(X[:, 0] > 0, 1.0, -1.0)
            X[:, 0] += 3.0 * y
    else:  # rows of 4 elements
        X = rng.standard_normal((53, 4, 6))
        loss, dims = partial(npe.order_loss, alpha=0.5), (6, 9, 3)
        if kind == "npe, closed":
            # small features and a negative output bias close the output ReLU: such a
            # story's penalty is alpha^2 per pair and coordinate, its gradient zero
            X[rng.random(53) < 0.8] *= 0.1
            X *= 2.0
    params = init_mlp(dims, rng)
    if kind == "npe, closed":
        params = MlpParams(dims, params.weights, [params.biases[0], params.biases[1] - 2.0])
    # 53 rows in batches of 8: the last batch of each epoch holds 5
    return X, y, loss, params, dict(learning_rate=0.05, epochs=3, batch_size=8, seed=4)


class TestSgdTrain:
    def test_zero_epochs_invalid(self):
        with pytest.raises(ValidationError):
            TrainConfig(learning_rate=0.1, epochs=0)

    def test_empty_data_returns_params_unchanged(self):
        rng = np.random.default_rng(0)
        params = init_mlp((3, 4, 2), rng)
        cfg = TrainConfig(learning_rate=0.1, epochs=1)
        out, _ = sgd_train(params, np.zeros((0, 3)), np.zeros(0, dtype=int),
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
        a, _ = sgd_train(params, X, y, cross_entropy, cfg)
        b, _ = sgd_train(params, X, y, cross_entropy, cfg)
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
        trained, _ = sgd_train(params, X, y, cross_entropy, cfg)
        final_loss = mean_loss(trained, X, y, cross_entropy)
        assert final_loss < 0.1

    def test_l2_shrinks_weights(self):
        rng = np.random.default_rng(3)
        params = init_mlp((3, 4, 2), rng)
        data = [(rng.standard_normal(3), int(rng.integers(0, 2))) for _ in range(20)]
        X, y = np.stack([x for x, _ in data]), np.array([t for _, t in data])
        cfg_plain = TrainConfig(learning_rate=0.05, epochs=5, seed=1, l2=0.0)
        cfg_l2 = TrainConfig(learning_rate=0.05, epochs=5, seed=1, l2=0.5)
        plain, _ = sgd_train(params, X, y, cross_entropy, cfg_plain)
        decayed, _ = sgd_train(params, X, y, cross_entropy, cfg_l2)
        norm = lambda p: sum(float(np.sum(w * w)) for w in p.weights)
        assert norm(decayed) < norm(plain)

    @pytest.mark.parametrize("l2", [0.0, 0.03])
    @pytest.mark.parametrize("kind", ["unary", "pairwise", "npe", *ZERO_GRADIENT_CASES])
    def test_matches_the_plain_reference_loop(self, kind, l2):
        X, y, loss, params, steps = reference_case(kind)
        cfg = TrainConfig(**steps, l2=l2)
        zero_gradient = []  # per batch: is the loss's output gradient all zero?

        def counted(out, targets):
            value, d_out = loss(out, targets)
            zero_gradient.append(not d_out.any())
            return value, d_out

        with np.errstate(all="ignore"):  # two cases make inf and NaN on purpose
            trained, _ = sgd_train(params, X, y, counted, cfg)
            weights, biases = reference_sgd(params, X, y, loss, cfg)
        as_bytes = lambda arrays: [a.tobytes() for a in arrays]
        assert as_bytes(trained.weights) == as_bytes(weights)
        assert as_bytes(trained.biases) == as_bytes(biases)
        assert as_bytes(trained.weights) != as_bytes(params.weights)  # the loop trained
        if kind in ZERO_GRADIENT_CASES:  # built to hold batches that sgd_train skips at l2 0
            assert any(zero_gradient), zero_gradient

    @pytest.mark.parametrize("kind", ["unary", "pairwise", "npe"])
    def test_stops_after_patience_epochs_and_keeps_the_best(self, kind):
        # the validation set is the first 3 rows, and every training batch holds 8 or 5:
        # a 3-row output is the validation pass, which reads its loss from the script
        X, y, loss, params, steps = reference_case(kind)
        best = 0.9
        script = iter([1.0, best, best * (1 - neural.TOL / 2), best * (1 - 2 * neural.TOL),
                       best, best, best, best])

        def scripted(out, targets):
            value, d_out = loss(out, targets)
            return (next(script) if len(out) == 3 else value), d_out

        cfg = TrainConfig(**{**steps, "epochs": 8})
        val = (X[:3], None if y is None else y[:3])
        trained, log = sgd_train(params, X, y, scripted, cfg, val=val)
        # epoch 3 improves on 0.9 by less than TOL, epoch 4 by more; then PATIENCE more run
        assert (log.run, log.best) == (4 + neural.PATIENCE, 4)
        assert len(log.train_loss) == len(log.val_loss) == log.run
        # epochs share one shuffle stream, so the best epoch's parameters are a 4-epoch run's
        weights, biases = reference_sgd(params, X, y, loss, TrainConfig(**{**steps, "epochs": 4}))
        as_bytes = lambda arrays: [a.tobytes() for a in arrays]
        assert as_bytes(trained.weights) == as_bytes(weights)
        assert as_bytes(trained.biases) == as_bytes(biases)

    def test_empty_validation_set_trains_every_epoch(self):
        X, y, loss, params, steps = reference_case("unary")
        cfg = TrainConfig(**steps)
        trained, log = sgd_train(params, X, y, loss, cfg, val=(X[:0], y[:0]))
        weights, biases = reference_sgd(params, X, y, loss, cfg)
        as_bytes = lambda arrays: [a.tobytes() for a in arrays]
        assert as_bytes(trained.weights) == as_bytes(weights)
        assert as_bytes(trained.biases) == as_bytes(biases)
        assert (log.run, log.best, log.val_loss) == (cfg.epochs, cfg.epochs, ())

    def test_training_loss_is_the_batch_weighted_epoch_mean(self):
        # 53 rows in batches of 8: six batches of 8 and one of 5, seven per epoch
        X, y, loss, params, steps = reference_case("unary")
        batches = []

        def recorded(out, targets):
            value, d_out = loss(out, targets)
            batches.append((value, len(out)))
            return value, d_out

        _, log = sgd_train(params, X, y, recorded, TrainConfig(**steps))
        per_epoch = [batches[k:k + 7] for k in range(0, len(batches), 7)]
        assert log.train_loss == tuple(sum(v * rows for v, rows in epoch) / len(X)
                                       for epoch in per_epoch)

    @pytest.mark.parametrize("kind", list(models.REGISTRY))
    def test_validation_pass_multiplies_no_matrix_taller_than_a_training_batch(
            self, monkeypatch, kind):
        # one tall matrix (360 pair rows) can wake OpenBLAS's worker threads, and the
        # training after it ran about 2x slower on a 2-core machine; 30 validation stories
        # hold 150 unary rows, 600 pair rows and 30 NPE stories, each over one batch
        stories = generate_synthetic(SyntheticSpec(story_count=70, n=5, text_dim=6, seed=2))
        train, val = stories[:40], stories[40:]
        cfg = TrainConfig(learning_rate=0.01, epochs=2, batch_size=16, seed=0)
        heights = []
        forward = neural._forward_cached

        def recording(params, X):
            heights.append(X.shape[-2])
            return forward(params, X)

        monkeypatch.setattr(neural, "_forward_cached", recording)
        module = models.REGISTRY[kind].module
        module.train(train, cfg, hidden_units=8)
        tallest_batch, heights = max(heights), []
        model = module.train(train, cfg, hidden_units=8, val=val)
        assert model.epoch_log.val_loss  # the validation pass ran
        assert max(heights) == tallest_batch

    def test_peak_memory_stays_below_half_the_training_set(self):
        # a pairwise-width set: rows of two 32-wide elements; a per-epoch copy of X
        # (a shuffled X[order]) alone would hold X.nbytes
        rng = np.random.default_rng(0)
        X, y = rng.standard_normal((4000, 64)), rng.choice([-1.0, 1.0], 4000)
        params = init_mlp((64, neural.DEFAULT_HIDDEN_UNITS, 1), rng)
        cfg = TrainConfig(learning_rate=0.05, epochs=2, batch_size=64, seed=0)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            sgd_train(params, X, y, partial(pairwise.hinge, margin=1.0), cfg)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert peak < X.nbytes / 2, peak / X.nbytes


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

    def test_non_finite_validation_loss_aborts_with_its_epoch(self):
        X, y, loss, params, steps = reference_case("unary")
        script = iter([1.0, 0.5, float("nan")])

        def scripted(out, targets):
            value, d_out = loss(out, targets)
            return (next(script) if len(out) == 3 else value), d_out

        cfg = TrainConfig(**{**steps, "epochs": 5})
        with pytest.raises(NumericError, match="non-finite validation loss at epoch 2"):
            sgd_train(params, X, y, scripted, cfg, val=(X[:3], y[:3]))

    def test_softmax_head_overflow_aborts_with_location(self):
        # the first step overflows the weights; the next batch's logits are not finite
        rng = np.random.default_rng(0)
        X, y = rng.standard_normal((8, 3)), np.arange(8) % 2
        cfg = TrainConfig(learning_rate=1e300, epochs=1, batch_size=4)
        with np.errstate(all="ignore"), pytest.raises(NumericError, match="epoch 0, batch 1"):
            sgd_train(init_mlp((3, 4, 2), rng), X, y, cross_entropy, cfg)
