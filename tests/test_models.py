import json

import numpy as np
import pytest

from storysort import core, models, neural, npe
from storysort.core import MAX_ENUMERATION_N
from storysort.data import SyntheticSpec, generate_synthetic
from storysort.errors import EnumerationCapError, SizeError, ValidationError
from storysort.neural import MlpParams, TrainConfig, init_mlp
from storysort.npe import NpeModel
from storysort.pairwise import PairwiseModel
from storysort.unary import UnaryModel
from conftest import join, make_story

KINDS = ("unary", "pairwise", "npe")

# Checkpoint keys in file order.
FILE_ORDER = {
    "unary": ["model_kind", "n", "use_image", "layer_dims", "weights", "biases",
              "train_config"],
    "pairwise": ["model_kind", "use_image", "margin", "layer_dims", "weights", "biases",
                 "train_config"],
    "npe": ["model_kind", "alpha", "use_image", "layer_dims", "weights", "biases",
            "train_config"],
}


# The checkpoints of random_model(kind, n=2) as an earlier save_model wrote them;
# the file format must stay the same, byte for byte.
FROZEN = {
    "unary": '{"model_kind": "unary", "n": 2, "use_image": false, "layer_dims": [2, 2], '
             '"weights": ["QYTbie0XwD/MRb3pz+jAv22waKRXfuQ/8NSE7Lvauj8="], '
             '"biases": ["7UPmGDQk4b/m0c6VXyTXPw=="], "train_config": {"learning_rate": 0.05, '
             '"epochs": 2, "batch_size": 4, "seed": 1, "l2": 0.0}}\n',
    "pairwise": '{"model_kind": "pairwise", "use_image": false, "margin": 2.0, '
                '"layer_dims": [4, 1], '
                '"weights": ["QYTbie0XwD/MRb3pz+jAv22waKRXfuQ/8NSE7Lvauj8="], '
                '"biases": ["7UPmGDQk4b8="], "train_config": {"learning_rate": 0.05, '
                '"epochs": 2, "batch_size": 4, "seed": 1, "l2": 0.0}}\n',
    "npe": '{"model_kind": "npe", "alpha": 0.5, "use_image": false, "layer_dims": [2, 3], '
           '"weights": ["QYTbie0XwD/MRb3pz+jAv22waKRXfuQ/8NSE7Lvauj/tQ+YYNCThv+bRzpVfJNc/"], '
           '"biases": ["PBC9Ji/d9D+jvGm8fE7uPyiv2sH/hOa/"], "train_config": '
           '{"learning_rate": 0.05, "epochs": 2, "batch_size": 4, "seed": 1, "l2": 0.0}}\n',
}


def random_model(kind, n=5, seed=0):
    """A one-layer model of the given kind for n-element stories with n text features."""
    rng = np.random.default_rng(seed)
    in_dim, out_dim = {"unary": (n, n), "pairwise": (2 * n, 1), "npe": (n, 3)}[kind]
    mlp = MlpParams((in_dim, out_dim), [rng.standard_normal((in_dim, out_dim))],
                    [rng.standard_normal(out_dim)])
    cfg = TrainConfig(learning_rate=0.05, epochs=2, batch_size=4, seed=1)
    if kind == "unary":
        return UnaryModel(mlp=mlp, n=n, use_image=False, train_config=cfg)
    if kind == "pairwise":
        return PairwiseModel(mlp=mlp, margin=2.0, train_config=cfg)
    return NpeModel(mlp=mlp, alpha=0.5, train_config=cfg)


class TestRegistry:
    def test_every_kind_registered(self):
        assert tuple(models.REGISTRY) == KINDS
        for kind, spec in models.REGISTRY.items():
            assert spec.module.MODEL_KIND == kind

    @pytest.mark.parametrize("kind", KINDS)
    def test_spec_for_model(self, kind):
        assert models.spec_for(random_model(kind)) is models.REGISTRY[kind]


class TestCheckpoint:
    @pytest.mark.parametrize("kind", KINDS)
    def test_file_order_and_round_trip(self, tmp_path, kind):
        model = random_model(kind)
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        models.save_model(model, a)
        assert list(json.loads(a.read_text())) == FILE_ORDER[kind]
        loaded = models.load_model(a)
        assert type(loaded) is type(model)
        models.save_model(loaded, b)
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize("kind", KINDS)
    def test_frozen_file_loads_and_saves_byte_for_byte(self, tmp_path, kind):
        frozen, again = tmp_path / "frozen.json", tmp_path / "again.json"
        frozen.write_text(FROZEN[kind], encoding="utf-8")
        models.save_model(models.load_model(frozen), again)
        assert again.read_text(encoding="utf-8") == FROZEN[kind]
        models.save_model(random_model(kind, n=2), again)
        assert again.read_text(encoding="utf-8") == FROZEN[kind]

    def test_unknown_model_type(self, tmp_path):
        with pytest.raises(ValidationError):
            models.save_model(object(), tmp_path / "x.json")


class TestTopPermutations:
    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("k", [0, 121])
    def test_k_out_of_range(self, kind, k):
        story = make_story([0, 1, 2, 3, 4])
        with pytest.raises(SizeError):
            models.top_permutations(random_model(kind), story, k)

    @pytest.mark.parametrize("kind", KINDS)
    def test_k_equals_factorial_lists_every_order(self, kind):
        story = make_story([0, 1, 2])
        (tops,), (totals,) = models.top_permutations(random_model(kind, n=3), story, 6)
        assert len(set(map(tuple, tops.tolist()))) == 6 and totals.shape == (6,)
        spec = models.REGISTRY[kind]
        best = spec.module.predict(random_model(kind, n=3), story)
        assert tops[0].tolist() == list(best.positions)

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("k", [1, 3, 120])
    def test_rows_equal_one_story_calls(self, kind, k):
        # all-zero features score every element alike: a story of ties
        tied = make_story([2, 0, 4, 1, 3], story_id="tied", text=np.zeros((5, 5)))
        stories = join(tied, generate_synthetic(SyntheticSpec(
            story_count=7, n=5, text_dim=5, image_dim=2, noise_sigma=0.5, seed=3)))
        model = random_model(kind)
        orders, totals = models.top_permutations(model, stories, k)
        assert orders.shape == (8, k, 5) and totals.shape == (8, k)
        for s, story in enumerate(stories):
            alone_orders, alone_totals = models.top_permutations(model, story, k)
            assert np.array_equal(orders[s], alone_orders[0])
            assert np.array_equal(totals[s], alone_totals[0])


class TestCheckDecodable:
    @pytest.mark.parametrize("kind", ["pairwise", "npe"])
    def test_pair_scores_capped(self, kind):
        spec = models.REGISTRY[kind]
        models.check_decodable(spec, MAX_ENUMERATION_N)
        with pytest.raises(EnumerationCapError):
            models.check_decodable(spec, MAX_ENUMERATION_N + 1)

    def test_additive_scores_decode_at_every_n_but_top_k_is_capped(self):
        spec = models.REGISTRY["unary"]
        models.check_decodable(spec, 16)
        models.check_decodable(spec, MAX_ENUMERATION_N, k=3)
        with pytest.raises(EnumerationCapError):
            models.check_decodable(spec, MAX_ENUMERATION_N + 1, k=3)


class TestPredictStories:
    """Chunked scoring and decoding equal the one-story path, chunk by chunk."""

    @staticmethod
    def model_and_stories(kind, n, use_image, count):
        rng = np.random.default_rng(100 * n + use_image)
        stories = generate_synthetic(SyntheticSpec(
            story_count=max(count, 1), n=n, text_dim=8, image_dim=4, noise_sigma=0.5,
            seed=n))[:count]
        dim = 12 if use_image else 8
        if kind == "unary":
            model = UnaryModel(mlp=init_mlp((dim, 64, n), rng), n=n, use_image=use_image)
        elif kind == "pairwise":
            model = PairwiseModel(mlp=init_mlp((2 * dim, 64, 1), rng), use_image=use_image)
        elif kind == "npe":
            model = NpeModel(mlp=init_mlp((dim, 64, 32), rng), use_image=use_image)
        else:  # embeddings wider than the hidden layer: the margins are the largest array
            model = NpeModel(mlp=init_mlp((dim, 16, 48), rng), use_image=use_image)
        return models.spec_for(model), model, stories

    @pytest.fixture()
    def recorded(self, monkeypatch):
        """Every chunk scored and the size of every intermediate array, while patched."""
        chunks, sizes = [], []
        forward, margins, values = neural.mlp_forward, npe.order_margins, core.order_values

        def record_forward(params, x):
            sizes.append(np.asarray(x).size // params.input_dim * max(params.layer_dims))
            return forward(params, x)

        def record(fn, part=lambda out: out):
            def wrapped(*args):
                out = fn(*args)
                sizes.append(part(out).size)
                return out
            return wrapped

        for module in {spec.module for spec in models.REGISTRY.values()}:
            def scores(model, stories, _scores=module.scores):
                out = _scores(model, stories)
                chunks.append((list(stories), out))
                return out
            monkeypatch.setattr(module, "scores", scores)
        monkeypatch.setattr(neural, "mlp_forward", record_forward)
        monkeypatch.setattr(npe, "order_margins", record(margins))
        # order_values returns the chunk's (S, n!) table of order values
        monkeypatch.setattr(core, "order_values", record(values))
        return chunks, sizes, monkeypatch

    @pytest.mark.parametrize("kind", [*KINDS, "npe_wide"])
    @pytest.mark.parametrize("n", range(2, MAX_ENUMERATION_N + 1))
    @pytest.mark.parametrize("use_image", [False, True], ids=["text", "image"])
    def test_chunks_equal_one_story_path(self, recorded, kind, n, use_image):
        chunks, sizes, monkeypatch = recorded
        size = models.chunk_size(self.model_and_stories(kind, n, use_image, 1)[1], n)
        spec, model, stories = self.model_and_stories(kind, n, use_image, 2 * size + 1)
        preds = models.predict_stories(model, stories)
        assert max(sizes) <= models.CHUNK_FLOATS
        assert [len(c) for c, _ in chunks] == [size, size, 1]
        monkeypatch.undo()
        assert preds.dtype == np.intp
        assert preds.tolist() == [list(spec.module.predict(model, s).positions) for s in stories]
        for chunk, stack in chunks:
            for story, s in zip(chunk, stack):
                assert np.array_equal(s, spec.module.scores(model, story)[0])

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("count", [0, 1])
    def test_zero_and_one_story(self, recorded, kind, count):
        chunks, _, monkeypatch = recorded
        spec, model, stories = self.model_and_stories(kind, 5, False, count)
        preds = models.predict_stories(model, stories)
        assert len(chunks) == count
        monkeypatch.undo()
        assert preds.shape == ((1, 5) if count else (0, 0))
        assert preds.tolist() == [list(spec.module.predict(model, s).positions) for s in stories]
