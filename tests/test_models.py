import json

import numpy as np
import pytest

from storysort import models
from storysort.core import MAX_ENUMERATION_N
from storysort.errors import EnumerationCapError, SizeError, ValidationError
from storysort.neural import MlpParams, TrainConfig
from storysort.npe import NpeModel
from storysort.pairwise import PairwiseModel
from storysort.unary import UnaryModel
from conftest import make_story

KINDS = ("unary", "pairwise", "npe")

# Checkpoint keys in file order; parent-format checkpoints must keep loading.
FILE_ORDER = {
    "unary": ["model_kind", "n", "use_image", "layer_dims", "weights", "biases",
              "train_config"],
    "pairwise": ["model_kind", "use_image", "margin", "layer_dims", "weights", "biases",
                 "train_config"],
    "npe": ["model_kind", "alpha", "use_image", "layer_dims", "weights", "biases",
            "train_config"],
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
        tops = models.top_permutations(random_model(kind, n=3), story, 6)
        assert len({p.positions for p in tops}) == 6
        spec = models.REGISTRY[kind]
        assert tops[0] == spec.module.predict(random_model(kind, n=3), story)


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
