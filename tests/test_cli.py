import json
from pathlib import Path

import numpy as np
import pytest

from storysort import cli
from storysort.core import Permutation
from storysort.data import load_dataset


def run(argv):
    return cli.main(argv)


def gen_args(out, stories=40, seed=3, extra=()):
    return [
        "generate", "--stories", str(stories), "--n", "5",
        "--text-dim", "6", "--image-dim", "3", "--noise", "0.05",
        "--seed", str(seed), "--out", str(out), *extra,
    ]


@pytest.fixture()
def dataset(tmp_path):
    out = tmp_path / "data.jsonl"
    assert run(gen_args(out)) == 0
    return out


class TestGenerate:
    def test_writes_requested_line_count(self, tmp_path, capsys):
        out = tmp_path / "d.jsonl"
        assert run(gen_args(out, stories=17)) == 0
        assert len(out.read_text().splitlines()) == 17
        assert "17 stories" in capsys.readouterr().out

    def test_byte_identical_reruns(self, tmp_path):
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        run(gen_args(a))
        run(gen_args(b))
        assert a.read_bytes() == b.read_bytes()

    def test_n_too_small_is_usage_error(self, tmp_path):
        out = tmp_path / "d.jsonl"
        code = run(["generate", "--stories", "5", "--n", "1", "--out", str(out)])
        assert code == 2

    def test_manifest_written(self, tmp_path):
        out = tmp_path / "d.jsonl"
        run(gen_args(out))
        manifest = json.loads((tmp_path / "d.jsonl.manifest.json").read_text())
        assert manifest["command"] == "generate"
        assert manifest["args"]["stories"] == 40
        assert str(out) in manifest["outputs"]

    def test_config_file_overrides_flags(self, tmp_path):
        out = tmp_path / "d.jsonl"
        cfg = tmp_path / "gen.cfg"
        cfg.write_text("stories = 7\nseed = 11\n", encoding="utf-8")
        assert run(gen_args(out, stories=40, extra=["--config", str(cfg)])) == 0
        assert len(out.read_text().splitlines()) == 7

    def test_unknown_config_key_is_usage_error(self, tmp_path):
        out = tmp_path / "d.jsonl"
        cfg = tmp_path / "gen.cfg"
        cfg.write_text("bogus = 1\n", encoding="utf-8")
        assert run(gen_args(out, extra=["--config", str(cfg)])) == 2


def train_args(data, out, model="unary", seed=5, extra=()):
    return [
        "train", "--model", model, "--data", str(data), "--out", str(out),
        "--epochs", "3", "--lr", "0.05", "--batch-size", "16",
        "--hidden", "16", "--embed-dim", "8", "--seed", str(seed), *extra,
    ]


class TestTrain:
    def test_unknown_model_is_usage_error(self, dataset, tmp_path):
        code = run(["train", "--model", "mystery", "--data", str(dataset),
                    "--out", str(tmp_path / "m.json")])
        assert code == 2

    @pytest.mark.parametrize("model", ["unary", "pairwise", "npe"])
    def test_trains_and_prints_metrics_line(self, dataset, tmp_path, capsys, model):
        capsys.readouterr()  # drop the dataset fixture's generate status line
        out = tmp_path / f"{model}.json"
        assert run(train_args(dataset, out, model=model)) == 0
        line = capsys.readouterr().out.strip().splitlines()[0]
        report = json.loads(line)
        assert report["model"] == model
        assert 0.0 <= report["val"]["pairwise_accuracy"] <= 1.0
        payload = json.loads(out.read_text())
        assert payload["model_kind"] == model

    def test_same_seed_identical_checkpoints(self, dataset, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        run(train_args(dataset, a))
        run(train_args(dataset, b))
        assert a.read_bytes() == b.read_bytes()

    def test_missing_dataset_fails_with_code_1(self, tmp_path):
        code = run(train_args(tmp_path / "nope.jsonl", tmp_path / "m.json"))
        assert code == 1


class TestSortAndEval:
    @pytest.fixture()
    def checkpoints(self, dataset, tmp_path):
        paths = {}
        for model in ("unary", "pairwise", "npe"):
            out = tmp_path / f"{model}.json"
            assert run(train_args(dataset, out, model=model)) == 0
            paths[model] = out
        return paths

    def test_predictions_are_valid_permutations(self, dataset, tmp_path, checkpoints):
        pred = tmp_path / "pred.jsonl"
        assert run(["sort", "--ckpt", str(checkpoints["unary"]),
                    "--data", str(dataset), "--out", str(pred)]) == 0
        stories = load_dataset(dataset)
        lines = [json.loads(l) for l in pred.read_text().splitlines()]
        assert len(lines) == len(stories)
        for record in lines:
            Permutation(tuple(record["predicted_order"]))  # validates bijection

    def test_ensemble_path_with_two_checkpoints(self, dataset, tmp_path, checkpoints):
        pred = tmp_path / "pred.jsonl"
        code = run(["sort", "--ckpt", str(checkpoints["pairwise"]),
                    "--ckpt", str(checkpoints["npe"]),
                    "--data", str(dataset), "--out", str(pred), "--topk", "3"])
        assert code == 0
        assert len(pred.read_text().splitlines()) == 40

    def test_oracle_predictions_are_fixed_point(self, dataset, tmp_path, capsys):
        capsys.readouterr()  # drop the dataset fixture's generate status line
        stories = load_dataset(dataset)
        pred = tmp_path / "oracle.jsonl"
        with pred.open("w") as fh:
            for s in stories:
                fh.write(json.dumps({
                    "story_id": s.story_id,
                    "predicted_order": list(s.presented_gold().positions),
                }) + "\n")
        assert run(["eval", "--pred", str(pred), "--data", str(dataset)]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        report = json.loads(lines[0])
        assert report["spearman"] == 1.0
        assert report["pairwise_accuracy"] == 1.0
        assert report["avg_distance"] == 0.0
        confusion = [list(map(int, row.split())) for row in lines[1:6]]
        assert confusion == (np.diag([40] * 5)).tolist()

    def test_random_predictions_near_chance(self, tmp_path, capsys):
        data = tmp_path / "big.jsonl"
        assert run(gen_args(data, stories=400, seed=8)) == 0
        capsys.readouterr()  # drop generate's status line
        stories = load_dataset(data)
        rng = np.random.default_rng(0)
        pred = tmp_path / "rand.jsonl"
        with pred.open("w") as fh:
            for s in stories:
                fh.write(json.dumps({
                    "story_id": s.story_id,
                    "predicted_order": [int(x) for x in rng.permutation(5)],
                }) + "\n")
        assert run(["eval", "--pred", str(pred), "--data", str(data)]) == 0
        report = json.loads(capsys.readouterr().out.strip().splitlines()[0])
        assert report["story_count"] == 400
        assert abs(report["spearman"]) < 0.1
        assert abs(report["pairwise_accuracy"] - 0.5) < 0.05
        assert abs(report["avg_distance"] - 1.6) < 0.15

    def test_missing_story_id_listed(self, dataset, tmp_path, capsys):
        pred = tmp_path / "bad.jsonl"
        pred.write_text(json.dumps({
            "story_id": "ghost-story", "predicted_order": [0, 1, 2, 3, 4],
        }) + "\n", encoding="utf-8")
        assert run(["eval", "--pred", str(pred), "--data", str(dataset)]) == 1
        assert "ghost-story" in capsys.readouterr().err

    def test_eval_out_file(self, dataset, tmp_path, checkpoints):
        pred = tmp_path / "pred.jsonl"
        run(["sort", "--ckpt", str(checkpoints["unary"]), "--data", str(dataset),
             "--out", str(pred)])
        out = tmp_path / "report.json"
        assert run(["eval", "--pred", str(pred), "--data", str(dataset),
                    "--out", str(out)]) == 0
        result = json.loads(out.read_text())
        assert set(result) == {"report", "confusion"}


class TestManifestReplay:
    def test_full_pipeline_replays_byte_identical(self, tmp_path):
        first = tmp_path / "run1"
        second = tmp_path / "run2"
        first.mkdir()
        second.mkdir()

        data1 = first / "data.jsonl"
        run(gen_args(data1, stories=30, seed=9))
        ckpt1 = first / "model.json"
        run(train_args(data1, ckpt1, model="pairwise"))
        pred1 = first / "pred.jsonl"
        run(["sort", "--ckpt", str(ckpt1), "--data", str(data1), "--out", str(pred1)])

        for out1, name in ((data1, "data.jsonl"), (ckpt1, "model.json"), (pred1, "pred.jsonl")):
            manifest = json.loads(Path(str(out1) + ".manifest.json").read_text())
            out2 = second / name
            overrides = {"out": str(out2)}
            # replay consumes the first run's earlier outputs as inputs
            if "data" in manifest["args"]:
                overrides["data"] = manifest["args"]["data"]
            argv = cli.argv_from_manifest(manifest, overrides)
            assert run(argv) == 0
            assert out1.read_bytes() == out2.read_bytes()


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    """A dataset and one quick checkpoint of every model kind."""
    root = tmp_path_factory.mktemp("trained")
    data = root / "data.jsonl"
    assert run(gen_args(data)) == 0
    ckpts = {}
    for model in ("unary", "pairwise", "npe"):
        ckpts[model] = root / f"{model}.json"
        assert run(train_args(data, ckpts[model], model=model)) == 0
    return data, ckpts


def one_error_line(capsys):
    err = capsys.readouterr().err
    assert "Traceback" not in err
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), err
    return lines[0]


class TestBadCheckpoint:
    @pytest.mark.parametrize("kind,field", [
        ("unary", "n"), ("unary", "use_image"),
        ("pairwise", "use_image"), ("pairwise", "margin"),
        ("npe", "alpha"), ("npe", "use_image"),
    ])
    @pytest.mark.parametrize("value", [None, "five"], ids=["deleted", "wrong_type"])
    def test_kind_field_is_one_error_line(self, trained, tmp_path, capsys, kind, field,
                                          value):
        data, ckpts = trained
        payload = json.loads(ckpts[kind].read_text())
        if value is None:
            del payload[field]
        else:
            payload[field] = value
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(payload), encoding="utf-8")
        pred = tmp_path / "pred.jsonl"
        capsys.readouterr()
        assert run(["sort", "--ckpt", str(bad), "--data", str(data),
                    "--out", str(pred)]) == 1
        line = one_error_line(capsys)
        assert f"{bad}: bad checkpoint field '{field}'" in line
        assert not pred.exists()

    @pytest.mark.parametrize("field,value", [
        ("layer_dims", "five"), ("weights", "five"), ("biases", "five"),
        ("train_config", "five"), ("weights", None),
    ])
    def test_mlp_or_train_config_is_one_error_line(self, trained, tmp_path, capsys, field,
                                                   value):
        data, ckpts = trained
        payload = json.loads(ckpts["unary"].read_text())
        if value is None:
            del payload[field]
        else:
            payload[field] = value
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(payload), encoding="utf-8")
        capsys.readouterr()
        assert run(["sort", "--ckpt", str(bad), "--data", str(data),
                    "--out", str(tmp_path / "pred.jsonl")]) == 1
        assert f"{bad}: bad checkpoint" in one_error_line(capsys)


class TestDecodeLimits:
    """Decode size limits fail before training and before --out is opened."""

    @pytest.fixture()
    def data_n10(self, tmp_path):
        out = tmp_path / "n10.jsonl"
        assert run(gen_args(out, stories=6, extra=["--n", "10"])) == 0
        return out

    @pytest.mark.parametrize("model", ["pairwise", "npe"])
    def test_train_pair_model_beyond_cap(self, data_n10, tmp_path, capsys, model):
        out = tmp_path / f"{model}.json"
        capsys.readouterr()
        assert run(train_args(data_n10, out, model=model)) == 1
        assert "capped at n <= 8" in one_error_line(capsys)
        assert not out.exists()

    @pytest.mark.parametrize("model", ["pairwise", "npe"])
    def test_sort_pair_model_beyond_cap(self, trained, data_n10, tmp_path, capsys, model):
        _, ckpts = trained
        pred = tmp_path / "pred.jsonl"
        capsys.readouterr()
        assert run(["sort", "--ckpt", str(ckpts[model]), "--data", str(data_n10),
                    "--out", str(pred)]) == 1
        assert "capped at n <= 8" in one_error_line(capsys)
        assert not pred.exists()

    def test_ensemble_top_k_beyond_cap(self, data_n10, tmp_path, capsys):
        ckpt = tmp_path / "unary.json"
        assert run(train_args(data_n10, ckpt)) == 0  # assignment decodes at any n
        pred = tmp_path / "pred.jsonl"
        capsys.readouterr()
        assert run(["sort", "--ckpt", str(ckpt), "--ckpt", str(ckpt),
                    "--data", str(data_n10), "--out", str(pred)]) == 1
        assert "capped at n <= 8" in one_error_line(capsys)
        assert not pred.exists()

    @pytest.mark.parametrize("topk", [0, 121])
    def test_ensemble_k_out_of_range(self, trained, tmp_path, capsys, topk):
        data, ckpts = trained
        pred = tmp_path / "pred.jsonl"
        capsys.readouterr()
        assert run(["sort", "--ckpt", str(ckpts["unary"]), "--ckpt", str(ckpts["npe"]),
                    "--data", str(data), "--out", str(pred), "--topk", str(topk)]) == 1
        assert f"k={topk} out of range for n=5" in one_error_line(capsys)
        assert not pred.exists()

    def test_failing_story_leaves_no_out(self, trained, data_n10, tmp_path, capsys):
        _, ckpts = trained
        pred = tmp_path / "pred.jsonl"
        capsys.readouterr()
        assert run(["sort", "--ckpt", str(ckpts["unary"]), "--data", str(data_n10),
                    "--out", str(pred)]) == 1
        assert "model expects n=5" in one_error_line(capsys)
        assert not pred.exists()


def write_predictions(path, records):
    path.write_text("".join(json.dumps(r) + "\n" for r in records), encoding="utf-8")


class TestEvalCoverage:
    def test_partial_predictions_fail_with_count_and_missing_ids(self, trained, tmp_path,
                                                                 capsys):
        data, _ = trained
        stories = load_dataset(data)
        pred = tmp_path / "pred.jsonl"
        write_predictions(pred, [
            {"story_id": s.story_id, "predicted_order": list(s.presented_gold().positions)}
            for s in stories[:3]
        ])
        capsys.readouterr()
        assert run(["eval", "--pred", str(pred), "--data", str(data)]) == 1
        line = one_error_line(capsys)
        assert f"cover 3 of {len(stories)} stories" in line
        assert stories[3].story_id in line and stories[0].story_id not in line

    def test_repeated_story_id_fails_with_line_number(self, trained, tmp_path, capsys):
        data, _ = trained
        story = load_dataset(data)[0]
        record = {"story_id": story.story_id, "predicted_order": [0, 1, 2, 3, 4]}
        pred = tmp_path / "pred.jsonl"
        write_predictions(pred, [record, record])
        capsys.readouterr()
        assert run(["eval", "--pred", str(pred), "--data", str(data)]) == 1
        line = one_error_line(capsys)
        assert f"pred.jsonl:2: repeated story_id '{story.story_id}'" in line

    def test_repeated_story_id_in_dataset_fails(self, trained, tmp_path, capsys):
        data, _ = trained
        first = data.read_text(encoding="utf-8").splitlines()[0]
        dup = tmp_path / "dup.jsonl"
        dup.write_text(f"{first}\n{first}\n", encoding="utf-8")
        out = tmp_path / "m.json"
        capsys.readouterr()
        assert run(train_args(dup, out)) == 1
        assert "repeated story_id" in one_error_line(capsys)
        assert not out.exists()


@pytest.mark.parametrize("command,line", [
    ("train", 'epochs = "abc"'),
    ("train", "epochs = 2.5"),
    ("train", "lr = fast"),
    ("train", "lr = [0.1]"),
    ("generate", 'stories = "abc"'),
    ("generate", "stories = true"),
])
def test_bad_config_value_is_one_usage_error_line(trained, tmp_path, capsys, command, line):
    data, _ = trained
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(line + "\n", encoding="utf-8")
    out = tmp_path / "out"
    inputs = {"train": ["--model", "unary", "--data", str(data)],
              "generate": ["--stories", "5"]}[command]
    capsys.readouterr()
    assert run([command, *inputs, "--out", str(out), "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith(f"usage error: {cfg}:1: bad value for "), err
    assert not out.exists()


@pytest.mark.parametrize("command", ["sort", "eval"])
def test_seed_flag_removed(trained, tmp_path, command):
    data, ckpts = trained
    source = ["--ckpt", str(ckpts["unary"])] if command == "sort" else ["--pred", str(data)]
    argv = [command, *source, "--data", str(data), "--out", str(tmp_path / "out"),
            "--seed", "0"]
    assert run(argv) == 2
