import base64
import contextlib
import io
import json
import os
import struct
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from storysort import cli, neural
from storysort import data as data_mod
from storysort.core import Permutation
from storysort.data import load_dataset, presented_gold
from storysort.models import REGISTRY


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

    @pytest.mark.parametrize("noise", ["nan", "inf"])
    def test_non_finite_noise_is_one_usage_error_line(self, tmp_path, capsys, noise):
        out = tmp_path / "d.jsonl"
        capsys.readouterr()
        assert run(gen_args(out, extra=["--noise", noise])) == 2
        assert capsys.readouterr().err.splitlines() == [
            f"usage error: noise_sigma must be >= 0 and finite, got {float(noise)}"]
        assert not out.exists()

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

    def test_validation_split_keeps_every_story(self, tmp_path, capsys):
        # int(0.9 * 125) = 112 training stories, so validation takes the other 13
        data = tmp_path / "data.jsonl"
        assert run(gen_args(data, stories=125)) == 0
        capsys.readouterr()
        assert run(train_args(data, tmp_path / "m.json")) == 0
        report = json.loads(capsys.readouterr().out)
        assert (report["train"]["story_count"], report["val"]["story_count"]) == (112, 13)

    def test_same_seed_identical_checkpoints(self, dataset, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        run(train_args(dataset, a))
        run(train_args(dataset, b))
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize("hidden", ["0", "-5"])
    def test_bad_hidden_is_one_error_line(self, dataset, tmp_path, capsys, hidden):
        out = tmp_path / "m.json"
        capsys.readouterr()
        assert run(train_args(dataset, out, extra=["--hidden", hidden])) == 1
        assert "layer_dims" in one_error_line(capsys)
        assert not out.exists()

    @pytest.mark.parametrize("model", ["unary", "pairwise", "npe"])
    def test_diverging_training_is_one_error_line_and_leaves_no_file(self, tmp_path, capsys,
                                                                   model):
        data = tmp_path / "data.jsonl"
        assert run(gen_args(data, stories=30)) == 0
        out = tmp_path / "m.ckpt"
        capsys.readouterr()
        # one batch per epoch: the step overflows the weights and nothing trains after it
        argv = train_args(data, out, model=model,
                          extra=["--lr", "1e305", "--epochs", "1", "--batch-size", "1000"])
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a numpy warning would be a line on stderr
            assert run(argv) == 1
        assert "non-finite" in one_error_line(capsys)
        assert not out.exists()
        assert not Path(str(out) + ".manifest.json").exists()

    def test_missing_dataset_fails_with_code_1(self, tmp_path):
        code = run(train_args(tmp_path / "nope.jsonl", tmp_path / "m.json"))
        assert code == 1

    @pytest.mark.parametrize("flag,value,code,message", [
        ("--epochs", "0", 1, "epochs must be >= 1"),
        ("--lr", "0", 1, "learning_rate must be > 0"),
        ("--lr", "inf", 1, "learning_rate must be > 0 and finite, got inf"),
        ("--lr", "nan", 1, "learning_rate must be > 0 and finite, got nan"),
        ("--l2", "nan", 1, "l2 must be >= 0 and finite, got nan"),
        ("--l2", "inf", 1, "l2 must be >= 0 and finite, got inf"),
        ("--batch-size", "0", 1, "batch_size must be >= 1"),
        ("--val-frac", "1.5", 2, "--val-frac must be in (0, 1)"),
    ])
    def test_bad_flag_is_reported_before_the_dataset_is_read(self, tmp_path, capsys, flag,
                                                             value, code, message):
        bad = tmp_path / "bad.jsonl"
        bad.write_text("not json\n", encoding="utf-8")
        capsys.readouterr()
        assert run(train_args(bad, tmp_path / "m.json", extra=[flag, value])) == code
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and message in err[0], err

    @pytest.mark.parametrize("model,flag,message", [
        ("unary", "--hidden", "--hidden must be >= 1 (a width in layer_dims), got 0"),
        ("npe", "--embed-dim", "--embed-dim must be >= 1 (a width in layer_dims), got 0"),
        ("npe", "--alpha", "--alpha must be > 0, got 0.0"),
        ("pairwise", "--margin", "--margin must be > 0, got 0.0"),
    ])
    def test_bad_model_flag_is_reported_before_the_dataset_is_read(self, tmp_path, capsys,
                                                                  model, flag, message):
        bad = tmp_path / "bad.jsonl"
        bad.write_text("not json\n", encoding="utf-8")
        capsys.readouterr()
        assert run(train_args(bad, tmp_path / "m.json", model=model, extra=[flag, "0"])) == 1
        assert one_error_line(capsys) == f"error: {message}"

    @pytest.mark.parametrize("model", ["unary", "pairwise", "npe"])
    @pytest.mark.parametrize("flag,value,message", [
        ("--alpha", "-1", "--alpha must be > 0, got -1.0"),
        ("--margin", "0", "--margin must be > 0, got 0.0"),
        ("--embed-dim", "-3", "--embed-dim must be >= 1 (a width in layer_dims), got -3"),
    ])
    def test_other_kinds_flags_are_checked_too(self, tmp_path, capsys, model, flag, value,
                                               message):
        # the manifest records every kind's options, so none may hold a value out of range
        bad = tmp_path / "bad.jsonl"
        bad.write_text("not json\n", encoding="utf-8")
        out = tmp_path / "m.json"
        capsys.readouterr()
        assert run(train_args(bad, out, model=model, extra=[flag, value])) == 1
        assert one_error_line(capsys) == f"error: {message}"
        assert not Path(str(out) + ".manifest.json").exists()


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
        write_predictions(pred, gold_records(stories))
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


def test_eval_keeps_the_sort_manifest_of_its_predictions(trained, tmp_path):
    data, ckpts = trained
    pred = tmp_path / "pred.jsonl"
    assert run(["sort", "--ckpt", str(ckpts["unary"]), "--data", str(data),
                "--out", str(pred)]) == 0
    assert run(["eval", "--pred", str(pred), "--data", str(data)]) == 0
    assert json.loads(Path(f"{pred}.manifest.json").read_text())["command"] == "sort"
    assert json.loads(Path(f"{pred}.eval.manifest.json").read_text())["command"] == "eval"


@pytest.mark.parametrize("command,line", [
    ("generate", "stories = 7"), ("train", "hidden = 12"), ("sort", "topk = 2"),
    ("eval", "out = {tmp}/report.json"),
])
def test_manifest_records_every_option_of_its_command(trained, tmp_path, command, line):
    data, ckpts = trained
    pred = tmp_path / "pred.jsonl"
    write_predictions(pred, gold_records(load_dataset(data)))
    cfg = tmp_path / "run.cfg"
    cfg.write_text(line.format(tmp=tmp_path) + "\n", encoding="utf-8")
    out = tmp_path / "out"
    argv = {
        "generate": gen_args(out),
        "train": train_args(data, out),
        "sort": ["sort", "--ckpt", str(ckpts["unary"]), "--data", str(data), "--out", str(out)],
        "eval": ["eval", "--pred", str(pred), "--data", str(data)],
    }[command]
    assert run([*argv, "--config", str(cfg)]) == 0
    anchor = tmp_path / "report.json" if command == "eval" else out
    manifest = json.loads(Path(f"{anchor}.manifest.json").read_text())
    assert manifest["command"] == command
    options = [name for name in cli._option_actions(cli.build_parser(), command)
               if name != "config"]
    assert list(manifest["args"]) == options
    key, _, value = line.format(tmp=tmp_path).partition(" = ")
    assert str(manifest["args"][key]) == value


def argv_from_manifest(manifest: dict, overrides: dict) -> list[str]:
    """Rebuild the command line that reproduces a manifest's outputs."""
    args = {**manifest["args"], **overrides}
    argv = [manifest["command"]]
    for key, value in args.items():
        flag = "--" + key.replace("_", "-")
        if value is None:
            continue
        if isinstance(value, bool):
            if value:
                argv.append(flag)
        elif isinstance(value, list):
            for item in value:
                argv.extend([flag, str(item)])
        else:
            argv.extend([flag, str(value)])
    return argv


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
        # no --epochs, --lr or --batch-size: the manifest records the registry's defaults
        defaults1 = first / "defaults.json"
        run(["train", "--model", "pairwise", "--data", str(data1), "--out", str(defaults1),
             "--hidden", "16"])
        pred1 = first / "pred.jsonl"
        run(["sort", "--ckpt", str(ckpt1), "--data", str(data1), "--out", str(pred1)])

        for out1, name in ((data1, "data.jsonl"), (ckpt1, "model.json"),
                           (defaults1, "defaults.json"), (pred1, "pred.jsonl")):
            manifest = json.loads(Path(str(out1) + ".manifest.json").read_text())
            if name == "defaults.json":
                defaults = REGISTRY["pairwise"].train_defaults
                assert {k: manifest["args"][k] for k in defaults} == defaults
            out2 = second / name
            overrides = {"out": str(out2)}
            # replay consumes the first run's earlier outputs as inputs
            if "data" in manifest["args"]:
                overrides["data"] = manifest["args"]["data"]
            argv = argv_from_manifest(manifest, overrides)
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


def test_main_runs_the_current_command_binding(monkeypatch):
    # the parser is built once, so main must look each command up when it runs:
    # a profiler rebinds cmd_* to time it
    cli.build_parser()
    calls = []
    monkeypatch.setattr(cli, "cmd_eval", lambda args: calls.append(args.pred) or 0)
    assert run(["eval", "--pred", "p.jsonl", "--data", "d.jsonl"]) == 0
    assert calls == ["p.jsonl"]


def one_error_line(capsys):
    err = capsys.readouterr().err
    assert "Traceback" not in err
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), err
    return lines[0]


def with_first_float(value):
    """An edit of a float block that sets its first float to value and keeps its length."""
    def edit(block):
        raw = base64.b64decode(block, validate=True)
        return base64.b64encode(struct.pack("<d", value) + raw[8:]).decode("ascii")
    return edit


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

    @pytest.mark.parametrize("kind", ["unary", "pairwise"])
    @pytest.mark.parametrize("path,value,message", [
        (("train_config", "epochs"), 2.7, "epochs must be"),
        (("train_config", "batch_size"), "16", "batch_size must be"),
        (("train_config", "learning_rate"), True, "learning_rate must be"),
        (("layer_dims", 0), 6.0, "layer_dims must be"),
        (("weights", 0), 0.5, "weights must be"),
        (("biases", 0), False, "biases must be"),
        (("weights", 0), with_first_float(float("inf")), "non-finite"),
        (("train_config", "l2"), float("nan"), "l2 must be >= 0 and finite, got nan"),
        (("train_config", "learning_rate"), float("inf"), "learning_rate must be > 0 and finite"),
    ], ids=["epochs", "batch_size", "learning_rate", "layer_dims", "weights", "biases",
            "huge_weight", "nan_l2", "inf_learning_rate"])
    def test_nested_field_is_one_error_line(self, trained, tmp_path, capsys, kind, path,
                                            value, message):
        data, ckpts = trained
        payload = replaced(json.loads(ckpts[kind].read_text()), path, value)
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(payload), encoding="utf-8")
        pred = tmp_path / "pred.jsonl"
        capsys.readouterr()
        assert run(["sort", "--ckpt", str(bad), "--data", str(data), "--out", str(pred)]) == 1
        line = one_error_line(capsys)
        assert f"{bad}: bad checkpoint" in line and message in line
        assert not pred.exists()

    @pytest.mark.parametrize("kind,field", [("pairwise", "margin"), ("npe", "alpha")])
    def test_out_of_range_field_names_the_file(self, trained, tmp_path, capsys, kind, field):
        data, ckpts = trained
        payload = json.loads(ckpts[kind].read_text())
        payload[field] = -1.0
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

    @pytest.mark.parametrize("topk", [121])
    def test_ensemble_k_out_of_range(self, trained, tmp_path, capsys, topk):
        data, ckpts = trained
        pred = tmp_path / "pred.jsonl"
        capsys.readouterr()
        assert run(["sort", "--ckpt", str(ckpts["unary"]), "--ckpt", str(ckpts["npe"]),
                    "--data", str(data), "--out", str(pred), "--topk", str(topk)]) == 1
        assert f"k={topk} out of range for n=5" in one_error_line(capsys)
        assert not pred.exists()

    @pytest.mark.parametrize("ckpts", [1, 2])
    def test_topk_below_one_is_a_usage_error_before_any_file_is_read(self, tmp_path, capsys,
                                                                     ckpts):
        # none of the files exists, so reading one first would end in an "error:" line
        pred = tmp_path / "pred.jsonl"
        capsys.readouterr()
        assert run(["sort", *["--ckpt", str(tmp_path / "missing.json")] * ckpts,
                    "--data", str(tmp_path / "missing.jsonl"), "--out", str(pred),
                    "--topk", "0"]) == 2
        err = capsys.readouterr().err
        assert err.splitlines() == ["usage error: --topk must be >= 1, got 0"], err
        assert not pred.exists()

    def test_failing_story_leaves_no_out(self, trained, data_n10, tmp_path, capsys):
        _, ckpts = trained
        pred = tmp_path / "pred.jsonl"
        capsys.readouterr()
        assert run(["sort", "--ckpt", str(ckpts["unary"]), "--data", str(data_n10),
                    "--out", str(pred)]) == 1
        assert "model expects n=5" in one_error_line(capsys)
        assert not pred.exists()


def test_sort_empty_dataset_writes_empty_file(trained, tmp_path, capsys):
    _, ckpts = trained
    empty, pred = tmp_path / "empty.jsonl", tmp_path / "pred.jsonl"
    empty.write_text("", encoding="utf-8")
    for ckpt in ckpts.values():
        assert run(["sort", "--ckpt", str(ckpt), "--data", str(empty), "--out", str(pred)]) == 0
        assert pred.read_bytes() == b""
    assert capsys.readouterr().out.splitlines()[-1] == f"wrote predictions for 0 stories to {pred}"


def test_empty_dataset_through_ensemble_sort_and_eval(trained, tmp_path, capsys):
    # an ensemble writes an empty file too, and eval of no stories has no metrics to report
    _, ckpts = trained
    empty, pred, out = tmp_path / "empty.jsonl", tmp_path / "pred.jsonl", tmp_path / "r.json"
    empty.write_text("", encoding="utf-8")
    argv = ["sort", "--data", str(empty), "--out", str(pred), "--topk", "3"]
    assert run(argv + [a for c in ckpts.values() for a in ("--ckpt", str(c))]) == 0
    assert pred.read_bytes() == b""
    assert capsys.readouterr().out == f"wrote predictions for 0 stories to {pred}\n"
    assert run(["eval", "--pred", str(pred), "--data", str(empty), "--out", str(out)]) == 1
    assert one_error_line(capsys) == "error: aggregate requires at least one story"
    assert not out.exists()


@pytest.mark.parametrize("order", [
    [0, 0, 2, 3, 4], [0, 1, 2, 3, 5], [0, 1, 2, 3, 10**30], [0, 1, 2, 3], [0],
], ids=["repeated", "out_of_range", "beyond_int64", "wrong_length", "length_1"])
def test_eval_prediction_not_a_permutation_names_the_story(trained, tmp_path, capsys, order):
    data, _ = trained
    stories = load_dataset(data)
    records = gold_records(stories)
    records[2]["predicted_order"] = order
    pred, out = tmp_path / "pred.jsonl", tmp_path / "r.json"
    write_predictions(pred, records)
    capsys.readouterr()
    assert run(["eval", "--pred", str(pred), "--data", str(data), "--out", str(out)]) == 1
    line = one_error_line(capsys)
    assert line.startswith(f"error: {pred}: story {stories[2].story_id}: predicted_order "), line
    assert line.endswith(" is not a permutation of 0..4"), line
    assert not out.exists()


@pytest.mark.parametrize("kind", ["dataset", "predictions", "checkpoint", "config"])
def test_invalid_utf8_is_one_line_naming_the_file(trained, tmp_path, capsys, kind):
    data, ckpts = trained
    gold = tmp_path / "gold.jsonl"
    write_predictions(gold, gold_records(load_dataset(data)))
    config = tmp_path / "train.cfg"
    config.write_text("epochs = 2\nseed = 4\n", encoding="utf-8")
    raw = {"dataset": data, "predictions": gold, "checkpoint": ckpts["unary"],
           "config": config}[kind].read_bytes()
    bad = tmp_path / f"bad-{kind}"
    bad.write_bytes(raw[:len(raw) // 2] + b"\xff" + raw[len(raw) // 2:])
    out = tmp_path / "out.jsonl"
    argv = {
        "dataset": ["sort", "--ckpt", str(ckpts["unary"]), "--data", str(bad), "--out", str(out)],
        "predictions": ["eval", "--pred", str(bad), "--data", str(data)],
        "checkpoint": ["sort", "--ckpt", str(bad), "--data", str(data), "--out", str(out)],
        "config": train_args(data, out, extra=["--config", str(bad)]),
    }[kind]
    capsys.readouterr()
    assert run(argv) == (2 if kind == "config" else 1)
    err = capsys.readouterr().err
    assert "Traceback" not in err
    prefix = "usage error" if kind == "config" else "error"
    assert err.splitlines() == [f"{prefix}: {bad}: not UTF-8 text: invalid start byte"]
    assert not out.exists()


class TestClosedStdout:
    """A reader that closes stdout early gets one error line and exit 1, not a traceback."""

    @pytest.mark.parametrize("command", ["generate", "train", "sort", "eval"])
    def test_one_error_line(self, trained, tmp_path, command):
        data, ckpts = trained
        sort = ["sort", "--ckpt", str(ckpts["unary"]), "--data", str(data)]
        pred = tmp_path / "pred.jsonl"
        assert run([*sort, "--out", str(pred)]) == 0
        evaluate = ["eval", "--pred", str(pred), "--data", str(data)]
        assert run([*evaluate, "--out", str(tmp_path / "normal.json")]) == 0
        out = tmp_path / f"{command}-out"
        argv = {
            "generate": gen_args(out, stories=3),
            "train": train_args(data, out),
            "sort": [*sort, "--out", str(out)],
            "eval": [*evaluate, "--out", str(out)],
        }[command]
        src = str(Path(cli.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            [src, *filter(None, [os.environ.get("PYTHONPATH")])])}
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = subprocess.run([sys.executable, "-m", "storysort", *argv], stdout=write_end,
                                  stderr=subprocess.PIPE, text=True, env=env, timeout=120)
        finally:
            os.close(write_end)
        assert "Traceback" not in proc.stderr
        assert proc.stderr.splitlines() == [
            "error: stdout was closed before all output was written"]
        assert proc.returncode == 1
        # every command writes its files before it prints, so the pipe costs none
        assert out.exists() and Path(f"{out}.manifest.json").exists()
        if command == "eval":
            assert out.read_bytes() == (tmp_path / "normal.json").read_bytes()


def write_predictions(path, records):
    path.write_text("".join(json.dumps(r) + "\n" for r in records), encoding="utf-8")


def gold_records(stories):
    """Prediction records that put every story in its gold order."""
    return [{"story_id": s.story_id, "predicted_order": g}
            for s, g in zip(stories, presented_gold(stories).tolist())]


class TestEvalCoverage:
    def test_partial_predictions_fail_with_count_and_missing_ids(self, trained, tmp_path,
                                                                 capsys):
        data, _ = trained
        stories = load_dataset(data)
        pred = tmp_path / "pred.jsonl"
        write_predictions(pred, gold_records(stories[:3]))
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


class TestWrongTypedValues:
    """A value of the wrong JSON type is a ParseError naming <path>:<line>."""

    @pytest.mark.parametrize("order", [["a", 0, 1, 2, 3], "01234", [0.9, 1.2, 2.5, 3.1, 4.7]])
    def test_predicted_order_must_be_a_list_of_integers(self, trained, tmp_path, capsys,
                                                        order):
        data, _ = trained
        stories = load_dataset(data)
        pred = tmp_path / "pred.jsonl"
        write_predictions(pred, gold_records(stories))
        lines = pred.read_text(encoding="utf-8").splitlines(True)
        lines[1] = json.dumps({"story_id": stories[1].story_id, "predicted_order": order}) + "\n"
        pred.write_text("".join(lines), encoding="utf-8")
        capsys.readouterr()
        assert run(["eval", "--pred", str(pred), "--data", str(data)]) == 1
        assert f"{pred}:2: bad prediction record: predicted_order" in one_error_line(capsys)

    @pytest.mark.parametrize("path,value,field", [
        (("gold", 0), "x", "gold"), (("gold", 0), 0.7, "gold"),
        (("presented_order", 0), "5", "presented_order"), (("text",), "a", "text"),
    ], ids=["gold_position-x", "gold_position-0.7", "presented_order-5", "text_features-a"])
    def test_dataset_numbers_must_be_json_numbers(self, trained, tmp_path, capsys, path,
                                                  value, field):
        data, ckpts = trained
        lines = data.read_text(encoding="utf-8").splitlines(True)
        lines[2] = json.dumps(replaced(json.loads(lines[2]), path, value)) + "\n"
        bad = tmp_path / "bad.jsonl"
        bad.write_text("".join(lines), encoding="utf-8")
        pred = tmp_path / "pred.jsonl"
        capsys.readouterr()
        assert run(["sort", "--ckpt", str(ckpts["unary"]), "--data", str(bad),
                    "--out", str(pred)]) == 1
        assert f"{bad}:3: missing or bad field: {field} must be" in one_error_line(capsys)
        assert not pred.exists()


def with_extra_float(block):
    """A float block one float longer than block."""
    return base64.b64encode(base64.b64decode(block, validate=True) + bytes(8)).decode("ascii")


def as_decimal_list(block):
    """The floats of a block as a JSON list of numbers, the wrong JSON type for a block."""
    return np.frombuffer(base64.b64decode(block, validate=True), dtype="<f8").tolist()


# (edit of one float block, what the error line says about it)
BLOCK_CORRUPTIONS = {
    "non_base64": (lambda b: b[:4] + "!" + b[5:],
                   "{field} must be a base64 float block: Only base64 data is allowed"),
    "truncated": (lambda b: b[:-1], "{field} must be a base64 float block: "),
    "wrong_length": (with_extra_float, "{field} must be a float64 block of shape"),
    "nan": (with_first_float(float("nan")), "non-finite"),
    "inf": (with_first_float(float("inf")), "non-finite"),
    "-inf": (with_first_float(float("-inf")), "non-finite"),
    "wrong_type": (as_decimal_list, "{field} must be"),
}


class TestFloatBlocks:
    """A corrupted float block in a dataset or a checkpoint is one error line naming the file."""

    @pytest.mark.parametrize("corruption", list(BLOCK_CORRUPTIONS))
    @pytest.mark.parametrize("field", ["text", "image"])
    def test_dataset_block(self, trained, tmp_path, capsys, field, corruption):
        data, ckpts = trained
        edit, message = BLOCK_CORRUPTIONS[corruption]
        lines = data.read_text(encoding="utf-8").splitlines(True)
        lines[1] = json.dumps(replaced(json.loads(lines[1]), (field,), edit)) + "\n"
        bad = tmp_path / "bad.jsonl"
        bad.write_text("".join(lines), encoding="utf-8")
        pred = tmp_path / "pred.jsonl"
        capsys.readouterr()
        assert run(["sort", "--ckpt", str(ckpts["unary"]), "--data", str(bad),
                    "--out", str(pred)]) == 1
        line = one_error_line(capsys)
        assert f"{bad}:2: missing or bad field: " in line
        assert message.format(field=field) in line
        assert not pred.exists()

    @pytest.mark.parametrize("corruption", list(BLOCK_CORRUPTIONS))
    @pytest.mark.parametrize("field", ["weights", "biases"])
    def test_checkpoint_block(self, trained, tmp_path, capsys, field, corruption):
        data, ckpts = trained
        edit, message = BLOCK_CORRUPTIONS[corruption]
        payload = replaced(json.loads(ckpts["unary"].read_text()), (field, 0), edit)
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(payload), encoding="utf-8")
        pred = tmp_path / "pred.jsonl"
        capsys.readouterr()
        assert run(["sort", "--ckpt", str(bad), "--data", str(data), "--out", str(pred)]) == 1
        line = one_error_line(capsys)
        assert f"{bad}: bad checkpoint" in line and message.format(field=field) in line
        assert not pred.exists()


# A JSON value of any type but integer: a JSON integer is valid in most fields. Lists
# have at most 2 entries, fewer than any feature vector or order in these files.
JSON_LEAVES = st.none() | st.booleans() | st.floats() | st.text(max_size=4)
JSON_VALUES = st.recursive(
    JSON_LEAVES,
    lambda inner: st.lists(inner, max_size=2) | st.dictionaries(st.text(max_size=2), inner,
                                                                max_size=2),
    max_leaves=4,
)

# Per file kind: (path to one field, JSON types that are valid there and so are not drawn)
# Float blocks are strings, but none of at most 4 characters holds even one float, so every
# drawn value is invalid there.
MLP_FIELDS = [(("model_kind",), (str,)), (("layer_dims",), ()), (("layer_dims", 0), ()),
              (("weights",), ()), (("weights", 0), ()), (("biases",), ()),
              (("biases", 0), ()), (("train_config",), (type(None),)),
              (("train_config", "epochs"), ()), (("train_config", "learning_rate"), (float,))]
FIELDS = {
    "dataset": [
        (("story_id",), (str,)), (("element_ids",), ()), (("element_ids", 0), (str,)),
        (("gold",), ()), (("gold", 0), ()),
        (("presented_order",), (type(None),)), (("presented_order", 0), ()),
        (("text",), ()), (("image",), (type(None),)),
    ],
    "predictions": [
        (("story_id",), (str,)), (("predicted_order",), ()), (("predicted_order", 0), ()),
    ],
    "unary": [(("n",), ()), (("use_image",), (bool,))] + MLP_FIELDS,
    "pairwise": [(("use_image",), (bool,)), (("margin",), (float,))] + MLP_FIELDS,
    "npe": [(("alpha",), (float,)), (("use_image",), (bool,))] + MLP_FIELDS,
}


def replaced(record, path, value):
    """A deep copy of a JSON record with the field at path set to value, or to value(old)
    when value is a function of the old value."""
    record = json.loads(json.dumps(record))
    target = record
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value(target[path[-1]]) if callable(value) else value
    return record


@pytest.fixture(scope="module")
def small_files(trained, tmp_path_factory):
    """Three stories, their gold predictions, and a scratch directory for corrupted copies."""
    data, ckpts = trained
    root = tmp_path_factory.mktemp("corrupt")
    small = root / "data.jsonl"
    small.write_text("".join(data.read_text(encoding="utf-8").splitlines(True)[:3]),
                     encoding="utf-8")
    pred = root / "pred.jsonl"
    write_predictions(pred, gold_records(load_dataset(small)))
    return small, pred, ckpts, root


def corrupt_case(kind):
    """(field path, a JSON value of a type that field does not accept) for one file kind."""
    return st.sampled_from(FIELDS[kind]).flatmap(lambda f: st.tuples(
        st.just(f[0]), JSON_VALUES.filter(lambda v: not isinstance(v, f[1]))))


class TestCorruptedFiles:
    """One field of a valid file set to a wrong-typed JSON value ends in one error line."""

    @pytest.mark.parametrize("kind", list(FIELDS))
    def test_one_error_line_and_no_traceback(self, small_files, kind):
        small, pred, ckpts, root = small_files

        @settings(max_examples=60, deadline=None, derandomize=True)
        @given(corrupt_case(kind))
        def check(case):
            path, value = case
            bad = root / f"bad-{kind}"
            if kind in ("dataset", "predictions"):
                source = small if kind == "dataset" else pred
                lines = source.read_text(encoding="utf-8").splitlines()
                lines[1] = json.dumps(replaced(json.loads(lines[1]), path, value))
                bad.write_text("\n".join(lines) + "\n", encoding="utf-8")
            else:
                payload = json.loads(ckpts[kind].read_text(encoding="utf-8"))
                bad.write_text(json.dumps(replaced(payload, path, value)), encoding="utf-8")
            argv = {
                "dataset": ["sort", "--ckpt", str(ckpts["unary"]), "--data", str(bad)],
                "predictions": ["eval", "--pred", str(bad), "--data", str(small)],
            }.get(kind, ["sort", "--ckpt", str(bad), "--data", str(small)])
            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                code = run([*argv, "--out", str(root / "out.jsonl")])
            lines = err.getvalue().splitlines()
            assert "Traceback" not in err.getvalue()
            assert code in (1, 2) and len(lines) == 1, (path, value, err.getvalue())
            assert lines[0].startswith(("error: ", "usage error: ")), lines

        check()


class TestUnusablePaths:
    """A directory where a file belongs, or an allocation that fails, is one line."""

    @pytest.mark.parametrize("where", ["eval-pred", "sort-ckpt", "sort-data",
                                       "train-out", "sort-out", "eval-out", "generate-out"])
    def test_directory_is_one_error_line(self, trained, tmp_path, capsys, monkeypatch, where):
        def no_reading(*args, **kwargs):
            raise AssertionError("an input was read before --out was checked")

        data, ckpts = trained
        pred = tmp_path / "pred.jsonl"
        if where.endswith("-out"):
            for module, name in ((data_mod, "load_dataset"), (data_mod, "generate_synthetic"),
                                 (cli, "load_predictions"), (cli, "_load_model")):
                monkeypatch.setattr(module, name, no_reading)
        argv = {
            "eval-pred": ["eval", "--pred", str(tmp_path), "--data", str(data)],
            "sort-ckpt": ["sort", "--ckpt", str(tmp_path), "--data", str(data),
                            "--out", str(pred)],
            "sort-data": ["sort", "--ckpt", str(ckpts["unary"]), "--data", str(tmp_path),
                            "--out", str(pred)],
            "train-out": train_args(data, tmp_path, extra=["--epochs", "1"]),
            "sort-out": ["sort", "--ckpt", str(ckpts["unary"]), "--data", str(data),
                         "--out", str(tmp_path)],
            "eval-out": ["eval", "--pred", str(pred), "--data", str(data),
                         "--out", str(tmp_path)],
            "generate-out": gen_args(tmp_path),
        }[where]
        capsys.readouterr()
        assert run(argv) == 1
        assert str(tmp_path) in one_error_line(capsys)
        assert not pred.exists()

    def test_directory_config_is_one_usage_error_line(self, tmp_path, capsys):
        out = tmp_path / "d.jsonl"
        capsys.readouterr()
        assert run(gen_args(out, extra=["--config", str(tmp_path)])) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("usage error: ") and str(tmp_path) in err[0]
        assert not out.exists()

    @pytest.mark.parametrize("command", ["generate", "train"])
    def test_failed_allocation_is_one_error_line(self, trained, tmp_path, capsys, monkeypatch,
                                                 command):
        # stands in for numpy failing to allocate the arrays of a huge
        # --stories or --embed-dim; no real allocation is attempted
        def no_memory(*args, **kwargs):
            raise MemoryError("Unable to allocate 745. GiB for an array")

        data, _ = trained
        out = tmp_path / "out.json"
        if command == "generate":
            monkeypatch.setattr(data_mod, "generate_synthetic", no_memory)
            argv = gen_args(out)
        else:
            monkeypatch.setattr(neural, "init_mlp", no_memory)
            argv = train_args(data, out)
        capsys.readouterr()
        assert run(argv) == 1
        assert one_error_line(capsys) == "error: Unable to allocate 745. GiB for an array"
        assert not out.exists()


class TestValOfAnotherN:
    @pytest.fixture()
    def val6(self, tmp_path):
        val = tmp_path / "val6.jsonl"
        assert run(gen_args(val, stories=8, extra=["--n", "6"])) == 0
        return val

    def test_unary_fails_before_training_naming_both_files(self, dataset, val6, tmp_path,
                                                           capsys, monkeypatch):
        def no_training(*args):
            raise AssertionError("trained before --val was checked")

        monkeypatch.setattr(neural, "sgd_train", no_training)
        out = tmp_path / "m.json"
        capsys.readouterr()
        assert run(train_args(dataset, out, extra=["--val", str(val6)])) == 1
        line = one_error_line(capsys)
        assert str(val6) in line and str(dataset) in line
        assert not out.exists()

    @pytest.mark.parametrize("model", ["pairwise", "npe"])
    def test_pair_score_kinds_accept_it(self, dataset, val6, tmp_path, capsys, model):
        capsys.readouterr()
        assert run(train_args(dataset, tmp_path / "m.json", model=model,
                              extra=["--val", str(val6)])) == 0
        assert json.loads(capsys.readouterr().out)["val"]["story_count"] == 8


class TestValOfOtherWidths:
    """--data has text dim 6 and image dim 3 (gen_args)."""

    @staticmethod
    def val_set(tmp_path, text_dim, image_dim):
        val = tmp_path / f"val-{text_dim}-{image_dim}.jsonl"
        assert run(gen_args(val, stories=8, extra=["--text-dim", str(text_dim),
                                                   "--image-dim", str(image_dim)])) == 0
        return val

    @pytest.mark.parametrize("model", ["unary", "pairwise", "npe"])
    @pytest.mark.parametrize("text_dim,image_dim,use_image,got", [
        (4, 3, False, "text dim 4"),
        (4, 3, True, "text dim 4, image dim 3"),
        (6, 2, True, "text dim 6, image dim 2"),
    ])
    def test_fails_before_training_naming_both_files(self, dataset, tmp_path, capsys,
                                                     monkeypatch, model, text_dim, image_dim,
                                                     use_image, got):
        def no_training(*args, **kwargs):
            raise AssertionError("trained before --val was checked")

        monkeypatch.setattr(REGISTRY[model].module, "train", no_training)
        val = self.val_set(tmp_path, text_dim, image_dim)
        out = tmp_path / "m.json"
        capsys.readouterr()
        extra = ["--val", str(val), *(["--use-image"] if use_image else [])]
        assert run(train_args(dataset, out, model=model, extra=extra)) == 1
        want = "text dim 6, image dim 3" if use_image else "text dim 6"
        assert one_error_line(capsys) == (
            f"error: --val {val} has {got}, but a {model} model trained on --data {dataset} "
            f"reads {want}")
        assert not out.exists()

    @pytest.mark.parametrize("model", ["unary", "pairwise", "npe"])
    def test_image_width_is_free_without_use_image(self, dataset, tmp_path, capsys, model):
        val = self.val_set(tmp_path, 6, 2)
        capsys.readouterr()
        assert run(train_args(dataset, tmp_path / "m.json", model=model,
                              extra=["--val", str(val)])) == 0
        assert json.loads(capsys.readouterr().out)["val"]["story_count"] == 8
