"""Command-line entry point: generate, train, sort, eval.

Every command writes a manifest, ``<out>.manifest.json`` beside its
output, recording every option of its command as parsed (after --config,
and with train's registry defaults filled in), the seed, input/output
file hashes and any metrics, so a run can be replayed to byte-identical
outputs. eval without --out writes ``<pred>.eval.manifest.json``, so the
manifest sort wrote for the same predictions file stays. Metrics are
rounded to 6 decimal places.

Files are UTF-8 JSON: one object per line in datasets (from generate) and
predictions (from sort), one object in checkpoints (from train) and eval
--out reports; storysort.data and storysort.models list the fields.
Datasets and predictions are read by one rule: a line ends at a line feed
(so CRLF endings read, and a carriage return alone ends no line), and a
line of ASCII whitespace is skipped; any other line, one of U+00A0 alone
included, must be JSON. The readers of these files and of checkpoints
parse through core.parse_json, so a bad file is one of three lines:
  ``error: <path>: not UTF-8 text: <reason>``
  ``error: <path>:<line>: malformed JSON: <error>``, with no line for a
    checkpoint
  ``error: <path>:<line>: ...`` for JSON that fails its reader's field
    checks, naming the field: ``missing or bad field`` in a dataset,
    ``bad prediction record`` in predictions (a checkpoint's line names
    the file and the field)
A dataset's presented_order may be null, for the listed order, and every
line must have the first line's n and feature widths. Float arrays are
float blocks, base64 of little-endian float64 bytes, so floats are kept
exactly, and a bad block (not a string, not base64, the wrong byte
length, or holding NaN or ±inf) is one ``error:`` line.

A --config file holds one ``key = value`` per line; blank and ``#`` lines
are skipped. Keys are option names, with ``-`` or ``_``. A value is read
as JSON, else as text, then typed and checked as its flag is: on/off
flags take true or false, null is allowed only for options that default
to null, and a list only for sort's --ckpt, with at least one path.
Config values override the flags given on the command line. A bad line
is one ``usage error: <file>:<line>: ...`` line with exit 2, which quotes
a bad value as the file wrote it.

Stdout contract, one command per call:
  generate  one human status line: ``wrote <count> stories to <out>``
  sort      one human status line:
            ``wrote predictions for <count> stories to <out>``
  train     one JSON report line: model; val, the metric report of
            the validation stories (null when there are none); and
            epochs, {run, best, train_loss, val_loss}: the epochs run,
            the 1-based epoch whose parameters the checkpoint holds, and
            per epoch run the mean training loss (batch losses weighted
            by batch size) and the mean validation loss, rounded to 6
            places. The training stories are not decoded. --epochs is a
            cap: training stops PATIENCE = 3 epochs after the best
            validation loss (storysort.neural), and keeps the best
            epoch. With no validation stories every epoch runs, best
            equals run and val_loss is empty. The manifest's metrics
            hold the same report; the checkpoint holds no epochs
  eval      one JSON report line (spearman, pairwise_accuracy,
            avg_distance, story_count), then n confusion rows of n
            space-separated integer counts
A caller that runs several commands in one process must take each
command's stdout separately; the first line is only that command's own.

Errors the CLI handles go to stderr as one line:
``error: <message>`` with exit 1 for a runtime or validation failure,
``usage error: <message>`` with exit 2 for a bad argument or config
value. A value out of its option's range is one too, naming the option
by its flag whether the flag or a config file set it: ``usage error:
--lr must be > 0 and finite, got 0.0``. Flags that argparse itself
rejects print argparse's usage text to stderr and also exit 2. A stdout
closed by its reader (as in ``storysort eval ... | true``) is a runtime
failure: one ``error:`` line and exit 1. An --out that is a directory is
one ``error:`` line before any input is read. ``train`` with no training
stories, an empty --data or a --val-frac that leaves none, is one
``error: no training stories: ...`` line, before --val is read and
before any model is built. Every command writes its files and manifest
before it prints, so a closed stdout leaves them complete. Training that
diverges is one ``error: training diverged: the <kind> model ...`` line
naming --data, and leaves no file: either a training batch's loss is not
finite (the line names its epoch and batch), or the validation loss after
an epoch is not (the line names the epoch), or, checked with the report
before the checkpoint is written, the training stories' scores are not.
Training that collapses is one ``error: training collapsed: the <kind>
model scores every order of <t> of <S> training stories the same,
training on --data <path>`` line, and leaves no file: in the same check,
more than COLLAPSED_SHARE of the training stories have a score matrix
that ties every order (a == aᵀ for pair scores, every row equal for
additive scores).

sort with several --ckpt votes: each member lists its --topk best orders,
by default 3 but fewer than n! (1 for stories of n = 2, where a list of
both orders would tie every vote). With one --ckpt, sort writes that
model's best order for each story, and --topk, from the flag or --config,
is a usage error before any file is read.

sort checks its inputs against each other before it decodes any story,
each check an ``error:`` line naming the flag and file behind it, exit 1
and no --out file: an explicit --topk of n! or more is ``error: --topk
<k>: k=<k> out of range for n=<n>``, and a checkpoint that cannot score
the first story of --data (a unary model of another n, other feature
widths, or image features the stories lack) is ``error: --ckpt <path>
cannot score --data <path>: <reason>``. Likewise train --use-image on
stories without image features is ``error: --use-image: --data <path>:
<reason>`` before any model is built.

Exit codes: 0 success, 1 runtime or validation failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import hashlib
import json
import os
import sys
import time
from pathlib import Path

import numpy as np

from . import data as data_mod
from . import ensemble as ensemble_mod
from . import metrics as metrics_mod
from . import models as models_mod
from .core import is_permutation, json_list, json_value, parse_json
from .errors import (
    DimensionError, EmptyInputError, FeatureError, NumericError, ParseError, SizeError,
    StorySortError, UsageError, ValidationError,
)
from .neural import DEFAULT_HIDDEN_UNITS, TrainConfig

# Checkpoint loading under the name perfbench/run.py calls.
_load_model = models_mod.load_model

# train refuses a model that scores every order the same on more than this share of its
# training stories. Measured on 450 training stories per seed (seeds 7–11): NPE at lr
# 0.01, n = 8, noise 1.0 collapsed on seeds 7, 9 and 11 and tied 449, 450 and 450 of them;
# every other model tied none (unary, pairwise and NPE at lr 0.01 and 0.0025; n = 8 and
# 5 at noise 1.0, n = 4 at noise 0.1).
COLLAPSED_SHARE = 0.5


def _sha256(path: Path) -> str:
    h = hashlib.sha256()
    with path.open("rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return "sha256:" + h.hexdigest()


def _round6(metrics: dict) -> dict:
    return {k: round(v, 6) if isinstance(v, float) else v for k, v in metrics.items()}


def write_manifest(out_path: Path, args: argparse.Namespace,
                   inputs: list[Path], outputs: list[Path],
                   metrics: dict | None, started: float) -> Path:
    recorded = {k: v for k, v in vars(args).items() if k not in ("command", "config")}
    manifest = {
        "command": args.command,
        "args": recorded,
        "seed": recorded.get("seed"),
        "inputs": {str(p): _sha256(Path(p)) for p in inputs},
        "outputs": {str(p): _sha256(Path(p)) for p in outputs},
        "metrics": metrics,
        "duration_sec": round(time.monotonic() - started, 3),
    }
    manifest_path = Path(str(out_path) + ".manifest.json")
    manifest_path.write_text(json.dumps(manifest, indent=2) + "\n", encoding="utf-8")
    return manifest_path


def _option_actions(parser: argparse.ArgumentParser,
                    command: str) -> dict[str, argparse.Action]:
    """The options of one subcommand, keyed by their attribute name in args."""
    (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return {a.dest: a for a in sub.choices[command]._actions if a.dest != "help"}


def _config_value(action: argparse.Action, raw: str):
    """A config value read as JSON (else as text), then typed and checked as its flag is."""
    try:
        value = json.loads(raw)
    except json.JSONDecodeError:
        value = raw
    if action.nargs == 0:  # an on/off flag such as --use-image
        if not isinstance(value, bool):
            raise ValueError(f"expected true or false, got {raw!r}")
        return value
    if value is None:
        if action.required or action.default is not None:
            raise ValueError("null is allowed only for options that default to null")
        return None
    value = value if isinstance(value, (str, list, dict)) else raw  # a number or bool, as written
    if isinstance(action, argparse._AppendAction):  # a repeatable flag such as --ckpt
        if value == []:
            raise ValueError(f"expected at least one value, got {raw!r}")
        return [_flag_value(action, v) for v in (value if isinstance(value, list) else [value])]
    return _flag_value(action, value)


def _flag_value(action: argparse.Action, value):
    """One value converted and checked as argparse does the text after its flag."""
    if isinstance(value, (list, dict)):
        raise ValueError(f"expected a single value, got {json.dumps(value)}")
    value = (action.type or str)(str(value))
    if action.choices is not None and value not in action.choices:
        raise ValueError(
            f"expected one of {', '.join(map(str, action.choices))}, got {value!r}"
        )
    return value


def _apply_config_file(args: argparse.Namespace,
                       parser: argparse.ArgumentParser) -> argparse.Namespace:
    """Apply key=value overrides from --config on top of parsed flags."""
    if not getattr(args, "config", None):
        return args
    path = Path(args.config)
    if not path.exists():
        raise UsageError(f"config file not found: {path}")
    actions = _option_actions(parser, args.command)
    try:
        text = path.read_text(encoding="utf-8")
    except UnicodeDecodeError as e:
        raise UsageError(f"{path}: not UTF-8 text: {e.reason}") from e
    except OSError as e:
        raise UsageError(f"config file cannot be read: {e}") from e
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise UsageError(f"{path}:{lineno}: expected key=value, got {line!r}")
        key, _, raw = line.partition("=")
        key = key.strip().replace("-", "_")
        if key == "config":
            raise UsageError(f"{path}:{lineno}: a config file cannot name another config file")
        if key not in actions:
            raise UsageError(f"{path}:{lineno}: unknown option {key!r}")
        try:
            value = _config_value(actions[key], raw.strip())
        except (TypeError, ValueError) as e:
            raise UsageError(f"{path}:{lineno}: bad value for {key!r}: {e}") from e
        setattr(args, key, value)
    return args


# the flag that sets each field of data.SyntheticSpec (generate) and neural.TrainConfig (train)
FIELD_FLAGS = {"story_count": "stories", "n": "n", "text_dim": "text-dim",
               "image_dim": "image-dim", "noise_sigma": "noise", "signal_mode": "signal",
               "seed": "seed", "learning_rate": "lr", "epochs": "epochs",
               "batch_size": "batch-size", "l2": "l2"}


def _flag_error(e: ValidationError) -> UsageError:
    """A SyntheticSpec or TrainConfig range error, whose message starts with the field's
    name, as a usage error that names the field's flag instead."""
    field, _, rule = str(e).partition(" ")
    return UsageError(f"--{FIELD_FLAGS[field]} {rule}")


def cmd_generate(args: argparse.Namespace) -> int:
    started = time.monotonic()
    try:
        spec = data_mod.SyntheticSpec(
            story_count=args.stories,
            n=args.n,
            text_dim=args.text_dim,
            image_dim=args.image_dim,
            noise_sigma=args.noise,
            signal_mode=args.signal,
            seed=args.seed,
        )
    except ValidationError as e:
        raise _flag_error(e) from e
    stories = data_mod.generate_synthetic(spec)
    out = Path(args.out)
    data_mod.save_dataset(stories, out)
    write_manifest(out, args, [], [out], None, started)
    print(f"wrote {len(stories)} stories to {out}")
    return 0


def _dataset_report(model, stories) -> metrics_mod.MetricReport:
    preds = models_mod.predict_stories(model, stories)
    return metrics_mod.aggregate(
        metrics_mod.score_story(preds, data_mod.presented_gold(stories))
    )


def _feature_dims(stories, use_image: bool) -> str:
    """The widths of the features a model reads from stories, as text."""
    image = "none" if stories.image is None else stories.image.shape[2]
    return f"text dim {stories.text.shape[2]}" + (f", image dim {image}" if use_image else "")


def cmd_train(args: argparse.Namespace) -> int:
    started = time.monotonic()
    spec = models_mod.REGISTRY[args.model]
    for name, default in spec.train_defaults.items():
        if getattr(args, name) is None:
            setattr(args, name, default)
    # flags are checked before the datasets are read
    if args.val is None and not 0 < args.val_frac < 1:
        raise UsageError(f"--val-frac must be in (0, 1), got {args.val_frac}")
    # every kind's options are parsed, and recorded in the manifest, whatever --model is
    kind_args = [name for entry in models_mod.REGISTRY.values() for name in entry.train_args]
    for name in ("hidden", *kind_args):
        value = getattr(args, name)
        if not value > 0:
            # --hidden and --embed-dim are integer layer widths
            rule = "must be >= 1 (a width in layer_dims)" if type(value) is int else "must be > 0"
            raise UsageError(f"--{name.replace('_', '-')} {rule}, got {value}")
    try:
        cfg = TrainConfig(
            learning_rate=args.lr, epochs=args.epochs, batch_size=args.batch_size,
            seed=args.seed, l2=args.l2,
        )
    except ValidationError as e:
        raise _flag_error(e) from e
    data_path = Path(args.data)
    train_stories = data_mod.load_dataset(data_path)
    inputs = [data_path]
    count, rest = len(train_stories), ""
    if args.val is None:
        train_stories, val_stories = data_mod.split_dataset(train_stories, args.val_frac,
                                                            args.seed)
        rest = f", and --val-frac {args.val_frac} leaves none for training"
    if not train_stories:
        raise EmptyInputError(
            f"no training stories: --data {data_path} has {count} stories{rest}")
    if args.use_image and train_stories.image is None:
        raise FeatureError(f"--use-image: --data {data_path}: stories have no image features "
                           f"but use_image was requested")
    if args.val is not None:
        val_stories = data_mod.load_dataset(Path(args.val))
        inputs.append(Path(args.val))
        # a kind whose checkpoint records n scores only stories of that n
        if "n" in dict(spec.fields) and val_stories and val_stories.n != train_stories.n:
            raise ValidationError(
                f"--val {args.val} has n={val_stories.n}, but a {args.model} model trained "
                f"on --data {data_path} (n={train_stories.n}) scores only n={train_stories.n}"
            )
        # the model's input width is --data's, so --val must have the same features
        if val_stories:
            got, want = (_feature_dims(s, args.use_image) for s in (val_stories, train_stories))
            if got != want:
                raise ValidationError(
                    f"--val {args.val} has {got}, but a {args.model} model trained on "
                    f"--data {data_path} reads {want}"
                )
    # the val report decodes every validation story, and sort will decode stories of
    # --data's n, so both size limits are checked before training
    for n in {train_stories.n, val_stories.n}:
        models_mod.check_decodable(spec, n)
    diverged = f"training diverged: the {args.model} model"
    try:
        model = spec.module.train(
            train_stories, cfg, use_image=args.use_image, hidden_units=args.hidden,
            val=val_stories, **{name: getattr(args, name) for name in spec.train_args},
        )
    except NumericError as e:  # sgd_train's non-finite training or validation loss
        with_val = "" if args.val is None else f" with --val {args.val}"
        raise NumericError(f"{diverged} has a {e}, training on --data {data_path}{with_val}"
                           ) from e
    # before the checkpoint is written, the training stories are scored (not decoded):
    # a model that diverged has non-finite scores, and one that collapsed scores every
    # order of most stories the same; either leaves no file
    finite, tied = True, 0
    for scores in models_mod.score_chunks(model, train_stories):
        finite = finite and bool(np.isfinite(scores).all())
        tied += int(models_mod.full_ties(spec, scores).sum())
    if not finite:
        raise NumericError(f"{diverged} gives non-finite scores on the training stories "
                           f"of --data {data_path}")
    if tied > COLLAPSED_SHARE * len(train_stories):
        raise ValidationError(
            f"training collapsed: the {args.model} model scores every order of {tied} of "
            f"{len(train_stories)} training stories the same, training on --data {data_path}")
    log = model.epoch_log
    report = {
        "model": args.model,
        "val": _round6(_dataset_report(model, val_stories).to_json()) if val_stories else None,
        "epochs": {"run": log.run, "best": log.best,
                   "train_loss": [round(v, 6) for v in log.train_loss],
                   "val_loss": [round(v, 6) for v in log.val_loss]},
    }
    models_mod.save_model(model, args.out)
    out = Path(args.out)
    write_manifest(out, args, inputs, [out], report, started)
    print(json.dumps(report))
    return 0


def cmd_sort(args: argparse.Namespace) -> int:
    started = time.monotonic()
    if args.topk is not None and args.topk < 1:
        raise UsageError(f"--topk must be >= 1, got {args.topk}")
    if args.topk is not None and len(args.ckpt) == 1:
        raise UsageError(f"--topk sets each ensemble member's list and needs two or more "
                         f"--ckpt, got --topk {args.topk} with one")
    ckpt_paths = [Path(p) for p in args.ckpt]
    models = [_load_model(p) for p in ckpt_paths]
    stories = data_mod.load_dataset(Path(args.data))
    specs = [models_mod.spec_for(m) for m in models]
    topk = None
    if len(models) > 1:
        topk = ensemble_mod.top_k(stories.n) if args.topk is None else args.topk
    # every input is checked on the first story before any story is decoded
    if stories:
        if args.topk is not None:
            try:
                ensemble_mod.check_k(stories.n, args.topk)
            except SizeError as e:
                raise SizeError(f"--topk {args.topk}: {e}") from e
        for path, model, spec in zip(ckpt_paths, models, specs):
            models_mod.check_decodable(spec, stories.n, topk)
            try:
                spec.module.scores(model, stories[:1])
            except (DimensionError, FeatureError) as e:
                raise ValidationError(f"--ckpt {path} cannot score --data {args.data}: {e}"
                                      ) from e
    if topk is None:
        orders = models_mod.predict_stories(models[0], stories).tolist()
    else:
        orders = [ensemble_mod.ensemble_sort(models, story, k=topk).positions
                  for story in stories]
    lines = [
        json.dumps({"story_id": story_id, "predicted_order": order}) + "\n"
        for story_id, order in zip(stories.story_ids, orders)
    ]
    # every story is decoded before --out is opened, so a failure leaves no file
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    with out.open("w", encoding="utf-8") as fh:
        fh.writelines(lines)
    write_manifest(out, args, ckpt_paths + [Path(args.data)], [out], None, started)
    print(f"wrote predictions for {len(stories)} stories to {out}")
    return 0


def load_predictions(path: Path) -> dict[str, list[int]]:
    """Each story_id's predicted_order, read as load_dataset reads lines."""
    preds = {}
    with path.open("rb") as fh:
        for lineno, line in enumerate(fh, 1):
            if line.isspace():
                continue
            record = parse_json(line, path, lineno)
            try:
                story_id = json_value(record["story_id"], (str,), "story_id")
                order = json_list(record["predicted_order"], (int,), "predicted_order")
            except (KeyError, TypeError, ValueError) as e:
                raise ParseError(f"{path}:{lineno}: bad prediction record: {e}") from e
            if story_id in preds:
                raise ParseError(f"{path}:{lineno}: repeated story_id {story_id!r}")
            preds[story_id] = order
    return preds


def prediction_rows(path: Path, preds: dict[str, list[int]], stories) -> np.ndarray:
    """The stories' predicted orders as an (S, n) array, else ValidationError naming the
    first story whose order is not a permutation of its 0..n-1."""
    n = stories.n
    rows = [preds[story_id] for story_id in stories.story_ids]
    # a row of the wrong length becomes one that is not a permutation
    valid = is_permutation(np.array([r if len(r) == n else [-1] * n for r in rows])
                           .reshape(len(rows), n))
    if not valid.all():
        story_id = stories.story_ids[int(valid.argmin())]
        raise ValidationError(f"{path}: story {story_id}: predicted_order "
                              f"{preds[story_id]!r:.60} is not a permutation of 0..{n - 1}")
    return np.array(rows, dtype=np.intp).reshape(len(rows), n)


def cmd_eval(args: argparse.Namespace) -> int:
    started = time.monotonic()
    pred_path = Path(args.pred)
    data_path = Path(args.data)
    preds = load_predictions(pred_path)
    stories = data_mod.load_dataset(data_path)
    rows = {story_id: s for s, story_id in enumerate(stories.story_ids)}
    missing = sorted(set(preds) - set(rows))
    if missing:
        raise ValidationError(f"predicted story_ids not in dataset: {', '.join(missing)}")
    unpredicted = [story_id for story_id in rows if story_id not in preds]
    if unpredicted:
        raise ValidationError(
            f"predictions cover {len(preds)} of {len(stories)} stories; missing: "
            f"{', '.join(unpredicted[:5])}{', ...' if len(unpredicted) > 5 else ''}"
        )
    scored = stories[[rows[story_id] for story_id in preds]]  # in predictions-file order
    pred = prediction_rows(pred_path, preds, scored)
    gold = data_mod.presented_gold(scored)
    report = metrics_mod.aggregate(metrics_mod.score_story(pred, gold))
    result = {
        "report": _round6(report.to_json()),
        "confusion": metrics_mod.confusion(pred, gold).tolist(),
    }
    outputs = []
    if args.out is not None:
        out = Path(args.out)
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(json.dumps(result) + "\n", encoding="utf-8")
        outputs.append(out)
        manifest_anchor = out
    else:
        manifest_anchor = Path(f"{pred_path}.eval")
    write_manifest(manifest_anchor, args, [pred_path, data_path], outputs, result["report"],
                   started)
    print(json.dumps(result["report"]))
    for row in result["confusion"]:
        print(" ".join(str(v) for v in row))
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once: it depends only on the model registry."""
    parser = argparse.ArgumentParser(
        prog="storysort",
        description="Order jumbled story elements with learned position and order models.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    synthetic = {f.name: f.default for f in dataclasses.fields(data_mod.SyntheticSpec)}
    p_gen = sub.add_parser("generate", help="write a synthetic planted-signal dataset")
    p_gen.add_argument("--stories", type=int, required=True)
    p_gen.add_argument("--n", type=int, default=synthetic["n"])
    p_gen.add_argument("--text-dim", type=int, default=synthetic["text_dim"])
    p_gen.add_argument("--image-dim", type=int, default=synthetic["image_dim"])
    p_gen.add_argument("--noise", type=float, default=synthetic["noise_sigma"])
    p_gen.add_argument("--signal", choices=data_mod.SIGNAL_MODES,
                       default=synthetic["signal_mode"])
    p_gen.add_argument("--seed", type=int, default=synthetic["seed"])
    p_gen.add_argument("--out", required=True)
    p_gen.add_argument("--config", default=None)

    p_train = sub.add_parser("train", help="train a model and write a checkpoint")
    p_train.add_argument("--model", choices=tuple(models_mod.REGISTRY), required=True)
    p_train.add_argument("--data", required=True)
    p_train.add_argument("--val", default=None, help="separate validation dataset")
    p_train.add_argument("--val-frac", type=float, default=0.1)
    p_train.add_argument("--out", required=True)
    p_train.add_argument("--epochs", type=int, default=None,
                         help="most epochs to run; training stops early on the validation loss")
    p_train.add_argument("--lr", type=float, default=None)
    p_train.add_argument("--batch-size", type=int, default=None)
    p_train.add_argument("--l2", type=float, default=0.0)
    p_train.add_argument("--hidden", type=int, default=DEFAULT_HIDDEN_UNITS)
    for spec in models_mod.REGISTRY.values():
        for name, default in spec.train_args.items():
            p_train.add_argument("--" + name.replace("_", "-"), type=type(default),
                                 default=default)
    p_train.add_argument("--use-image", action="store_true")
    p_train.add_argument("--seed", type=int, default=0)
    p_train.add_argument("--config", default=None)

    p_sort = sub.add_parser("sort", help="predict orders; several --ckpt flags vote")
    p_sort.add_argument("--ckpt", action="append", required=True)
    p_sort.add_argument("--data", required=True)
    p_sort.add_argument("--out", required=True)
    p_sort.add_argument("--topk", type=int, default=None,
                        help="orders each member lists (default: min(3, n! - 1))")
    p_sort.add_argument("--config", default=None)

    p_eval = sub.add_parser("eval", help="score predictions against gold orders")
    p_eval.add_argument("--pred", required=True)
    p_eval.add_argument("--data", required=True)
    p_eval.add_argument("--out", default=None, help="also write report JSON here")
    p_eval.add_argument("--config", default=None)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return int(e.code) if e.code is not None else 0
    # looked up at each call, so that a rebound cmd_* function (as a profiler
    # installs) is the one that runs
    commands = {"generate": cmd_generate, "train": cmd_train, "sort": cmd_sort, "eval": cmd_eval}
    try:
        args = _apply_config_file(args, parser)
        # every command takes --out; a directory there fails before any input is read
        if args.out is not None and Path(args.out).is_dir():
            raise ValidationError(f"--out {args.out} is a directory, not a file")
        # a non-finite value ends in the check of the code that meets it,
        # not in numpy warnings on stderr
        with np.errstate(all="ignore"):
            code = commands[args.command](args)
        sys.stdout.flush()  # so that a closed stdout raises here, not at exit
        return code
    except BrokenPipeError:
        # nothing more can reach stdout; point it at devnull so the flush at exit
        # does not raise again (the "Note on SIGPIPE" in the signal module docs)
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print("error: stdout was closed before all output was written", file=sys.stderr)
        return 1
    except UsageError as e:
        print(f"usage error: {e}", file=sys.stderr)
        return 2
    except (StorySortError, OSError) as e:
        # OSError: a missing file, or a directory where a file belongs
        print(f"error: {e}", file=sys.stderr)
        return 1
    except MemoryError as e:
        # numpy's message names the size of the array it could not allocate
        print(f"error: {str(e) or 'out of memory'}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
