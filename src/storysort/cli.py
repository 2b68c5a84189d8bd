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
--out reports; storysort.data and storysort.models list the fields. A
dataset's presented_order may be null, for the listed order; every line
must have the first line's n and feature widths, and a line that fails a
check is one ``error: <path>:<line>: ...`` line. Float arrays are float
blocks, base64 of little-endian float64 bytes, so floats are kept exactly,
and a bad block (not a string, not base64, the wrong byte length, or
holding NaN or ±inf) is one ``error:`` line.

Stdout contract, one command per call:
  generate  one human status line: ``wrote <count> stories to <out>``
  sort      one human status line:
            ``wrote predictions for <count> stories to <out>``
  train     one JSON report line: model, and the train and val metric
            reports (val is null when the split leaves none)
  eval      one JSON report line (spearman, pairwise_accuracy,
            avg_distance, story_count), then n confusion rows of n
            space-separated integer counts
A caller that runs several commands in one process must take each
command's stdout separately; the first line is only that command's own.

Errors the CLI handles go to stderr as one line:
``error: <message>`` with exit 1 for a runtime or validation failure,
``usage error: <message>`` with exit 2 for a bad argument or config
value. Flags that argparse itself rejects print argparse's usage text
to stderr and also exit 2. A stdout closed by its reader (as in
``storysort eval ... | true``) is a runtime failure: one ``error:`` line
and exit 1. An --out that is a directory is one ``error:`` line before
any input is read. Every command writes its files and manifest before it
prints, so a closed stdout leaves them complete. ``train`` computes its
report before it writes the checkpoint, so a model whose scores are not
finite (training diverged) is one ``error:`` line and leaves no file.

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
from .core import is_permutation, json_list, json_value
from .errors import ParseError, StorySortError, UsageError, ValidationError
from .neural import DEFAULT_HIDDEN_UNITS, TrainConfig

# Checkpoint loading under the name perfbench/run.py calls.
_load_model = models_mod.load_model


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
            raise ValueError(f"expected true or false, got {value!r}")
        return value
    if value is None:
        if action.required or action.default is not None:
            raise ValueError("null is allowed only for options that default to null")
        return None
    if isinstance(action, argparse._AppendAction):  # a repeatable flag such as --ckpt
        return [_flag_value(action, v) for v in (value if isinstance(value, list) else [value])]
    return _flag_value(action, value)


def _flag_value(action: argparse.Action, value):
    """One value converted and checked as argparse does the text after its flag."""
    if isinstance(value, (list, dict)):
        raise ValueError(f"expected a single value, got {value!r}")
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
        if key not in actions:
            raise UsageError(f"{path}:{lineno}: unknown option {key!r}")
        try:
            value = _config_value(actions[key], raw.strip())
        except (TypeError, ValueError) as e:
            raise UsageError(f"{path}:{lineno}: bad value for {key!r}: {e}") from e
        setattr(args, key, value)
    return args


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
    except StorySortError as e:
        raise UsageError(str(e)) from e
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
            raise ValidationError(f"--{name.replace('_', '-')} {rule}, got {value}")
    cfg = TrainConfig(
        learning_rate=args.lr, epochs=args.epochs, batch_size=args.batch_size,
        seed=args.seed, l2=args.l2,
    )
    data_path = Path(args.data)
    train_stories = data_mod.load_dataset(data_path)
    inputs = [data_path]
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
        if val_stories and train_stories:
            got, want = (_feature_dims(s, args.use_image) for s in (val_stories, train_stories))
            if got != want:
                raise ValidationError(
                    f"--val {args.val} has {got}, but a {args.model} model trained on "
                    f"--data {data_path} reads {want}"
                )
    else:
        train_stories, val_stories = data_mod.split_dataset(train_stories, args.val_frac,
                                                            args.seed)
    # the report decodes every story, so check the size limit before training
    for n in {train_stories.n, val_stories.n}:
        models_mod.check_decodable(spec, n)
    model = spec.module.train(
        train_stories, cfg, use_image=args.use_image, hidden_units=args.hidden,
        **{name: getattr(args, name) for name in spec.train_args},
    )
    # the report is computed before the checkpoint is written: a model that
    # diverged fails the decoders' finiteness checks and leaves no file
    report = {
        "model": args.model,
        "train": _round6(_dataset_report(model, train_stories).to_json()),
        "val": _round6(_dataset_report(model, val_stories).to_json()) if val_stories else None,
    }
    models_mod.save_model(model, args.out)
    out = Path(args.out)
    write_manifest(out, args, inputs, [out], report, started)
    print(json.dumps(report))
    return 0


def cmd_sort(args: argparse.Namespace) -> int:
    started = time.monotonic()
    if args.topk < 1:
        raise UsageError(f"--topk must be >= 1, got {args.topk}")
    ckpt_paths = [Path(p) for p in args.ckpt]
    models = [_load_model(p) for p in ckpt_paths]
    stories = data_mod.load_dataset(Path(args.data))
    specs = [models_mod.spec_for(m) for m in models]
    topk = None if len(models) == 1 else args.topk
    if stories:
        for spec in specs:
            models_mod.check_decodable(spec, stories.n, topk)
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
    preds = {}
    try:
        with path.open("r", encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, 1):
                if not line.strip():
                    continue
                try:
                    record = json.loads(line)
                    story_id = json_value(record["story_id"], (str,), "story_id")
                    order = json_list(record["predicted_order"], (int,), "predicted_order")
                except (KeyError, TypeError, ValueError) as e:  # JSONDecodeError is a ValueError
                    raise ParseError(f"{path}:{lineno}: bad prediction record: {e}") from e
                if story_id in preds:
                    raise ParseError(f"{path}:{lineno}: repeated story_id {story_id!r}")
                preds[story_id] = order
    except UnicodeDecodeError as e:
        raise ParseError(f"{path}: not UTF-8 text: {e.reason}") from e
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
    p_train.add_argument("--epochs", type=int, default=None)
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
    p_sort.add_argument("--topk", type=int, default=ensemble_mod.DEFAULT_TOP_K)
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
