"""Workload definitions, set-up, and one timed pass of CLI commands.

Every workload generates one planted-signal dataset from the workload
seed and splits its lines: the first `train_stories` lines train, the
rest are held out and sorted. Taking both from one `generate` keeps the
planted direction shared, so held-out quality is meaningful.

Timed commands run in this process through `storysort.cli.main`; set-up
commands run as `python3 -m storysort ...` in fresh interpreters, so
set-up time includes interpreter start and package import.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

MODELS = ("unary", "pairwise", "npe")
ENSEMBLE = "ensemble"

# Held-out quality floors on monotone data; every model clears them by a
# wide margin at every n used here (unary at n=16 is the lowest, ~0.9).
SPEARMAN_FLOOR = 0.8
PAIRWISE_ACCURACY_FLOOR = 0.8

SETUP_REPEATS = 3
SETUP_COMMAND_TIMEOUT_S = 120


@dataclass(frozen=True)
class Workload:
    n: int
    train_stories: int
    heldout_stories: int
    trained: tuple[str, ...]
    """Models trained by timed `train` commands on the training split."""
    setup_trained: tuple[str, ...] = ()
    """Models trained during set-up on the first `setup_train_stories` lines."""
    setup_train_stories: int = 0
    ensemble: bool = True
    generate_timed: bool = True

    @property
    def sorted_models(self) -> tuple[str, ...]:
        return tuple(m for m in MODELS if m in self.trained or m in self.setup_trained)


# Why each workload exists is recorded in BENCHMARK.json. The sizes keep
# one pass at a few seconds, so a run averages several passes.
WORKLOADS = {
    "pipeline-n5": Workload(n=5, train_stories=120, heldout_stories=60, trained=MODELS),
    "train-n4": Workload(n=4, train_stories=300, heldout_stories=30, trained=MODELS),
    "decode-n7": Workload(
        n=7, train_stories=400, heldout_stories=5, trained=("unary",),
        setup_trained=("pairwise", "npe"), setup_train_stories=3,
        generate_timed=False,
    ),
    "unary-n16": Workload(
        n=16, train_stories=100, heldout_stories=50, trained=("unary",), ensemble=False,
    ),
}


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@dataclass
class Ledger:
    """Counts attempted and failed operations; keeps the first failure messages."""

    attempted: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)

    def record(self, ok: bool, what: str, detail: str = "") -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(f"{what}: {detail}".strip())
        return ok


def split_lines(data: Path, out_dir: Path, wl: Workload) -> None:
    """Write train.jsonl and heldout.jsonl (and setup_train.jsonl) from one dataset."""
    lines = data.read_text(encoding="utf-8").splitlines(keepends=True)
    train = lines[:wl.train_stories]
    (out_dir / "train.jsonl").write_text("".join(train), encoding="utf-8")
    (out_dir / "heldout.jsonl").write_text("".join(lines[wl.train_stories:]), encoding="utf-8")
    if wl.setup_trained:
        (out_dir / "setup_train.jsonl").write_text(
            "".join(train[:wl.setup_train_stories]), encoding="utf-8")


def generate_argv(wl: Workload, seed: int, out: Path) -> list[str]:
    return ["generate", "--stories", str(wl.train_stories + wl.heldout_stories),
            "--n", str(wl.n), "--seed", str(seed), "--out", str(out)]


def train_argv(model: str, data: Path, out: Path, seed: int) -> list[str]:
    return ["train", "--model", model, "--data", str(data), "--out", str(out),
            "--seed", str(seed)]


def run_setup(wl: Workload, seed: int, rep_dir: Path, src: Path, ledger: Ledger) -> float:
    """Prepare the workload's inputs in fresh interpreters; returns elapsed seconds."""
    rep_dir.mkdir(parents=True)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    data = rep_dir / "data.jsonl"

    def storysort(argv: list[str]) -> None:
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "storysort", *argv], env=env,
                capture_output=True, text=True, timeout=SETUP_COMMAND_TIMEOUT_S,
            )
        except subprocess.TimeoutExpired:
            ledger.record(False, f"setup {argv[0]}", "timed out")
            return
        ledger.record(proc.returncode == 0, f"setup {argv[0]}",
                      f"exit {proc.returncode}: {proc.stderr.strip()[-300:]}")

    start = time.perf_counter()
    storysort(generate_argv(wl, seed, data))
    if data.exists():
        split_lines(data, rep_dir, wl)
        for model in wl.setup_trained:
            storysort(train_argv(model, rep_dir / "setup_train.jsonl",
                                 rep_dir / f"{model}.ckpt", seed))
    return time.perf_counter() - start


def setup_outputs(wl: Workload, rep_dir: Path) -> list[Path]:
    return [rep_dir / "data.jsonl"] + [rep_dir / f"{m}.ckpt" for m in wl.setup_trained]


def run_cli(cli_main, argv: list[str], ledger: Ledger) -> float:
    """Run one CLI command in-process; returns its wall seconds."""
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli_main(argv)
        detail = f"exit {code}: {err.getvalue().strip()[-300:]}"
    except Exception as e:  # a traceback is a failed command, not a crashed benchmark
        code, detail = None, f"raised {type(e).__name__}: {e}"
    elapsed = time.perf_counter() - start
    ledger.record(code == 0, argv[0], detail)
    return elapsed


def check_predictions(path: Path, heldout_ids: list[str], n: int) -> str:
    """Empty string when the file holds exactly one permutation per held-out id."""
    if not path.exists():
        return "missing predictions file"
    seen: set[str] = set()
    for lineno, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1):
        try:
            record = json.loads(line)
            story_id, order = str(record["story_id"]), record["predicted_order"]
        except (json.JSONDecodeError, KeyError, TypeError) as e:
            return f"line {lineno}: {e}"
        if story_id in seen:
            return f"duplicate story_id {story_id}"
        seen.add(story_id)
        if not isinstance(order, list) or sorted(order) != list(range(n)):
            return f"{story_id}: not a permutation of 0..{n - 1}: {order}"
    if seen != set(heldout_ids):
        return f"{len(seen)} ids predicted, {len(set(heldout_ids) - seen)} held-out ids missing"
    return ""


def check_report(path: Path, count: int) -> tuple[str, dict]:
    """Empty string and the report when `eval` scored every story above the floors."""
    try:
        report = json.loads(path.read_text(encoding="utf-8"))["report"]
        spearman, accuracy = report["spearman"], report["pairwise_accuracy"]
    except (OSError, json.JSONDecodeError, KeyError, TypeError) as e:
        return f"unreadable report: {e}", {}
    if report.get("story_count") != count:
        return f"scored {report.get('story_count')} of {count} stories", report
    if spearman < SPEARMAN_FLOOR or accuracy < PAIRWISE_ACCURACY_FLOOR:
        return f"quality below floor: spearman {spearman}, accuracy {accuracy}", report
    return "", report


@dataclass
class Pass:
    """One timed pass over the workload's commands and what it produced."""

    wl: Workload
    seed: int
    setup_dir: Path
    work_dir: Path
    heldout_ids: list[str]
    cli_main: Callable[[list[str]], int]
    ledger: Ledger
    digests: dict[str, str] = field(default_factory=dict)
    reports: dict[str, dict] = field(default_factory=dict)

    def checkpoints(self) -> dict[str, Path]:
        return {m: (self.work_dir if m in self.wl.trained else self.setup_dir) / f"{m}.ckpt"
                for m in self.wl.sorted_models}

    def heldout(self) -> Path:
        base = self.work_dir if self.wl.generate_timed else self.setup_dir
        return base / "heldout.jsonl"

    def run(self) -> dict[str, float]:
        """Seconds of each CLI command of the pass, keyed "<command> <model>"."""
        wl, times, ledger = self.wl, {}, self.ledger
        self.work_dir.mkdir(parents=True, exist_ok=True)

        def cli(label: str, argv: list[str]) -> None:
            times[label] = run_cli(self.cli_main, argv, ledger)

        if wl.generate_timed:
            data = self.work_dir / "data.jsonl"
            cli("generate", generate_argv(wl, self.seed, data))
            same = data.exists() and sha256(data) == sha256(self.setup_dir / "data.jsonl")
            if ledger.record(same, "dataset", "differs from the set-up dataset"):
                split_lines(data, self.work_dir, wl)
        train_data = (self.work_dir if wl.generate_timed else self.setup_dir) / "train.jsonl"
        for model in wl.trained:
            cli(f"train {model}",
                train_argv(model, train_data, self.work_dir / f"{model}.ckpt", self.seed))
        ckpts = self.checkpoints()
        for name in wl.sorted_models + ((ENSEMBLE,) if wl.ensemble else ()):
            members = wl.sorted_models if name == ENSEMBLE else (name,)
            pred = self.work_dir / f"pred_{name}.jsonl"
            argv = ["sort"]
            for m in members:
                argv += ["--ckpt", str(ckpts[m])]
            cli(f"sort {name}", argv + ["--data", str(self.heldout()), "--out", str(pred)])
            self._check_predictions(name, pred)
            report_path = self.work_dir / f"eval_{name}.json"
            cli(f"eval {name}", ["eval", "--pred", str(pred), "--data", str(self.heldout()),
                                 "--out", str(report_path)])
            problem, report = check_report(report_path, len(self.heldout_ids))
            ledger.record(not problem, f"quality {name}", problem)
            self.reports[name] = report
        return times

    def _check_predictions(self, name: str, pred: Path) -> None:
        problem = check_predictions(pred, self.heldout_ids, self.wl.n)
        if not self.ledger.record(not problem, f"predictions {name}", problem):
            return
        digest = sha256(pred)
        first = self.digests.setdefault(name, digest)
        self.ledger.record(digest == first, f"digest {name}",
                           "predictions differ between passes of one run")
