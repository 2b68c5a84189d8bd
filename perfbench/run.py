"""storysort benchmark: drives the CLI on synthetic workloads and checks its outputs.

Usage, from the repository root:

    python3 perfbench/run.py --workload pipeline-n5 --seed 1 --seconds 25 --trace 0

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`. With `--trace 0` the
metrics are the end-to-end ones in BENCHMARK.json; with `--trace 1` they
are the per-layer ones, from a run that also measures untraced passes so
the tracing overhead can be reported. The line before it holds details:
machine, host noise, per-model quality, prediction digests and failures.

Set-up runs SETUP_REPEATS times in fresh interpreters, spread across the
run, and `setup_s` is their median. The measured part repeats the
workload's CLI commands until `--seconds` have elapsed. Rates and `wall_s`
are totals over all passes of the run, divided once: host speed on small
shared machines swings by up to 40% over spans of seconds, and a ratio of
totals averages those swings more steadily than a median of per-pass
values.

The gated `spearman` and `pairwise_accuracy` are the means over every
predictions file the workload evaluates (each model, and the ensemble
where it runs); the per-model values are in the details.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

from tracing import SPANS, Tracer, percentile
from workloads import (
    ENSEMBLE,
    MODELS,
    SETUP_REPEATS,
    WORKLOADS,
    Ledger,
    Pass,
    run_setup,
    setup_outputs,
    sha256,
)

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".perfbench_work"

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "train_stories_per_s": "stories/s",
    "sort_stories_per_s": "stories/s",
    "peak_rss_mb": "MB",
    "spearman": "rho",
    "pairwise_accuracy": "frac",
}
LATENCY_NAMES = MODELS + (ENSEMBLE,)


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric name with its unit, in BENCHMARK.json order."""
    units = {}
    for span in SPANS:
        units[f"{span}.calls"] = "count"
        units[f"{span}.self_s"] = "s"
        units[f"{span}.p50_us"] = "us"
        units[f"{span}.p90_us"] = "us"
    for name in LATENCY_NAMES:
        units[f"latency.{name}.p50_ms"] = "ms"
        units[f"latency.{name}.p90_ms"] = "ms"
    units["trace.errors"] = "count"
    units["trace.overhead_s"] = "s"
    return units


def host_reference_s() -> float:
    """Seconds for a fixed pure-Python loop: a probe of host speed, not a metric."""
    start = time.perf_counter()
    total = 0
    for i in range(1_000_000):
        total += i * i
    return time.perf_counter() - start


def machine_details() -> dict:
    import numpy

    try:
        blas = numpy.__config__.CONFIG["Build Dependencies"]["blas"]
        blas_version = f"{blas['name']} {blas['version']}"
    except (AttributeError, KeyError, TypeError):
        blas_version = "unknown"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas_version,
        "platform": platform.platform(),
    }


def measure(make_pass, budget_s: float) -> list[dict[str, float]]:
    """Repeat passes until the budget is spent; at least one pass."""
    results: list[dict[str, float]] = []
    start = time.perf_counter()
    while True:
        results.append(make_pass().run())
        typical = statistics.median(sum(t.values()) for t in results)
        if time.perf_counter() - start + typical / 2 >= budget_s:
            return results


def command_series(passes: list[dict[str, float]]) -> dict[str, list[float]]:
    series: dict[str, list[float]] = {}
    for t in passes:
        for label, seconds in t.items():
            series.setdefault(label, []).append(seconds)
    return series


def throughput(wl, passes: list[dict[str, float]]) -> dict[str, float]:
    count = len(passes)
    series = command_series(passes)

    def total(kind: str, names) -> float:
        return sum(sum(series[f"{kind} {name}"]) for name in names)

    out = {
        "wall_s": sum(sum(v) for v in series.values()) / count,
        "train_stories_per_s": wl.train_stories * len(wl.trained) * count
        / total("train", wl.trained),
        "sort_stories_per_s": wl.heldout_stories * len(wl.sorted_models) * count
        / total("sort", wl.sorted_models),
    }
    if wl.ensemble:
        out["ensemble_stories_per_s"] = wl.heldout_stories * count / total("sort", [ENSEMBLE])
    return out


def latency_ms(run: Pass, ledger: Ledger) -> dict[str, list[float]]:
    """Per-story latency of each predictor by direct library calls on the held-out stories.

    Each library prediction must equal the line the CLI wrote for that story.
    """
    from storysort import cli, data, ensemble, npe, pairwise, unary

    predictors = {"unary": unary.predict, "pairwise": pairwise.predict, "npe": npe.predict}
    models = {m: cli._load_model(p) for m, p in run.checkpoints().items()}
    stories = data.load_dataset(run.heldout())
    names = run.wl.sorted_models + ((ENSEMBLE,) if run.wl.ensemble else ())
    samples: dict[str, list[float]] = {}
    for name in names:
        lines = (run.work_dir / f"pred_{name}.jsonl").read_text(encoding="utf-8").splitlines()
        expected = {r["story_id"]: r["predicted_order"] for r in map(json.loads, lines)}
        times, mismatched = [], 0
        for story in stories:
            start = time.perf_counter()
            if name == ENSEMBLE:
                pred = ensemble.ensemble_sort([models[m] for m in run.wl.sorted_models], story)
            else:
                pred = predictors[name](models[name], story)
            times.append((time.perf_counter() - start) * 1e3)
            mismatched += list(pred.positions) != expected.get(story.story_id)
        ledger.record(mismatched == 0, f"library {name}",
                      f"{mismatched} stories differ from the CLI predictions")
        samples[name] = times
    return samples


def span_metrics(tracer: Tracer, passes: int) -> dict[str, float]:
    out = {}
    for span in SPANS:
        st = tracer.stats[span]
        out[f"{span}.calls"] = st.calls / passes
        out[f"{span}.self_s"] = st.self_s / passes
        out[f"{span}.p50_us"] = percentile(st.durations, 50) * 1e6
        out[f"{span}.p90_us"] = percentile(st.durations, 90) * 1e6
    return out


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def run(args: argparse.Namespace, work: Path) -> tuple[dict, dict]:
    """Set up, measure and check one workload; returns the result and the details."""
    wl = WORKLOADS[args.workload]
    from storysort import cli

    ledger = Ledger()
    host_ref = [host_reference_s()]
    setup_dir = work / "setup-0"
    setup_times = [run_setup(wl, args.seed, setup_dir, SRC, ledger)]
    reference = [sha256(p) if p.exists() else None for p in setup_outputs(wl, setup_dir)]

    def setup_again() -> None:
        rep_dir = work / f"setup-{len(setup_times)}"
        setup_times.append(run_setup(wl, args.seed, rep_dir, SRC, ledger))
        again = [sha256(p) if p.exists() else None for p in setup_outputs(wl, rep_dir)]
        ledger.record(None not in reference and again == reference, "setup determinism",
                      f"{rep_dir.name} outputs differ from {setup_dir.name}")
        shutil.rmtree(rep_dir)

    heldout_path = setup_dir / "heldout.jsonl"
    heldout_ids = ([json.loads(line)["story_id"]
                    for line in heldout_path.read_text(encoding="utf-8").splitlines()]
                   if heldout_path.exists() else [])
    host_ref.append(host_reference_s())

    digests: dict[str, str] = {}
    reports: dict[str, dict] = {}

    def make_pass() -> Pass:
        return Pass(wl, args.seed, setup_dir, work / "pass", heldout_ids, cli.main,
                    ledger, digests, reports)

    details: dict = {}
    if args.trace:
        # Untraced and traced segments alternate so that both see the same
        # mix of host speed; their difference is the tracing overhead.
        tracer = Tracer()
        untraced, traced = [], []
        for segment in range(4):
            if segment % 2 == 0:
                untraced += measure(make_pass, args.seconds / 4)
                if segment == 0:
                    try:
                        samples = latency_ms(make_pass(), ledger)
                    except Exception as e:  # a broken library call is a failed check
                        ledger.record(False, "library latency", f"{type(e).__name__}: {e}")
                        samples = {}
                continue
            tracer.install()
            try:
                traced += measure(make_pass, args.seconds / 4)
            finally:
                tracer.uninstall()
        untraced_wall = throughput(wl, untraced)["wall_s"]
        traced_wall = throughput(wl, traced)["wall_s"]
        metrics = span_metrics(tracer, len(traced))
        for name in LATENCY_NAMES:
            metrics[f"latency.{name}.p50_ms"] = percentile(samples.get(name, []), 50)
            metrics[f"latency.{name}.p90_ms"] = percentile(samples.get(name, []), 90)
        metrics["trace.errors"] = sum(st.errors for st in tracer.stats.values())
        metrics["trace.overhead_s"] = traced_wall - untraced_wall
        units = per_layer_units()
        details.update({
            "passes": {"untraced": len(untraced), "traced": len(traced)},
            "wall_s": {"untraced": untraced_wall, "traced": traced_wall},
            "latency_samples": {name: len(t) for name, t in samples.items()},
            "self_share_pct": {
                span: round(100 * tracer.stats[span].self_s / len(traced) / traced_wall, 2)
                for span in sorted(SPANS, key=lambda s: -tracer.stats[s].self_s)
            },
            "spans_missing": tracer.missing,
        })
    else:
        # Set-up repeats are spread across the run so that their median,
        # like the passes, samples the host's speed over the whole run.
        passes = []
        for segment in range(SETUP_REPEATS):
            if segment:
                setup_again()
            passes += measure(make_pass, args.seconds / SETUP_REPEATS)
        rates = throughput(wl, passes)
        names = list(reports)
        metrics = {
            "setup_s": statistics.median(setup_times),
            "wall_s": rates["wall_s"],
            "train_stories_per_s": rates["train_stories_per_s"],
            "sort_stories_per_s": rates["sort_stories_per_s"],
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "spearman": statistics.fmean(reports[m].get("spearman", 0.0) for m in names),
            "pairwise_accuracy": statistics.fmean(
                reports[m].get("pairwise_accuracy", 0.0) for m in names),
        }
        units = END_TO_END_UNITS
        details["passes"] = len(passes)
        details["command_s"] = command_series(passes)
        details["all_metrics"] = {
            **{k: metrics[k] for k in ("setup_s", "wall_s", "train_stories_per_s",
                                       "sort_stories_per_s")},
            **({"ensemble_stories_per_s": rates["ensemble_stories_per_s"]}
               if wl.ensemble else {}),
            "peak_rss_mb": metrics["peak_rss_mb"],
            "failed_frac": ledger.failed / max(ledger.attempted, 1),
            **{f"spearman.{m}": reports[m].get("spearman") for m in names},
            **{f"pairwise_accuracy.{m}": reports[m].get("pairwise_accuracy") for m in names},
        }
    host_ref.append(host_reference_s())
    details.update({
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "setup_s_samples": setup_times,
        "host_ref_s": {"median": statistics.median(host_ref), "samples": host_ref},
        "machine": machine_details(),
        "predictions_sha256": digests,
        "failures": ledger.failures,
    })
    result = {
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }
    return result, details


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (SRC / "storysort" / "cli.py").is_file():
        print(f"error: storysort sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    work = WORK_ROOT / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        result, details = run(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:
            pass
    print(json.dumps({"details": details}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
