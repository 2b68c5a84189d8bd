"""Checks of the benchmark itself; run with `python3 -m pytest perfbench/span_check.py`.

The file name keeps it out of the repository's default test collection:
each traced workload run takes several seconds.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import pytest

import run
from tracing import SPANS, Tracer

ENUMERATION = ("pairwise.decode_pairwise", "pairwise.rank_permutations",
               "assign.topk_assignments")
TRAINING = ("neural.sgd_train", "unary.train_unary", "pairwise.train_pairwise",
            "npe.train_npe")

# Spans that must fire on the workload chosen to move them.
EXPECTED = {
    "pipeline-n5": tuple(SPANS),
    "train-n4": TRAINING,
    "decode-n7": ENUMERATION + ("assign.hungarian_max-via-ensemble",
                                "ensemble.accumulate_votes", "ensemble.ensemble_sort"),
    "unary-n16": ("assign.hungarian_max-via-unary", "neural.sgd_train",
                  "unary.train_unary", "data.generate_synthetic", "data.save_dataset",
                  "data.load_dataset"),
}


def test_benchmark_json_names_match_the_harness():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.per_layer_units()


def test_install_wraps_every_binding_and_uninstall_restores():
    sys.path.insert(0, str(run.SRC))
    import storysort.cli  # noqa: F401  loads every module the CLI uses
    from storysort import assign, ensemble, unary

    modules = [m for name, m in sys.modules.items()
               if m is not None and (name == "storysort" or name.startswith("storysort."))]
    originals = {id(getattr(sys.modules[f"storysort.{t.split('.')[0]}"], t.split(".")[1]))
                 for t in SPANS.values()}
    hungarian = assign.hungarian_max
    tracer = Tracer()
    tracer.install()
    try:
        assert tracer.missing == []
        unwrapped = [(m.__name__, name) for m in modules
                     for name, value in vars(m).items() if id(value) in originals]
        assert unwrapped == []
        assert ensemble.hungarian_max is not unary.hungarian_max
    finally:
        tracer.uninstall()
    assert assign.hungarian_max is hungarian and unary.hungarian_max is hungarian


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    """One short traced run per workload: result line, details line."""
    results = {}
    for name in run.WORKLOADS:
        args = argparse.Namespace(workload=name, seed=7, seconds=1.0, trace=1)
        work = Path(tmp_path_factory.mktemp(name))
        results[name] = run.run(args, work / "run")
    return results


@pytest.mark.parametrize("workload", list(run.WORKLOADS))
def test_spans_fire_on_their_workload(traced, workload):
    result, details = traced[workload]
    assert result["correct"] and result["failed"] == 0, details["failures"]
    assert set(result["metrics"]) == set(run.per_layer_units())
    silent = [s for s in EXPECTED[workload] if result["metrics"][f"{s}.calls"]["value"] == 0]
    assert silent == []


def test_shares_match_why_each_workload_was_chosen(traced):
    def share(workload, spans):
        return sum(traced[workload][1]["self_share_pct"][s] for s in spans)

    assert share("decode-n7", ENUMERATION) > 50
    for workload, top in (("unary-n16", "assign.hungarian_max-via-unary"),
                          ("train-n4", "neural.sgd_train")):
        shares = traced[workload][1]["self_share_pct"]
        assert max(shares, key=shares.get) == top
    unary_metrics = traced["unary-n16"][0]["metrics"]
    assert all(unary_metrics[f"{s}.calls"]["value"] == 0 for s in ENUMERATION)
