"""In-memory spans around the public functions of each storysort module.

The benchmark patches every module-level binding of each traced function
with a timing wrapper, so `src/` needs no instrumentation. A function
imported by name into another module (``from .assign import hungarian_max``)
is a separate binding there, and patching only the defining module would
record nothing for calls made through it; `Tracer.install` therefore
wraps the function in every loaded ``storysort`` module that binds it.

A span's self time is its duration minus the time covered by the spans it
called directly.
"""

from __future__ import annotations

import functools
import statistics
import sys
import time
from dataclasses import dataclass, field

# Span name -> "module.function" it times. A name ending in "-via-caller"
# times only the calls made through that module's own binding.
SPANS = {
    "cli.generate": "cli.cmd_generate",
    "cli.train": "cli.cmd_train",
    "cli.sort": "cli.cmd_sort",
    "cli.eval": "cli.cmd_eval",
    "cli.write_manifest": "cli.write_manifest",
    "data.generate_synthetic": "data.generate_synthetic",
    "data.save_dataset": "data.save_dataset",
    "data.load_dataset": "data.load_dataset",
    "neural.sgd_train": "neural.sgd_train",
    "neural.mlp_forward": "neural.mlp_forward",
    "unary.train_unary": "unary.train_unary",
    "unary.position_probs": "unary.position_probs",
    "pairwise.train_pairwise": "pairwise.train_pairwise",
    "pairwise.pair_scores": "pairwise.pair_scores",
    "pairwise.decode_pairwise": "pairwise.decode_pairwise",
    "pairwise.rank_permutations": "pairwise.rank_permutations",
    "npe.train_npe": "npe.train_npe",
    "npe.npe_scores": "npe.npe_scores",
    "assign.hungarian_max-via-unary": "assign.hungarian_max",
    "assign.hungarian_max-via-ensemble": "assign.hungarian_max",
    "assign.topk_assignments": "assign.topk_assignments",
    "ensemble.accumulate_votes": "ensemble.accumulate_votes",
    "ensemble.ensemble_sort": "ensemble.ensemble_sort",
    "metrics.score_story": "metrics.score_story",
    "metrics.confusion": "metrics.confusion",
    "metrics.aggregate": "metrics.aggregate",
}

PACKAGE = "storysort"


def percentile(values: list[float], q: int) -> float:
    """q-th percentile of the values; 0 when there are none."""
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


@dataclass
class SpanStats:
    calls: int = 0
    errors: int = 0
    self_s: float = 0.0
    durations: list[float] = field(default_factory=list)


class Tracer:
    """Collects span statistics while installed; `uninstall` restores every binding."""

    def __init__(self) -> None:
        self.stats: dict[str, SpanStats] = {name: SpanStats() for name in SPANS}
        self.missing: list[str] = []
        self._child_time: list[float] = []
        self._restore: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn):
        stats = self.stats.setdefault(name, SpanStats())
        stack = self._child_time

        @functools.wraps(fn)
        def span(*args, **kwargs):
            stack.append(0.0)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                stats.errors += 1
                raise
            finally:
                duration = time.perf_counter() - start
                children = stack.pop()
                if stack:
                    stack[-1] += duration
                stats.calls += 1
                stats.self_s += duration - children
                stats.durations.append(duration)

        return span

    def install(self) -> None:
        modules = {
            name.rpartition(".")[2]: mod
            for name, mod in list(sys.modules.items())
            if mod is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
        }
        spans_by_target: dict[str, dict[str | None, str]] = {}
        for span, target in SPANS.items():
            _, _, caller = span.partition("-via-")
            spans_by_target.setdefault(target, {})[caller or None] = span
        for target, spans in spans_by_target.items():
            mod_name, attr = target.split(".")
            original = getattr(modules.get(mod_name), attr, None)
            if original is None:
                self.missing.append(target)
                continue
            for binder_name, binder in modules.items():
                for name, value in list(vars(binder).items()):
                    if value is not original:
                        continue
                    span = spans.get(binder_name) or spans.get(None)
                    if span is None:
                        span = f"{target}-via-{binder_name}"
                    setattr(binder, name, self.wrap(span, original))
                    self._restore.append((binder, name, original))

    def uninstall(self) -> None:
        for module, name, original in reversed(self._restore):
            setattr(module, name, original)
        self._restore.clear()
