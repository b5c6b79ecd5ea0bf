"""Span recorder and the in-process traced run of the CLI chain.

The recorder wraps the public functions and methods of the package's library
modules from outside, so the package itself carries no tracing code. Each
span keeps its name, start, end, the id of the span that called it and the
thread it ran on; every thread has its own span stack, so spans opened on a
worker thread never interleave with the caller's stack (they become roots of
their own thread). Per-pair and per-row calls are left unwrapped, so the
recorder costs a few microseconds per batch-level call. Spans stay in memory
and are written out once, when the run ends.
"""

from __future__ import annotations

import contextlib
import functools
import io
import itertools
import json
import statistics
import sys
import threading
import time
import traceback
import types
from collections import defaultdict
from dataclasses import asdict, dataclass, field
from pathlib import Path

LAYERS = ("dataset", "kernel", "matcher", "augment", "model", "evaluation", "probe")
# called once per pair or per row: wrapping them would cost more than the work
NOT_WRAPPED = {
    "kernel.gower_similarity",
    "matcher.estimate_label",
    "evaluation.classify",
    "dataset.Sample.get",
    "dataset.Sample.has",
}

COUNTERS = {
    "dataset.load_dataset": lambda args, result: {"rows": len(result)},
    "dataset.write_dataset": lambda args, result: {"rows": len(args[0])},
    "dataset.atomic_write_text": lambda args, result: {"bytes": len(args[1].encode("utf-8"))},
    "model.train_logistic": lambda args, result: {"n_iter": result.n_iter},
    "probe.probability_grid": lambda args, result: {
        "points": len(result.x_values) * len(result.y_values)
    },
    "probe.similarity_shell": lambda args, result: {"draws": len(result)},
}


@dataclass
class Span:
    id: int
    name: str
    parent: int | None
    thread: int
    start: float
    end: float = 0.0
    counters: dict = field(default_factory=dict)


class Recorder:
    def __init__(self):
        self.spans: list[Span] = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self._ids = itertools.count(1)

    def _stack(self) -> list[Span]:
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    @contextlib.contextmanager
    def span(self, name: str):
        stack = self._stack()
        with self._lock:
            span_id = next(self._ids)
        span = Span(span_id, name, stack[-1].id if stack else None, threading.get_ident(),
                    time.perf_counter())
        stack.append(span)
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            stack.pop()
            with self._lock:
                self.spans.append(span)

    def wrap(self, name: str, fn):
        count = COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name) as span:
                result = fn(*args, **kwargs)
            if count is not None:
                span.counters.update(count(args, result))
            return result

        return traced

    def install(self) -> None:
        """Wrap every public function and method of the library modules, wherever bound."""
        replaced = {}
        for layer in LAYERS:
            module = sys.modules[f"simlabel.{layer}"]
            for attr, value in list(vars(module).items()):
                name = f"{layer}.{attr}"
                if attr.startswith("_") or getattr(value, "__module__", None) != module.__name__:
                    continue
                if isinstance(value, types.FunctionType) and name not in NOT_WRAPPED:
                    replaced[value] = self.wrap(name, value)
                elif isinstance(value, type):
                    for method_name, method in list(vars(value).items()):
                        full = f"{name}.{method_name}"
                        if (isinstance(method, types.FunctionType) and not method_name.startswith("_")
                                and full not in NOT_WRAPPED):
                            setattr(value, method_name, self.wrap(full, method))
        # `from .x import f` binds f in the importing module too
        for module_name, module in list(sys.modules.items()):
            if module_name == "simlabel" or module_name.startswith("simlabel."):
                for attr, value in list(vars(module).items()):
                    if isinstance(value, types.FunctionType) and value in replaced:
                        setattr(module, attr, replaced[value])

    def self_times(self) -> dict[int, float]:
        """Each span's duration minus the time its child spans cover.

        Children of one span run on its thread, one after another, so the time
        they cover is the sum of their durations. Raises if a span does not
        nest inside its parent.
        """
        by_id = {span.id: span for span in self.spans}
        covered: dict[int, float] = defaultdict(float)
        for span in self.spans:
            if span.parent is None:
                continue
            parent = by_id[span.parent]
            if parent.thread != span.thread or not parent.start <= span.start <= span.end <= parent.end:
                raise RuntimeError(f"span {span.name} does not nest inside {parent.name}")
            covered[span.parent] += span.end - span.start
        return {span.id: span.end - span.start - covered[span.id] for span in self.spans}

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for span in sorted(self.spans, key=lambda s: s.start):
                fh.write(json.dumps(asdict(span)) + "\n")


def run_chain(main, argvs: dict[str, list[str]], recorder: Recorder | None = None):
    """Run each command's argv through simlabel.cli.main; returns (wall seconds, exit codes)."""
    codes = {}
    start = time.perf_counter()
    for command, argv in argvs.items():
        scope = recorder.span(f"cli.{command}") if recorder else contextlib.nullcontext()
        with scope, contextlib.redirect_stdout(io.StringIO()):
            try:
                codes[command] = main(argv)
            except Exception:
                traceback.print_exc()
                codes[command] = -1
    return time.perf_counter() - start, codes


def gower_us_per_pair(simlabel, out: Path, inputs: dict, repeats: int = 5) -> float:
    """Median time of one gower_similarity call over a fixed list of the workload's pairs.

    The pairs are the first 50 train rows against the first 200 pool rows, so
    pool rows with missing cells are included.
    """
    schema = simlabel.load_schema(inputs["schema"])
    train = simlabel.load_dataset(out / "train.csv", schema).rows[:50]
    pool = simlabel.load_dataset(inputs["unlabeled"], schema).rows[:200]
    ranges = simlabel.kernel.load_range_table(out / "ranges.json")
    pairs = [(a, b) for a in train for b in pool]
    gower = simlabel.gower_similarity
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        for a, b in pairs:
            gower(a, b, ranges)
        times.append((time.perf_counter() - start) / len(pairs))
    return statistics.median(times) * 1e6


def layer_metrics(recorder: Recorder, traced_wall: float) -> dict[str, float]:
    """Self time per span name and per layer, the counters, and unattributed time."""
    own = recorder.self_times()
    by_name: dict[str, float] = defaultdict(float)
    by_layer: dict[str, float] = defaultdict(float)
    totals: dict[str, float] = defaultdict(float)
    counts: dict[str, int] = defaultdict(int)
    fits = 0
    for span in sorted(recorder.spans, key=lambda s: s.start):
        name = span.name
        if name == "model.train_logistic":
            # `train` fits the plain model first, then the augmented one
            name += ".augmented" if fits else ".plain"
            fits += 1
        by_name[name] += own[span.id]
        by_layer[span.name.split(".")[0]] += own[span.id]
        totals[name] += span.end - span.start
        for key, value in span.counters.items():
            counts[f"{name}.{key}"] += value
    main_thread = threading.get_ident()
    roots = sum(s.end - s.start for s in recorder.spans if s.parent is None and s.thread == main_thread)
    metrics = {f"{name}.self_s": value for name, value in by_name.items()}
    metrics.update({f"{layer}.self_s": value for layer, value in by_layer.items()})
    metrics.update(counts)
    metrics["probe.grid_points_per_s"] = (
        counts["probe.probability_grid.points"] / totals["probe.probability_grid"]
    )
    metrics["probe.shell_draws_per_s"] = (
        counts["probe.similarity_shell.draws"] / totals["probe.similarity_shell"]
    )
    metrics["trace.unattributed_s"] = traced_wall - roots
    metrics["trace.spans"] = len(recorder.spans)
    return metrics
