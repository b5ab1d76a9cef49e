"""Span recorder that times flowbalance's modules from outside.

``Recorder.install`` replaces the functions and methods that callers look
up (``flowbalance.harness.fit_model`` is reached through the name
``fit_model`` in the harness module, a tree fit through ``fit_tree`` in
the trees module, and so on) with wrappers that open a span around the
call and add to counters. ``uninstall`` puts every original back. Nothing
under ``src/`` is edited.

A span is (name, start, end, parent). Spans stay in memory and are written
out once, after the run. A span's self time is its duration minus the
durations of its child spans; wrapped calls run on one thread and nest
strictly, so the children never overlap.
"""

from __future__ import annotations

import functools
import importlib
import json
import math
import time
from collections import Counter
from contextlib import contextmanager
from pathlib import Path

# Module names whose self times are reported, in pipeline order.
MODULES = ("dataset", "neighbors", "oversample", "mixtures", "nets", "gan", "trees", "evaluate", "svg")
OVERSAMPLERS = ("smote", "borderline", "smote_enn", "smote_tomek", "adasyn")
TREE_KINDS = ("tree", "forest", "boost")
ROOT_SPAN = "harness.run_experiment"

# Every per-layer metric: name -> unit. A name ending in "_s" is the
# inclusive time of its span, "_calls" the span count; "self_s" excludes
# child spans.
PER_LAYER = {
    "dataset.generate_flows_s": "s",
    "dataset.rows_generated": "count",
    "neighbors.knn_table_s": "s",
    "neighbors.knn_table_calls": "count",
    "neighbors.knn_table_pairs": "count",
    **{f"oversample.{m}_s": "s" for m in OVERSAMPLERS},
    "oversample.enn_s": "s",
    "oversample.enn_pairs": "count",
    "oversample.enn_removed": "count",
    "oversample.tomek_s": "s",
    "oversample.tomek_rounds": "count",
    "oversample.tomek_pairs": "count",
    "oversample.tomek_removed": "count",
    "oversample.tomek_yield": "rows/query",
    "oversample.synthetic_rows": "count",
    "oversample.kept_synthetic_rows": "count",
    "mixtures.select_mixture_s": "s",
    "mixtures.fit_mixture_calls": "count",
    "mixtures.em_iters": "count",
    "nets.forward_s": "s",
    "nets.forward_calls": "count",
    "nets.backward_s": "s",
    "nets.backward_calls": "count",
    "nets.sgd_step_s": "s",
    "nets.head_s": "s",
    "gan.train_gan_s": "s",
    "gan.train_ctgan_s": "s",
    "gan.loop_self_s": "s",
    "gan.steps": "count",
    "gan.sample_s": "s",
    "gan.sampled_rows": "count",
    **{f"trees.fit_{k}_s": "s" for k in TREE_KINDS},
    **{f"trees.fit_{k}_calls": "count" for k in TREE_KINDS},
    "trees.rows_fitted": "count",
    "trees.nodes": "count",
    "trees.grid_search_s": "s",
    "trees.predict_s": "s",
    "trees.predict_rows": "count",
    "evaluate.cross_val_f1_s": "s",
    "evaluate.tsne_s": "s",
    "evaluate.tsne_points": "count",
    "evaluate.ks_report_s": "s",
    "evaluate.f1_score_s": "s",
    "evaluate.write_csv_s": "s",
    "evaluate.write_csv_rows": "count",
    "svg.chart_s": "s",
    **{f"{m}.self_s": "s" for m in MODULES},
    "harness.self_s": "s",
    "harness.wall_s": "s",
    "harness.cpu_s": "s",
    "harness.cells": "count",
    "harness.artifact_files": "count",
    "harness.artifact_bytes": "bytes",
}


def _arg(args: tuple, kwargs: dict, pos: int, name: str):
    return args[pos] if len(args) > pos else kwargs[name]


# Counters: (counts, args, kwargs, result) -> None, run after a call returns.

def _rows_generated(c, a, k, data):
    c["dataset.rows_generated"] += data.n


def _knn_pairs(c, a, k, _):
    view, queries, scope = a[0], _arg(a, k, 1, "query_indices"), _arg(a, k, 3, "scope")
    c["neighbors.knn_table_pairs"] += len(queries) * view.scope_indices(scope).size


def _augmented(c, a, k, aug):
    method = _arg(a, k, 0, "method")
    c["oversample.synthetic_rows"] += aug.synthetic.shape[0]
    c["oversample.kept_synthetic_rows"] += int(aug.synthetic_kept.sum())
    removed = int((~aug.base_kept).sum() + (~aug.synthetic_kept).sum())
    if method == "smote_enn":
        c["oversample.enn_removed"] += removed
    elif method == "smote_tomek":
        c["oversample.tomek_removed"] += removed


def _enn_pairs(c, a, k, _):
    n = _arg(a, k, 0, "scaled").shape[0]
    c["oversample.enn_pairs"] += n * n


def _tomek_round(c, a, k, _):
    alive = int(_arg(a, k, 2, "alive").sum())
    c["oversample.tomek_pairs"] += alive * alive
    c["oversample.tomek_queries"] += alive


def _em_iters(c, a, k, mix):
    c["mixtures.em_iters"] += len(mix.loglik_trace) - 1  # last entry is the final fit


def _gan_steps(c, a, k, _):
    n = _arg(a, k, 0, "encoded").shape[0]
    config = _arg(a, k, 4, "config")
    c["gan.steps"] += config.epochs * max(1, -(-n // config.batch_size))


def _sampled(c, a, k, _):
    c["gan.sampled_rows"] += _arg(a, k, 1, "n")


def _fitted(c, a, k, model):
    c["trees.rows_fitted"] += _arg(a, k, 0, "features").shape[0]
    flat = [model.tree] if hasattr(model, "tree") else model.trees
    c["trees.nodes"] += sum(t.n_nodes for t in flat)


def _predicted(c, a, k, _):
    c["trees.predict_rows"] += _arg(a, k, 1, "features").shape[0]


def _tsne_points(c, a, k, _):
    c["evaluate.tsne_points"] += _arg(a, k, 0, "features").shape[0]


def _csv_rows(c, a, k, _):
    c["evaluate.write_csv_rows"] += len(_arg(a, k, 2, "rows"))


def _dispatch_name(a, k):
    return f"oversample.{_arg(a, k, 0, 'method')}"


# (module, class or None, attribute, span name, counter)
TARGETS = (
    ("harness", None, "generate_flows", "dataset.generate_flows", _rows_generated),
    ("oversample", None, "knn_table", "neighbors.knn_table", _knn_pairs),
    ("harness", None, "oversample", _dispatch_name, _augmented),
    ("oversample", None, "enn_misclassified", "oversample.enn", _enn_pairs),
    ("oversample", None, "tomek_links", "oversample.tomek", _tomek_round),
    ("mixtures", None, "select_mixture", "mixtures.select_mixture", None),
    ("mixtures", None, "fit_mixture", "mixtures.fit_mixture", _em_iters),
    ("nets", "FeedforwardNet", "forward", "nets.forward", None),
    ("nets", "FeedforwardNet", "backward", "nets.backward", None),
    ("nets", "SgdMomentum", "step", "nets.sgd_step", None),
    ("nets", "MixedActivation", "forward", "nets.head", None),
    ("nets", "MixedActivation", "backward", "nets.head", None),
    ("harness", None, "train_gan", "gan.train_gan", None),
    ("harness", None, "train_ctgan", "gan.train_ctgan", None),
    ("gan", None, "_adversarial_loop", "gan.loop", _gan_steps),
    ("gan", "GeneratorModel", "sample", "gan.sample", _sampled),
    ("trees", None, "fit_tree", "trees.fit_tree", _fitted),
    ("trees", None, "fit_forest", "trees.fit_forest", _fitted),
    ("trees", None, "fit_boost", "trees.fit_boost", _fitted),
    ("harness", None, "grid_search", "trees.grid_search", None),
    ("trees", "DecisionTree", "predict", "trees.predict", _predicted),
    ("trees", "RandomForest", "predict", "trees.predict", _predicted),
    ("trees", "GradientBoost", "predict", "trees.predict", _predicted),
    ("evaluate", None, "cross_val_f1", "evaluate.cross_val_f1", None),
    ("harness", None, "tsne", "evaluate.tsne", _tsne_points),
    ("harness", None, "ks_report", "evaluate.ks_report", None),
    ("harness", None, "f1_score", "evaluate.f1_score", None),
    ("evaluate", None, "f1_score", "evaluate.f1_score", None),
    ("harness", None, "write_csv", "evaluate.write_csv", _csv_rows),
    ("evaluate", None, "write_csv", "evaluate.write_csv", _csv_rows),
    ("harness", None, "line_chart", "svg.chart", None),
    ("harness", None, "scatter_chart", "svg.chart", None),
)


class Recorder:
    """In-memory spans and counters, plus the wrappers that produce them."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names: list[str] = []
        self.parents: list[int] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.counts: Counter = Counter()
        self._open: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def begin(self, name: str) -> int:
        sid = len(self.names)
        self.names.append(name)
        self.parents.append(self._open[-1] if self._open else -1)
        self.ends.append(math.nan)
        self._open.append(sid)
        self.starts.append(self.clock())
        return sid

    def end(self, sid: int) -> None:
        self.ends[sid] = self.clock()
        self._open.pop()

    @contextmanager
    def span(self, name: str):
        sid = self.begin(name)
        try:
            yield
        finally:
            self.end(sid)

    # -- wrapping ----------------------------------------------------------

    def wrap(self, owner, attr: str, name, count=None) -> None:
        """Replace ``owner.attr`` by a spanned call; ``name`` may be a
        function of (args, kwargs) for dispatchers."""
        original = owner.__dict__[attr]
        begin, end, counts = self.begin, self.end, self.counts

        @functools.wraps(original)
        def spanned(*args, **kwargs):
            sid = begin(name(args, kwargs) if callable(name) else name)
            try:
                result = original(*args, **kwargs)
            finally:
                end(sid)
            if count is not None:
                count(counts, args, kwargs, result)
            return result

        self._saved.append((owner, attr, original))
        setattr(owner, attr, spanned)

    def install(self, targets=TARGETS) -> None:
        # importlib reaches the modules themselves: the package __init__
        # rebinds flowbalance.oversample to the dispatch function
        for module, cls, attr, name, count in targets:
            owner = importlib.import_module(f"flowbalance.{module}")
            if cls is not None:
                owner = getattr(owner, cls)
            self.wrap(owner, attr, name, count)

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    # -- analysis ----------------------------------------------------------

    def durations(self) -> list[float]:
        return [e - s for s, e in zip(self.starts, self.ends)]

    def self_times(self) -> list[float]:
        own = self.durations()
        for sid, parent in enumerate(self.parents):
            if parent >= 0:
                own[parent] -= self.ends[sid] - self.starts[sid]
        return own

    def by_name(self) -> dict[str, tuple[int, float, float]]:
        """name -> (calls, inclusive seconds, self seconds).

        Inclusive time sums every span of the name, which is right as long
        as no wrapped function reaches itself again.
        """
        table: dict[str, list] = {}
        for name, dur, own in zip(self.names, self.durations(), self.self_times()):
            row = table.setdefault(name, [0, 0.0, 0.0])
            row[0] += 1
            row[1] += dur
            row[2] += own
        return {name: tuple(row) for name, row in table.items()}

    def write(self, path: Path) -> None:
        """Write every span and counter as one JSON object."""
        index = {name: i for i, name in enumerate(dict.fromkeys(self.names))}
        blob = {
            "names": list(index),
            "spans": [
                [index[n], p, s, e]
                for n, p, s, e in zip(self.names, self.parents, self.starts, self.ends)
            ],
            "counts": dict(self.counts),
        }
        Path(path).write_text(json.dumps(blob, separators=(",", ":")) + "\n")

    def layer_metrics(self, wall_s: float, cpu_s: float, report, out_dir: Path) -> dict[str, float]:
        """Every PER_LAYER metric of one traced run_experiment call."""
        table = self.by_name()

        def calls(name):
            return table.get(name, (0, 0.0, 0.0))[0]

        def inclusive(name):
            return table.get(name, (0, 0.0, 0.0))[1]

        def own(prefix):
            return sum(row[2] for name, row in table.items() if name.startswith(prefix))

        c = self.counts
        queries = c["oversample.tomek_queries"]
        m = {
            "dataset.generate_flows_s": inclusive("dataset.generate_flows"),
            "dataset.rows_generated": c["dataset.rows_generated"],
            "neighbors.knn_table_s": inclusive("neighbors.knn_table"),
            "neighbors.knn_table_calls": calls("neighbors.knn_table"),
            "neighbors.knn_table_pairs": c["neighbors.knn_table_pairs"],
            **{f"oversample.{mt}_s": inclusive(f"oversample.{mt}") for mt in OVERSAMPLERS},
            "oversample.enn_s": inclusive("oversample.enn"),
            "oversample.enn_pairs": c["oversample.enn_pairs"],
            "oversample.enn_removed": c["oversample.enn_removed"],
            "oversample.tomek_s": inclusive("oversample.tomek"),
            "oversample.tomek_rounds": calls("oversample.tomek"),
            "oversample.tomek_pairs": c["oversample.tomek_pairs"],
            "oversample.tomek_removed": c["oversample.tomek_removed"],
            "oversample.tomek_yield": c["oversample.tomek_removed"] / queries if queries else 0.0,
            "oversample.synthetic_rows": c["oversample.synthetic_rows"],
            "oversample.kept_synthetic_rows": c["oversample.kept_synthetic_rows"],
            "mixtures.select_mixture_s": inclusive("mixtures.select_mixture"),
            "mixtures.fit_mixture_calls": calls("mixtures.fit_mixture"),
            "mixtures.em_iters": c["mixtures.em_iters"],
            "nets.forward_s": inclusive("nets.forward"),
            "nets.forward_calls": calls("nets.forward"),
            "nets.backward_s": inclusive("nets.backward"),
            "nets.backward_calls": calls("nets.backward"),
            "nets.sgd_step_s": inclusive("nets.sgd_step"),
            "nets.head_s": inclusive("nets.head"),
            "gan.train_gan_s": inclusive("gan.train_gan"),
            "gan.train_ctgan_s": inclusive("gan.train_ctgan"),
            "gan.loop_self_s": own("gan.loop"),
            "gan.steps": c["gan.steps"],
            "gan.sample_s": inclusive("gan.sample"),
            "gan.sampled_rows": c["gan.sampled_rows"],
            **{f"trees.fit_{k}_s": inclusive(f"trees.fit_{k}") for k in TREE_KINDS},
            **{f"trees.fit_{k}_calls": calls(f"trees.fit_{k}") for k in TREE_KINDS},
            "trees.rows_fitted": c["trees.rows_fitted"],
            "trees.nodes": c["trees.nodes"],
            "trees.grid_search_s": inclusive("trees.grid_search"),
            "trees.predict_s": inclusive("trees.predict"),
            "trees.predict_rows": c["trees.predict_rows"],
            "evaluate.cross_val_f1_s": inclusive("evaluate.cross_val_f1"),
            "evaluate.tsne_s": inclusive("evaluate.tsne"),
            "evaluate.tsne_points": c["evaluate.tsne_points"],
            "evaluate.ks_report_s": inclusive("evaluate.ks_report"),
            "evaluate.f1_score_s": inclusive("evaluate.f1_score"),
            "evaluate.write_csv_s": inclusive("evaluate.write_csv"),
            "evaluate.write_csv_rows": c["evaluate.write_csv_rows"],
            "svg.chart_s": inclusive("svg.chart"),
            **{f"{mod}.self_s": own(f"{mod}.") for mod in MODULES},
            "harness.self_s": own(ROOT_SPAN),
            "harness.wall_s": wall_s,
            "harness.cpu_s": cpu_s,
            "harness.cells": len(report.cells),
            "harness.artifact_files": len(report.artifacts),
            "harness.artifact_bytes": sum((out_dir / a).stat().st_size for a in report.artifacts),
        }
        if list(m) != list(PER_LAYER):
            raise RuntimeError("layer_metrics and PER_LAYER list different metrics")
        return m
