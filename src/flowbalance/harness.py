"""Experiment orchestration.

One experiment sweeps (augmentation method x classifier x training
imbalance ratio x seed). Every cell gets its training set by drawing a
fixed number of minority rows and ``minority / ir`` majority rows from a
held-out train pool, balances it with the cell's method (except ``none``),
fits the cell's classifier with hyperparameters grid-searched once on the
balanced baseline, and scores F1 on a balanced test set drawn from the
test pool. A baseline cell (method none at ratio 1:1) is always included
because every comparison in the report is against it.

Determinism is the central design constraint: each stage derives its seed
from the cell coordinates, so results do not depend on the order in which
stages run, and every emitted byte is a pure function of the config's
content (the output directory is not part of it).
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import sys
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path

import numpy as np

from .dataset import DEFAULT_PROFILE, Dataset, FlowProfile, generate_flows, load_csv, partition
from .errors import FlowBalanceError, ParameterError, SchemaError
from .evaluate import f1_score, ks_report, log_histograms, tsne, write_csv
from .gan import GanConfig, train_ctgan, train_gan
from .oversample import (
    ORIGIN_MINORITY, ORIGIN_NAMES, ORIGIN_SYNTHETIC, OversampleConfig, oversample, stack_synthetic,
)
from .svg import Series, line_chart, scatter_chart
from .trees import MODEL_CONFIGS, MODEL_KINDS, HyperGrid, check_params, fit_model, grid_search

METHOD_ORDER = (
    "none", "smote", "borderline", "smote_enn", "smote_tomek", "adasyn", "gan", "ctgan",
)
GENERATIVE_METHODS = ("gan", "ctgan")
SCHEMA_VERSION = 1

# stage tags folded into derived seeds so every stage gets its own stream
_SPLIT, _MINORITY, _MAJORITY, _TEST, _AUG, _MODEL, _GEN, _GRID, _EMBED = range(9)


def derive_seed(*parts: int) -> int:
    """Fold integer coordinates into one well-mixed 32-bit seed."""
    return int(np.random.SeedSequence([int(p) for p in parts]).generate_state(1)[0])


def _ir_int(ir: float) -> int:
    return int(round(ir * 1_000_000))


def _ir_label(ir: float) -> str:
    inv = 1.0 / ir
    if abs(inv - round(inv)) < 1e-9:
        return f"1:{round(inv)}"
    return f"{ir:g}"


def _tuples(value):
    """``value`` with every list in it, at any depth, made a tuple."""
    if isinstance(value, (list, tuple)):
        return tuple(_tuples(v) for v in value)
    return value


def _section(base, overrides, name: str):
    """``base``, a frozen config, with a config section's overrides applied.

    Unknown keys raise SchemaError; ``base``'s class raises its own typed
    error for a value it rejects.
    """
    if not isinstance(overrides, dict):
        raise SchemaError(f"{name} must map parameter names to values")
    unknown = set(overrides) - {f.name for f in dataclasses.fields(base)}
    if unknown:
        raise SchemaError(f"unknown {name} keys: {sorted(unknown)}")
    return dataclasses.replace(base, **{k: _tuples(v) for k, v in overrides.items()})


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


@dataclass(frozen=True)
class DataConfig:
    """Where the population comes from: a generated profile or a CSV."""

    source: str = "generated"
    n_total: int = 30000
    population_ir: float = 0.08
    profile: dict = field(default_factory=dict)
    csv_path: str | None = None
    label_column: str = "label"
    slow_threshold: float | None = None

    def __post_init__(self):
        if self.source not in ("generated", "csv"):
            raise SchemaError(f"unknown data source {self.source!r}")
        if self.source == "csv" and not self.csv_path:
            raise SchemaError("csv source needs csv_path")
        # the bounds generate_flows puts on a generated population
        if not _is_int(self.n_total) or self.n_total < 10:
            raise SchemaError(f"n_total must be an integer of at least 10, got {self.n_total!r}")
        if not isinstance(self.population_ir, (int, float)) or not 0 < self.population_ir <= 1:
            raise SchemaError(f"population_ir must be in (0, 1], got {self.population_ir!r}")
        self.flow_profile  # built now, so a bad profile fails here and not mid-run

    @cached_property
    def flow_profile(self) -> FlowProfile:
        """The generator profile: ``DEFAULT_PROFILE`` with ``profile`` applied."""
        return _section(DEFAULT_PROFILE, self.profile, "profile")


@dataclass(frozen=True)
class ExperimentConfig:
    out_dir: str
    data: DataConfig = field(default_factory=DataConfig)
    methods: tuple[str, ...] = METHOD_ORDER
    classifiers: tuple[str, ...] = ("tree", "forest", "boost")
    train_irs: tuple[float, ...] = (0.5, 0.1)
    train_minority: int = 500
    test_fraction: float = 0.3
    seeds: tuple[int, ...] = (0, 1, 2)
    n_folds: int = 3
    oversample: dict = field(default_factory=dict)
    gan: dict = field(default_factory=dict)
    grids: dict = field(default_factory=dict)
    tsne_cap: int = 450
    schema_version: int = SCHEMA_VERSION

    def __post_init__(self):
        if self.schema_version != SCHEMA_VERSION:
            raise SchemaError(
                f"config schema version {self.schema_version} is not supported "
                f"(expected {SCHEMA_VERSION})"
            )
        if not isinstance(self.data, DataConfig):
            raise SchemaError(f"data must be a DataConfig, got {self.data!r}")
        for name in ("methods", "classifiers", "train_irs", "seeds"):
            values = getattr(self, name)
            if not isinstance(values, (list, tuple)) or not values:
                raise SchemaError(f"{name} must be a non-empty list, got {values!r}")
        for m in self.methods:
            if m not in METHOD_ORDER:
                raise SchemaError(f"unknown method {m!r}")
        for c in self.classifiers:
            if c not in MODEL_KINDS:
                raise SchemaError(f"unknown classifier {c!r}")
        for ir in self.train_irs:
            if not isinstance(ir, (int, float)) or not 0.0 < ir <= 1.0:
                raise SchemaError(f"imbalance ratio {ir!r} outside (0, 1]")
        if not all(_is_int(seed) for seed in self.seeds):
            raise SchemaError(f"seeds must be integers, got {self.seeds!r}")
        if not 0.0 < self.test_fraction < 1.0:
            raise SchemaError("test_fraction must be in (0, 1)")
        for name, least in (("train_minority", 1), ("n_folds", 2), ("tsne_cap", 1)):
            value = getattr(self, name)
            if not _is_int(value) or value < least:
                raise SchemaError(f"{name} must be an integer of at least {least}, got {value!r}")
        if not isinstance(self.grids, dict):
            raise SchemaError("grids must map classifier kinds to parameter grids")
        for kind, axes in self.grids.items():
            if kind not in MODEL_CONFIGS:
                raise SchemaError(f"unknown grid kind {kind!r}")
            if not isinstance(axes, dict):
                raise SchemaError(f"grid for {kind!r} must map parameter names to value lists")
            for name, values in axes.items():
                if not isinstance(values, (list, tuple)) or not values:
                    raise SchemaError(f"{kind} grid axis {name!r} must be a non-empty list")
                for value in values:
                    check_params(kind, {name: value})
        # built now, so a bad section fails here and not mid-run
        self.oversample_config, self.gan_config

    @cached_property
    def oversample_config(self) -> OversampleConfig:
        return _section(OversampleConfig(), self.oversample, "oversample")

    @cached_property
    def gan_config(self) -> GanConfig:
        return _section(GanConfig(), self.gan, "gan")

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    def config_hash(self) -> str:
        """Hash of everything but ``out_dir``, which changes no output byte."""
        content = self.to_dict()
        del content["out_dir"]
        canon = json.dumps(content, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canon.encode()).hexdigest()[:16]

    @classmethod
    def from_dict(cls, raw: dict) -> "ExperimentConfig":
        raw = {key: _tuples(value) for key, value in raw.items()}
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = set(raw) - known
        if unknown:
            raise SchemaError(f"unknown config keys: {sorted(unknown)}")
        if isinstance(raw.get("data"), dict):
            raw["data"] = _section(DataConfig(), raw["data"], "data")
        # ratios stay floats, so a config that writes 1 hashes like one that writes 1.0
        if isinstance(raw.get("train_irs"), tuple):
            raw["train_irs"] = tuple(float(v) if _is_int(v) else v for v in raw["train_irs"])
        return cls(**raw)

    @classmethod
    def from_file(cls, path) -> "ExperimentConfig":
        try:
            raw = json.loads(Path(path).read_text())
        except json.JSONDecodeError as exc:
            raise SchemaError(f"config is not valid JSON: {exc}") from exc
        if not isinstance(raw, dict):
            raise SchemaError("config root must be a JSON object")
        return cls.from_dict(raw)


@dataclass(frozen=True)
class Cell:
    method: str
    classifier: str
    ir: float
    seed: int

    @property
    def is_baseline(self) -> bool:
        return self.method == "none" and self.ir == 1.0


@dataclass(frozen=True)
class CellResult:
    cell: Cell
    f1: float | None
    n_train: int
    n_synthetic: int
    error: str | None = None


@dataclass(frozen=True)
class ExperimentReport:
    config_hash: str
    version: str
    cells: tuple[CellResult, ...]
    best_params: dict
    artifacts: tuple[str, ...]

    def median_f1(self, method: str, classifier: str, ir: float) -> float | None:
        vals = [
            r.f1
            for r in self.cells
            if r.cell.method == method
            and r.cell.classifier == classifier
            and _ir_int(r.cell.ir) == _ir_int(ir)
            and r.f1 is not None
        ]
        return float(np.median(vals)) if vals else None

    @property
    def failed(self) -> tuple[CellResult, ...]:
        return tuple(r for r in self.cells if r.error is not None)


DEFAULT_GRIDS: dict[str, tuple[tuple[str, tuple], ...]] = {
    "tree": (("max_depth", (6, 10, 14)),),
    "forest": (("n_trees", (20,)), ("max_depth", (8, 12))),
    "boost": (("n_rounds", (50,)), ("learning_rate", (0.2, 0.4))),
}


def _population(data: DataConfig, seed: int) -> Dataset:
    if data.source == "csv":
        return load_csv(data.csv_path, data.label_column, data.slow_threshold)
    return generate_flows(data.n_total, data.population_ir, seed, data.flow_profile)


def _split_pools(config: ExperimentConfig, seed: int) -> tuple[Dataset, Dataset]:
    """(train pool, test pool): a stratified split of the seed's population."""
    population = _population(config.data, derive_seed(seed, _SPLIT, 0))
    rng = np.random.default_rng(derive_seed(seed, _SPLIT, 1))
    test_mask = np.zeros(population.n, dtype=bool)
    for cls in (0, 1):
        members = np.flatnonzero(population.labels == cls)
        n_test = int(round(members.size * config.test_fraction))
        picked = rng.choice(members, size=n_test, replace=False)
        test_mask[picked] = True
    train_pool = population.subset(np.flatnonzero(~test_mask))
    test_pool = population.subset(np.flatnonzero(test_mask))
    return train_pool, test_pool


def _draw_train_set(
    config: ExperimentConfig, pools: tuple[Dataset, Dataset], ir: float, seed: int
) -> Dataset:
    pool, _ = pools
    m = config.train_minority
    n_maj = int(round(m / ir))
    minority = np.flatnonzero(pool.labels == 1)
    majority = np.flatnonzero(pool.labels == 0)
    if minority.size < m:
        raise ParameterError(f"train pool has {minority.size} minority rows, need {m}")
    if majority.size < n_maj:
        raise ParameterError(f"train pool has {majority.size} majority rows, need {n_maj}")
    # the minority draw must not depend on ir so generative models
    # trained on it can be reused across the sweep
    rng_min = np.random.default_rng(derive_seed(seed, _MINORITY))
    rng_maj = np.random.default_rng(derive_seed(seed, _MAJORITY, _ir_int(ir)))
    pick_min = np.sort(rng_min.choice(minority, size=m, replace=False))
    pick_maj = np.sort(rng_maj.choice(majority, size=n_maj, replace=False))
    return pool.subset(np.concatenate([pick_min, pick_maj]))


def _draw_test_set(pools: tuple[Dataset, Dataset], seed: int) -> Dataset:
    _, pool = pools
    minority = np.flatnonzero(pool.labels == 1)
    majority = np.flatnonzero(pool.labels == 0)
    n = min(minority.size, majority.size)
    if n == 0:
        raise ParameterError("test pool lost one of the classes")
    rng = np.random.default_rng(derive_seed(seed, _TEST))
    pick_min = np.sort(rng.choice(minority, size=n, replace=False))
    pick_maj = np.sort(rng.choice(majority, size=n, replace=False))
    return pool.subset(np.concatenate([pick_min, pick_maj]))


def train_generator(method: str, train: Dataset, cfg: GanConfig):
    """Fit the ``gan`` or ``ctgan`` generator on the minority rows of ``train``."""
    minority = train.features[partition(train).minority_idx]
    fit = train_gan if method == "gan" else train_ctgan
    return fit(minority, cfg)


def balance_train_set(
    method: str, train: Dataset, cfg: OversampleConfig | None, seed: int, generator=None
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(features, labels, origin) of ``train`` balanced by ``method``.

    ``none`` keeps the set as it is. A generative method stacks
    ``generator.sample`` rows, drawn with ``seed``, onto it until the
    classes are even; every other method goes through :func:`oversample`
    with ``cfg`` and ``seed``. Origin holds the ``ORIGIN_*`` code of each
    row (see :func:`stack_synthetic`).
    """
    if method == "none":
        return stack_synthetic(train.features, train.labels, train.features[:0])
    if method in GENERATIVE_METHODS:
        part = partition(train)
        synth = generator.sample(part.n_majority - part.n_minority, seed=seed)
        return stack_synthetic(train.features, train.labels, synth)
    return oversample(method, train, cfg, seed).stacked


def _grid_for(config: ExperimentConfig, kind: str) -> HyperGrid:
    if kind in config.grids:
        axes = tuple((name, tuple(vals)) for name, vals in config.grids[kind].items())
        return HyperGrid(kind, axes)
    return HyperGrid(kind, DEFAULT_GRIDS[kind])


def _enumerate_cells(config: ExperimentConfig) -> list[Cell]:
    cells: list[Cell] = []
    seen = set()

    def add(cell: Cell) -> None:
        key = (cell.method, cell.classifier, _ir_int(cell.ir), cell.seed)
        if key not in seen:
            seen.add(key)
            cells.append(cell)

    for classifier in config.classifiers:
        for seed in config.seeds:
            add(Cell("none", classifier, 1.0, seed))
    for method in config.methods:
        for ir in config.train_irs:
            for classifier in config.classifiers:
                for seed in config.seeds:
                    add(Cell(method, classifier, ir, seed))
    return cells


# What a cell may fail with without sinking the run: a typed rejection from
# the package and numeric breakdowns. Anything else is a bug and propagates.
CELL_FAILURES = (FlowBalanceError, FloatingPointError, np.linalg.LinAlgError)


@dataclass(frozen=True)
class _Failure:
    """A stage's CELL_FAILURES exception, held in place of the stage's value."""

    stage: str
    exc: Exception

    def __str__(self) -> str:
        return f"{self.stage}: {type(self.exc).__name__}: {self.exc}"


def _attempt(stage: str, fn, *inputs):
    """``fn(*inputs)``; the first failed input instead, if there is one.

    Passing a failed input through gives every cell the error of the first
    stage that failed on its path, and a failed stage runs only once
    however many cells it feeds.
    """
    for value in inputs:
        if isinstance(value, _Failure):
            return value
    try:
        return fn(*inputs)
    except CELL_FAILURES as exc:
        return _Failure(stage, exc)


def _fit_cell(cell: Cell, balanced: tuple, best_params: dict):
    feats, labels, _ = balanced
    model_seed = derive_seed(
        cell.seed,
        _MODEL,
        METHOD_ORDER.index(cell.method),
        MODEL_KINDS.index(cell.classifier),
        _ir_int(cell.ir),
    )
    return fit_model(cell.classifier, feats, labels, best_params[cell.classifier], model_seed)


def _test_f1(model, test: Dataset) -> float:
    return float(f1_score(test.labels, model.predict(test.features)))


def _run_cell(cell: Cell, balanced, test, best_params: dict) -> CellResult:
    model = _attempt("fit", _fit_cell, cell, balanced, best_params)
    f1 = _attempt("predict", _test_f1, model, test)
    if isinstance(f1, _Failure):
        return CellResult(cell, None, 0, 0, error=str(f1))
    feats, _, origin = balanced
    return CellResult(cell, f1, int(feats.shape[0]), int(np.sum(origin == ORIGIN_SYNTHETIC)))


def _diagnostics_method(config: ExperimentConfig) -> str | None:
    candidates = [m for m in config.methods if m != "none"]
    if not candidates:
        return None
    return "ctgan" if "ctgan" in candidates else candidates[0]


def run_experiment(config: ExperimentConfig) -> ExperimentReport:
    """Run every cell, write all artifacts, return the assembled report.

    The grid search runs first, on the first seed's balanced baseline.
    Then, seed by seed: the pools, the test set and each ratio's train
    set; one generator per generative method; and for each (method,
    ratio) one balanced set, whose classifiers are fitted and scored
    before the next set is built.
    """
    out = Path(config.out_dir)
    out.mkdir(parents=True, exist_ok=True)

    # hyperparameters come from the balanced baseline only, then get reused
    first_seed = config.seeds[0]
    pools = _split_pools(config, first_seed)
    baseline = _draw_train_set(config, pools, 1.0, first_seed)
    best_params: dict[str, dict] = {}
    grid_rows = {}
    for kind in config.classifiers:
        grid = _grid_for(config, kind)
        result = grid_search(
            baseline.features,
            baseline.labels,
            grid,
            config.n_folds,
            derive_seed(first_seed, _GRID, MODEL_KINDS.index(kind)),
        )
        best_params[kind] = result.best_params
        grid_rows[kind] = [
            {"params": params, "fold_f1": list(scores), "mean_f1": float(np.mean(scores))}
            for params, scores in result.rows
        ]

    cells = _enumerate_cells(config)
    by_seed: dict[int, dict[tuple[str, int], list[Cell]]] = {}
    for cell in cells:
        key = (cell.method, _ir_int(cell.ir))
        by_seed.setdefault(cell.seed, {}).setdefault(key, []).append(cell)
    diag_key = (_diagnostics_method(config), _ir_int(config.train_irs[0]), config.seeds[-1])
    diag_set = None
    traces = {}
    results: dict[Cell, CellResult] = {}
    for seed, groups in by_seed.items():
        if seed != first_seed:
            pools = _attempt("train_set", _split_pools, config, seed)
        test = _attempt("test_set", _draw_test_set, pools, seed)
        trains = {_ir_int(1.0): baseline} if seed == first_seed else {}
        for ir in (1.0, *config.train_irs):
            if _ir_int(ir) not in trains:
                trains[_ir_int(ir)] = _attempt("train_set", _draw_train_set, config, pools, ir, seed)

        # the minority rows are identical across the ir sweep by
        # construction, so one generator serves every ratio
        generators = {}
        for method in dict.fromkeys(config.methods):
            if method in GENERATIVE_METHODS:
                cfg = dataclasses.replace(
                    config.gan_config, seed=derive_seed(seed, _GEN, METHOD_ORDER.index(method))
                )
                train = trains[_ir_int(config.train_irs[0])]
                model = _attempt("generator", train_generator, method, train, cfg)
                if not isinstance(model, _Failure):
                    traces[method, seed] = model.trace
                generators[method] = model

        for (method, ir_key), group in groups.items():
            tag = _GEN if method in GENERATIVE_METHODS else _AUG
            aug_seed = derive_seed(seed, tag, METHOD_ORDER.index(method), ir_key)
            balanced = _attempt(
                "augment", balance_train_set, method, trains[ir_key], config.oversample_config,
                aug_seed, generators.get(method),
            )
            if (method, ir_key, seed) == diag_key:
                diag_set = balanced
            for cell in group:
                results[cell] = _run_cell(cell, balanced, test, best_params)

    artifacts: list[str] = []
    artifacts += _write_grid_artifacts(out, config, baseline, best_params, grid_rows)
    report = ExperimentReport(
        config_hash=config.config_hash(),
        version=_package_version(),
        cells=tuple(results[cell] for cell in cells),
        best_params=best_params,
        artifacts=(),
    )
    artifacts += emit_f1_table(report, config, out)
    artifacts += emit_ir_sweep_plot(report, config, out)
    artifacts += _write_loss_traces(out, traces)
    if diag_set is not None:
        # diagnostics describe the set of ctgan, or else of the first method
        # other than none, at the first ratio and the last seed. If building
        # it failed, its cells already carry the error; the report completes.
        written = _attempt(
            "diagnostics", write_distribution_diagnostics, diag_set, baseline.feature_names, out,
            config.seeds[-1], config.tsne_cap, _diagnostics_method(config),
            f"config_hash={report.config_hash} version={report.version}",
        )
        if isinstance(written, _Failure):
            print(f"diagnostics skipped: {written}", file=sys.stderr)
        else:
            artifacts += written
    artifacts.append("report.json")
    report = dataclasses.replace(report, artifacts=tuple(sorted(artifacts)))
    _write_report_json(out / "report.json", report, config)
    return report


def _package_version() -> str:
    from . import __version__

    return __version__


def _write_report_json(path: Path, report: ExperimentReport, config: ExperimentConfig) -> None:
    blob = {
        "schema_version": SCHEMA_VERSION,
        "stamp": {
            "config_hash": report.config_hash,
            "version": report.version,
            "seeds": list(config.seeds),
        },
        "best_params": report.best_params,
        "cells": [
            {
                "method": r.cell.method,
                "classifier": r.cell.classifier,
                "ir": r.cell.ir,
                "seed": r.cell.seed,
                "f1": r.f1,
                "n_train": r.n_train,
                "n_synthetic": r.n_synthetic,
                "error": r.error,
            }
            for r in report.cells
        ],
        "artifacts": list(report.artifacts),
    }
    path.write_text(json.dumps(blob, indent=2, sort_keys=True) + "\n")


def _write_grid_artifacts(
    out: Path, config: ExperimentConfig, baseline: Dataset, best_params: dict, grid_rows: dict
) -> list[str]:
    names = []
    (out / "grid.json").write_text(
        json.dumps(
            {"best_params": best_params, "searched": grid_rows},
            indent=2,
            sort_keys=True,
        )
        + "\n"
    )
    names.append("grid.json")
    for kind in config.classifiers:
        model = fit_model(
            kind,
            baseline.features,
            baseline.labels,
            best_params[kind],
            derive_seed(config.seeds[0], _GRID, MODEL_KINDS.index(kind), 1),
        )
        summary = model.summary()
        summary["feature_names"] = list(baseline.feature_names)
        fname = f"model_summary_{kind}.json"
        (out / fname).write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n")
        names.append(fname)
    return names


def _table_rows(config: ExperimentConfig) -> list[tuple[str, str, float]]:
    """(label, method, ir) rows of the F1 table, baseline first."""
    rows = [("baseline", "none", 1.0)]
    for method in config.methods:
        for ir in config.train_irs:
            if method == "none" and _ir_int(ir) == _ir_int(1.0):
                continue
            rows.append((f"{method} @ {_ir_label(ir)}", method, ir))
    return rows


def emit_f1_table(report: ExperimentReport, config: ExperimentConfig, out: Path) -> list[str]:
    """Median-F1 grid, methods down the side, classifiers across.

    Writes a machine CSV and an aligned text rendering, both with
    3-decimal cells; cells that produced no score show as empty/na.
    """
    out = Path(out)
    rows = _table_rows(config) if report.cells else []
    header = ["method", "ir"] + list(config.classifiers)
    csv_rows = []
    for label, method, ir in rows:
        cells: list[object] = [label, repr(float(ir))]
        for clf in config.classifiers:
            med = report.median_f1(method, clf, ir)
            cells.append("" if med is None else f"{med:.3f}")
        csv_rows.append(cells)
    write_csv(out / "f1_table.csv", header, csv_rows)

    widths = [max(len(str(r[i])) for r in [header] + csv_rows) for i in range(len(header))]
    lines = ["  ".join(str(h).ljust(w) for h, w in zip(header, widths))]
    for row in csv_rows:
        lines.append(
            "  ".join(str(c if c != "" else "na").ljust(w) for c, w in zip(row, widths))
        )
    (out / "f1_table.txt").write_text("\n".join(lines) + "\n")
    return ["f1_table.csv", "f1_table.txt"]


def emit_ir_sweep_plot(
    report: ExperimentReport, config: ExperimentConfig, out: Path
) -> list[str]:
    """Median F1 against imbalance ratio, one line per method.

    Always writes the backing CSV; the chart needs at least two ratio
    points and is skipped (with a notice on stderr) otherwise.
    """
    out = Path(out)
    irs = sorted(set(_ir_int(ir) for ir in config.train_irs))
    clf = config.classifiers[0]
    csv_rows = []
    series = []
    for method in config.methods:
        xs, ys = [], []
        for ir_i in irs:
            ir = ir_i / 1_000_000
            med = report.median_f1(method, clf, ir)
            if med is None:
                continue
            csv_rows.append((method, ir, med))
            xs.append(ir)
            ys.append(med)
        if xs:
            series.append(Series(method, tuple(xs), tuple(ys)))
    write_csv(out / "ir_sweep.csv", ("method", "ir", "median_f1"), csv_rows)
    written = ["ir_sweep.csv"]
    if len(irs) < 2 or not series:
        print(
            "ir sweep chart skipped: need at least two imbalance ratios "
            "and one method with scores",
            file=sys.stderr,
        )
        return written
    svg = line_chart(
        series,
        f"F1 vs training imbalance ratio ({clf})",
        "imbalance ratio (minority/majority)",
        "median F1",
    )
    (out / "ir_sweep.svg").write_text(_stamp_svg(svg, report))
    written.append("ir_sweep.svg")
    return written


def _stamp_svg(svg: str, report: ExperimentReport) -> str:
    comment = f"<!-- config_hash={report.config_hash} version={report.version} -->\n"
    return comment + svg


def write_distribution_diagnostics(
    balanced: tuple[np.ndarray, np.ndarray, np.ndarray],
    names: tuple[str, ...],
    out: Path,
    seed: int,
    cap: int,
    method: str,
    stamp: str = "",
) -> list[str]:
    """KS table, origin-split log histograms, and a t-SNE scatter.

    ``balanced`` is a (features, labels, origin) triple as built by
    :func:`balance_train_set`. The KS comparison is real minority against
    synthetic, sorted by descending score; histograms share bin edges
    across the three origins; the embedding runs on a capped,
    origin-stratified subsample of the log features. Skips everything
    when no synthetic rows exist.
    """
    feats, _, origin = balanced
    out = Path(out)
    synth = feats[origin == ORIGIN_SYNTHETIC]
    if synth.shape[0] == 0:
        return []

    ks_report(feats[origin == ORIGIN_MINORITY], synth, names).to_csv(out / "ks_report.csv")

    hist_rows = []
    groups = [feats[origin == g] for g in ORIGIN_NAMES]
    for j, name in enumerate(names):
        hist = log_histograms([g[:, j] for g in groups])
        if hist is None:
            continue
        edges, counts = hist
        for i in range(edges.size - 1):
            hist_rows.append((name, edges[i], edges[i + 1], *(int(c[i]) for c in counts)))
    write_csv(
        out / "histograms.csv",
        ("feature", "bin_lo", "bin_hi", "count_majority", "count_minority", "count_synthetic"),
        hist_rows,
    )

    rng = np.random.default_rng(derive_seed(seed, _EMBED, 0))
    per_group = max(cap // 3, 10)
    keep = []
    for g in ORIGIN_NAMES:
        members = np.flatnonzero(origin == g)
        take = min(members.size, per_group)
        keep.append(np.sort(rng.choice(members, size=take, replace=False)))
    keep = np.concatenate(keep)
    sub = np.log10(np.maximum(feats[keep], 1e-12))
    sub_origin = origin[keep]
    perplexity = min(30.0, (keep.size - 1) / 3.5)
    emb = tsne(sub, perplexity=perplexity, seed=derive_seed(seed, _EMBED, 1))
    write_csv(
        out / "embedding.csv",
        ("x", "y", "origin"),
        [(emb.coords[i, 0], emb.coords[i, 1], int(sub_origin[i])) for i in range(keep.size)],
    )
    clouds = [
        Series(group, tuple(emb.coords[sub_origin == g, 0]), tuple(emb.coords[sub_origin == g, 1]))
        for g, group in ORIGIN_NAMES.items()
        if np.any(sub_origin == g)
    ]
    svg = scatter_chart(
        clouds, f"t-SNE of {method}-balanced training rows", "dim 1", "dim 2"
    )
    text = (f"<!-- {stamp} -->\n" if stamp else "") + svg
    (out / "embedding.svg").write_text(text)
    return ["ks_report.csv", "histograms.csv", "embedding.csv", "embedding.svg"]


def _write_loss_traces(out: Path, traces: dict) -> list[str]:
    names = []
    for method, seed in sorted(traces):
        fname = f"loss_{method}_seed{seed}.csv"
        traces[method, seed].to_csv(out / fname)
        names.append(fname)
    return names
