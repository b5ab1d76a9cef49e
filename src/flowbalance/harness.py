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
from pathlib import Path

import numpy as np

from .dataset import DEFAULT_PROFILE, Dataset, generate_flows, load_csv, partition
from .errors import FlowBalanceError, ParameterError, SchemaError
from .evaluate import f1_score, ks_report, tsne, write_csv
from .gan import GanConfig, train_ctgan, train_gan
from .oversample import OversampleConfig, oversample
from .svg import Series, line_chart, scatter_chart
from .trees import MODEL_KINDS, HyperGrid, fit_model, grid_search

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
        if not self.methods:
            raise SchemaError("methods list must be non-empty")
        if not self.classifiers:
            raise SchemaError("classifiers list must be non-empty")
        for m in self.methods:
            if m not in METHOD_ORDER:
                raise SchemaError(f"unknown method {m!r}")
        for c in self.classifiers:
            if c not in MODEL_KINDS:
                raise SchemaError(f"unknown classifier {c!r}")
        for ir in self.train_irs:
            if not 0.0 < ir <= 1.0:
                raise SchemaError(f"imbalance ratio {ir} outside (0, 1]")
        if not self.train_irs or not self.seeds:
            raise SchemaError("need at least one imbalance ratio and one seed")
        if not 0.0 < self.test_fraction < 1.0:
            raise SchemaError("test_fraction must be in (0, 1)")

    def to_dict(self) -> dict:
        d = dataclasses.asdict(self)
        return d

    def config_hash(self) -> str:
        """Hash of everything but ``out_dir``, which changes no output byte."""
        content = self.to_dict()
        del content["out_dir"]
        canon = json.dumps(content, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canon.encode()).hexdigest()[:16]

    @classmethod
    def from_dict(cls, raw: dict) -> "ExperimentConfig":
        raw = dict(raw)
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = set(raw) - known
        if unknown:
            raise SchemaError(f"unknown config keys: {sorted(unknown)}")
        if "data" in raw and isinstance(raw["data"], dict):
            data_known = {f.name for f in dataclasses.fields(DataConfig)}
            data_unknown = set(raw["data"]) - data_known
            if data_unknown:
                raise SchemaError(f"unknown data keys: {sorted(data_unknown)}")
            raw["data"] = DataConfig(**raw["data"])
        for key in ("methods", "classifiers"):
            if key in raw:
                raw[key] = tuple(raw[key])
        for key in ("train_irs",):
            if key in raw:
                raw[key] = tuple(float(v) for v in raw[key])
        if "seeds" in raw:
            raw["seeds"] = tuple(int(s) for s in raw["seeds"])
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
    profile = dataclasses.replace(DEFAULT_PROFILE, **{
        k: tuple(tuple(m) for m in v) if k == "size_modes" else v
        for k, v in data.profile.items()
    })
    return generate_flows(data.n_total, data.population_ir, seed, profile)


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
    return fit(minority, cfg, train.feature_names)


def balance_train_set(
    method: str, train: Dataset, cfg: OversampleConfig | None, seed: int, generator=None
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(features, labels, origin) of ``train`` balanced by ``method``.

    ``none`` keeps the set as it is. A generative method stacks
    ``generator.sample`` rows, drawn with ``seed``, onto it until the
    classes are even; every other method goes through :func:`oversample`
    with ``cfg`` and ``seed``. Origin tags rows 0 (majority), 1 (minority)
    and 2 (synthetic).
    """
    if method == "none":
        origin = np.where(train.labels == 1, 1, 0).astype(np.int64)
        return train.features, train.labels, origin
    if method in GENERATIVE_METHODS:
        part = partition(train)
        synth = generator.sample(part.n_majority - part.n_minority, seed=seed)
        feats = np.vstack([train.features, synth])
        labels = np.concatenate([train.labels, np.ones(synth.shape[0], dtype=np.int64)])
        origin = np.concatenate([
            np.where(train.labels == 1, 1, 0),
            np.full(synth.shape[0], 2),
        ]).astype(np.int64)
        return feats, labels, origin
    aug = oversample(method, train, cfg, seed)
    return aug.features, aug.labels, aug.origin


def _make_oversample_config(overrides: dict) -> OversampleConfig:
    known = {f.name for f in dataclasses.fields(OversampleConfig)}
    unknown = set(overrides) - known
    if unknown:
        raise SchemaError(f"unknown oversample keys: {sorted(unknown)}")
    fixed = dict(overrides)
    if "danger_band" in fixed:
        fixed["danger_band"] = tuple(fixed["danger_band"])
    return OversampleConfig(**fixed)


def _make_gan_config(overrides: dict) -> GanConfig:
    known = {f.name for f in dataclasses.fields(GanConfig)}
    unknown = set(overrides) - known
    if unknown:
        raise SchemaError(f"unknown gan keys: {sorted(unknown)}")
    fixed = dict(overrides)
    if "hidden" in fixed:
        fixed["hidden"] = tuple(fixed["hidden"])
    return GanConfig(**fixed)


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
        error = f"{f1.stage}: {type(f1.exc).__name__}: {f1.exc}"
        return CellResult(cell, None, 0, 0, error=error)
    feats, _, origin = balanced
    return CellResult(cell, f1, int(feats.shape[0]), int(np.sum(origin == 2)))


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
    over_cfg = _make_oversample_config(config.oversample)
    gan_cfg = _make_gan_config(config.gan)

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
                    gan_cfg, seed=derive_seed(seed, _GEN, METHOD_ORDER.index(method))
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
                "augment", balance_train_set, method, trains[ir_key], over_cfg, aug_seed,
                generators.get(method),
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
    try:
        artifacts += emit_diagnostics(report, config, out, diag_set, baseline.feature_names)
    except FlowBalanceError as exc:
        # diagnostics reuse a cell's augmentation; if that cell failed the
        # report must still complete with the failure flagged on the cell
        print(f"diagnostics skipped: {exc}", file=sys.stderr)
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


def emit_diagnostics(
    report: ExperimentReport,
    config: ExperimentConfig,
    out: Path,
    balanced,
    feature_names: tuple[str, ...],
) -> list[str]:
    """Distribution diagnostics of one balanced training set.

    ``balanced`` is the set built for ``ctgan``, or else for the first
    configured method other than ``none``, at the first configured ratio
    and the last seed: a KS table (real minority vs synthetic, sorted by
    descending score), log-scale histograms per feature split by row
    origin, and a t-SNE scatter of a capped subsample colored by origin.
    Raises the error that kept that set from being built.
    """
    if balanced is None:
        return []
    if isinstance(balanced, _Failure):
        raise balanced.exc
    feats, _, origin = balanced
    stamp = f"config_hash={report.config_hash} version={report.version}"
    return write_distribution_diagnostics(
        feats, origin, feature_names, Path(out), config.seeds[-1], config.tsne_cap,
        _diagnostics_method(config), stamp,
    )


def write_distribution_diagnostics(
    feats: np.ndarray,
    origin: np.ndarray,
    names: tuple[str, ...],
    out: Path,
    seed: int,
    cap: int,
    method: str,
    stamp: str = "",
) -> list[str]:
    """KS table, origin-split log histograms, and a t-SNE scatter.

    ``origin`` tags rows 0 (majority), 1 (minority), 2 (synthetic). The KS
    comparison is real minority against synthetic, sorted by descending
    score; histograms share bin edges across the three origins; the
    embedding runs on a capped, origin-stratified subsample of the log
    features. Skips everything when no synthetic rows exist.
    """
    out = Path(out)
    real_min = feats[origin == 1]
    synth = feats[origin == 2]
    if synth.shape[0] == 0:
        return []

    rep = ks_report(real_min, synth, names)
    rep.to_csv(out / "ks_report.csv")

    hist_rows = []
    groups = [feats[origin == g] for g in (0, 1, 2)]
    for j, name in enumerate(names):
        cols = [g[:, j] for g in groups]
        pooled = np.concatenate([c[c > 0] for c in cols])
        if pooled.size == 0:
            continue
        lo, hi = np.log10(pooled.min()), np.log10(pooled.max())
        if hi == lo:
            hi = lo + 1e-9
        edges = np.linspace(lo, hi, 41)
        counts = [np.histogram(np.log10(c[c > 0]), bins=edges)[0] for c in cols]
        for i in range(40):
            hist_rows.append(
                (name, edges[i], edges[i + 1],
                 int(counts[0][i]), int(counts[1][i]), int(counts[2][i]))
            )
    write_csv(
        out / "histograms.csv",
        ("feature", "bin_lo", "bin_hi", "count_majority", "count_minority", "count_synthetic"),
        hist_rows,
    )

    rng = np.random.default_rng(derive_seed(seed, _EMBED, 0))
    per_group = max(cap // 3, 10)
    keep = []
    for g in (0, 1, 2):
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
    group_names = {0: "majority", 1: "minority", 2: "synthetic"}
    clouds = []
    for g in (0, 1, 2):
        mask = sub_origin == g
        if np.any(mask):
            clouds.append(Series(
                group_names[g],
                tuple(emb.coords[mask, 0]),
                tuple(emb.coords[mask, 1]),
            ))
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
