"""End-to-end tests of the experiment harness and the CLI."""

import dataclasses
import json
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest

from flowbalance.cli import main
from flowbalance.dataset import generate_flows, save_csv
from flowbalance.errors import SchemaError
from flowbalance.oversample import oversample
from flowbalance.harness import (
    Cell,
    CellResult,
    DataConfig,
    ExperimentConfig,
    ExperimentReport,
    derive_seed,
    emit_f1_table,
    emit_ir_sweep_plot,
    run_experiment,
    write_distribution_diagnostics,
    _enumerate_cells,
)


def small_config(out_dir, **overrides) -> ExperimentConfig:
    """A config small enough for run_experiment to finish in seconds."""
    base = dict(
        out_dir=str(out_dir),
        data=DataConfig(n_total=3000, population_ir=0.2),
        methods=("none", "smote"),
        classifiers=("tree",),
        train_irs=(0.5, 0.25),
        train_minority=60,
        seeds=(0, 1),
        n_folds=3,
        grids={"tree": {"max_depth": [4]}},
        tsne_cap=60,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


class TestExperimentConfig:
    def test_unknown_top_level_key_rejected(self):
        with pytest.raises(SchemaError):
            ExperimentConfig.from_dict({"out_dir": "x", "typo_key": 1})

    def test_unknown_data_key_rejected(self):
        with pytest.raises(SchemaError):
            ExperimentConfig.from_dict({"out_dir": "x", "data": {"n_rows": 5}})

    def test_schema_version_pinned(self):
        with pytest.raises(SchemaError):
            ExperimentConfig(out_dir="x", schema_version=99)

    @pytest.mark.parametrize(
        "bad",
        [
            {"methods": ()},
            {"classifiers": ("svm",)},
            {"methods": ("smote", "oops")},
            {"train_irs": (0.0,)},
            {"train_irs": (1.5,)},
            {"test_fraction": 1.0},
            {"seeds": ()},
            {"classifiers": ()},
            {"grids": {"forst": {"n_trees": [3]}}},
            {"grids": {"tree": {"max_dpth": [3]}}},
            {"grids": {"tree": {"max_depth": []}}},
            {"grids": {"tree": {"max_depth": 3}}},
            {"grids": {"boost": [("n_rounds", [5])]}},
            {"grids": [("tree", {"max_depth": [3]})]},
        ],
    )
    def test_invalid_fields_rejected(self, bad):
        with pytest.raises(SchemaError):
            ExperimentConfig(out_dir="x", **bad)

    def test_from_file_round_trip(self, tmp_path):
        cfg = small_config(tmp_path / "out")
        path = tmp_path / "config.json"
        path.write_text(json.dumps(cfg.to_dict()))
        again = ExperimentConfig.from_file(path)
        assert again == cfg
        assert again.config_hash() == cfg.config_hash()

    def test_from_file_rejects_bad_json(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text("{not json")
        with pytest.raises(SchemaError):
            ExperimentConfig.from_file(path)
        path.write_text("[1, 2]")
        with pytest.raises(SchemaError):
            ExperimentConfig.from_file(path)

    def test_hash_tracks_content(self, tmp_path):
        a = small_config(tmp_path)
        b = small_config(tmp_path, seeds=(0, 2))
        assert a.config_hash() != b.config_hash()
        assert a.config_hash() == small_config(tmp_path).config_hash()


class TestDeriveSeed:
    def test_deterministic(self):
        assert derive_seed(3, 1, 4) == derive_seed(3, 1, 4)

    def test_coordinates_matter(self):
        seen = {derive_seed(a, b) for a in range(6) for b in range(6)}
        assert len(seen) == 36


class TestEnumerateCells:
    def test_every_triple_exactly_once_plus_baseline(self, tmp_path):
        cfg = small_config(tmp_path)
        cells = _enumerate_cells(cfg)
        keys = [(c.method, c.classifier, c.ir, c.seed) for c in cells]
        assert len(keys) == len(set(keys))
        for method in cfg.methods:
            for ir in cfg.train_irs:
                for clf in cfg.classifiers:
                    for seed in cfg.seeds:
                        assert (method, clf, ir, seed) in keys
        baselines = [c for c in cells if c.is_baseline]
        assert len(baselines) == len(cfg.classifiers) * len(cfg.seeds)

    def test_baseline_forced_even_when_not_configured(self, tmp_path):
        cfg = small_config(tmp_path, methods=("smote",), train_irs=(0.5,))
        cells = _enumerate_cells(cfg)
        assert any(c.is_baseline for c in cells)

    def test_no_duplicate_when_baseline_is_configured(self, tmp_path):
        cfg = small_config(tmp_path, methods=("none",), train_irs=(1.0,), seeds=(0,))
        cells = _enumerate_cells(cfg)
        assert len(cells) == 1


def fake_report(methods, irs, classifier="tree", f1of=None):
    """Hand-assembled report for exercising the emitters in isolation."""
    f1of = f1of or (lambda m, ir: 0.5)
    cells = [
        CellResult(Cell(m, classifier, ir, 0), f1of(m, ir), 100, 0)
        for m in methods
        for ir in irs
    ]
    return ExperimentReport("deadbeef", "0.0-test", tuple(cells), {}, ())


class TestEmitters:
    def test_f1_table_layout(self, tmp_path):
        cfg = small_config(tmp_path, methods=("none", "smote", "adasyn"))
        report = fake_report(("none", "smote", "adasyn"), (1.0, 0.5, 0.25))
        emit_f1_table(report, cfg, tmp_path)
        lines = (tmp_path / "f1_table.csv").read_text().strip().splitlines()
        assert lines[0] == "method,ir,tree"
        # baseline row first, then each method at each configured ratio
        assert lines[1].startswith("baseline,")
        assert len(lines) == 1 + 1 + 3 * 2
        for line in lines[1:]:
            val = line.rsplit(",", 1)[1]
            assert val == f"{float(val):.3f}"
        text = (tmp_path / "f1_table.txt").read_text()
        assert text.splitlines()[0].split() == ["method", "ir", "tree"]

    def test_f1_table_empty_report_is_header_only(self, tmp_path):
        cfg = small_config(tmp_path)
        report = ExperimentReport("x", "v", (), {}, ())
        emit_f1_table(report, cfg, tmp_path)
        assert (tmp_path / "f1_table.csv").read_text().strip() == "method,ir,tree"

    def test_ir_sweep_has_one_polyline_per_method(self, tmp_path):
        methods = (
            "smote", "borderline", "smote_enn", "smote_tomek",
            "adasyn", "gan", "ctgan", "none",
        )
        cfg = small_config(tmp_path, methods=methods, train_irs=(0.5, 0.1))
        report = fake_report(methods, (0.5, 0.1))
        written = emit_ir_sweep_plot(report, cfg, tmp_path)
        assert "ir_sweep.svg" in written
        svg = (tmp_path / "ir_sweep.svg").read_text()
        assert svg.count("<polyline") == 8
        assert svg.count("<circle") == 16
        ET.fromstring(svg[svg.index("<svg") :])

    def test_ir_sweep_monotone_input_monotone_polyline(self, tmp_path):
        cfg = small_config(tmp_path, methods=("smote",), train_irs=(0.1, 0.3, 0.5))
        report = fake_report(("smote",), (0.1, 0.3, 0.5), f1of=lambda m, ir: ir)
        emit_ir_sweep_plot(report, cfg, tmp_path)
        svg = (tmp_path / "ir_sweep.svg").read_text()
        root = ET.fromstring(svg[svg.index("<svg") :])
        ns = "{http://www.w3.org/2000/svg}"
        pts = root.findall(f".//{ns}polyline")[0].attrib["points"]
        ys = [float(p.split(",")[1]) for p in pts.split()]
        # svg y grows downward, so rising F1 must render as falling y
        assert ys == sorted(ys, reverse=True)

    def test_ir_sweep_single_ratio_skips_chart(self, tmp_path, capsys):
        cfg = small_config(tmp_path, train_irs=(0.5,))
        report = fake_report(("none", "smote"), (0.5,))
        written = emit_ir_sweep_plot(report, cfg, tmp_path)
        assert written == ["ir_sweep.csv"]
        assert not (tmp_path / "ir_sweep.svg").exists()
        assert "skipped" in capsys.readouterr().err

    def test_ir_sweep_csv_rows(self, tmp_path):
        cfg = small_config(tmp_path, methods=("none", "smote"))
        report = fake_report(("none", "smote"), (0.5, 0.25))
        emit_ir_sweep_plot(report, cfg, tmp_path)
        lines = (tmp_path / "ir_sweep.csv").read_text().strip().splitlines()
        assert lines[0] == "method,ir,median_f1"
        assert len(lines) == 1 + 4


class TestDiagnostics:
    def test_copy_synthetic_interleaves_in_embedding(self, tmp_path, rng):
        minority = rng.lognormal(mean=2.0, sigma=0.5, size=(40, 3))
        majority = rng.lognormal(mean=4.0, sigma=0.5, size=(40, 3))
        feats = np.vstack([majority, minority, minority])  # synthetic = copy
        origin = np.concatenate([np.zeros(40), np.ones(40), np.full(40, 2)]).astype(int)
        written = write_distribution_diagnostics(
            feats, origin, ("a", "b", "c"), tmp_path, seed=0, cap=120,
            method="ctgan",
        )
        assert set(written) == {
            "ks_report.csv", "histograms.csv", "embedding.csv", "embedding.svg",
        }
        rows = (tmp_path / "embedding.csv").read_text().strip().splitlines()[1:]
        coords, tags = [], []
        for row in rows:
            x, y, tag = row.split(",")
            coords.append((float(x), float(y)))
            tags.append(int(tag))
        coords = np.asarray(coords)
        tags = np.asarray(tags)

        # nearest-neighbor purity between real minority (1) and copies (2):
        # identical rows should embed interleaved, not in separate clusters
        mask = tags > 0
        pts = coords[mask]
        cls = tags[mask]
        d2 = np.sum((pts[:, None] - pts[None, :]) ** 2, axis=2)
        np.fill_diagonal(d2, np.inf)
        same = cls[np.argmin(d2, axis=1)] == cls
        assert float(np.mean(same)) <= 0.6

        ks_lines = (tmp_path / "ks_report.csv").read_text().strip().splitlines()
        assert len(ks_lines) == 1 + 3
        scores = [float(l.rsplit(",", 1)[1]) for l in ks_lines[1:]]
        assert all(s == 1.0 for s in scores)  # synthetic is a literal copy

    def test_no_synthetic_rows_writes_nothing(self, tmp_path, rng):
        feats = rng.lognormal(size=(30, 2))
        origin = np.concatenate([np.zeros(20), np.ones(10)]).astype(int)
        written = write_distribution_diagnostics(
            feats, origin, ("a", "b"), tmp_path, seed=0, cap=30, method="smote"
        )
        assert written == []
        assert not (tmp_path / "ks_report.csv").exists()


@pytest.fixture(scope="module")
def smote_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("experiment")
    cfg = small_config(out)
    report = run_experiment(cfg)
    return cfg, report, out


class TestRunExperiment:
    def test_one_result_per_cell(self, smote_run):
        cfg, report, _ = smote_run
        expected = {(c.method, c.classifier, c.ir, c.seed) for c in _enumerate_cells(cfg)}
        got = [(r.cell.method, r.cell.classifier, r.cell.ir, r.cell.seed) for r in report.cells]
        assert len(got) == len(expected)
        assert set(got) == expected
        assert report.failed == ()
        assert all(r.f1 is not None for r in report.cells)

    def test_synthetic_counts_only_for_augmented_cells(self, smote_run):
        _, report, _ = smote_run
        for r in report.cells:
            if r.cell.method == "none":
                assert r.n_synthetic == 0
            else:
                assert r.n_synthetic > 0

    def test_artifacts_on_disk(self, smote_run):
        cfg, report, out = smote_run
        for name in report.artifacts:
            assert (out / name).exists(), name
        for required in (
            "report.json", "grid.json", "f1_table.csv", "f1_table.txt",
            "ir_sweep.csv", "ir_sweep.svg", "model_summary_tree.json",
            "ks_report.csv", "histograms.csv", "embedding.csv", "embedding.svg",
        ):
            assert required in report.artifacts

    def test_report_json_stamped(self, smote_run):
        cfg, report, out = smote_run
        blob = json.loads((out / "report.json").read_text())
        assert blob["stamp"]["config_hash"] == cfg.config_hash()
        assert blob["stamp"]["seeds"] == list(cfg.seeds)
        assert len(blob["cells"]) == len(report.cells)

    def test_median_f1_aggregates_seeds(self, smote_run):
        cfg, report, _ = smote_run
        vals = [
            r.f1 for r in report.cells
            if r.cell.method == "smote" and r.cell.ir == 0.5
        ]
        assert report.median_f1("smote", "tree", 0.5) == pytest.approx(np.median(vals))
        assert report.median_f1("smote", "tree", 0.77) is None

    def test_svg_artifacts_parse_as_xml(self, smote_run):
        _, report, out = smote_run
        for name in report.artifacts:
            if name.endswith(".svg"):
                text = (out / name).read_text()
                ET.fromstring(text[text.index("<svg") :])

    def test_output_dir_does_not_change_bytes(self, smote_run, tmp_path):
        cfg, _, out = smote_run
        elsewhere = tmp_path / "elsewhere"
        run_experiment(dataclasses.replace(cfg, out_dir=str(elsewhere)))
        names = sorted(p.name for p in out.iterdir())
        assert names == sorted(p.name for p in elsewhere.iterdir())
        for name in names:
            assert (out / name).read_bytes() == (elsewhere / name).read_bytes(), name

    def test_rerun_is_byte_identical(self, smote_run):
        cfg, _, out = smote_run
        before = {
            p.name: p.read_bytes() for p in out.iterdir() if p.suffix != ""
        }
        run_experiment(cfg)
        after = {p.name: p.read_bytes() for p in out.iterdir() if p.suffix != ""}
        assert before.keys() == after.keys()
        for name in before:
            assert before[name] == after[name], f"{name} changed between runs"


class TestRunExperimentEdges:
    def test_single_triple_yields_single_cell_plus_baseline(self, tmp_path):
        cfg = small_config(
            tmp_path, methods=("smote",), train_irs=(0.5,), seeds=(0,)
        )
        report = run_experiment(cfg)
        smote_cells = [r for r in report.cells if r.cell.method == "smote"]
        baseline_cells = [r for r in report.cells if r.cell.is_baseline]
        assert len(smote_cells) == 1
        assert len(baseline_cells) == 1
        assert len(report.cells) == 2

    def test_cell_failures_are_flagged_not_fatal(self, tmp_path):
        # k greater than the minority count sinks every smote cell while
        # the baseline cells still succeed
        cfg = small_config(
            tmp_path,
            methods=("none", "smote"),
            oversample={"k": 500},
            seeds=(0,),
        )
        report = run_experiment(cfg)
        failed = report.failed
        assert failed
        assert all(r.cell.method == "smote" for r in failed)
        assert all(r.f1 is None for r in failed)
        assert all(r.error.startswith("augment: InsufficientMinorityError: ") for r in failed)
        ok = [r for r in report.cells if r.error is None]
        assert ok

    def test_failed_stage_runs_once_and_marks_what_it_feeds(self, tmp_path, monkeypatch):
        # the 1:100 train set needs more majority rows than the pool holds;
        # the generator trains on the first ratio's set, so it fails too
        calls = []

        def counted(*args, **kwargs):
            calls.append(args[0])
            return oversample(*args, **kwargs)

        monkeypatch.setattr("flowbalance.harness.oversample", counted)
        cfg = small_config(
            tmp_path,
            methods=("smote", "gan"),
            classifiers=("tree", "forest"),
            train_irs=(0.01, 0.5),
            seeds=(0,),
            grids={"tree": {"max_depth": [4]}, "forest": {"n_trees": [3], "max_depth": [4]}},
        )
        report = run_experiment(cfg)
        assert len(report.cells) == 10
        for r in report.cells:
            key = (r.cell.method, r.cell.ir, r.cell.classifier)
            if key[:2] in (("none", 1.0), ("smote", 0.5)):
                assert r.error is None, key
            else:
                assert r.error.startswith("train_set: ParameterError: train pool has "), key
        # one augmentation per (method, ratio, seed), not one per classifier
        assert calls == ["smote"]
        assert not any(name.startswith("loss_") for name in report.artifacts)

    def test_programming_errors_propagate(self, tmp_path, monkeypatch):
        # a bug inside an oversampler must crash the run, not become a
        # quietly failed cell. Only the first call (a cell's) fails, so a
        # swallowed error would let the run finish normally.
        calls = []

        def broken_once(*args, **kwargs):
            calls.append(args[0])
            if len(calls) == 1:
                raise IndexError("index 7 is out of bounds")
            return oversample(*args, **kwargs)

        monkeypatch.setattr("flowbalance.harness.oversample", broken_once)
        cfg = small_config(tmp_path, methods=("none", "smote"), seeds=(0,))
        with pytest.raises(IndexError):
            run_experiment(cfg)

    def test_generative_method_end_to_end(self, tmp_path):
        cfg = small_config(
            tmp_path,
            methods=("gan",),
            train_irs=(0.5,),
            seeds=(0,),
            train_minority=40,
            gan={"epochs": 30, "batch_size": 16, "hidden": [8, 8], "noise_dim": 4},
        )
        report = run_experiment(cfg)
        assert report.failed == ()
        gan_cells = [r for r in report.cells if r.cell.method == "gan"]
        assert gan_cells and gan_cells[0].n_synthetic == 40
        assert "loss_gan_seed0.csv" in report.artifacts
        trace = (tmp_path / "loss_gan_seed0.csv").read_text().strip().splitlines()
        assert trace[0] == "epoch,d_loss,g_loss,value"
        assert len(trace) == 1 + 30


class TestCli:
    def test_gen_data_writes_population_and_schemes(self, tmp_path, capsys):
        rc = main([
            "gen-data", "--out", str(tmp_path), "--n-total", "800",
            "--ir", "0.25", "--seed", "3", "--schemes", "train2", "test2",
        ])
        assert rc == 0
        assert (tmp_path / "population.csv").exists()
        assert (tmp_path / "train2.csv").exists()
        assert (tmp_path / "test2.csv").exists()
        assert "population.csv" in capsys.readouterr().out

    def test_gen_data_unknown_scheme_fails(self, tmp_path, capsys):
        rc = main([
            "gen-data", "--out", str(tmp_path), "--n-total", "400",
            "--schemes", "train9",
        ])
        assert rc == 2

    def test_augment_then_train_then_evaluate(self, tmp_path):
        data = generate_flows(600, 0.25, seed=1)
        raw = tmp_path / "raw.csv"
        save_csv(data, raw)

        balanced = tmp_path / "balanced.csv"
        rc = main([
            "augment", "--data", str(raw), "--method", "smote",
            "--seed", "0", "--out", str(balanced),
        ])
        assert rc == 0
        assert balanced.exists()

        summary = tmp_path / "model.json"
        rc = main([
            "train", "--data", str(balanced), "--model", "tree",
            "--params", '{"max_depth": 4}', "--out", str(summary),
        ])
        assert rc == 0
        blob = json.loads(summary.read_text())
        assert blob["kind"] == "tree"
        assert 0.0 <= blob["train_f1"] <= 1.0

        metrics = tmp_path / "metrics.json"
        rc = main([
            "evaluate", "--train", str(balanced), "--test", str(raw),
            "--model", "tree", "--out", str(metrics),
        ])
        assert rc == 0
        assert "test_f1" in json.loads(metrics.read_text())

    def test_experiment_command_runs_config(self, tmp_path, capsys):
        out = tmp_path / "run"
        cfg = small_config(out, seeds=(0,))
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(cfg.to_dict()))
        rc = main(["experiment", "--config", str(cfg_path)])
        assert rc == 0
        assert (out / "report.json").exists()
        assert "failed" in capsys.readouterr().out

    def test_experiment_failed_cells_exit_one(self, tmp_path, capsys):
        out = tmp_path / "run"
        cfg = small_config(
            out,
            methods=("smote",),
            oversample={"k": 500},
            seeds=(0,),
        )
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(cfg.to_dict()))
        rc = main(["experiment", "--config", str(cfg_path)])
        assert rc == 1
        assert "FAILED" in capsys.readouterr().err

    def test_bad_config_exits_two(self, tmp_path, capsys):
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text('{"out_dir": "x", "mystery": 1}')
        rc = main(["experiment", "--config", str(cfg_path)])
        assert rc == 2
        assert "error:" in capsys.readouterr().err

    def test_diagnostics_command(self, tmp_path):
        data = generate_flows(500, 0.3, seed=2)
        raw = tmp_path / "raw.csv"
        save_csv(data, raw)
        out = tmp_path / "diag"
        rc = main([
            "diagnostics", "--data", str(raw), "--method", "smote",
            "--seed", "0", "--cap", "60", "--out", str(out),
        ])
        assert rc == 0
        assert (out / "ks_report.csv").exists()
        assert (out / "embedding.svg").exists()
