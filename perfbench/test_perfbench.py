"""Tests of the benchmark itself: python3 -m pytest perfbench"""

from __future__ import annotations

import importlib
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from perfbench import run, spans, workload

sys.path.insert(0, str(workload.ROOT / "src"))

# Runs in a few seconds; smote_tomek reaches the kNN and Tomek spans.
TINY = dict(
    data=dict(n_total=3_000, population_ir=0.1),
    methods=("none", "smote", "smote_tomek"),
    classifiers=("tree",),
    train_irs=(0.5,),
    train_minority=60,
    seeds=(0,),
)
TINY_DIGEST = "1aecdcfecccf0d9580a1920ddff8b099d2bdd61a76335940f4f5ca0eb918a890"


class FakeClock:
    def __init__(self, ticks):
        self.ticks = iter(ticks)

    def __call__(self):
        return next(self.ticks)


def test_self_time_excludes_nested_spans():
    rec = spans.Recorder(clock=FakeClock([0.0, 1.0, 2.0, 4.0, 7.0, 8.0, 9.0, 10.0]))
    with rec.span("root"):  # 0 .. 10
        with rec.span("a"):  # 1 .. 9
            with rec.span("b"):  # 2 .. 4
                pass
            with rec.span("b"):  # 7 .. 8
                pass
    assert rec.parents == [-1, 0, 1, 1]
    assert rec.self_times() == [2.0, 5.0, 2.0, 1.0]
    assert rec.by_name() == {"root": (1, 10.0, 2.0), "a": (1, 8.0, 5.0), "b": (2, 3.0, 3.0)}
    assert sum(rec.self_times()) == rec.durations()[0]


def test_span_closes_when_the_call_raises():
    rec = spans.Recorder(clock=FakeClock([0.0, 1.0, 2.0, 3.0]))

    class Owner:
        @staticmethod
        def boom():
            raise ValueError("x")

    rec.wrap(Owner, "boom", "owner.boom")
    with rec.span("root"):
        with pytest.raises(ValueError):
            Owner.boom()
    assert rec.names == ["root", "owner.boom"]
    assert rec.durations() == [3.0, 1.0]
    assert rec._open == []


def _originals():
    found = {}
    for module, cls, attr, _, _ in spans.TARGETS:
        owner = importlib.import_module(f"flowbalance.{module}")
        if cls is not None:
            owner = getattr(owner, cls)
        found[(module, cls, attr)] = (owner, owner.__dict__[attr])
    return found


def test_traced_run_restores_every_wrapped_attribute(tmp_path):
    before = _originals()
    result = workload.run(TINY, tmp_path / "out", workload.monotonic(), trace=True, setup_only=False)
    for key, (owner, original) in before.items():
        assert getattr(owner, key[2]) is original, key
    layers = result["layers"]
    assert list(layers) == list(spans.PER_LAYER)
    assert layers["oversample.tomek_rounds"] >= 1
    assert layers["neighbors.knn_table_calls"] >= 2
    assert layers["trees.fit_tree_calls"] >= 1
    assert abs(result["self_sum_s"] - result["wall_s"]) < 1e-3 * result["wall_s"] + 1e-3
    assert result["min_self_s"] >= 0.0
    own = sum(layers[f"{m}.self_s"] for m in spans.MODULES) + layers["harness.self_s"]
    assert own == pytest.approx(result["self_sum_s"])


def test_seed_argument_moves_the_experiment_seeds():
    for name, make in workload.WORKLOADS.items():
        assert make(0)["seeds"] == (0, 1), name
        assert make(7)["seeds"] == (7, 8), name
        assert "workers" not in make(0), name


def test_tiny_config_reproduces_its_digest(tmp_path):
    digests = []
    for i in range(2):
        out = tmp_path / f"run{i}"
        result = workload.run(TINY, out, workload.monotonic(), trace=False, setup_only=False)
        problems, failed = run.gate(TINY, out, result, TINY_DIGEST)
        assert problems == [] and failed == 0
        digests.append(run.cell_digest(json.loads((out / "report.json").read_text())["cells"]))
    assert digests == [TINY_DIGEST, TINY_DIGEST]


def test_gate_rejects_a_changed_result(tmp_path):
    out = tmp_path / "out"
    result = workload.run(TINY, out, workload.monotonic(), trace=False, setup_only=False)
    report = json.loads((out / "report.json").read_text())
    report["cells"][0]["f1"] = 1.5
    (out / "report.json").write_text(json.dumps(report))
    (out / "stray.csv").write_text("")
    problems, _ = run.gate(TINY, out, result, TINY_DIGEST)
    assert any("F1" in p for p in problems)
    assert any("artifact" in p for p in problems)
    assert any("digest" in p for p in problems)


def test_benchmark_json_lists_the_emitted_metrics():
    bench = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text())
    assert {w["name"] for w in bench["workloads"]} == set(workload.WORKLOADS)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == spans.PER_LAYER


def test_exits_without_result_when_sources_are_missing(tmp_path):
    shutil.copytree(Path(run.HERE), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(Path(run.ROOT) / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "smote_family", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
