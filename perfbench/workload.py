"""One benchmark experiment in a fresh interpreter.

    python3 perfbench/workload.py --workload NAME --seed S --out DIR \
        --result FILE --spawned-at T [--trace] [--setup-only]

``--spawned-at`` is the parent's CLOCK_MONOTONIC reading just before it
started this process, so ``setup_s`` covers interpreter start, imports,
the config and the output directory. The process writes one JSON object
to ``--result`` and leaves the experiment's artifacts in ``--out``.
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

ALL_METHODS = ("none", "smote", "borderline", "smote_enn", "smote_tomek", "adasyn", "gan", "ctgan")

# Written out here, not read from scripts/, so edits there cannot move them.
# Each takes the workload seed s and runs experiment seeds (s, s + 1).
WORKLOADS = {
    # scripts/run_benchmark.py --preset quick
    "quick_matrix": lambda s: dict(
        data=dict(n_total=12_000, population_ir=0.1),
        methods=ALL_METHODS,
        classifiers=("tree", "forest", "boost"),
        train_irs=(0.5, 0.1),
        train_minority=200,
        seeds=(s, s + 1),
        gan={"epochs": 200},
    ),
    "smote_family": lambda s: dict(
        data=dict(n_total=30_000, population_ir=0.08),
        methods=("none", "smote", "borderline", "smote_enn", "smote_tomek", "adasyn"),
        classifiers=("forest",),
        train_irs=(0.5, 0.1),
        train_minority=500,
        seeds=(s, s + 1),
    ),
    "generative": lambda s: dict(
        data=dict(n_total=30_000, population_ir=0.08),
        methods=("none", "gan", "ctgan"),
        classifiers=("forest",),
        train_irs=(0.5, 0.1),
        train_minority=500,
        seeds=(s, s + 1),
        gan={"epochs": 500},
    ),
}


def monotonic() -> float:
    """A clock shared by every process on the machine."""
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def build_config(spec: dict, out_dir: Path):
    """An ExperimentConfig from a workload spec (``workers`` left at its default)."""
    from flowbalance.harness import DataConfig, ExperimentConfig

    fields = dict(spec)
    fields["data"] = DataConfig(**fields["data"])
    return ExperimentConfig(out_dir=str(out_dir), **fields)


def peak_rss_mb() -> float:
    """Peak resident set of this process plus its largest waited-for child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + kids) / 1024.0  # Linux reports KiB


def _blas_name(numpy) -> str:
    try:
        return numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (TypeError, KeyError):  # older numpy has no dict mode
        return "unknown"


def run(spec: dict, out_dir: Path, spawned_at: float, trace: bool, setup_only: bool) -> dict:
    sys.path.insert(0, str(ROOT / "src"))
    from flowbalance.harness import run_experiment

    config = build_config(spec, out_dir)
    shutil.rmtree(out_dir, ignore_errors=True)
    out_dir.mkdir(parents=True)
    setup_s = monotonic() - spawned_at
    if setup_only:
        return {"setup_s": setup_s}

    recorder = None
    if trace:
        sys.path.insert(0, str(ROOT))
        from perfbench.spans import Recorder

        recorder = Recorder()
        recorder.install()
    cpu0 = time.process_time()
    t0 = time.perf_counter()
    try:
        if recorder is None:
            report = run_experiment(config)
        else:
            with recorder.span("harness.run_experiment"):
                report = run_experiment(config)
    finally:
        wall_s = time.perf_counter() - t0
        cpu_s = time.process_time() - cpu0
        if recorder is not None:
            recorder.uninstall()
    import numpy

    result = {
        "numpy": numpy.__version__,
        "blas": _blas_name(numpy),
        "setup_s": setup_s,
        "wall_s": wall_s,
        "peak_rss_mb": peak_rss_mb(),
    }
    if recorder is not None:
        recorder.write(out_dir.parent / (out_dir.name + ".spans.json"))
        result["layers"] = recorder.layer_metrics(wall_s, cpu_s, report, out_dir)
        own = recorder.self_times()
        result["self_sum_s"] = sum(own)
        result["min_self_s"] = min(own)
    return result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()
    spec = WORKLOADS[args.workload](args.seed)
    result = run(spec, Path(args.out), args.spawned_at, args.trace, args.setup_only)
    Path(args.result).write_text(json.dumps(result, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
