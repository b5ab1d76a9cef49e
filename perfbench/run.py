"""Benchmark of flowbalance.run_experiment on one fixed workload.

    python3 perfbench/run.py --workload NAME --seed S --seconds T --trace 0|1

Run from the root of a source checkout. Each experiment runs in a fresh
interpreter (perfbench/workload.py), one after another, closed loop: the
next starts when the previous has finished, and another starts only while
it is expected to end within --seconds (the first always runs). Set-up
time is also sampled in separate interpreters that stop once the workload
is ready. Every experiment passes a correctness gate.

With --trace 0 the last stdout line carries the end-to-end metrics, with
--trace 1 the per-layer metrics of spanned runs (perfbench/spans.py). The
line before it is the environment stamp. Exits 2 without a result when
the checkout has no flowbalance sources.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT))

from perfbench.spans import PER_LAYER  # noqa: E402
from perfbench.workload import WORKLOADS, monotonic  # noqa: E402

SETUP_SAMPLES = 10  # set-up-only interpreters per run, besides the experiments
RUN_LIMIT_S = 170.0  # every run must end within 180 s
END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB", "ok_cell_frac": "frac"}
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def cell_digest(cells: list[dict]) -> str:
    """sha256 of the cell results in report order, without config_hash."""
    rows = [
        [c["method"], c["classifier"], c["ir"], c["seed"], c["f1"], c["n_train"], c["n_synthetic"]]
        for c in cells
    ]
    return hashlib.sha256(json.dumps(rows, separators=(",", ":")).encode()).hexdigest()


def expected_cells(spec: dict) -> set[tuple]:
    cells = {("none", c, 1.0, s) for c in spec["classifiers"] for s in spec["seeds"]}
    cells |= {
        (m, c, ir, s)
        for m in spec["methods"]
        for ir in spec["train_irs"]
        for c in spec["classifiers"]
        for s in spec["seeds"]
    }
    return cells


def expected_artifacts(spec: dict) -> set[str]:
    names = {"grid.json", "report.json", "f1_table.csv", "f1_table.txt", "ir_sweep.csv"}
    names |= {f"model_summary_{c}.json" for c in spec["classifiers"]}
    if len(set(spec["train_irs"])) >= 2:
        names.add("ir_sweep.svg")
    names |= {
        f"loss_{m}_seed{s}.csv" for m in ("gan", "ctgan") if m in spec["methods"] for s in spec["seeds"]
    }
    if any(m != "none" for m in spec["methods"]):
        names |= {"ks_report.csv", "histograms.csv", "embedding.csv", "embedding.svg"}
    return names


def gate(spec: dict, out_dir: Path, result: dict, digest: str | None) -> tuple[list[str], int]:
    """(problems, failed cells) of one finished experiment."""
    report = json.loads((out_dir / "report.json").read_text())
    cells = report["cells"]
    failed = sum(1 for c in cells if c["error"] is not None)
    problems = []
    if failed:
        problems.append(f"{failed} failed cells")
    if {(c["method"], c["classifier"], c["ir"], c["seed"]) for c in cells} != expected_cells(spec):
        problems.append("cell set differs from the workload's")
    if not all(c["f1"] is not None and 0.0 <= c["f1"] <= 1.0 for c in cells):
        problems.append("an F1 outside [0, 1]")
    artifacts = expected_artifacts(spec)
    if set(report["artifacts"]) != artifacts or set(os.listdir(out_dir)) != artifacts:
        problems.append("artifact set differs from the expected one")
    if digest is not None and cell_digest(cells) != digest:
        problems.append(f"cell digest {cell_digest(cells)} != recorded {digest}")
    if "self_sum_s" in result:
        wall = result["wall_s"]
        if abs(wall - result["self_sum_s"]) > 1e-3 * wall + 1e-3:
            problems.append("span self times do not add up to the traced wall time")
        if result["min_self_s"] < -1e-9:
            problems.append("negative span self time")
    return problems, failed


def recorded_digest(workload: str, seed: int) -> str | None:
    """The digest recorded for the default seed, None for other seeds."""
    if seed != 0:
        return None
    baseline = json.loads((HERE / "baseline.json").read_text())
    return baseline["digests"].get(workload, "none recorded")


def spawn(args: list[str], result_file: Path, timeout: float) -> dict:
    """Run workload.py with ``args`` and return the object it writes to ``result_file``."""
    result_file.unlink(missing_ok=True)
    cmd = [sys.executable, str(HERE / "workload.py"), *args, "--result", str(result_file)]
    cmd += ["--spawned-at", repr(monotonic())]
    # the experiment's own chatter goes to stderr; stdout ends with the result
    subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr, check=True, timeout=timeout)
    return json.loads(result_file.read_text())


def git_sha() -> str:
    """HEAD of the checkout, read without git; "unknown" outside a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def stamp(workload: str, seed: int, worker: dict) -> dict:
    return {
        "git_sha": git_sha(),
        "cpu": cpu_model(),
        "python": platform.python_version(),
        "numpy": worker.get("numpy", "unknown"),
        "blas": worker.get("blas", "unknown"),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "blas_env": {k: os.environ.get(k, "default") for k in BLAS_ENV},
        "workload": workload,
        "seed": seed,
    }


def main() -> int:
    started = time.monotonic()
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "flowbalance" / "__init__.py").is_file():
        print(f"no flowbalance sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    spec = WORKLOADS[args.workload](args.seed)
    base = ROOT / ".bench_out" / args.workload
    base.mkdir(parents=True, exist_ok=True)
    out_dir, result_file = base / "out", base / "worker.json"
    common = ["--workload", args.workload, "--seed", str(args.seed), "--out", str(out_dir)]
    digest = recorded_digest(args.workload, args.seed)

    setup = [
        spawn([*common, "--setup-only"], result_file, 60)["setup_s"]
        for _ in range(SETUP_SAMPLES)
    ]
    runs, problems = [], []
    attempted = failed = 0
    n_cells = len(expected_cells(spec))
    extra = ["--trace"] if args.trace else []
    measure_start, last = time.monotonic(), 0.0
    while not runs or time.monotonic() - measure_start + last <= args.seconds:
        t0 = time.monotonic()
        if t0 - started + 1.2 * last > RUN_LIMIT_S:
            break
        attempted += n_cells
        try:
            result = spawn([*common, *extra], result_file, RUN_LIMIT_S - (t0 - started))
            found, bad = gate(spec, out_dir, result, digest)
        except (subprocess.SubprocessError, OSError, ValueError, KeyError) as exc:
            problems.append(f"experiment did not finish: {exc!r}")
            failed += n_cells
            break
        last = time.monotonic() - t0
        failed += n_cells if found else bad
        problems += found
        runs.append(result)
        setup.append(result["setup_s"])

    values = {}
    if runs and args.trace:
        values = {m: statistics.median(r["layers"][m] for r in runs) for m in PER_LAYER}
    elif runs:
        values = {
            "wall_s": statistics.median(r["wall_s"] for r in runs),
            "setup_s": statistics.median(setup),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in runs),
            "ok_cell_frac": 1.0 - failed / attempted,
        }
    names = PER_LAYER if args.trace else END_TO_END
    for p in problems:
        print(f"correctness: {p}", file=sys.stderr)
    env = stamp(args.workload, args.seed, runs[0] if runs else {})
    line = {
        "correct": not problems and bool(runs),
        "attempted": attempted,
        "failed": failed,
        "metrics": {m: {"value": values.get(m, 0.0), "unit": u} for m, u in names.items()},
    }
    (base / f"result_trace{args.trace}.json").write_text(
        json.dumps({"stamp": env, "experiments": len(runs), **line}, indent=2) + "\n"
    )
    print("stamp " + json.dumps(env, sort_keys=True))
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
