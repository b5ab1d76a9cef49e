"""Repeat run.py over seeds and summarise every metric by its quartiles.

    python3 perfbench/sweep.py --workloads quick_matrix generative \\
        --seeds 1 2 3 4 5 --seconds 44 --trace 0 --out sweep.json

For each workload and metric it reports the median, the first and third
quartiles (``statistics.quantiles(values, n=4)``) and the spread, the
distance between the quartiles as a share of the median. Every run also
records the digest of its cell results. Runs are sequential.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT))

from perfbench.run import cell_digest  # noqa: E402


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                          text=True, check=True, timeout=200)
    lines = proc.stdout.strip().splitlines()
    line = json.loads(lines[-1])
    line["stamp"] = json.loads(lines[-2].removeprefix("stamp "))
    report = json.loads((ROOT / ".bench_out" / workload / "out" / "report.json").read_text())
    line["digest"] = cell_digest(report["cells"])
    line["seed"] = seed
    return line


def summarise(values: list[float]) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else 0.0}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workloads", nargs="+", required=True)
    parser.add_argument("--seeds", nargs="+", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", required=True)
    parser.add_argument("--record", action="store_true",
                        help="also store the summary as the baseline in perfbench/baseline.json")
    args = parser.parse_args()
    summary = {}
    for workload in args.workloads:
        runs = []
        for seed in args.seeds:
            if args.trace:
                # an untraced run right before gives the overhead a partner
                # measured under the same machine load
                plain = run_once(workload, seed, args.seconds, 0)
            run = run_once(workload, seed, args.seconds, args.trace)
            if args.trace:
                run["untraced_wall_s"] = plain["metrics"]["wall_s"]["value"]
            runs.append(run)
            wall = run["metrics"]["harness.wall_s" if args.trace else "wall_s"]["value"]
            print(workload, seed, "correct" if run["correct"] else "INCORRECT", wall,
                  file=sys.stderr, flush=True)
        metrics = runs[0]["metrics"]
        summary[workload] = {
            "correct": all(r["correct"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "runs": runs,
            "metrics": {
                m: {"unit": metrics[m]["unit"],
                    **summarise([r["metrics"][m]["value"] for r in runs])}
                for m in metrics
            },
        }
        Path(args.out).write_text(json.dumps(summary, indent=2) + "\n")
    if args.record:
        record(summary, args.trace)
    return 0


def record(summary: dict, trace: int) -> None:
    """Store end-to-end quartiles (trace 0), or the first traced run's
    per-layer table and the tracing overhead (trace 1), in baseline.json.

    The overhead is the median over seeds of traced wall time minus the
    wall time of the untraced run just before it."""
    path = HERE / "baseline.json"
    baseline = json.loads(path.read_text())
    for workload, s in summary.items():
        first = s["runs"][0]
        baseline["stamp"] = {k: v for k, v in first["stamp"].items() if k not in ("workload", "seed")}
        if trace == 0:
            baseline.setdefault("end_to_end", {})[workload] = {
                "seeds": [r["seed"] for r in s["runs"]], **s["metrics"],
            }
            continue
        pairs = [(r["untraced_wall_s"], r["metrics"]["harness.wall_s"]["value"]) for r in s["runs"]]
        baseline.setdefault("tracing_overhead_s", {})[workload] = {
            "seeds": [r["seed"] for r in s["runs"]],
            "untraced_wall_s": [u for u, _ in pairs],
            "traced_wall_s": [t for _, t in pairs],
            "median_overhead_s": statistics.median(t - u for u, t in pairs),
        }
        baseline.setdefault("per_layer", {})[workload] = {
            "seed": first["seed"], **{m: v["value"] for m, v in first["metrics"].items()},
        }
    path.write_text(json.dumps(baseline, indent=2) + "\n")


if __name__ == "__main__":
    raise SystemExit(main())
