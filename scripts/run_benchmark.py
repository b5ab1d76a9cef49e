"""Run the full augmentation-vs-sampling benchmark and print the table.

Generates a synthetic flow population, sweeps every augmentation method
over the configured training imbalance ratios and classifiers, and
writes the report plus charts and diagnostics into --out. The `quick`
preset is a couple of minutes on one CPU; `full` is roughly half an
hour because the generative methods train per seed.
"""
import argparse
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from flowbalance.harness import DataConfig, ExperimentConfig, run_experiment

PRESETS = {
    "quick": dict(
        data=DataConfig(n_total=12_000, population_ir=0.1),
        train_minority=200,
        seeds=(0, 1),
        gan={"epochs": 200},
    ),
    "full": dict(
        data=DataConfig(n_total=30_000, population_ir=0.08),
        train_minority=500,
        seeds=(0, 1, 2, 3, 4),
        gan={"epochs": 500},
    ),
}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", required=True, help="output directory")
    parser.add_argument("--preset", choices=sorted(PRESETS), default="quick")
    parser.add_argument("--classifiers", nargs="*", default=["tree", "forest", "boost"])
    parser.add_argument("--irs", nargs="*", type=float, default=[0.5, 0.1])
    args = parser.parse_args()

    config = ExperimentConfig(
        out_dir=args.out,
        classifiers=tuple(args.classifiers),
        train_irs=tuple(args.irs),
        **PRESETS[args.preset],
    )
    t0 = time.monotonic()
    report = run_experiment(config)
    print(f"\nfinished in {(time.monotonic() - t0) / 60:.1f} min")
    for cell in report.failed:
        print(f"FAILED {cell.cell}: {cell.error}")

    table = Path(args.out) / "f1_table.txt"
    print(f"\n{table}:\n")
    print(table.read_text())
    return 1 if report.failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
