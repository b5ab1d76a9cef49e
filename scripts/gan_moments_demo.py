"""Train the plain GAN on a correlated 2-D Gaussian and audit its moments.

A compact sanity loop for the adversarial trainer: fit, sample, compare
sample mean / covariance to the training data, and report how often the
discriminator is right (near 0.5 means the generator is holding its
own). Writes the loss trace CSV next to --out if given.
"""
import argparse
import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from flowbalance.gan import GanConfig, train_gan


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--epochs", type=int, default=2000)
    parser.add_argument("--d-steps", type=int, default=5,
                        help="discriminator updates per generator update")
    parser.add_argument("--out", default=None, help="loss trace CSV path")
    args = parser.parse_args()

    rng = np.random.default_rng(args.seed)
    data = rng.multivariate_normal([0.5, -0.3], [[1.0, 0.6], [0.6, 1.0]], size=640)
    cfg = GanConfig(
        noise_dim=16, hidden=(128, 128), lr=5e-4, batch_size=64,
        epochs=args.epochs, d_steps=args.d_steps, seed=args.seed,
    )
    t0 = time.monotonic()
    model = train_gan(data, cfg)
    print(f"trained {args.epochs} epochs in {time.monotonic() - t0:.0f}s")

    fake = model.sample(5000, seed=args.seed + 1)
    mean_err = float(np.linalg.norm(fake.mean(axis=0) - data.mean(axis=0)))
    cov_err = float(np.linalg.norm(np.cov(fake.T) - np.cov(data.T)))
    p_real = model.discriminator_prob(data)
    p_fake = model.discriminator_prob(fake[: data.shape[0]])
    acc = 0.5 * (float(np.mean(p_real >= 0.5)) + float(np.mean(p_fake < 0.5)))
    print(f"mean error        {mean_err:.4f}")
    print(f"cov Frobenius err {cov_err:.4f}")
    print(f"D accuracy        {acc:.3f}  (0.5 = fooled)")

    if args.out:
        model.trace.to_csv(args.out)
        print(f"loss trace -> {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
