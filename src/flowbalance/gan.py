"""Adversarial generators for synthetic minority rows.

``train_gan`` and ``train_ctgan`` differ only in how rows are encoded:
a min-max scaling for the GAN, and the mode encoding from
:mod:`flowbalance.mixtures` for CTGAN. Each fits its normalizer and
encodes the training rows; one body then builds the generator head from
the normalizer's layout (tanh columns and softmax blocks) and runs the
shared adversarial loop. Flow features are all continuous, so neither
trainer conditions its nets: the generator sees noise only and the
discriminator sees encoded rows only.

Both optimize the usual two-player value: the discriminator maximizes
``E[log D(x)] + E[log(1 - D(G(z)))]`` while the generator uses the
non-saturating form (maximize ``log D(G(z))``). All log terms are
evaluated through softplus on raw logits so nothing overflows, and the
value on a fixed probe batch is logged every epoch.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InsufficientMinorityError, ParameterError, TrainingDivergedError
from .evaluate import write_csv
from .mixtures import MinMaxNormalizer, ModeNormalizer
from .nets import FeedforwardNet, MixedActivation, SgdMomentum, sigmoid


def softplus(s: np.ndarray) -> np.ndarray:
    return np.logaddexp(0.0, s)


@dataclass(frozen=True)
class GanConfig:
    """Training knobs shared by both adversarial trainers."""

    noise_dim: int = 16
    hidden: tuple[int, ...] = (128, 128)
    lr: float = 2e-4
    momentum: float = 0.9
    batch_size: int = 64
    epochs: int = 2000
    d_steps: int = 1
    max_modes: int = 10
    seed: int = 0

    def __post_init__(self):
        if self.noise_dim < 1 or self.batch_size < 1 or self.epochs < 1:
            raise ParameterError("noise_dim, batch_size, and epochs must be positive")
        if self.d_steps < 1:
            raise ParameterError("d_steps must be at least 1")
        if not self.hidden:
            raise ParameterError("need at least one hidden layer")
        # the bounds SgdMomentum and ModeNormalizer.fit put on these, checked
        # here so a bad value fails when the config is built, not mid-run
        if not self.lr > 0:
            raise ParameterError(f"lr must be positive, got {self.lr}")
        if not 0 <= self.momentum < 1:
            raise ParameterError(f"momentum must be in [0, 1), got {self.momentum}")
        if self.max_modes < 1:
            raise ParameterError(f"max_modes must be at least 1, got {self.max_modes}")


@dataclass(frozen=True)
class LossTrace:
    """Per-epoch (epoch, d_loss, g_loss, value) rows.

    ``value`` is the two-player objective on the fixed probe batch; at a
    good equilibrium it hovers near -2 log 2.
    """

    rows: tuple[tuple[int, float, float, float], ...]

    HEADER = ("epoch", "d_loss", "g_loss", "value")

    def column(self, name: str) -> np.ndarray:
        idx = self.HEADER.index(name)
        return np.asarray([r[idx] for r in self.rows], dtype=np.float64)

    def to_csv(self, path) -> None:
        write_csv(path, self.HEADER, self.rows)


@dataclass
class GeneratorModel:
    """A trained generator/discriminator pair plus its data encoding."""

    g_net: FeedforwardNet
    d_net: FeedforwardNet
    head: MixedActivation
    normalizer: MinMaxNormalizer | ModeNormalizer
    trace: LossTrace

    def sample(self, n: int, seed: int) -> np.ndarray:
        """Draw n synthetic rows on the original feature scale.

        Runs the inference passes, so the nets keep no activations of the
        n rows and their training state is left as it was.
        """
        rng = np.random.default_rng(seed)
        z = rng.normal(size=(n, self.g_net.layer_sizes[0]))
        return self.normalizer.decode(self.head.predict(self.g_net.predict(z)), harden=True)

    def discriminator_prob(self, features: np.ndarray) -> np.ndarray:
        """P(real) the discriminator assigns to rows on the original scale."""
        return sigmoid(self.d_net.predict(self.normalizer.encode(features))[:, 0])


def _adversarial_loop(
    encoded: np.ndarray,
    head: MixedActivation,
    *,
    config: GanConfig,
) -> tuple[FeedforwardNet, FeedforwardNet, LossTrace]:
    """The shared training loop over an already-encoded real matrix.

    ``config`` is keyword-only because the benchmark's span recorder
    (``perfbench/spans.py``) reads it from the call's keywords.
    """
    n, width = encoded.shape
    if n < 2 * config.batch_size:
        raise InsufficientMinorityError(
            f"need at least 2 * batch_size = {2 * config.batch_size} training "
            f"rows, got {n}"
        )
    rng = np.random.default_rng(config.seed)
    g_net = FeedforwardNet(
        (config.noise_dim, *config.hidden, width),
        seed=int(rng.integers(2**31)),
    )
    d_net = FeedforwardNet(
        (width, *config.hidden, 1),
        seed=int(rng.integers(2**31)),
    )
    g_opt = SgdMomentum(g_net, config.lr, config.momentum)
    d_opt = SgdMomentum(d_net, config.lr, config.momentum)

    probe_n = min(n, 256)
    probe_rows = rng.choice(n, size=probe_n, replace=False)
    probe_real = encoded[probe_rows]
    probe_z = rng.normal(size=(probe_n, config.noise_dim))

    def generate(m: int) -> np.ndarray:
        z = rng.normal(size=(m, config.noise_dim))
        return head.forward(g_net.forward(z))

    steps_per_epoch = max(1, -(-n // config.batch_size))
    trace_rows: list[tuple[int, float, float, float]] = []
    for epoch in range(config.epochs):
        d_sum = 0.0
        g_sum = 0.0
        for _ in range(steps_per_epoch):
            m = config.batch_size
            for _ in range(config.d_steps):
                real = encoded[rng.integers(0, n, size=m)]
                fake = generate(m)
                scores = d_net.forward(np.vstack([real, fake]))[:, 0]
                s_real, s_fake = scores[:m], scores[m:]
                d_loss = float(np.mean(softplus(-s_real)) + np.mean(softplus(s_fake)))
                dout = np.concatenate([-sigmoid(-s_real), sigmoid(s_fake)]) / m
                d_opt.step(d_net.backward(dout[:, None]))
            d_sum += d_loss

            fake = generate(m)
            s_fake = d_net.forward(fake)[:, 0]
            g_loss = float(np.mean(softplus(-s_fake)))
            dout = (-sigmoid(-s_fake) / m)[:, None]
            d_fake = d_net.backward(dout).inputs
            g_opt.step(g_net.backward(head.backward(d_fake)))
            g_sum += g_loss

        probe_fake = head.predict(g_net.predict(probe_z))
        scores = d_net.predict(np.vstack([probe_real, probe_fake]))[:, 0]
        value = float(
            np.mean(-softplus(-scores[:probe_n])) + np.mean(-softplus(scores[probe_n:]))
        )
        d_epoch = d_sum / steps_per_epoch
        g_epoch = g_sum / steps_per_epoch
        if not (np.isfinite(d_epoch) and np.isfinite(g_epoch) and np.isfinite(value)):
            raise TrainingDivergedError("loss became non-finite", epoch=epoch)
        trace_rows.append((epoch, d_epoch, g_epoch, value))

    return g_net, d_net, LossTrace(tuple(trace_rows))


def _train(
    normalizer: MinMaxNormalizer | ModeNormalizer, encoded: np.ndarray, config: GanConfig
) -> GeneratorModel:
    """Train on rows ``normalizer`` encoded, with a head laid out like its encoding."""
    head = MixedActivation(normalizer.tanh_cols, normalizer.softmax_blocks)
    g_net, d_net, trace = _adversarial_loop(encoded, head, config=config)
    return GeneratorModel(g_net, d_net, head, normalizer, trace)


def train_gan(features: np.ndarray, config: GanConfig) -> GeneratorModel:
    """Train a plain GAN on min-max scaled features."""
    norm = MinMaxNormalizer.fit(features)
    return _train(norm, norm.encode(features), config)


def train_ctgan(features: np.ndarray, config: GanConfig) -> GeneratorModel:
    """Train a GAN on the per-column mode encoding.

    Each training value's mode is drawn from its posterior, with an rng
    seeded by ``config.seed``.
    """
    norm = ModeNormalizer.fit(features, config.max_modes)
    return _train(norm, norm.encode(features, np.random.default_rng(config.seed)), config)
