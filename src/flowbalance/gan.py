"""Adversarial generators for synthetic minority rows.

Two trainers share one loop skeleton. ``train_gan`` works on min-max
scaled features with a tanh generator head. ``train_ctgan`` works on the
mode encoding from :mod:`flowbalance.mixtures` and gives the generator a
mixed tanh/softmax head matching the encoding layout. Flow features are
all continuous, so neither trainer conditions its nets: the generator
sees noise only and the discriminator sees encoded rows only.

Both optimize the usual two-player value: the discriminator maximizes
``E[log D(x)] + E[log(1 - D(G(z)))]`` while the generator uses the
non-saturating form (maximize ``log D(G(z))``). All log terms are
evaluated through softplus on raw logits so nothing overflows, and the
value on a fixed probe batch is logged every epoch.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import InsufficientMinorityError, ParameterError, TrainingDivergedError
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
        lines = [",".join(self.HEADER)]
        for epoch, d_loss, g_loss, value in self.rows:
            lines.append(f"{epoch},{repr(d_loss)},{repr(g_loss)},{repr(value)}")
        Path(path).write_text("\n".join(lines) + "\n")


@dataclass
class GeneratorModel:
    """A trained generator/discriminator pair plus its data encoding."""

    kind: str  # "gan" or "ctgan"
    g_net: FeedforwardNet
    d_net: FeedforwardNet
    head: MixedActivation
    noise_dim: int
    normalizer: MinMaxNormalizer | ModeNormalizer
    trace: LossTrace
    feature_names: tuple[str, ...]

    def sample(self, n: int, seed: int) -> np.ndarray:
        """Draw n synthetic rows on the original feature scale."""
        rng = np.random.default_rng(seed)
        z = rng.normal(size=(n, self.noise_dim))
        raw = self.head.forward(self.g_net.forward(z))
        if self.kind == "gan":
            return self.normalizer.inverse(raw)
        return self.normalizer.decode(raw, harden=True)

    def discriminator_prob(self, features: np.ndarray) -> np.ndarray:
        """P(real) the discriminator assigns to rows on the original scale."""
        if self.kind == "gan":
            enc = self.normalizer.transform(features)
        else:
            enc = self.normalizer.encode(features)
        return sigmoid(self.d_net.forward(enc)[:, 0])


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

        probe_fake = head.forward(g_net.forward(probe_z))
        scores = d_net.forward(np.vstack([probe_real, probe_fake]))[:, 0]
        value = float(
            np.mean(-softplus(-scores[:probe_n])) + np.mean(-softplus(scores[probe_n:]))
        )
        d_epoch = d_sum / steps_per_epoch
        g_epoch = g_sum / steps_per_epoch
        if not (np.isfinite(d_epoch) and np.isfinite(g_epoch) and np.isfinite(value)):
            raise TrainingDivergedError("loss became non-finite", epoch=epoch)
        trace_rows.append((epoch, d_epoch, g_epoch, value))

    return g_net, d_net, LossTrace(tuple(trace_rows))


def train_gan(
    features: np.ndarray,
    config: GanConfig,
    feature_names: tuple[str, ...] = (),
) -> GeneratorModel:
    """Train a plain GAN on min-max scaled features."""
    features = np.asarray(features, dtype=np.float64)
    if features.ndim != 2 or features.shape[0] < 2:
        raise ParameterError("need a 2-D feature matrix with at least two rows")
    norm = MinMaxNormalizer().fit(features)
    encoded = norm.transform(features)
    head = MixedActivation(tanh_cols=tuple(range(encoded.shape[1])))
    g_net, d_net, trace = _adversarial_loop(encoded, head, config=config)
    names = feature_names or tuple(f"f{j}" for j in range(features.shape[1]))
    return GeneratorModel(
        "gan", g_net, d_net, head, config.noise_dim, norm, trace, names
    )


def train_ctgan(
    features: np.ndarray,
    config: GanConfig,
    feature_names: tuple[str, ...] = (),
) -> GeneratorModel:
    """Train a GAN on the per-column mode encoding.

    The generator's output head matches the encoding layout: tanh on each
    column's offset and a softmax over each column's mode indicators.
    """
    features = np.asarray(features, dtype=np.float64)
    if features.ndim != 2 or features.shape[0] < 2:
        raise ParameterError("need a 2-D feature matrix with at least two rows")
    names = feature_names or tuple(f"f{j}" for j in range(features.shape[1]))
    rng = np.random.default_rng(config.seed)
    norm = ModeNormalizer(max_modes=config.max_modes).fit(features, names)
    layout = norm.layout
    encoded = norm.encode(features, rng)
    head = MixedActivation(layout.tanh_cols, layout.softmax_blocks)
    g_net, d_net, trace = _adversarial_loop(encoded, head, config=config)
    return GeneratorModel(
        "ctgan", g_net, d_net, head, config.noise_dim, norm, trace, names
    )
