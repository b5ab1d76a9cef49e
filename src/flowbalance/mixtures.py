"""Per-column density modeling and the encodings built on it.

The continuous columns of flow data are heavy-tailed and often multimodal,
so a single min-max squash loses structure. This module fits a 1-D
Gaussian mixture per column by EM (model size chosen by BIC, trace kept so
monotone convergence can be asserted), then encodes each value as a
bounded offset within its mode plus a one-hot mode indicator. A simple
[-1, 1] min-max normalizer is also provided for models that want a flat
encoding.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import EncodingError, ParameterError, SingularComponentError

WEIGHT_FLOOR = 0.005
LOG_2PI = float(np.log(2.0 * np.pi))


@dataclass(frozen=True)
class Mixture1D:
    """A 1-D Gaussian mixture and the log-likelihood trace of its EM fit."""

    weights: np.ndarray
    means: np.ndarray
    stds: np.ndarray
    loglik_trace: tuple[float, ...]

    @property
    def n_modes(self) -> int:
        return int(self.weights.size)

    def _log_joint(self, values: np.ndarray) -> np.ndarray:
        z = (values[:, None] - self.means[None, :]) / self.stds[None, :]
        log_pdf = -0.5 * LOG_2PI - np.log(self.stds)[None, :] - 0.5 * z * z
        return np.log(self.weights)[None, :] + log_pdf

    def responsibilities(self, values: np.ndarray) -> np.ndarray:
        """Posterior mode probabilities, one row per value."""
        joint = self._log_joint(np.asarray(values, dtype=np.float64).ravel())
        peak = joint.max(axis=1, keepdims=True)
        unnorm = np.exp(joint - peak)
        return unnorm / unnorm.sum(axis=1, keepdims=True)

    def loglik(self, values: np.ndarray) -> float:
        joint = self._log_joint(np.asarray(values, dtype=np.float64).ravel())
        peak = joint.max(axis=1)
        return float(np.sum(peak + np.log(np.sum(np.exp(joint - peak[:, None]), axis=1))))


def fit_mixture(
    values: np.ndarray, k: int, max_iter: int = 300, tol: float = 1e-8
) -> Mixture1D:
    """EM fit of a k-component 1-D Gaussian mixture.

    Means start at evenly spaced quantiles, which keeps the fit
    deterministic. Variances are floored at a fixed fraction of the
    column variance so no component can collapse onto a point.

    Raises:
        SingularComponentError: if a component's responsibility mass
            vanishes (more components than the data can support).
    """
    x = np.asarray(values, dtype=np.float64).ravel()
    n = x.size
    if k < 1:
        raise ParameterError("need at least one component")
    if n < max(2, k):
        raise ParameterError(f"need at least {max(2, k)} values to fit {k} components")
    global_var = float(x.var())
    var_floor = max(global_var * 1e-6, 1e-12)
    q = (2.0 * np.arange(k) + 1.0) / (2.0 * k)
    means = np.quantile(x, q)
    stds = np.full(k, np.sqrt(max(global_var, var_floor)))
    weights = np.full(k, 1.0 / k)

    trace: list[float] = []
    prev = -np.inf
    for _ in range(max_iter):
        joint = (
            np.log(weights)[None, :]
            - 0.5 * LOG_2PI
            - np.log(stds)[None, :]
            - 0.5 * ((x[:, None] - means[None, :]) / stds[None, :]) ** 2
        )
        peak = joint.max(axis=1, keepdims=True)
        unnorm = np.exp(joint - peak)
        row_sum = unnorm.sum(axis=1, keepdims=True)
        loglik = float(np.sum(peak[:, 0] + np.log(row_sum[:, 0])))
        trace.append(loglik)
        if loglik - prev < tol and len(trace) > 1:
            break
        prev = loglik

        resp = unnorm / row_sum
        mass = resp.sum(axis=0)
        if np.any(mass < 1e-10):
            raise SingularComponentError(
                f"a component lost all responsibility mass with k={k}"
            )
        weights = mass / n
        means = (resp * x[:, None]).sum(axis=0) / mass
        var = (resp * (x[:, None] - means[None, :]) ** 2).sum(axis=0) / mass
        stds = np.sqrt(np.maximum(var, var_floor))

    final = Mixture1D(weights.copy(), means.copy(), stds.copy(), ())
    trace.append(final.loglik(x))
    return Mixture1D(weights, means, stds, tuple(trace))


def bic(mix: Mixture1D, values: np.ndarray) -> float:
    """Bayesian information criterion; lower is better.

    A k-component 1-D mixture has 3k - 1 free parameters (weights lose
    one to the simplex constraint).
    """
    n = np.asarray(values).size
    n_params = 3 * mix.n_modes - 1
    return -2.0 * mix.loglik(values) + n_params * np.log(n)


def select_mixture(values: np.ndarray, max_modes: int = 10) -> Mixture1D:
    """BIC-chosen mixture for one column, with tiny modes pruned.

    Fits k = 1..max_modes, keeps the lowest BIC (ties go to fewer modes),
    then drops components below the weight floor and renormalizes. A
    pure-Gaussian column therefore comes back with a single mode.
    """
    x = np.asarray(values, dtype=np.float64).ravel()
    upper = min(max_modes, max(1, x.size - 1))
    best: Mixture1D | None = None
    best_bic = np.inf
    for k in range(1, upper + 1):
        try:
            mix = fit_mixture(x, k)
        except SingularComponentError:
            continue
        score = bic(mix, x)
        if score < best_bic:
            best, best_bic = mix, score
    if best is None:
        raise SingularComponentError("no mixture size could be fit to the column")
    keep = best.weights >= WEIGHT_FLOOR
    if not np.any(keep):
        keep[int(np.argmax(best.weights))] = True
    weights = best.weights[keep]
    return Mixture1D(
        weights / weights.sum(), best.means[keep], best.stds[keep], best.loglik_trace
    )


@dataclass(frozen=True)
class ColumnSpan:
    """Where one source column lives inside the encoded matrix.

    Each column occupies one offset column (``alpha``) plus a one-hot mode
    block (``beta`` is its half-open column range).
    """

    name: str
    alpha: int
    beta: tuple[int, int]
    mixture: Mixture1D


@dataclass(frozen=True)
class EncodingLayout:
    spans: tuple[ColumnSpan, ...]
    width: int

    @property
    def tanh_cols(self) -> tuple[int, ...]:
        return tuple(s.alpha for s in self.spans)

    @property
    def softmax_blocks(self) -> tuple[tuple[int, int], ...]:
        return tuple(s.beta for s in self.spans)


def _validate_onehot(block: np.ndarray, what: str) -> None:
    top = block.max(axis=1)
    total = block.sum(axis=1)
    ok = (np.abs(top - 1.0) < 1e-9) & (np.abs(total - 1.0) < 1e-9)
    if not np.all(ok):
        bad = int(np.flatnonzero(~ok)[0])
        raise EncodingError(f"row {bad}: {what} block is not one-hot")


class ModeNormalizer:
    """Column-wise mode encoding for continuous data.

    ``fit`` learns a mixture per column. ``encode`` writes, per value, the
    offset ``alpha = (c - mu_k) / (4 sigma_k)`` within a chosen mode and a
    one-hot indicator of that mode; the mode is sampled from the posterior
    when an rng is given and taken as the argmax otherwise. ``decode``
    inverts this exactly; with ``harden=True`` it tolerates soft model
    output by taking block argmaxes and clipping alpha into [-1, 1].
    """

    def __init__(self, max_modes: int = 10):
        if max_modes < 1:
            raise ParameterError("max_modes must be at least 1")
        self.max_modes = max_modes
        self.layout: EncodingLayout | None = None

    def fit(
        self, features: np.ndarray, feature_names: tuple[str, ...]
    ) -> "ModeNormalizer":
        features = np.asarray(features, dtype=np.float64)
        if features.ndim != 2 or features.shape[1] != len(feature_names):
            raise ParameterError("features and feature_names disagree on width")
        spans: list[ColumnSpan] = []
        offset = 0
        for j, name in enumerate(feature_names):
            mix = select_mixture(features[:, j], self.max_modes)
            k = mix.n_modes
            spans.append(ColumnSpan(name, offset, (offset + 1, offset + 1 + k), mix))
            offset += 1 + k
        self.layout = EncodingLayout(tuple(spans), offset)
        return self

    def _require_fit(self) -> EncodingLayout:
        if self.layout is None:
            raise ParameterError("normalizer has not been fit")
        return self.layout

    def encode(
        self, features: np.ndarray, rng: np.random.Generator | None = None
    ) -> np.ndarray:
        layout = self._require_fit()
        features = np.asarray(features, dtype=np.float64)
        n = features.shape[0]
        out = np.zeros((n, layout.width))
        rows = np.arange(n)
        for j, span in enumerate(layout.spans):
            col = features[:, j]
            mix = span.mixture
            resp = mix.responsibilities(col)
            if rng is None:
                mode = np.argmax(resp, axis=1)
            else:
                cum = np.cumsum(resp, axis=1)
                cum[:, -1] = 1.0
                mode = (cum > rng.random(n)[:, None]).argmax(axis=1)
            out[:, span.alpha] = (col - mix.means[mode]) / (4.0 * mix.stds[mode])
            out[rows, span.beta[0] + mode] = 1.0
        return out

    def decode(self, encoded: np.ndarray, harden: bool = False) -> np.ndarray:
        layout = self._require_fit()
        encoded = np.asarray(encoded, dtype=np.float64)
        if encoded.ndim != 2 or encoded.shape[1] != layout.width:
            raise EncodingError(
                f"expected encoded width {layout.width}, got {encoded.shape}"
            )
        n = encoded.shape[0]
        out = np.empty((n, len(layout.spans)))
        for j, span in enumerate(layout.spans):
            b0, b1 = span.beta
            block = encoded[:, b0:b1]
            if not harden:
                _validate_onehot(block, span.name)
            mode = np.argmax(block, axis=1)
            mix = span.mixture
            alpha = encoded[:, span.alpha]
            if harden:
                alpha = np.clip(alpha, -1.0, 1.0)
            out[:, j] = alpha * 4.0 * mix.stds[mode] + mix.means[mode]
        return out


class MinMaxNormalizer:
    """Column-wise affine map onto [-1, 1] and back.

    Constant columns map to 0 and invert to their constant, so the
    round-trip stays exact for every column that carries information.
    """

    def __init__(self):
        self.lo: np.ndarray | None = None
        self.span: np.ndarray | None = None

    def fit(self, features: np.ndarray) -> "MinMaxNormalizer":
        features = np.asarray(features, dtype=np.float64)
        if features.ndim != 2 or features.shape[0] < 1:
            raise ParameterError("need a non-empty 2-D feature matrix")
        self.lo = features.min(axis=0)
        self.span = features.max(axis=0) - self.lo
        return self

    def _require_fit(self) -> tuple[np.ndarray, np.ndarray]:
        if self.lo is None or self.span is None:
            raise ParameterError("normalizer has not been fit")
        return self.lo, self.span

    def transform(self, features: np.ndarray) -> np.ndarray:
        lo, span = self._require_fit()
        features = np.asarray(features, dtype=np.float64)
        safe = np.where(span > 0, span, 1.0)
        scaled = 2.0 * (features - lo) / safe - 1.0
        return np.where(span > 0, scaled, 0.0)

    def inverse(self, scaled: np.ndarray) -> np.ndarray:
        lo, span = self._require_fit()
        scaled = np.asarray(scaled, dtype=np.float64)
        return lo + (scaled + 1.0) / 2.0 * span
