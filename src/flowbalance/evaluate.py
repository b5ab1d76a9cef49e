"""Metrics and distribution diagnostics.

F1 is the headline metric because accuracy is useless at the class ratios
this package exists for. Distribution-level checks compare synthetic rows
against real ones: a two-sample KS statistic per feature, paired log-scale
histograms, and an exact t-SNE embedding for eyeballing how generated
points sit relative to the classes.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from .errors import EmbeddingError, ParameterError, ShapeError, StratificationError


def write_csv(path, header: Sequence[str], rows: Sequence[Sequence]) -> None:
    """Write a CSV with repr-formatted floats and LF line endings.

    Every artifact writer funnels through here so a rerun with the same
    inputs produces byte-identical files on any platform.
    """
    lines = [",".join(header)]
    for row in rows:
        cells = []
        for cell in row:
            if isinstance(cell, (float, np.floating)):
                cells.append(repr(float(cell)))
            else:
                cells.append(str(cell))
        lines.append(",".join(cells))
    Path(path).write_text("\n".join(lines) + "\n")


@dataclass(frozen=True)
class ConfusionCounts:
    """Binary confusion counts with class 1 as the positive class."""

    tp: int
    fp: int
    tn: int
    fn: int

    @property
    def precision(self) -> float:
        denom = self.tp + self.fp
        return self.tp / denom if denom else 0.0

    @property
    def recall(self) -> float:
        denom = self.tp + self.fn
        return self.tp / denom if denom else 0.0

    @property
    def f1_defined(self) -> bool:
        """False only when there are no positives anywhere (tp=fp=fn=0)."""
        return (self.tp + self.fp + self.fn) > 0

    @property
    def f1(self) -> float:
        p, r = self.precision, self.recall
        if p + r == 0.0:
            return 0.0
        return 2.0 * p * r / (p + r)


def confusion(y_true: np.ndarray, y_pred: np.ndarray) -> ConfusionCounts:
    y_true = np.asarray(y_true)
    y_pred = np.asarray(y_pred)
    if y_true.shape != y_pred.shape:
        raise ShapeError(f"label shapes differ: {y_true.shape} vs {y_pred.shape}")
    t = y_true == 1
    p = y_pred == 1
    return ConfusionCounts(
        tp=int(np.sum(t & p)),
        fp=int(np.sum(~t & p)),
        tn=int(np.sum(~t & ~p)),
        fn=int(np.sum(t & ~p)),
    )


def f1_score(y_true: np.ndarray, y_pred: np.ndarray) -> float:
    return confusion(y_true, y_pred).f1


def stratified_kfold(
    labels: np.ndarray, n_folds: int, seed: int
) -> list[tuple[np.ndarray, np.ndarray]]:
    """Class-balanced folds: shuffle each class, deal round-robin.

    Every fold receives within-one-of-equal counts of every class. Index
    arrays come back sorted so downstream slicing is deterministic.

    Raises:
        StratificationError: if any class has fewer members than folds.
    """
    labels = np.asarray(labels)
    if n_folds < 2:
        raise ParameterError("need at least two folds")
    rng = np.random.default_rng(seed)
    fold_of = np.empty(labels.size, dtype=np.int64)
    for cls in np.unique(labels):
        members = np.flatnonzero(labels == cls)
        if members.size < n_folds:
            raise StratificationError(
                f"class {cls} has {members.size} rows, fewer than {n_folds} folds"
            )
        dealt = rng.permutation(members)
        fold_of[dealt] = np.arange(dealt.size) % n_folds
    out = []
    everything = np.arange(labels.size)
    for f in range(n_folds):
        test = everything[fold_of == f]
        train = everything[fold_of != f]
        out.append((train, test))
    return out


def cross_val_f1(
    features: np.ndarray,
    labels: np.ndarray,
    n_folds: int,
    fit_predict: Callable[[np.ndarray, np.ndarray, np.ndarray], np.ndarray],
    seed: int,
) -> np.ndarray:
    """Per-fold F1 for a fit-then-predict callable."""
    features = np.asarray(features, dtype=np.float64)
    labels = np.asarray(labels)
    scores = []
    for train, test in stratified_kfold(labels, n_folds, seed):
        pred = fit_predict(features[train], labels[train], features[test])
        scores.append(f1_score(labels[test], pred))
    return np.asarray(scores)


@dataclass(frozen=True)
class KsResult:
    d: float
    score: float  # 1 - d; 1 means indistinguishable marginals


def ks_two_sample(a: np.ndarray, b: np.ndarray) -> KsResult:
    """Two-sample Kolmogorov-Smirnov statistic.

    D is the largest gap between the two empirical CDFs, evaluated at
    every pooled sample point (where the sup is attained).
    """
    a = np.sort(np.asarray(a, dtype=np.float64).ravel())
    b = np.sort(np.asarray(b, dtype=np.float64).ravel())
    if a.size == 0 or b.size == 0:
        raise ParameterError("both samples must be non-empty")
    pooled = np.concatenate([a, b])
    f_a = np.searchsorted(a, pooled, side="right") / a.size
    f_b = np.searchsorted(b, pooled, side="right") / b.size
    d = float(np.max(np.abs(f_a - f_b)))
    return KsResult(d, 1.0 - d)


@dataclass(frozen=True)
class KsReport:
    rows: tuple[tuple[str, float, float], ...]  # (feature, d, score)

    def score_of(self, name: str) -> float:
        for feat, _, score in self.rows:
            if feat == name:
                return score
        raise ParameterError(f"no KS row for feature {name!r}")

    def to_csv(self, path) -> None:
        write_csv(path, ("feature", "ks_d", "ks_score"), self.rows)


def ks_report(
    real: np.ndarray, synth: np.ndarray, feature_names: tuple[str, ...]
) -> KsReport:
    """Per-feature KS comparison of two matrices, best-matched feature first.

    Rows sort by descending score; ties keep feature declaration order.
    """
    real = np.asarray(real, dtype=np.float64)
    synth = np.asarray(synth, dtype=np.float64)
    if real.shape[1] != len(feature_names) or synth.shape[1] != len(feature_names):
        raise ShapeError("matrix widths must match feature_names")
    rows = []
    for j, name in enumerate(feature_names):
        res = ks_two_sample(real[:, j], synth[:, j])
        rows.append((name, res.d, res.score))
    rows.sort(key=lambda r: -r[2])
    return KsReport(tuple(rows))


def log_histogram_pair(
    real: np.ndarray, synth: np.ndarray, n_bins: int = 40
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Histogram two samples of a positive feature on a shared log10 grid.

    Non-positive values cannot be logged and are dropped. Returns
    (bin_edges, real_counts, synth_counts).
    """
    real = np.asarray(real, dtype=np.float64).ravel()
    synth = np.asarray(synth, dtype=np.float64).ravel()
    real = np.log10(real[real > 0])
    synth = np.log10(synth[synth > 0])
    if real.size == 0 or synth.size == 0:
        raise ParameterError("no positive values to histogram")
    lo = min(real.min(), synth.min())
    hi = max(real.max(), synth.max())
    if hi == lo:
        hi = lo + 1e-9
    edges = np.linspace(lo, hi, n_bins + 1)
    real_counts, _ = np.histogram(real, bins=edges)
    synth_counts, _ = np.histogram(synth, bins=edges)
    return edges, real_counts, synth_counts


@dataclass(frozen=True)
class EmbeddingResult:
    coords: np.ndarray  # (n, 2)
    kl_trace: tuple[float, ...]  # true KL (no exaggeration) per iteration


def _pairwise_sq_dists(x: np.ndarray) -> np.ndarray:
    s = np.sum(x * x, axis=1)
    d2 = s[:, None] + s[None, :] - 2.0 * (x @ x.T)
    np.fill_diagonal(d2, 0.0)
    return np.maximum(d2, 0.0)


def _conditional_p(d2_row: np.ndarray, beta: float) -> tuple[np.ndarray, float]:
    """Row distribution at precision beta and its Shannon entropy (nats)."""
    logits = -d2_row * beta
    logits -= logits.max()
    p = np.exp(logits)
    total = p.sum()
    if total <= 0 or not np.isfinite(total):
        return np.zeros_like(p), 0.0
    p /= total
    nz = p > 0
    h = float(-np.sum(p[nz] * np.log(p[nz])))
    return p, h


def _row_affinities(
    d2: np.ndarray, perplexity: float, tol: float, max_steps: int = 100
) -> np.ndarray:
    """Binary-search each row's precision until entropy matches log(perplexity).

    The step budget covers jittered near-duplicates, where the precision
    must first double its way up to roughly 1/min(d2) before the bracket
    even exists.
    """
    n = d2.shape[0]
    target = np.log(perplexity)
    p_mat = np.zeros((n, n))
    for i in range(n):
        row = np.delete(d2[i], i)
        beta, lo, hi = 1.0, 0.0, np.inf
        p, h = _conditional_p(row, beta)
        steps = 0
        while abs(h - target) > tol and steps < max_steps:
            if h > target:
                lo = beta
                beta = beta * 2.0 if hi == np.inf else (lo + hi) / 2.0
            else:
                hi = beta
                beta = (lo + hi) / 2.0
            p, h = _conditional_p(row, beta)
            steps += 1
        if abs(h - target) > tol:
            raise EmbeddingError(
                f"entropy search failed on row {i} (got {h:.6f}, want {target:.6f})"
            )
        p_mat[i, np.arange(n) != i] = p
    return p_mat


def tsne(
    features: np.ndarray,
    perplexity: float = 30.0,
    n_iter: int = 500,
    seed: int = 0,
    learning_rate: float = 200.0,
    early_exaggeration: float = 12.0,
    exaggeration_iters: int = 250,
    entropy_tol: float = 1e-5,
    max_retries: int = 3,
) -> EmbeddingResult:
    """Exact 2-D t-SNE with a logged true-KL trace.

    P comes from per-row Gaussian kernels whose bandwidths are bisected to
    the requested perplexity, then symmetrized. For the first
    ``exaggeration_iters`` updates P is scaled by ``early_exaggeration``
    and momentum is 0.5; afterwards momentum is 0.8. The KL divergence
    recorded each iteration is always against the unexaggerated P. Rows
    that defeat the entropy search (typically exact duplicates) trigger a
    retry with a whisper of jitter on the inputs.
    """
    x = np.asarray(features, dtype=np.float64)
    if x.ndim != 2 or x.shape[0] < 5:
        raise ParameterError("need a 2-D matrix with at least five rows")
    n = x.shape[0]
    if not 1.0 <= perplexity <= (n - 1) / 3.0:
        raise ParameterError(
            f"perplexity {perplexity} out of range for {n} rows (max {(n - 1) / 3.0:.1f})"
        )
    rng = np.random.default_rng(seed)
    scale = float(np.std(x)) or 1.0
    for attempt in range(max_retries + 1):
        try:
            cond = _row_affinities(_pairwise_sq_dists(x), perplexity, entropy_tol)
            break
        except EmbeddingError:
            if attempt == max_retries:
                raise
            x = x + rng.normal(0.0, scale * 1e-8 * 10.0**attempt, size=x.shape)

    p = (cond + cond.T) / (2.0 * n)
    p = np.maximum(p, 1e-12)
    y = rng.normal(0.0, 1e-4, size=(n, 2))
    velocity = np.zeros_like(y)
    gains = np.ones_like(y)
    kl_trace = []
    for it in range(n_iter):
        d2 = _pairwise_sq_dists(y)
        inv = 1.0 / (1.0 + d2)
        np.fill_diagonal(inv, 0.0)
        q = np.maximum(inv / inv.sum(), 1e-12)

        p_used = p * early_exaggeration if it < exaggeration_iters else p
        pq = (p_used - q) * inv
        grad = 4.0 * (np.diag(pq.sum(axis=1)) - pq) @ y

        momentum = 0.5 if it < exaggeration_iters else 0.8
        same_sign = np.sign(grad) == np.sign(velocity)
        gains = np.where(same_sign, gains * 0.8, gains + 0.2)
        gains = np.maximum(gains, 0.01)
        velocity = momentum * velocity - learning_rate * gains * grad
        y = y + velocity
        y = y - y.mean(axis=0)

        mask = ~np.eye(n, dtype=bool)
        kl = float(np.sum(p[mask] * np.log(p[mask] / q[mask])))
        if not np.isfinite(kl):
            raise EmbeddingError(f"KL divergence became non-finite at iteration {it}")
        kl_trace.append(kl)
    return EmbeddingResult(y, tuple(kl_trace))
