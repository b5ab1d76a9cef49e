"""Tree classifiers trained from scratch: CART, bagged forest, boosting.

Splits are searched with prefix sums over each sorted column, candidate
thresholds sit at midpoints between consecutive distinct values, and ties
are broken toward the lower feature index and then the lower threshold so
every fit is order-deterministic. Fitted trees are flattened to arrays,
which keeps prediction a handful of vectorized hops per tree level.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import ParameterError, ShapeError
from .nets import sigmoid

_EPS = 1e-12


@dataclass(frozen=True)
class TreeConfig:
    max_depth: int = 10
    min_samples_leaf: int = 1
    min_samples_split: int = 2


@dataclass(frozen=True)
class ForestConfig:
    n_trees: int = 30
    max_depth: int = 12
    min_samples_leaf: int = 1
    min_samples_split: int = 2
    # n_features None means ceil(sqrt(d)); bootstrap=False with n_features=d
    # degenerates a single-tree forest into a plain decision tree.
    n_features: int | None = None
    bootstrap: bool = True


@dataclass(frozen=True)
class BoostConfig:
    n_rounds: int = 60
    learning_rate: float = 0.2
    max_depth: int = 3
    min_samples_leaf: int = 1
    min_samples_split: int = 2


class _TreeBuilder:
    """Accumulates nodes in flat arrays while a tree is grown."""

    def __init__(self):
        self.feature: list[int] = []
        self.threshold: list[float] = []
        self.left: list[int] = []
        self.right: list[int] = []
        self.value: list[float] = []

    def add(self) -> int:
        self.feature.append(-1)
        self.threshold.append(np.nan)
        self.left.append(-1)
        self.right.append(-1)
        self.value.append(0.0)
        return len(self.feature) - 1


@dataclass(frozen=True)
class FlatTree:
    """One fitted tree as parallel arrays; feature -1 marks a leaf."""

    feature: np.ndarray
    threshold: np.ndarray
    left: np.ndarray
    right: np.ndarray
    value: np.ndarray
    importances: np.ndarray

    @property
    def n_nodes(self) -> int:
        return int(self.feature.size)

    def predict_value(self, features: np.ndarray) -> np.ndarray:
        features = np.asarray(features, dtype=np.float64)
        node = np.zeros(features.shape[0], dtype=np.int64)
        while True:
            feat = self.feature[node]
            active = feat >= 0
            if not np.any(active):
                return self.value[node]
            rows = np.flatnonzero(active)
            cur = node[rows]
            go_left = features[rows, self.feature[cur]] <= self.threshold[cur]
            node[rows] = np.where(go_left, self.left[cur], self.right[cur])


def _best_split_gini(
    xs: np.ndarray, ones: np.ndarray, min_leaf: int
) -> tuple[float, float, float] | None:
    """Lowest weighted Gini over midpoint thresholds of one sorted column.

    Returns (weighted impurity, threshold, gain vs parent) or None when no
    legal split exists. The scan keeps the first minimum, which is the
    lowest threshold because the column is ascending.
    """
    n = xs.size
    cut = np.flatnonzero(xs[:-1] < xs[1:])
    if cut.size == 0:
        return None
    n_left = cut + 1
    ok = (n_left >= min_leaf) & (n - n_left >= min_leaf)
    cut = cut[ok]
    if cut.size == 0:
        return None
    n_left = n_left[ok]
    c1 = np.cumsum(ones)
    one_left = c1[cut]
    one_right = c1[-1] - one_left
    n_right = n - n_left
    p_l = one_left / n_left
    p_r = one_right / n_right
    weighted = (n_left * 2 * p_l * (1 - p_l) + n_right * 2 * p_r * (1 - p_r)) / n
    best = int(np.argmin(weighted))
    p = c1[-1] / n
    parent = 2 * p * (1 - p)
    thr = (xs[cut[best]] + xs[cut[best] + 1]) / 2.0
    return float(weighted[best]), float(thr), float(parent - weighted[best])


def _best_split_sse(
    xs: np.ndarray, resid: np.ndarray, min_leaf: int
) -> tuple[float, float, float] | None:
    """Lowest residual sum of squares over midpoint thresholds."""
    n = xs.size
    cut = np.flatnonzero(xs[:-1] < xs[1:])
    if cut.size == 0:
        return None
    n_left = cut + 1
    ok = (n_left >= min_leaf) & (n - n_left >= min_leaf)
    cut = cut[ok]
    if cut.size == 0:
        return None
    n_left = n_left[ok]
    csum = np.cumsum(resid)
    total = csum[-1]
    sum_left = csum[cut]
    n_right = n - n_left
    # minimizing SSE equals maximizing the explained term below
    score = sum_left**2 / n_left + (total - sum_left) ** 2 / n_right
    sse = float(np.sum(resid**2)) - score
    best = int(np.argmin(sse))
    parent_sse = float(np.sum(resid**2)) - total**2 / n
    thr = (xs[cut[best]] + xs[cut[best] + 1]) / 2.0
    return float(sse[best]), float(thr), float(parent_sse - sse[best])


def _grow(
    builder: _TreeBuilder,
    features: np.ndarray,
    idx: np.ndarray,
    depth: int,
    cfg,
    leaf_value: Callable[[np.ndarray], float],
    split_score: Callable[[np.ndarray, np.ndarray], tuple[float, float, float] | None],
    split_targets: np.ndarray,
    pure: Callable[[np.ndarray], bool],
    importances: np.ndarray,
    feature_pick: Callable[[], np.ndarray],
) -> int:
    node = builder.add()
    n = idx.size
    stop = (
        depth >= cfg.max_depth
        or n < cfg.min_samples_split
        or n < 2 * cfg.min_samples_leaf
        or pure(idx)
    )
    best = None
    if not stop:
        for j in feature_pick():
            x = features[idx, j]
            order = np.argsort(x, kind="stable")
            found = split_score(x[order], split_targets[idx][order])
            if found is None:
                continue
            score, thr, gain = found
            if best is None or score < best[0]:
                best = (score, int(j), thr, gain)
    if best is None:
        builder.value[node] = leaf_value(idx)
        return node
    _, j, thr, gain = best
    importances[j] += gain * n
    go_left = features[idx, j] <= thr
    builder.feature[node] = j
    builder.threshold[node] = thr
    builder.left[node] = _grow(
        builder, features, idx[go_left], depth + 1, cfg, leaf_value,
        split_score, split_targets, pure, importances, feature_pick,
    )
    builder.right[node] = _grow(
        builder, features, idx[~go_left], depth + 1, cfg, leaf_value,
        split_score, split_targets, pure, importances, feature_pick,
    )
    return node


def _finish(builder: _TreeBuilder, importances: np.ndarray) -> FlatTree:
    return FlatTree(
        np.asarray(builder.feature, dtype=np.int64),
        np.asarray(builder.threshold, dtype=np.float64),
        np.asarray(builder.left, dtype=np.int64),
        np.asarray(builder.right, dtype=np.int64),
        np.asarray(builder.value, dtype=np.float64),
        importances,
    )


def _check_xy(features: np.ndarray, labels: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    features = np.asarray(features, dtype=np.float64)
    labels = np.asarray(labels)
    if features.ndim != 2 or labels.shape != (features.shape[0],):
        raise ShapeError("features must be (n, d) with one label per row")
    if features.shape[0] == 0:
        raise ParameterError("cannot fit on an empty set")
    return features, labels


def _fit_class_tree(
    features: np.ndarray,
    labels: np.ndarray,
    cfg,
    rng: np.random.Generator | None = None,
    n_pick: int | None = None,
) -> FlatTree:
    d = features.shape[1]
    builder = _TreeBuilder()
    importances = np.zeros(d)
    ones = (labels == 1).astype(np.float64)

    if rng is None:
        def feature_pick() -> np.ndarray:
            return np.arange(d)
    else:
        def feature_pick() -> np.ndarray:
            return np.sort(rng.choice(d, size=n_pick, replace=False))

    def leaf_value(idx: np.ndarray) -> float:
        return float(ones[idx].mean())

    def pure(idx: np.ndarray) -> bool:
        first = ones[idx[0]]
        return bool(np.all(ones[idx] == first))

    def split_score(xs, ys):
        return _best_split_gini(xs, ys, cfg.min_samples_leaf)

    _grow(
        builder, features, np.arange(features.shape[0]), 0, cfg,
        leaf_value, split_score, ones, pure, importances, feature_pick,
    )
    total = importances.sum()
    if total > 0:
        importances /= total
    return _finish(builder, importances)


@dataclass(frozen=True)
class DecisionTree:
    """Single CART classifier; probabilities are leaf class-1 fractions."""

    tree: FlatTree
    config: TreeConfig

    def predict_proba(self, features: np.ndarray) -> np.ndarray:
        return self.tree.predict_value(features)

    def predict(self, features: np.ndarray) -> np.ndarray:
        return (self.predict_proba(features) >= 0.5).astype(np.int64)

    @property
    def importances(self) -> np.ndarray:
        return self.tree.importances

    def summary(self) -> dict:
        return {
            "kind": "tree",
            "n_nodes": self.tree.n_nodes,
            "importances": self.tree.importances.tolist(),
        }


def fit_tree(features: np.ndarray, labels: np.ndarray, config: TreeConfig = TreeConfig()) -> DecisionTree:
    features, labels = _check_xy(features, labels)
    return DecisionTree(_fit_class_tree(features, labels, config), config)


@dataclass(frozen=True)
class RandomForest:
    """Bagged trees over random feature subsets.

    The predicted probability is the fraction of trees voting class 1,
    which makes a forest of t trees emit probabilities on a 1/t grid.
    """

    trees: tuple[FlatTree, ...]
    config: ForestConfig

    def predict_proba(self, features: np.ndarray) -> np.ndarray:
        votes = np.zeros(np.asarray(features).shape[0])
        for t in self.trees:
            votes += t.predict_value(features) >= 0.5
        return votes / len(self.trees)

    def predict(self, features: np.ndarray) -> np.ndarray:
        return (self.predict_proba(features) >= 0.5).astype(np.int64)

    @property
    def importances(self) -> np.ndarray:
        stacked = np.vstack([t.importances for t in self.trees])
        mean = stacked.mean(axis=0)
        total = mean.sum()
        return mean / total if total > 0 else mean

    def summary(self) -> dict:
        return {
            "kind": "forest",
            "n_trees": len(self.trees),
            "importances": self.importances.tolist(),
        }


def fit_forest(
    features: np.ndarray,
    labels: np.ndarray,
    config: ForestConfig = ForestConfig(),
    seed: int = 0,
) -> RandomForest:
    features, labels = _check_xy(features, labels)
    if config.n_trees < 1:
        raise ParameterError("need at least one tree")
    n, d = features.shape
    n_pick = config.n_features if config.n_features is not None else int(np.ceil(np.sqrt(d)))
    if not 1 <= n_pick <= d:
        raise ParameterError(f"n_features must be in [1, {d}], got {n_pick}")
    trees = []
    for child in np.random.SeedSequence(seed).spawn(config.n_trees):
        rng = np.random.default_rng(child)
        rows = rng.integers(0, n, size=n) if config.bootstrap else np.arange(n)
        trees.append(
            _fit_class_tree(features[rows], labels[rows], config, rng, n_pick)
        )
    return RandomForest(tuple(trees), config)


@dataclass(frozen=True)
class GradientBoost:
    """Boosted regression trees on the logistic loss.

    Each round fits a squared-error tree to the residual y - p and then
    replaces leaf outputs with a Newton step, sum(residual) over
    sum(p(1-p)) within the leaf. ``loss_trace`` records training log-loss
    after every round.
    """

    init_score: float
    learning_rate: float
    trees: tuple[FlatTree, ...]
    config: BoostConfig
    loss_trace: tuple[float, ...]

    def decision_function(self, features: np.ndarray) -> np.ndarray:
        score = np.full(np.asarray(features).shape[0], self.init_score)
        for t in self.trees:
            score += self.learning_rate * t.predict_value(features)
        return score

    def predict_proba(self, features: np.ndarray) -> np.ndarray:
        return sigmoid(self.decision_function(features))

    def predict(self, features: np.ndarray) -> np.ndarray:
        return (self.predict_proba(features) >= 0.5).astype(np.int64)

    @property
    def importances(self) -> np.ndarray:
        stacked = np.vstack([t.importances for t in self.trees])
        total = stacked.sum()
        return stacked.sum(axis=0) / total if total > 0 else stacked.sum(axis=0)

    def summary(self) -> dict:
        return {
            "kind": "boost",
            "n_rounds": len(self.trees),
            "final_log_loss": self.loss_trace[-1] if self.loss_trace else None,
            "importances": self.importances.tolist(),
        }


def _fit_resid_tree(features: np.ndarray, resid: np.ndarray, hess: np.ndarray, cfg) -> FlatTree:
    d = features.shape[1]
    builder = _TreeBuilder()
    importances = np.zeros(d)

    def feature_pick() -> np.ndarray:
        return np.arange(d)

    def leaf_value(idx: np.ndarray) -> float:
        return float(resid[idx].sum() / max(hess[idx].sum(), _EPS))

    def pure(idx: np.ndarray) -> bool:
        return bool(np.all(resid[idx] == resid[idx[0]]))

    def split_score(xs, rs):
        return _best_split_sse(xs, rs, cfg.min_samples_leaf)

    _grow(
        builder, features, np.arange(features.shape[0]), 0, cfg,
        leaf_value, split_score, resid, pure, importances, feature_pick,
    )
    return _finish(builder, importances)


def fit_boost(
    features: np.ndarray,
    labels: np.ndarray,
    config: BoostConfig = BoostConfig(),
) -> GradientBoost:
    features, labels = _check_xy(features, labels)
    y = (labels == 1).astype(np.float64)
    p_bar = y.mean()
    if p_bar <= 0.0 or p_bar >= 1.0:
        raise ParameterError("boosting needs both classes in the training set")
    if config.n_rounds < 0 or config.learning_rate <= 0:
        raise ParameterError("n_rounds must be >= 0 and learning_rate positive")
    score = np.full(y.size, np.log(p_bar / (1.0 - p_bar)))
    init = float(score[0])
    trees = []
    trace = []
    for _ in range(config.n_rounds):
        p = sigmoid(score)
        tree = _fit_resid_tree(features, y - p, p * (1.0 - p), config)
        trees.append(tree)
        score = score + config.learning_rate * tree.predict_value(features)
        log_loss = float(np.mean(np.logaddexp(0.0, score) - y * score))
        trace.append(log_loss)
    return GradientBoost(init, config.learning_rate, tuple(trees), config, tuple(trace))


MODEL_KINDS = ("tree", "forest", "boost")


def fit_model(kind: str, features: np.ndarray, labels: np.ndarray, params: dict, seed: int = 0):
    """Fit a classifier by name with keyword overrides of its defaults."""
    if kind == "tree":
        return fit_tree(features, labels, TreeConfig(**params))
    if kind == "forest":
        return fit_forest(features, labels, ForestConfig(**params), seed)
    if kind == "boost":
        return fit_boost(features, labels, BoostConfig(**params))
    raise ParameterError(f"unknown model kind {kind!r}")


@dataclass(frozen=True)
class HyperGrid:
    """A named parameter grid; points enumerate in declared axis order."""

    kind: str
    axes: tuple[tuple[str, tuple], ...] = field(default_factory=tuple)

    def points(self) -> list[dict]:
        names = [a[0] for a in self.axes]
        values = [a[1] for a in self.axes]
        if not names:
            return [{}]
        return [dict(zip(names, combo)) for combo in itertools.product(*values)]


@dataclass(frozen=True)
class GridResult:
    kind: str
    best_params: dict
    rows: tuple[tuple[dict, tuple[float, ...]], ...]  # (params, per-fold F1)

    def mean_f1(self, row: int) -> float:
        return float(np.mean(self.rows[row][1]))


def grid_search(
    features: np.ndarray,
    labels: np.ndarray,
    grid: HyperGrid,
    n_folds: int,
    seed: int,
) -> GridResult:
    """Pick the grid point with the best mean cross-validated F1.

    Ties keep the earliest point in enumeration order so results never
    depend on dict iteration quirks.
    """
    from .evaluate import cross_val_f1

    rows = []
    best = None
    for i, params in enumerate(grid.points()):
        def fit_predict(tr_x, tr_y, te_x, _p=params):
            return fit_model(grid.kind, tr_x, tr_y, _p, seed).predict(te_x)

        scores = cross_val_f1(features, labels, n_folds, fit_predict, seed)
        mean = float(np.mean(scores))
        rows.append((params, tuple(float(s) for s in scores)))
        if best is None or mean > best[1]:
            best = (i, mean)
    return GridResult(grid.kind, rows[best[0]][0], tuple(rows))
