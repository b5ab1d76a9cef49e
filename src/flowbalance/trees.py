"""Tree classifiers trained from scratch: CART, bagged forest, boosting.

All three grow through one function, ``_fit_flat_tree``: weighted Gini
for the classifiers, residual sum of squares for boosting. It visits nodes
in preorder from an explicit stack, so node ids, and the forest's per-node
feature draws, follow depth-first order. A node's picked features are
scanned as one (k, m) block: each row is sorted in stable order and
prefix-summed, candidate thresholds sit at midpoints between consecutive
distinct values, illegal cuts score inf, and one argmin over the flattened
block breaks ties toward the lower feature index and then the lower
threshold, so every fit is order-deterministic. Fitted trees are flattened
to arrays, which keeps prediction a handful of vectorized hops per tree
level.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from . import evaluate
from .errors import ParameterError, ShapeError
from .nets import sigmoid
from .schema import build, check_fields, check_least

_EPS = 1e-12


# the least values every tree-growing config shares
_GROWTH = {"max_depth": 0, "min_samples_leaf": 1, "min_samples_split": 2}


@dataclass(frozen=True)
class TreeConfig:
    max_depth: int = 10
    min_samples_leaf: int = 1
    min_samples_split: int = 2

    def __post_init__(self):
        check_fields(self)
        check_least(self, ParameterError, **_GROWTH)


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

    def __post_init__(self):
        check_fields(self)
        check_least(self, ParameterError, **_GROWTH, n_trees=1)
        if self.n_features is not None and self.n_features < 1:
            raise ParameterError(f"n_features must be >= 1, got {self.n_features}")


@dataclass(frozen=True)
class BoostConfig:
    n_rounds: int = 60
    learning_rate: float = 0.2
    max_depth: int = 3
    min_samples_leaf: int = 1
    min_samples_split: int = 2

    def __post_init__(self):
        check_fields(self)
        check_least(self, ParameterError, **_GROWTH, n_rounds=0)
        if not self.learning_rate > 0:
            raise ParameterError(f"learning_rate must be positive, got {self.learning_rate}")


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


def _best_split(
    block: np.ndarray, targets: np.ndarray, min_leaf: int, gini: bool
) -> tuple[int, float, float] | None:
    """Best cut over a node's picked features, scanned as one (k, m) block.

    Each row of ``block`` holds one feature's values at the node's m rows,
    ``targets`` their 0/1 labels (Gini) or residuals (SSE). A cut between
    equal values or leaving fewer than ``min_leaf`` rows on a side scores
    inf; the flattened argmin keeps the first minimum, the lowest row and
    then the lowest threshold. Returns (row, threshold, gain vs parent),
    or None when no cut is legal.
    """
    m = block.shape[1]
    # Prefix sums round by the order of the targets, which must be the
    # stable one. The fast sort gives it unless some run of equal values
    # carries unequal targets; only then is the block sorted stably.
    for kind in ("quicksort", "stable"):
        order = np.argsort(block, axis=1, kind=kind)
        xs = np.take_along_axis(block, order, axis=1)
        ys = targets[order]
        rising = xs[:, :-1] < xs[:, 1:]
        if np.all(rising | (ys[:, :-1] == ys[:, 1:])):
            break
    csum = np.cumsum(ys, axis=1)
    left = csum[:, :-1]
    total = csum[:, -1:]
    n_left = np.arange(1, m)
    n_right = m - n_left
    if gini:
        p_l = left / n_left
        p_r = (total - left) / n_right
        score = (n_left * 2 * p_l * (1 - p_l) + n_right * 2 * p_r * (1 - p_r)) / m
        p = total / m
        parent = 2 * p * (1 - p)
    else:
        # sum(ys**2) stays per row: its pairwise rounding follows each
        # feature's own sort order. Minimizing SSE maximizes the bracket.
        sq = np.sum(ys**2, axis=1, keepdims=True)
        score = sq - (left**2 / n_left + (total - left) ** 2 / n_right)
        parent = sq - total**2 / m
    score[~rising | (n_left < min_leaf) | (n_right < min_leaf)] = np.inf
    row, cut = divmod(int(np.argmin(score)), m - 1)
    if score[row, cut] == np.inf:
        return None
    thr = (xs[row, cut] + xs[row, cut + 1]) / 2.0
    return row, float(thr), float(parent[row, 0] - score[row, cut])


def _fit_flat_tree(
    columns: np.ndarray, targets: np.ndarray, cfg, hess: np.ndarray | None = None,
    rng: np.random.Generator | None = None, n_pick: int | None = None,
) -> FlatTree:
    """Grow one tree on (d, n) ``columns`` in preorder from an explicit stack.

    Without ``hess`` this is a classification tree: ``targets`` are 0/1,
    splits minimize weighted Gini, leaves hold the class-1 fraction and
    importances are normalized. With ``hess`` it is a regression tree on
    residuals: splits minimize SSE and leaves hold the Newton step
    sum(residual) / sum(hess). With ``rng`` each split considers
    ``n_pick`` random features, drawn only at nodes that try to split.
    """
    d, n = columns.shape
    gini = hess is None
    importances = np.zeros(d)
    feature, threshold, value, left, right = [], [], [], [], []
    # (rows, depth, parent id, parent's child list); the right child is
    # pushed first so the left subtree is grown, and numbered, first
    stack = [(np.arange(n), 0, -1, left)]
    while stack:
        idx, depth, parent, links = stack.pop()
        node = len(feature)
        if parent >= 0:
            links[parent] = node
        feature.append(-1)
        threshold.append(np.nan)
        value.append(0.0)
        left.append(-1)
        right.append(-1)
        ys = targets[idx]
        m = idx.size
        split = None
        if not (
            depth >= cfg.max_depth
            or m < cfg.min_samples_split
            or m < 2 * cfg.min_samples_leaf
            or np.all(ys == ys[0])
        ):
            cols = np.arange(d) if rng is None else np.sort(rng.choice(d, n_pick, replace=False))
            split = _best_split(columns[np.ix_(cols, idx)], ys, cfg.min_samples_leaf, gini)
        if split is None:
            value[node] = float(ys.mean()) if gini else float(ys.sum() / max(hess[idx].sum(), _EPS))
            continue
        row, thr, gain = split
        j = int(cols[row])
        importances[j] += gain * m
        feature[node] = j
        threshold[node] = thr
        go_left = columns[j, idx] <= thr
        stack.append((idx[~go_left], depth + 1, node, right))
        stack.append((idx[go_left], depth + 1, node, left))
    if gini and importances.sum() > 0:
        importances /= importances.sum()
    return FlatTree(
        np.asarray(feature, dtype=np.int64),
        np.asarray(threshold, dtype=np.float64),
        np.asarray(left, dtype=np.int64),
        np.asarray(right, dtype=np.int64),
        np.asarray(value, dtype=np.float64),
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
    ones = (labels == 1).astype(np.float64)
    columns = np.ascontiguousarray(features.T)
    return DecisionTree(_fit_flat_tree(columns, ones, config), config)


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
    n, d = features.shape
    n_pick = config.n_features if config.n_features is not None else int(np.ceil(np.sqrt(d)))
    if n_pick > d:
        raise ParameterError(f"n_features must be at most {d}, got {n_pick}")
    ones = (labels == 1).astype(np.float64)
    columns = np.ascontiguousarray(features.T)
    trees = []
    for child in np.random.SeedSequence(seed).spawn(config.n_trees):
        rng = np.random.default_rng(child)
        rows = rng.integers(0, n, size=n) if config.bootstrap else np.arange(n)
        sample = columns.take(rows, axis=1)
        trees.append(_fit_flat_tree(sample, ones[rows], config, rng=rng, n_pick=n_pick))
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
    score = np.full(y.size, np.log(p_bar / (1.0 - p_bar)))
    init = float(score[0])
    columns = np.ascontiguousarray(features.T)
    trees = []
    trace = []
    for _ in range(config.n_rounds):
        p = sigmoid(score)
        tree = _fit_flat_tree(columns, y - p, config, hess=p * (1.0 - p))
        trees.append(tree)
        score = score + config.learning_rate * tree.predict_value(features)
        log_loss = float(np.mean(np.logaddexp(0.0, score) - y * score))
        trace.append(log_loss)
    return GradientBoost(init, config.learning_rate, tuple(trees), config, tuple(trace))


MODEL_CONFIGS = {"tree": TreeConfig, "forest": ForestConfig, "boost": BoostConfig}
MODEL_KINDS = tuple(MODEL_CONFIGS)

def fit_model(kind: str, features: np.ndarray, labels: np.ndarray, params: dict, seed: int = 0):
    """Fit a classifier by name with keyword overrides of its defaults."""
    if kind not in MODEL_CONFIGS:
        raise ParameterError(f"unknown model kind {kind!r}")
    config = build(MODEL_CONFIGS[kind], params, kind)
    if kind == "tree":
        return fit_tree(features, labels, config)
    if kind == "forest":
        return fit_forest(features, labels, config, seed)
    return fit_boost(features, labels, config)


@dataclass(frozen=True)
class HyperGrid:
    """A named parameter grid; points enumerate in declared axis order."""

    kind: str
    axes: tuple[tuple[str, tuple], ...] = field(default_factory=tuple)

    def __post_init__(self):
        for name, values in self.axes:
            if not values:
                raise ParameterError(f"grid axis {name!r} has no values")

    def points(self) -> list[dict]:
        names = [name for name, _ in self.axes]
        values = [vals for _, vals in self.axes]
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
    rows = []
    best = None
    for i, params in enumerate(grid.points()):
        def fit_predict(tr_x, tr_y, te_x, _p=params):
            return fit_model(grid.kind, tr_x, tr_y, _p, seed).predict(te_x)

        # through the module, so a wrapper on evaluate.cross_val_f1 (the
        # perfbench spans) also times the grid search's folds
        scores = evaluate.cross_val_f1(features, labels, n_folds, fit_predict, seed)
        mean = float(np.mean(scores))
        rows.append((params, tuple(float(s) for s in scores)))
        if best is None or mean > best[1]:
            best = (i, mean)
    return GridResult(grid.kind, rows[best[0]][0], tuple(rows))
