"""Tests for the from-scratch tree, forest, and boosting classifiers."""

import gc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flowbalance.dataset import generate_flows
from flowbalance.errors import ParameterError, SchemaError, ShapeError, StratificationError
from flowbalance.evaluate import cross_val_f1, f1_score
from flowbalance.trees import (
    MODEL_CONFIGS,
    BoostConfig,
    DecisionTree,
    ForestConfig,
    GradientBoost,
    HyperGrid,
    RandomForest,
    TreeConfig,
    _best_split,
    check_params,
    fit_boost,
    fit_forest,
    fit_model,
    fit_tree,
    grid_search,
)

from conftest import make_blob_dataset


def brute_force_best_split(features, targets, sse=False):
    """Exhaustively score every (feature, midpoint) candidate.

    Scores weighted Gini of 0/1 labels, or with ``sse`` the residual sum
    of squares sum(r**2) - sum_left**2 / n_left - sum_right**2 / n_right.
    Scans features in ascending order and thresholds in ascending order,
    keeping the first strict minimum, so ties resolve to (lower feature,
    lower threshold). The per-split arithmetic mirrors the production
    expression term for term; what differs is the enumeration, which is the
    part under test.
    """
    n, d = features.shape
    ones = (targets == 1).astype(np.float64)
    best = None
    for j in range(d):
        vals = np.unique(features[:, j])
        for lo, hi in zip(vals[:-1], vals[1:]):
            thr = (lo + hi) / 2.0
            left = features[:, j] <= thr
            n_left = int(left.sum())
            n_right = n - n_left
            if sse:
                s_l = targets[left].sum()
                s_r = targets[~left].sum()
                w = np.sum(targets**2) - (s_l**2 / n_left + s_r**2 / n_right)
            else:
                p_l = ones[left].sum() / n_left
                p_r = ones[~left].sum() / n_right
                w = (n_left * 2 * p_l * (1 - p_l) + n_right * 2 * p_r * (1 - p_r)) / n
            if best is None or w < best[0]:
                best = (w, j, thr)
    return best


def rows_at_nodes(flat, features):
    """Training rows reaching each node; preorder ids put parents first."""
    rows = [None] * flat.n_nodes
    rows[0] = np.arange(features.shape[0])
    for node in range(flat.n_nodes):
        j = flat.feature[node]
        if j >= 0:
            go_left = features[rows[node], j] <= flat.threshold[node]
            rows[flat.left[node]] = rows[node][go_left]
            rows[flat.right[node]] = rows[node][~go_left]
    return rows


def assert_every_split_matches_oracle(flat, features, targets, sse=False):
    internal = np.flatnonzero(flat.feature >= 0)
    assert internal.size >= 3
    rows = rows_at_nodes(flat, features)
    for node in internal:
        idx = rows[node]
        _, feat, thr = brute_force_best_split(features[idx], targets[idx], sse)
        assert (flat.feature[node], flat.threshold[node]) == (feat, thr), node


def noisy_halfspace(n, d, seed, flip=0.15):
    """Points labeled by a diagonal halfspace with a fraction of flips."""
    rng = np.random.default_rng(seed)
    feats = rng.normal(size=(n, d))
    labels = (feats.sum(axis=1) > 0).astype(np.int64)
    flips = rng.random(n) < flip
    labels[flips] = 1 - labels[flips]
    return feats, labels


def xor_blobs(n_per=50, seed=3):
    """Four clusters in quadrant-parity arrangement; no single split works."""
    rng = np.random.default_rng(seed)
    feats = []
    labels = []
    for cx, cy, lab in [(-2, -2, 0), (2, 2, 0), (-2, 2, 1), (2, -2, 1)]:
        feats.append(rng.normal((cx, cy), 0.5, size=(n_per, 2)))
        labels.append(np.full(n_per, lab))
    return np.vstack(feats), np.concatenate(labels).astype(np.int64)


SEP_X = np.array([[0.0], [1.0], [2.0], [3.0], [10.0], [11.0], [12.0], [13.0]])
SEP_Y = np.array([0, 0, 0, 0, 1, 1, 1, 1])


class TestFitTree:
    def test_linearly_separable_1d_needs_one_split(self):
        tree = fit_tree(SEP_X, SEP_Y)
        assert tree.tree.n_nodes == 3
        assert tree.tree.feature[0] == 0
        assert tree.tree.threshold[0] == 6.5
        assert np.array_equal(tree.predict(SEP_X), SEP_Y)

    def test_pure_input_is_a_single_leaf(self):
        feats = np.arange(12.0).reshape(6, 2)
        for label in (0, 1):
            tree = fit_tree(feats, np.full(6, label))
            assert tree.tree.n_nodes == 1
            assert np.all(tree.predict_proba(feats) == float(label))
            assert np.all(tree.predict(feats) == label)

    def test_root_split_matches_exhaustive_oracle(self):
        feats, labels = noisy_halfspace(50, 2, seed=11)
        _, feat, thr = brute_force_best_split(feats, labels)
        tree = fit_tree(feats, labels)
        assert tree.tree.feature[0] == feat
        assert tree.tree.threshold[0] == thr

    def test_root_split_oracle_with_duplicated_values(self):
        rng = np.random.default_rng(5)
        feats = np.round(rng.normal(size=(60, 3)), 1)
        labels = (feats[:, 0] - feats[:, 2] > 0.2).astype(np.int64)
        _, feat, thr = brute_force_best_split(feats, labels)
        tree = fit_tree(feats, labels)
        assert tree.tree.feature[0] == feat
        assert tree.tree.threshold[0] == thr

    @pytest.mark.parametrize("decimals", [None, 1])
    def test_every_split_matches_exhaustive_oracle(self, decimals):
        feats, labels = noisy_halfspace(80, 3, seed=21)
        if decimals is not None:
            feats = np.round(feats, decimals)
        tree = fit_tree(feats, labels)
        assert_every_split_matches_oracle(tree.tree, feats, labels)

    def test_tied_features_prefer_lower_index(self):
        feats, labels = noisy_halfspace(30, 1, seed=2)
        doubled = np.hstack([feats, feats])
        tree = fit_tree(doubled, labels)
        assert tree.tree.feature[0] == 0

    def test_tied_thresholds_prefer_lower_value(self):
        # thresholds 0.5 and 2.5 give the same weighted Gini; 1.5 is worse
        feats = np.array([[0.0], [1.0], [2.0], [3.0]])
        labels = np.array([0, 1, 0, 1])
        tree = fit_tree(feats, labels)
        assert tree.tree.threshold[0] == 0.5

    def test_depth_limit_caps_node_count(self):
        feats, labels = noisy_halfspace(200, 3, seed=7)
        tree = fit_tree(feats, labels, TreeConfig(max_depth=1))
        assert tree.tree.n_nodes <= 3

    def test_min_samples_split_stops_growth(self):
        tree = fit_tree(SEP_X, SEP_Y, TreeConfig(min_samples_split=9))
        assert tree.tree.n_nodes == 1

    def test_importances_sum_to_one_when_split(self):
        feats, labels = noisy_halfspace(100, 4, seed=1)
        tree = fit_tree(feats, labels)
        assert tree.importances.shape == (4,)
        assert tree.importances.sum() == pytest.approx(1.0)
        assert np.all(tree.importances >= 0)

    def test_empty_input_raises(self):
        with pytest.raises(ParameterError):
            fit_tree(np.empty((0, 2)), np.empty(0, dtype=np.int64))

    def test_shape_mismatch_raises(self):
        with pytest.raises(ShapeError):
            fit_tree(np.zeros((4, 2)), np.zeros(3, dtype=np.int64))

    @pytest.mark.parametrize(
        "transform",
        [lambda x: x**3, lambda x: np.exp(x), lambda x: 3.0 * x + 1.0],
        ids=["cube", "exp", "affine"],
    )
    def test_monotone_transform_leaves_predictions_alone(self, transform):
        # The partition of the training rows depends only on value order, so
        # warping a feature moves thresholds but not training predictions.
        # (A probe point strictly between two training values can still
        # switch sides, because midpoints don't commute with the warp.)
        feats, labels = noisy_halfspace(60, 3, seed=9)
        base = fit_tree(feats, labels)

        warped = feats.copy()
        warped[:, 1] = transform(feats[:, 1])
        moved = fit_tree(warped, labels)
        assert np.array_equal(base.predict(feats), moved.predict(warped))
        assert np.array_equal(
            base.predict_proba(feats), moved.predict_proba(warped)
        )


class TestFitForest:
    def test_degenerate_forest_equals_single_tree(self):
        feats, labels = noisy_halfspace(80, 4, seed=4)
        probe = np.random.default_rng(6).normal(size=(50, 4))
        cfg = ForestConfig(
            n_trees=1, max_depth=10, n_features=4, bootstrap=False
        )
        forest = fit_forest(feats, labels, cfg, seed=0)
        tree = fit_tree(feats, labels, TreeConfig(max_depth=10))
        assert np.array_equal(forest.predict(feats), tree.predict(feats))
        assert np.array_equal(forest.predict(probe), tree.predict(probe))

    def test_same_seed_same_predictions(self):
        feats, labels = noisy_halfspace(120, 4, seed=8)
        probe = np.random.default_rng(12).normal(size=(30, 4))
        a = fit_forest(feats, labels, ForestConfig(n_trees=5), seed=77)
        b = fit_forest(feats, labels, ForestConfig(n_trees=5), seed=77)
        assert np.array_equal(a.predict_proba(probe), b.predict_proba(probe))

    def test_probabilities_lie_on_vote_grid(self):
        feats, labels = noisy_halfspace(100, 3, seed=13)
        forest = fit_forest(feats, labels, ForestConfig(n_trees=10), seed=1)
        proba = forest.predict_proba(feats)
        assert np.allclose(proba * 10, np.round(proba * 10))
        assert np.all((proba >= 0) & (proba <= 1))

    def test_forest_tracks_single_tree_cv_f1(self):
        data = generate_flows(2000, ir=1.0, seed=42)

        def tree_fit_predict(tr_x, tr_y, te_x):
            return fit_tree(tr_x, tr_y).predict(te_x)

        tree_cv = float(np.mean(
            cross_val_f1(data.features, data.labels, 10, tree_fit_predict, 0)
        ))
        forest = fit_forest(data.features, data.labels, seed=0)
        forest_f1 = f1_score(data.labels, forest.predict(data.features))
        assert forest_f1 >= tree_cv - 0.02

    def test_importances_normalized(self):
        feats, labels = noisy_halfspace(150, 5, seed=14)
        forest = fit_forest(feats, labels, ForestConfig(n_trees=8), seed=3)
        assert forest.importances.sum() == pytest.approx(1.0)

    def test_zero_trees_raises(self):
        with pytest.raises(ParameterError):
            fit_forest(SEP_X, SEP_Y, ForestConfig(n_trees=0))

    @pytest.mark.parametrize("bad", [0, 5])
    def test_feature_count_out_of_range_raises(self, bad):
        feats, labels = noisy_halfspace(40, 4, seed=0)
        with pytest.raises(ParameterError):
            fit_forest(feats, labels, ForestConfig(n_features=bad))


class TestFitBoost:
    def test_zero_rounds_predicts_base_rate(self):
        rng = np.random.default_rng(3)
        feats = rng.normal(size=(10, 2))
        labels = np.array([1, 1, 1, 0, 0, 0, 0, 0, 0, 0])
        model = fit_boost(feats, labels, BoostConfig(n_rounds=0))
        assert model.trees == ()
        assert model.loss_trace == ()
        probe = rng.normal(size=(7, 2))
        assert np.allclose(model.predict_proba(probe), 0.3, atol=1e-12)

    def test_single_round_matches_hand_newton_step(self):
        # Balanced separable set: p = 0.5 everywhere, so each leaf gets
        # sum(+-0.5 * 4) / (4 * 0.25) = +-2 and the score is exactly +-2.
        cfg = BoostConfig(n_rounds=1, learning_rate=1.0, max_depth=1)
        model = fit_boost(SEP_X, SEP_Y, cfg)
        assert model.init_score == 0.0
        score = model.decision_function(SEP_X)
        assert np.array_equal(score, np.where(SEP_Y == 1, 2.0, -2.0))
        proba = model.predict_proba(SEP_X)
        expect = np.where(SEP_Y == 1, 1 / (1 + np.exp(-2.0)), 1 / (1 + np.exp(2.0)))
        assert np.allclose(proba, expect, rtol=1e-12)
        assert model.loss_trace[0] == pytest.approx(np.log1p(np.exp(-2.0)))

    @pytest.mark.parametrize("seed", [0, 1])
    def test_first_round_splits_match_sse_oracle(self, seed):
        # Balanced labels give p_bar = 0.5 and residuals y - p_bar = +-0.5,
        # so every partial sum is exact and tied cuts tie bit for bit.
        rng = np.random.default_rng(seed)
        feats = np.round(rng.normal(size=(60, 3)), 1)
        labels = rng.permutation(np.repeat([0, 1], 30))
        model = fit_boost(feats, labels, BoostConfig(n_rounds=1))
        assert model.init_score == 0.0
        assert_every_split_matches_oracle(model.trees[0], feats, labels - 0.5, sse=True)

    @pytest.mark.parametrize("case", ["separable", "overlapping", "noise"])
    def test_training_loss_never_increases(self, case):
        if case == "separable":
            data = make_blob_dataset(60, 60, gap=3.0, seed=1)
            feats, labels = data.features, data.labels
        elif case == "overlapping":
            data = make_blob_dataset(80, 80, spread=2.0, gap=1.0, seed=2)
            feats, labels = data.features, data.labels
        else:
            rng = np.random.default_rng(4)
            feats = rng.normal(size=(120, 3))
            labels = rng.integers(0, 2, size=120)
        model = fit_boost(feats, labels, BoostConfig(n_rounds=30, learning_rate=0.2))
        trace = np.asarray(model.loss_trace)
        assert trace.size == 30
        assert np.all(np.diff(trace) <= 1e-10)

    def test_loss_actually_falls_on_learnable_data(self):
        data = make_blob_dataset(70, 70, gap=2.0, seed=5)
        model = fit_boost(data.features, data.labels, BoostConfig(n_rounds=20))
        assert model.loss_trace[-1] < model.loss_trace[0]

    def test_refit_is_deterministic(self):
        feats, labels = noisy_halfspace(90, 3, seed=6)
        a = fit_boost(feats, labels, BoostConfig(n_rounds=10))
        b = fit_boost(feats, labels, BoostConfig(n_rounds=10))
        assert a.loss_trace == b.loss_trace
        assert np.array_equal(a.predict_proba(feats), b.predict_proba(feats))

    def test_single_class_raises(self):
        with pytest.raises(ParameterError):
            fit_boost(SEP_X, np.zeros(8, dtype=np.int64))

    @pytest.mark.parametrize("cfg", [{"n_rounds": -1}, {"learning_rate": 0.0}])
    def test_bad_config_raises(self, cfg):
        with pytest.raises(ParameterError):
            fit_boost(SEP_X, SEP_Y, BoostConfig(**cfg))


class TestFitModel:
    def test_dispatch_returns_expected_types(self):
        feats, labels = noisy_halfspace(50, 2, seed=15)
        assert isinstance(fit_model("tree", feats, labels, {}), DecisionTree)
        assert isinstance(fit_model("forest", feats, labels, {"n_trees": 3}), RandomForest)
        assert isinstance(fit_model("boost", feats, labels, {"n_rounds": 2}), GradientBoost)

    def test_params_override_defaults(self):
        model = fit_model("tree", SEP_X, SEP_Y, {"max_depth": 1})
        assert model.config.max_depth == 1

    def test_unknown_kind_raises(self):
        with pytest.raises(ParameterError):
            fit_model("svm", SEP_X, SEP_Y, {})

    @pytest.mark.parametrize(
        "kind, params",
        [
            ("tree", {"bogus": 1}),
            ("tree", {"max_depth": "a"}),
            ("tree", {"max_depth": 2.5}),
            ("forest", {"bootstrap": 1}),
            ("boost", {"n_rounds": True}),
            ("tree", [1]),
        ],
    )
    def test_bad_params_raise_schema_error(self, kind, params):
        with pytest.raises(SchemaError):
            fit_model(kind, SEP_X, SEP_Y, params)

    @pytest.mark.parametrize(
        "kind, params",
        [
            ("tree", {"max_depth": -1}),
            ("tree", {"min_samples_leaf": 0}),
            ("tree", {"min_samples_split": 1}),
            ("forest", {"n_trees": 0}),
            ("forest", {"n_features": 0}),
            ("forest", {"max_depth": -2}),
            ("boost", {"n_rounds": -1}),
            ("boost", {"learning_rate": 0.0}),
            ("boost", {"learning_rate": -0.5}),
            ("boost", {"min_samples_leaf": 0}),
        ],
    )
    def test_out_of_range_params_rejected_when_the_config_is_built(self, kind, params):
        with pytest.raises(ParameterError):
            check_params(kind, params)
        with pytest.raises(ParameterError):
            MODEL_CONFIGS[kind](**params)

    def test_edge_values_stay_legal(self):
        assert check_params("tree", {"max_depth": 0, "min_samples_split": 2}) == TreeConfig(
            max_depth=0, min_samples_split=2
        )
        assert check_params("boost", {"n_rounds": 0}).n_rounds == 0
        assert check_params("forest", {"n_features": 1}).n_features == 1


class TestHyperGrid:
    def test_points_enumerate_in_declared_order(self):
        grid = HyperGrid("tree", (("a", (1, 2)), ("b", (3, 4))))
        assert grid.points() == [
            {"a": 1, "b": 3},
            {"a": 1, "b": 4},
            {"a": 2, "b": 3},
            {"a": 2, "b": 4},
        ]

    def test_empty_axes_yield_default_point(self):
        assert HyperGrid("tree").points() == [{}]


class TestGridSearch:
    def test_singleton_grid_returns_that_point(self):
        feats, labels = noisy_halfspace(60, 2, seed=16)
        grid = HyperGrid("tree", (("max_depth", (3,)),))
        result = grid_search(feats, labels, grid, n_folds=4, seed=0)
        assert result.best_params == {"max_depth": 3}
        assert len(result.rows) == 1

    def test_deeper_tree_wins_on_xor(self):
        feats, labels = xor_blobs()
        grid = HyperGrid("tree", (("max_depth", (1, 8)),))
        result = grid_search(feats, labels, grid, n_folds=5, seed=0)
        assert result.best_params == {"max_depth": 8}

    def test_table_has_grid_rows_and_fold_entries(self):
        feats, labels = noisy_halfspace(80, 2, seed=17)
        grid = HyperGrid(
            "tree", (("max_depth", (2, 4)), ("min_samples_leaf", (1, 3)))
        )
        result = grid_search(feats, labels, grid, n_folds=4, seed=0)
        assert len(result.rows) == 4
        assert [p for p, _ in result.rows] == grid.points()
        for _, fold_scores in result.rows:
            assert len(fold_scores) == 4

    def test_tie_keeps_first_declared_point(self):
        # perfectly separable: every depth >= 1 scores F1 = 1 in each fold
        data = make_blob_dataset(30, 30, gap=6.0, spread=0.3, seed=7)
        grid = HyperGrid("tree", (("max_depth", (2, 5)),))
        result = grid_search(data.features, data.labels, grid, n_folds=3, seed=0)
        scores = {p["max_depth"]: s for p, s in result.rows}
        assert scores[2] == scores[5]
        assert result.best_params == {"max_depth": 2}

    def test_mean_f1_helper_averages_folds(self):
        feats, labels = noisy_halfspace(60, 2, seed=18)
        grid = HyperGrid("tree", (("max_depth", (3,)),))
        result = grid_search(feats, labels, grid, n_folds=4, seed=0)
        assert result.mean_f1(0) == pytest.approx(np.mean(result.rows[0][1]))

    def test_minority_smaller_than_folds_raises(self):
        feats = np.random.default_rng(0).normal(size=(20, 2))
        labels = np.zeros(20, dtype=np.int64)
        labels[:3] = 1
        grid = HyperGrid("tree", (("max_depth", (2,)),))
        with pytest.raises(StratificationError):
            grid_search(feats, labels, grid, n_folds=5, seed=0)

    def test_empty_axis_raises(self):
        feats, labels = noisy_halfspace(60, 2, seed=18)
        with pytest.raises(ParameterError):
            grid_search(feats, labels, HyperGrid("tree", (("max_depth", ()),)), n_folds=3, seed=0)


def test_fits_leave_no_garbage_cycles():
    # A fit that leaves reference cycles keeps its node arrays alive until
    # the cyclic collector runs, which shows up as peak memory.
    feats, labels = noisy_halfspace(200, 4, seed=19)
    gc.collect()
    gc.disable()
    try:
        fit_tree(feats, labels)
        assert gc.collect() == 0
        fit_forest(feats, labels, ForestConfig(n_trees=4), seed=0)
        assert gc.collect() == 0
        fit_boost(feats, labels, BoostConfig(n_rounds=5))
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_split_scan_sorts_ties_stably():
    # Prefix sums of residuals round by the order they are added in, so
    # the scan must see tied values in their input order. Reordering rows
    # while keeping every tie group's internal order must then change no
    # bit of the split or its gain. The large common offset makes the gain
    # a small difference of large sums, which shows any rounding change.
    rng = np.random.default_rng(8)
    values = np.round(rng.normal(size=300), 1)
    resid = 1e4 + rng.normal(size=300)

    def scans(order):
        block = values[None, order]
        return [_best_split(block, resid[order], leaf, gini=False) for leaf in (1, 5, 25)]

    want = scans(np.arange(values.size))
    for _ in range(20):
        perm = rng.permutation(values.size)
        for v in np.unique(values):
            perm[values[perm] == v] = np.flatnonzero(values == v)
        assert scans(perm) == want


@settings(max_examples=25, deadline=None)
@given(
    n=st.integers(min_value=12, max_value=60),
    d=st.integers(min_value=1, max_value=4),
    seed=st.integers(min_value=0, max_value=10_000),
)
def test_property_root_split_matches_oracle(n, d, seed):
    rng = np.random.default_rng(seed)
    feats = np.round(rng.normal(size=(n, d)), 1)
    labels = rng.integers(0, 2, size=n)
    want = brute_force_best_split(feats, labels)
    tree = fit_tree(feats, labels, TreeConfig(max_depth=1))
    if want is None or labels.min() == labels.max():
        assert tree.tree.n_nodes == 1
        return
    if tree.tree.n_nodes == 1:
        # legal stop: the builder may refuse splits the oracle would allow
        # only when no split is possible, which "want is None" already covers
        pytest.fail("tree refused a legal split")
    assert tree.tree.feature[0] == want[1]
    assert tree.tree.threshold[0] == want[2]
