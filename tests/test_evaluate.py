"""Tests for metrics: F1, stratified CV, KS distance, histograms, t-SNE."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flowbalance.errors import (
    EmbeddingError,
    ParameterError,
    ShapeError,
    StratificationError,
)
from flowbalance.evaluate import (
    ConfusionCounts,
    _row_affinities,
    _pairwise_sq_dists,
    confusion,
    cross_val_f1,
    f1_score,
    ks_report,
    ks_two_sample,
    log_histogram_pair,
    stratified_kfold,
    tsne,
)
from flowbalance.trees import fit_tree

from conftest import make_blob_dataset

# Hand-worked two-sample KS cases. Each D was read off the step plot of the
# two empirical CDFs evaluated at every pooled point.
KS_HAND_CASES = [
    ([1, 2, 3, 4], [3, 4, 5, 6], 0.5),
    ([0, 0, 0], [1, 1, 1], 1.0),
    ([1, 2], [1, 2], 0.0),
    ([1, 1, 2], [1, 2, 2], 1 / 3),
    ([1, 2, 3, 4, 5], [3], 0.4),
    ([0, 10], [5], 0.5),
]


class TestF1:
    def test_perfect_prediction(self):
        assert ConfusionCounts(tp=5, fp=0, tn=0, fn=0).f1 == 1.0

    def test_no_minority_learned(self):
        assert ConfusionCounts(tp=0, fp=3, tn=10, fn=3).f1 == 0.0

    def test_two_thirds_case(self):
        c = ConfusionCounts(tp=2, fp=1, tn=5, fn=1)
        assert c.precision == pytest.approx(2 / 3)
        assert c.recall == pytest.approx(2 / 3)
        assert c.f1 == pytest.approx(2 / 3)

    def test_undefined_only_without_any_positives(self):
        assert not ConfusionCounts(tp=0, fp=0, tn=9, fn=0).f1_defined
        assert ConfusionCounts(tp=0, fp=0, tn=9, fn=0).f1 == 0.0
        assert ConfusionCounts(tp=0, fp=1, tn=9, fn=0).f1_defined
        assert ConfusionCounts(tp=1, fp=0, tn=9, fn=0).f1_defined

    def test_confusion_counts_from_labels(self):
        y_true = np.array([1, 1, 0, 0, 1, 0])
        y_pred = np.array([1, 0, 1, 0, 1, 0])
        c = confusion(y_true, y_pred)
        assert (c.tp, c.fp, c.tn, c.fn) == (2, 1, 2, 1)
        assert c.tp + c.fp + c.tn + c.fn == y_true.size
        assert f1_score(y_true, y_pred) == pytest.approx(2 / 3)

    def test_shape_mismatch_raises(self):
        with pytest.raises(ShapeError):
            confusion(np.zeros(3), np.zeros(4))

    @given(
        tp=st.integers(0, 50),
        fp=st.integers(0, 50),
        tn=st.integers(0, 50),
        fn=st.integers(0, 50),
    )
    def test_f1_bounded_and_one_only_when_clean(self, tp, fp, tn, fn):
        c = ConfusionCounts(tp, fp, tn, fn)
        assert 0.0 <= c.f1 <= 1.0
        assert (c.f1 == 1.0) == (fp == 0 and fn == 0 and tp > 0)


class TestStratifiedKfold:
    def test_even_split_is_exact(self):
        labels = np.array([0, 1] * 50)
        folds = stratified_kfold(labels, 10, seed=0)
        assert len(folds) == 10
        for _, test in folds:
            assert test.size == 10
            assert np.sum(labels[test] == 1) == 5
            assert np.sum(labels[test] == 0) == 5

    def test_odd_count_fold_sizes_within_one(self):
        labels = np.concatenate([np.ones(51, dtype=int), np.zeros(50, dtype=int)])
        folds = stratified_kfold(labels, 10, seed=1)
        sizes = [test.size for _, test in folds]
        assert max(sizes) - min(sizes) <= 1
        ones = [int(np.sum(labels[test])) for _, test in folds]
        assert max(ones) - min(ones) <= 1

    def test_folds_partition_the_index_set(self):
        labels = np.random.default_rng(2).integers(0, 2, size=83)
        labels[:10] = 1  # make sure the minority has >= k members
        folds = stratified_kfold(labels, 5, seed=3)
        all_test = np.concatenate([test for _, test in folds])
        assert np.array_equal(np.sort(all_test), np.arange(83))
        for train, test in folds:
            assert np.intersect1d(train, test).size == 0
            assert train.size + test.size == 83

    def test_small_class_raises(self):
        labels = np.zeros(30, dtype=int)
        labels[:3] = 1
        with pytest.raises(StratificationError):
            stratified_kfold(labels, 5, seed=0)

    def test_single_fold_rejected(self):
        with pytest.raises(ParameterError):
            stratified_kfold(np.array([0, 1, 0, 1]), 1, seed=0)

    def test_deterministic_per_seed(self):
        labels = np.array([0, 1] * 20)
        a = stratified_kfold(labels, 4, seed=9)
        b = stratified_kfold(labels, 4, seed=9)
        for (_, ta), (_, tb) in zip(a, b):
            assert np.array_equal(ta, tb)


def _tree_fit_predict(tr_x, tr_y, te_x):
    return fit_tree(tr_x, tr_y).predict(te_x)


class TestCrossValF1:
    def test_separable_data_scores_one(self):
        data = make_blob_dataset(40, 40, gap=6.0, spread=0.3, seed=4)
        scores = cross_val_f1(data.features, data.labels, 5, _tree_fit_predict, 0)
        assert np.all(scores == 1.0)

    def test_random_labels_land_near_chance(self):
        rng = np.random.default_rng(8)
        feats = rng.normal(size=(400, 4))
        labels = np.array([0, 1] * 200)
        scores = cross_val_f1(feats, labels, 10, _tree_fit_predict, 0)
        assert 0.35 <= float(np.mean(scores)) <= 0.65

    def test_deterministic_per_seed(self):
        data = make_blob_dataset(30, 30, gap=1.0, spread=1.5, seed=5)
        a = cross_val_f1(data.features, data.labels, 5, _tree_fit_predict, 7)
        b = cross_val_f1(data.features, data.labels, 5, _tree_fit_predict, 7)
        assert np.array_equal(a, b)


class TestKsTwoSample:
    @pytest.mark.parametrize("a,b,d", KS_HAND_CASES)
    def test_hand_cases_exact(self, a, b, d):
        res = ks_two_sample(np.asarray(a, float), np.asarray(b, float))
        assert res.d == pytest.approx(d, abs=1e-12)
        assert res.score == pytest.approx(1.0 - d, abs=1e-12)

    def test_identical_samples_score_one(self):
        a = np.random.default_rng(1).normal(size=200)
        res = ks_two_sample(a, a.copy())
        assert res.d == 0.0
        assert res.score == 1.0

    def test_empty_sample_raises(self):
        with pytest.raises(ParameterError):
            ks_two_sample(np.array([]), np.array([1.0]))

    @given(
        a=st.lists(st.integers(-50, 50), min_size=1, max_size=30),
        b=st.lists(st.integers(-50, 50), min_size=1, max_size=30),
    )
    def test_symmetry_and_self_distance(self, a, b):
        x = np.asarray(a, float)
        y = np.asarray(b, float)
        assert ks_two_sample(x, y).d == ks_two_sample(y, x).d
        assert ks_two_sample(x, x).d == 0.0
        assert 0.0 <= ks_two_sample(x, y).d <= 1.0

    @given(
        a=st.lists(st.integers(-20, 20), min_size=1, max_size=25),
        b=st.lists(st.integers(-20, 20), min_size=1, max_size=25),
    )
    def test_invariant_under_increasing_transform(self, a, b):
        x = np.asarray(a, float)
        y = np.asarray(b, float)
        base = ks_two_sample(x, y).d
        assert ks_two_sample(np.exp(x / 4), np.exp(y / 4)).d == pytest.approx(base)
        assert ks_two_sample(x**3, y**3).d == pytest.approx(base)


class TestKsReport:
    def test_copy_scores_one_everywhere(self, rng):
        real = rng.normal(size=(100, 3))
        rep = ks_report(real, real.copy(), ("a", "b", "c"))
        assert all(score == 1.0 for _, _, score in rep.rows)

    def test_shifted_feature_ranks_last(self, rng):
        real = rng.normal(size=(200, 3))
        synth = real + rng.normal(0, 0.05, size=real.shape)
        synth[:, 1] += 10.0  # ten standard deviations away
        rep = ks_report(real, synth, ("a", "b", "c"))
        assert rep.rows[-1][0] == "b"
        assert rep.rows[-1][2] == 0.0

    def test_rows_sorted_by_descending_score(self, rng):
        real = rng.normal(size=(150, 4))
        synth = real + rng.normal(0, 1, size=real.shape) * np.array([0, 0.5, 2.0, 8.0])
        rep = ks_report(real, synth, ("w", "x", "y", "z"))
        scores = [s for _, _, s in rep.rows]
        assert scores == sorted(scores, reverse=True)
        assert rep.rows[0][0] == "w"

    def test_score_of_lookup(self, rng):
        real = rng.normal(size=(50, 2))
        rep = ks_report(real, real.copy(), ("a", "b"))
        assert rep.score_of("b") == 1.0
        with pytest.raises(ParameterError):
            rep.score_of("missing")

    def test_schema_mismatch_raises(self, rng):
        with pytest.raises(ShapeError):
            ks_report(rng.normal(size=(10, 2)), rng.normal(size=(10, 2)), ("a",))

    def test_csv_round_trip(self, rng, tmp_path):
        real = rng.normal(size=(60, 2)) + 5
        rep = ks_report(real, real * 1.1, ("a", "b"))
        path = tmp_path / "ks.csv"
        rep.to_csv(path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "feature,ks_d,ks_score"
        assert len(lines) == 3


class TestLogHistograms:
    def test_constant_values_occupy_one_bin(self):
        edges, rc, sc = log_histogram_pair([5.0, 5.0, 5.0], [5.0, 5.0, 5.0])
        assert np.count_nonzero(rc) == 1
        assert rc.sum() == 3
        assert np.array_equal(rc, sc)

    def test_identical_classes_identical_counts(self, rng):
        vals = rng.lognormal(size=500)
        edges, rc, sc = log_histogram_pair(vals, vals.copy())
        assert np.array_equal(rc, sc)
        assert edges.size == 41

    def test_resampled_lognormal_l1_small(self):
        rng = np.random.default_rng(6)
        a = rng.lognormal(mean=2.0, sigma=1.0, size=20_000)
        b = rng.lognormal(mean=2.0, sigma=1.0, size=20_000)
        _, rc, sc = log_histogram_pair(a, b)
        l1 = np.abs(rc / rc.sum() - sc / sc.sum()).sum()
        assert l1 < 0.1

    def test_non_positive_values_dropped(self):
        edges, rc, sc = log_histogram_pair([1.0, -3.0, 0.0, 10.0], [1.0, 10.0])
        assert rc.sum() == 2
        assert sc.sum() == 2

    def test_all_non_positive_raises(self):
        with pytest.raises(ParameterError):
            log_histogram_pair([-1.0, 0.0], [1.0])


def two_cluster_cloud(n_per=60, d=10, gap=8.0, seed=0):
    rng = np.random.default_rng(seed)
    a = rng.normal(0.0, 1.0, size=(n_per, d))
    b = rng.normal(gap, 1.0, size=(n_per, d))
    return np.vstack([a, b]), np.repeat([0, 1], n_per)


def linear_split_accuracy(coords, labels):
    """Accuracy of the midpoint rule along the line between class means."""
    mu0 = coords[labels == 0].mean(axis=0)
    mu1 = coords[labels == 1].mean(axis=0)
    axis = mu1 - mu0
    proj = coords @ axis
    cut = (mu0 @ axis + mu1 @ axis) / 2.0
    pred = (proj > cut).astype(int)
    return float(np.mean(pred == labels))


class TestTsne:
    def test_conditional_rows_sum_to_one(self, rng):
        x = rng.normal(size=(40, 5))
        cond = _row_affinities(_pairwise_sq_dists(x), perplexity=10.0, tol=1e-5)
        assert np.allclose(cond.sum(axis=1), 1.0, atol=1e-6)
        assert np.all(np.diag(cond) == 0.0)

    def test_conditional_entropy_matches_perplexity(self, rng):
        x = rng.normal(size=(30, 3))
        cond = _row_affinities(_pairwise_sq_dists(x), perplexity=6.0, tol=1e-5)
        for row in cond:
            nz = row[row > 0]
            h = -np.sum(nz * np.log(nz))
            assert h == pytest.approx(np.log(6.0), abs=2e-5)

    def test_symmetrized_affinities_are_symmetric(self, rng):
        x = rng.normal(size=(25, 4))
        cond = _row_affinities(_pairwise_sq_dists(x), perplexity=5.0, tol=1e-5)
        p = (cond + cond.T) / (2 * 25)
        assert np.array_equal(p, p.T)

    def test_separated_clusters_stay_separable(self):
        feats, labels = two_cluster_cloud()
        emb = tsne(feats, perplexity=20.0, n_iter=400, seed=0)
        assert emb.coords.shape == (120, 2)
        assert np.all(np.isfinite(emb.coords))
        assert linear_split_accuracy(emb.coords, labels) >= 0.99

    def test_kl_improves_after_exaggeration_phase(self):
        feats, labels = two_cluster_cloud(n_per=40, d=4, gap=3.0, seed=2)
        emb = tsne(feats, perplexity=15.0, n_iter=400, seed=1)
        trace = np.asarray(emb.kl_trace)
        assert trace.size == 400
        assert np.all(trace >= 0.0)
        assert trace[-1] < trace[249]

    def test_deterministic_per_seed(self):
        feats, _ = two_cluster_cloud(n_per=20, d=3, gap=4.0, seed=3)
        a = tsne(feats, perplexity=8.0, n_iter=60, seed=5)
        b = tsne(feats, perplexity=8.0, n_iter=60, seed=5)
        assert np.array_equal(a.coords, b.coords)
        assert a.kl_trace == b.kl_trace

    def test_duplicate_rows_survive_via_jitter(self):
        base = np.arange(8.0).reshape(4, 2)
        feats = np.repeat(base, 3, axis=0)  # every point appears thrice
        emb = tsne(feats, perplexity=1.5, n_iter=5, seed=0)
        assert np.all(np.isfinite(emb.coords))

    def test_perplexity_out_of_range_raises(self, rng):
        x = rng.normal(size=(20, 2))
        with pytest.raises(ParameterError):
            tsne(x, perplexity=10.0)  # max for 20 rows is 19/3

    def test_tiny_input_raises(self):
        with pytest.raises(ParameterError):
            tsne(np.zeros((3, 2)), perplexity=1.0)
