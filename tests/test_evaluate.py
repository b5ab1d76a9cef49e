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
    log_histograms,
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


def explicit_log_counts(sample, edges):
    """Per-bin counts of log10 of the positive values, one value at a time:
    bin i holds edges[i] <= v < edges[i + 1], and the last bin also holds
    its right edge."""
    sample = np.asarray(sample, dtype=np.float64)
    counts = np.zeros(edges.size - 1, dtype=np.int64)
    for v in np.log10(sample[sample > 0]):
        for i in range(edges.size - 1):
            if edges[i] <= v < edges[i + 1] or (i == edges.size - 2 and v == edges[-1]):
                counts[i] += 1
                break
    return counts


def assert_shared_log_grid(samples, edges, n_bins=40):
    """The edges are n_bins equal steps from the smallest to the largest
    log10 of a positive value over all samples."""
    pooled = np.concatenate([np.asarray(s, dtype=np.float64) for s in samples])
    pooled = pooled[pooled > 0]
    assert edges.size == n_bins + 1
    assert edges[0] == np.log10(pooled.min())
    assert edges[-1] == pytest.approx(np.log10(pooled.max()), abs=1e-12)
    assert np.allclose(np.diff(edges), (edges[-1] - edges[0]) / n_bins)


class TestLogHistograms:
    def test_constant_values_occupy_one_bin(self):
        samples = [[5.0, 5.0, 5.0], [5.0, 5.0], [5.0]]
        edges, counts = log_histograms(samples)
        assert edges[0] == np.log10(5.0)
        assert edges[-1] == pytest.approx(np.log10(5.0) + 1e-9, abs=1e-15)
        for sample, c in zip(samples, counts):
            assert np.count_nonzero(c) == 1
            assert c.sum() == len(sample)
            assert np.array_equal(c, explicit_log_counts(sample, edges))

    def test_identical_classes_identical_counts(self, rng):
        vals = rng.lognormal(size=500)
        edges, (a, b) = log_histograms([vals, vals.copy()])
        assert np.array_equal(a, b)
        assert edges.size == 41

    def test_three_samples_match_explicit_bin_counts(self, rng):
        samples = [
            rng.lognormal(mean=1.0, sigma=1.0, size=300),
            rng.lognormal(mean=3.0, sigma=0.5, size=200),
            np.concatenate([rng.lognormal(size=100), [-2.0, 0.0]]),
        ]
        edges, counts = log_histograms(samples, n_bins=25)
        assert_shared_log_grid(samples, edges, n_bins=25)
        assert len(counts) == 3
        for sample, c in zip(samples, counts):
            assert np.array_equal(c, explicit_log_counts(sample, edges))
        assert [int(c.sum()) for c in counts] == [300, 200, 100]

    def test_resampled_lognormal_l1_small(self):
        rng = np.random.default_rng(6)
        a = rng.lognormal(mean=2.0, sigma=1.0, size=20_000)
        b = rng.lognormal(mean=2.0, sigma=1.0, size=20_000)
        _, (rc, sc) = log_histograms([a, b])
        l1 = np.abs(rc / rc.sum() - sc / sc.sum()).sum()
        assert l1 < 0.1

    def test_non_positive_values_dropped(self):
        # the last sample has no positive value and still gets a row of zeros
        samples = [[1.0, -3.0, 0.0, 10.0], [1.0, 10.0, 3.0], [-1.0, 0.0]]
        edges, counts = log_histograms(samples)
        assert_shared_log_grid(samples, edges)
        assert [int(c.sum()) for c in counts] == [2, 3, 0]
        for sample, c in zip(samples, counts):
            assert np.array_equal(c, explicit_log_counts(sample, edges))
        assert counts[0][0] == 1 and counts[0][-1] == 1

    def test_all_non_positive_returns_none(self):
        assert log_histograms([[-1.0, 0.0], [0.0], []]) is None


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


def frozen_tsne(x, perplexity, n_iter, seed, exaggeration_iters):
    """t-SNE as written before its loop moved to a fixed working set, kept
    as the bitwise oracle. Returns (coords, kl_trace, attempts)."""

    def sq_dists(a):
        s = np.sum(a * a, axis=1)
        d2 = s[:, None] + s[None, :] - 2.0 * (a @ a.T)
        np.fill_diagonal(d2, 0.0)
        return np.maximum(d2, 0.0)

    learning_rate, early_exaggeration = 200.0, 12.0
    n = x.shape[0]
    rng = np.random.default_rng(seed)
    scale = float(np.std(x)) or 1.0
    for attempt in range(4):
        try:
            cond = _row_affinities(sq_dists(x), perplexity, 1e-5)
            break
        except EmbeddingError:
            x = x + rng.normal(0.0, scale * 1e-8 * 10.0**attempt, size=x.shape)
    p = (cond + cond.T) / (2.0 * n)
    p = np.maximum(p, 1e-12)
    y = rng.normal(0.0, 1e-4, size=(n, 2))
    velocity = np.zeros_like(y)
    gains = np.ones_like(y)
    kl_trace = []
    for it in range(n_iter):
        d2 = sq_dists(y)
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
        kl_trace.append(float(np.sum(p[mask] * np.log(p[mask] / q[mask]))))
    return y, tuple(kl_trace), attempt + 1


class TestTsne:
    def test_matches_frozen_loop_bitwise(self):
        rng = np.random.default_rng(21)
        base = rng.normal(size=(31, 3))
        # 40 rows; three points appear four times, more than the perplexity
        # allows, so the entropy search fails until the jitter retry
        feats = np.vstack([base, np.repeat(base[:3], 3, axis=0)])
        want, want_kl, attempts = frozen_tsne(feats, 2.5, 40, 4, exaggeration_iters=25)
        assert attempts > 1
        got = tsne(feats, perplexity=2.5, n_iter=40, seed=4, exaggeration_iters=25)
        assert np.array_equal(got.coords.view(np.int64), want.view(np.int64))
        assert got.kl_trace == want_kl

    def test_in_place_distances_match_the_expanded_form(self, rng):
        x = rng.normal(size=(33, 4))
        s = np.sum(x * x, axis=1)
        want = np.maximum(s[:, None] + s[None, :] - 2.0 * (x @ x.T), 0.0)
        np.fill_diagonal(want, 0.0)
        out, scratch = np.full((33, 33), np.nan), np.full((33, 33), np.nan)
        got = _pairwise_sq_dists(x, out=out, scratch=scratch)
        assert got is out
        assert np.array_equal(got, want)
        assert np.array_equal(_pairwise_sq_dists(x), want)

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
