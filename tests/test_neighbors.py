import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from flowbalance.dataset import Dataset
from flowbalance.errors import ParameterError
from flowbalance import neighbors
from flowbalance.neighbors import (
    NeighborQuery,
    knn,
    knn_table,
    standardize,
)
from flowbalance.oversample import enn_misclassified


def plain_dataset(features, labels=None):
    features = np.asarray(features, dtype=np.float64)
    if features.ndim == 1:
        features = features[:, None]
    if labels is None:
        labels = np.zeros(features.shape[0], dtype=np.int64)
    names = tuple(f"f{j}" for j in range(features.shape[1]))
    return Dataset(features, np.asarray(labels, dtype=np.int64), names)


def brute_force_knn(scaled, i, scope_idx, k):
    """Reference: exhaustive sort by (distance, index), self excluded."""
    cands = [j for j in scope_idx if j != i]
    d = [(float(np.sum((scaled[j] - scaled[i]) ** 2)), j) for j in cands]
    d.sort()
    return np.array([j for _, j in d[:k]], dtype=np.int64)


class TestStandardize:
    def test_hand_zscores(self):
        view = standardize(plain_dataset([1.0, 2.0, 3.0]))
        want = np.array([-1.224744871391589, 0.0, 1.224744871391589])
        assert np.allclose(view.scaled[:, 0], want, atol=1e-12)

    def test_constant_column_maps_to_zero(self):
        view = standardize(plain_dataset([[5.0, 1.0], [5.0, 2.0], [5.0, 3.0]]))
        assert np.all(view.scaled[:, 0] == 0.0)
        assert view.stds[0] == 1.0

    def test_idempotent(self):
        rng = np.random.default_rng(0)
        ds = plain_dataset(rng.normal(3.0, 10.0, size=(40, 3)))
        once = standardize(ds)
        twice = standardize(plain_dataset(once.scaled))
        assert np.allclose(once.scaled, twice.scaled, atol=1e-9)

    def test_raw_view_keeps_coordinates(self):
        ds = plain_dataset([[1.0, 10.0], [2.0, 20.0], [3.0, 30.0]])
        view = standardize(ds, raw=True)
        assert np.array_equal(view.scaled, ds.features)

    def test_population_statistics(self):
        rng = np.random.default_rng(5)
        ds = plain_dataset(rng.random((100, 4)))
        view = standardize(ds)
        assert np.allclose(view.scaled.mean(axis=0), 0.0, atol=1e-12)
        assert np.allclose(view.scaled.std(axis=0), 1.0, atol=1e-12)

    def test_needs_two_rows(self):
        with pytest.raises(ParameterError):
            standardize(plain_dataset([1.0]))


class TestKnn:
    def test_three_point_line(self):
        view = standardize(plain_dataset([0.0, 1.0, 10.0]))
        assert list(knn(view, 0, NeighborQuery(1))) == [1]
        assert list(knn(view, 1, NeighborQuery(1))) == [0]
        assert list(knn(view, 2, NeighborQuery(1))) == [1]
        assert list(knn(view, 0, NeighborQuery(2))) == [1, 2]

    def test_distance_tie_prefers_lower_index(self):
        # rows 1 and 2 are both at distance 1 from row 0
        view = standardize(plain_dataset([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [9.0, 9.0]]),)
        assert list(knn(view, 0, NeighborQuery(1))) == [1]
        assert list(knn(view, 0, NeighborQuery(2))) == [1, 2]

    def test_duplicate_points_tie(self):
        view = standardize(plain_dataset([2.0, 2.0, 2.0, 50.0]))
        assert list(knn(view, 2, NeighborQuery(2))) == [0, 1]

    def test_matches_brute_force_on_random_data(self):
        rng = np.random.default_rng(17)
        ds = plain_dataset(rng.normal(size=(200, 5)))
        view = standardize(ds)
        scope = np.arange(200)
        for i in range(200):
            got = knn(view, i, NeighborQuery(5))
            want = brute_force_knn(view.scaled, i, scope, 5)
            assert np.array_equal(got, want), f"row {i}"

    def test_minority_scope(self):
        labels = np.array([1, 0, 1, 0, 1, 0, 1])
        feats = np.arange(7.0)
        view = standardize(plain_dataset(feats, labels))
        got = knn(view, 2, NeighborQuery(2, scope="minority"))
        # minority rows are {0, 2, 4, 6}; nearest to row 2 are 0 and 4 (tie
        # in distance, lower index first)
        assert list(got) == [0, 4]

    def test_query_outside_scope(self):
        labels = np.array([1, 0, 1, 1])
        view = standardize(plain_dataset(np.arange(4.0), labels))
        with pytest.raises(ParameterError):
            knn(view, 1, NeighborQuery(1, scope="minority"))

    def test_k_too_large(self):
        view = standardize(plain_dataset(np.arange(4.0)))
        with pytest.raises(ParameterError):
            knn(view, 0, NeighborQuery(4))
        with pytest.raises(ParameterError):
            knn_table(view, np.arange(4), 4, scope="all")

    def test_bad_query_params(self):
        with pytest.raises(ParameterError):
            NeighborQuery(0)
        with pytest.raises(ParameterError):
            NeighborQuery(3, scope="everything")

    def test_table_agrees_with_single_queries(self):
        rng = np.random.default_rng(3)
        labels = (rng.random(60) < 0.4).astype(np.int64)
        labels[:3] = 1
        labels[-3:] = 0
        ds = plain_dataset(rng.normal(size=(60, 4)), labels)
        view = standardize(ds)
        minority = view.scope_indices("minority")
        table = knn_table(view, minority, 3, scope="minority")
        for row, i in enumerate(minority):
            assert np.array_equal(table[row], knn(view, int(i), NeighborQuery(3, scope="minority")))

    @given(
        n=st.integers(min_value=6, max_value=500),
        d=st.integers(min_value=1, max_value=4),
        k=st.integers(min_value=1, max_value=5),
        seed=st.integers(min_value=0, max_value=10_000),
    )
    @settings(max_examples=25, deadline=None)
    def test_property_matches_brute_force(self, n, d, k, seed):
        rng = np.random.default_rng(seed)
        # round to a coarse grid so distance ties actually happen
        feats = np.round(rng.normal(size=(n, d)), 1)
        view = standardize(plain_dataset(feats))
        scope = np.arange(n)
        picks = rng.choice(n, size=min(n, 12), replace=False)
        for i in picks:
            got = knn(view, int(i), NeighborQuery(k))
            want = brute_force_knn(view.scaled, int(i), scope, k)
            assert np.array_equal(got, want)


def boundary_tie(scaled, i, k):
    """Whether row i's k-th and (k+1)-th naive distances are equal."""
    d = np.sort(np.sum((scaled - scaled[i]) ** 2, axis=1))[1:]  # drop self
    return d[k - 1] == d[k]


class TestLargeScope:
    """Scopes above 2048 rows, on grids coarse enough for exact ties."""

    N = 3000

    def grid_data(self, seed, minority_frac=0.5):
        rng = np.random.default_rng(seed)
        feats = rng.integers(0, 40, size=(self.N, 2)).astype(np.float64)
        labels = (rng.random(self.N) < minority_frac).astype(np.int64)
        return plain_dataset(feats, labels), rng

    @pytest.mark.parametrize("raw", [True, False])
    @pytest.mark.parametrize("k", [1, 5])
    def test_knn_table_matches_brute_force(self, raw, k):
        ds, rng = self.grid_data(seed=k, minority_frac=0.8)
        view = standardize(ds, raw=raw)
        ties = 0
        for scope in ("all", "minority"):
            scope_idx = view.scope_indices(scope)
            assert scope_idx.size > 2048
            picks = np.sort(rng.choice(scope_idx, size=40, replace=False))
            table = knn_table(view, picks, k, scope=scope)
            for row, i in enumerate(picks):
                want = brute_force_knn(view.scaled, int(i), scope_idx, k)
                assert np.array_equal(table[row], want), f"{scope} row {i}"
                ties += boundary_tie(view.scaled[scope_idx], int(np.searchsorted(scope_idx, i)), k)
        assert ties > 0  # the grid really produces ties at the k-th place

    def test_enn_misclassified_matches_brute_force(self):
        ds, rng = self.grid_data(seed=11)
        k = 5
        removed, neigh = enn_misclassified(ds.features, ds.labels, k)
        scope = np.arange(self.N)
        for i in rng.choice(self.N, size=40, replace=False):
            want = brute_force_knn(ds.features, int(i), scope, k)
            assert np.array_equal(neigh[i], want), f"row {i}"
            opp = np.sum(ds.labels[want] != ds.labels[i])
            assert removed[i] == (opp * 2 > k)

    @pytest.mark.parametrize("block", [1, 4000, 50_000])
    def test_chunking_does_not_change_tables(self, monkeypatch, block):
        ds, _ = self.grid_data(seed=2)
        view = standardize(ds)
        queries = np.arange(0, self.N, 7)
        want = knn_table(view, queries, 4, scope="all")
        monkeypatch.setattr(neighbors, "BLOCK_ELEMENTS", block)
        assert np.array_equal(knn_table(view, queries, 4, scope="all"), want)


class TestNearTiesAtLargeNorm:
    """Rows a few ulps apart around 1e8: the expanded form |q|^2 - 2q.s +
    |s|^2 rounds at about 4 there, far above the true distances, so only
    the naive re-rank can order them."""

    def cluster_data(self, n=400, seed=4):
        rng = np.random.default_rng(seed)
        base = 1e8
        ulp = np.spacing(base)
        cluster = rng.integers(0, 6, size=n)
        steps = rng.integers(0, 8, size=(n, 2))
        feats = (base + 1e4 * cluster)[:, None] + ulp * steps
        labels = (rng.random(n) < 0.5).astype(np.int64)
        return plain_dataset(feats, labels)

    def test_expanded_form_alone_would_misorder(self):
        x = self.cluster_data().features
        sq = np.sum(x * x, axis=1)
        wrong = 0
        for i in range(40):
            naive = np.sum((x - x[i]) ** 2, axis=1)
            expanded = sq[i] - 2.0 * (x @ x[i]) + sq
            naive[i] = expanded[i] = np.inf
            wrong += not np.array_equal(
                np.argsort(naive, kind="stable")[:5], np.argsort(expanded, kind="stable")[:5]
            )
        assert wrong > 0

    @pytest.mark.parametrize("k", [1, 5])
    def test_raw_table_matches_brute_force(self, k):
        view = standardize(self.cluster_data(), raw=True)
        n = view.source.n
        table = knn_table(view, np.arange(n), k, scope="all")
        for i in range(n):
            want = brute_force_knn(view.scaled, i, np.arange(n), k)
            assert np.array_equal(table[i], want), f"row {i}"

