import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from flowbalance.dataset import Dataset
from flowbalance.errors import ParameterError
from flowbalance import neighbors
from flowbalance.neighbors import StandardizedView, knn_table, zscore
from flowbalance.oversample import OversampleConfig, _distance_space, enn_misclassified

from conftest import brute_force_knn


def plain_dataset(features, labels=None):
    features = np.asarray(features, dtype=np.float64)
    if features.ndim == 1:
        features = features[:, None]
    if labels is None:
        labels = np.zeros(features.shape[0], dtype=np.int64)
    names = tuple(f"f{j}" for j in range(features.shape[1]))
    return Dataset(features, np.asarray(labels, dtype=np.int64), names)


def view_of(ds, raw=False):
    """Neighbor-search view in z-scored coordinates, or in the raw ones."""
    return StandardizedView(ds, ds.features if raw else zscore(ds.features))


def neighbors_of(view, i, k, scope="all"):
    """One query row's neighbor list, through the table entry point."""
    return list(knn_table(view, [i], k, scope=scope)[0])


class TestStandardize:
    """Z-scoring with population statistics (``zscore``)."""

    def test_hand_zscores(self):
        scaled = zscore(np.array([[1.0], [2.0], [3.0]]))
        want = np.array([-1.224744871391589, 0.0, 1.224744871391589])
        assert np.allclose(scaled[:, 0], want, atol=1e-12)

    def test_constant_column_maps_to_zero(self):
        scaled = zscore(np.array([[5.0, 1.0], [5.0, 2.0], [5.0, 3.0]]))
        assert np.all(scaled[:, 0] == 0.0)
        want = np.array([-1.224744871391589, 0.0, 1.224744871391589])
        assert np.allclose(scaled[:, 1], want, atol=1e-12)

    def test_idempotent(self):
        rng = np.random.default_rng(0)
        once = zscore(rng.normal(3.0, 10.0, size=(40, 3)))
        assert np.allclose(once, zscore(once), atol=1e-9)

    def test_raw_view_keeps_coordinates(self):
        feats = np.array([[1.0, 10.0], [2.0, 20.0], [3.0, 30.0]])
        raw = _distance_space(feats, OversampleConfig(standardized_distances=False))
        assert np.array_equal(raw, feats)
        assert np.array_equal(_distance_space(feats, OversampleConfig()), zscore(feats))

    def test_population_statistics(self):
        rng = np.random.default_rng(5)
        scaled = zscore(rng.random((100, 4)))
        assert np.allclose(scaled.mean(axis=0), 0.0, atol=1e-12)
        assert np.allclose(scaled.std(axis=0), 1.0, atol=1e-12)


class TestKnn:
    """Hand-computed neighbor lists and brute-force agreement of ``knn_table``."""

    def test_three_point_line(self):
        view = view_of(plain_dataset([0.0, 1.0, 10.0]))
        assert knn_table(view, [0, 1, 2], 1, scope="all").tolist() == [[1], [0], [1]]
        assert neighbors_of(view, 0, 2) == [1, 2]

    def test_distance_tie_prefers_lower_index(self):
        # rows 1 and 2 are both at distance 1 from row 0
        view = view_of(plain_dataset([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [9.0, 9.0]]))
        assert neighbors_of(view, 0, 1) == [1]
        assert neighbors_of(view, 0, 2) == [1, 2]

    def test_duplicate_points_tie(self):
        view = view_of(plain_dataset([2.0, 2.0, 2.0, 50.0]))
        assert neighbors_of(view, 2, 2) == [0, 1]

    def test_matches_brute_force_on_random_data(self):
        rng = np.random.default_rng(17)
        view = view_of(plain_dataset(rng.normal(size=(200, 5))))
        scope = np.arange(200)
        table = knn_table(view, scope, 5, scope="all")
        for i in range(200):
            want = brute_force_knn(view.scaled, i, scope, 5)
            assert np.array_equal(table[i], want), f"row {i}"

    def test_minority_scope(self):
        labels = np.array([1, 0, 1, 0, 1, 0, 1])
        view = view_of(plain_dataset(np.arange(7.0), labels))
        # minority rows are {0, 2, 4, 6}; nearest to row 2 are 0 and 4 (tie
        # in distance, lower index first)
        assert neighbors_of(view, 2, 2, scope="minority") == [0, 4]

    def test_k_too_large(self):
        view = view_of(plain_dataset(np.arange(4.0)))
        with pytest.raises(ParameterError):
            knn_table(view, np.arange(4), 4, scope="all")
        with pytest.raises(ParameterError):
            knn_table(view, [0], 4, scope="all")

    def test_table_agrees_with_single_queries(self):
        rng = np.random.default_rng(3)
        labels = (rng.random(60) < 0.4).astype(np.int64)
        labels[:3] = 1
        labels[-3:] = 0
        view = view_of(plain_dataset(rng.normal(size=(60, 4)), labels))
        minority = view.scope_indices("minority")
        table = knn_table(view, minority, 3, scope="minority")
        for row, i in enumerate(minority):
            assert list(table[row]) == neighbors_of(view, int(i), 3, scope="minority")

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
        view = view_of(plain_dataset(feats))
        scope = np.arange(n)
        picks = rng.choice(n, size=min(n, 12), replace=False)
        table = knn_table(view, picks, k, scope="all")
        for row, i in enumerate(picks):
            want = brute_force_knn(view.scaled, int(i), scope, k)
            assert np.array_equal(table[row], want)


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
        view = view_of(ds, raw=raw)
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
        view = view_of(ds)
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
        view = view_of(self.cluster_data(), raw=True)
        n = view.source.n
        table = knn_table(view, np.arange(n), k, scope="all")
        for i in range(n):
            want = brute_force_knn(view.scaled, i, np.arange(n), k)
            assert np.array_equal(table[i], want), f"row {i}"


class TestRowMinimumForOneNeighbor:
    """k=1 takes the k-th expanded distance as a row minimum, not a partition."""

    @pytest.mark.parametrize("scope", ["all", "minority"])
    def test_one_neighbor_is_the_first_of_two(self, scope):
        rng = np.random.default_rng(8)
        feats = np.round(rng.normal(size=(700, 3)), 1)  # ties at the first place
        labels = (rng.random(700) < 0.6).astype(np.int64)
        view = view_of(plain_dataset(feats, labels))
        queries = view.scope_indices(scope)
        one = knn_table(view, queries, 1, scope=scope)
        two = knn_table(view, queries, 2, scope=scope)
        assert np.array_equal(one[:, 0], two[:, 0])

    @pytest.mark.parametrize("k", [1, 3])
    def test_overflowing_expanded_form_matches_brute_force(self, k):
        # |q|^2 overflows to inf near 1e160, so every expanded distance is
        # NaN; the rows are close enough that the naive distances stay finite
        rng = np.random.default_rng(5)
        feats = 1e160 + 1e148 * rng.integers(0, 30, size=(60, 2))
        view = view_of(plain_dataset(feats), raw=True)
        with np.errstate(over="ignore", invalid="ignore"):
            table = knn_table(view, np.arange(60), k, scope="all")
        for i in range(60):
            assert np.array_equal(table[i], brute_force_knn(view.scaled, i, np.arange(60), k))
