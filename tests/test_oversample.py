import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from flowbalance.dataset import Dataset, partition
from flowbalance.errors import (
    DegenerateDensityError,
    DegenerateEditError,
    InsufficientMinorityError,
    NoBorderlineError,
    ParameterError,
    SchemaError,
)
from flowbalance.neighbors import _knn_block, zscore
from flowbalance.oversample import (
    ORIGIN_MAJORITY,
    ORIGIN_MINORITY,
    ORIGIN_SYNTHETIC,
    AugmentedSet,
    OversampleConfig,
    adaptive_quotas,
    adasyn,
    borderline_smote,
    danger_set,
    oversample,
    smote,
    smote_enn,
    smote_tomek,
    tomek_links,
)

from conftest import brute_force_knn, make_blob_dataset


def zscored(feats):
    """Reference z-scores: population statistics, near-constant columns kept at scale 1."""
    stds = np.where(feats.std(axis=0) <= 1e-12, 1.0, feats.std(axis=0))
    return (feats - feats.mean(axis=0)) / stds


def overlap_dataset(n_min=40, n_maj=120, seed=0):
    """Blobs close enough that neighborhoods mix classes."""
    return make_blob_dataset(n_min, n_maj, d=2, spread=1.0, gap=1.5, seed=seed)


def segment_residual(aug: AugmentedSet) -> float:
    """Worst distance from a synthetic row to its parent-neighbor segment."""
    p = aug.base.features[aug.parent_idx]
    q = aug.base.features[aug.neighbor_idx]
    s = aug.synthetic
    seg = q - p
    denom = np.einsum("ij,ij->i", seg, seg)
    t = np.zeros(len(s))
    nz = denom > 0
    t[nz] = np.einsum("ij,ij->i", (s - p)[nz], seg[nz]) / denom[nz]
    t = np.clip(t, 0.0, 1.0)
    closest = p + seg * t[:, None]
    return float(np.max(np.linalg.norm(s - closest, axis=1))) if len(s) else 0.0


class TestSmote:
    def test_segment_oracle(self):
        data = overlap_dataset()
        aug = smote(data, OversampleConfig(k=5), seed=3)
        assert aug.synthetic.shape[0] == 120 - 40
        assert segment_residual(aug) < 1e-9

    def test_provenance_reconstructs_rows(self):
        data = overlap_dataset()
        aug = smote(data, OversampleConfig(k=5), seed=8)
        p = aug.base.features[aug.parent_idx]
        q = aug.base.features[aug.neighbor_idx]
        rebuilt = p + (q - p) * aug.delta[:, None]
        assert np.allclose(rebuilt, aug.synthetic, atol=0, rtol=0)

    def test_delta_range_and_endpoint_limits(self):
        data = overlap_dataset()
        aug = smote(data, OversampleConfig(k=5, target=2000), seed=1)
        assert np.all(aug.delta >= 0.0) and np.all(aug.delta < 1.0)
        # delta -> 0 degenerates to the parent, delta -> 1 to the neighbor
        near0 = aug.delta < 1e-3
        near1 = aug.delta > 1 - 1e-3
        assert near0.any() and near1.any()
        p = aug.base.features[aug.parent_idx]
        q = aug.base.features[aug.neighbor_idx]
        assert np.allclose(aug.synthetic[near0], p[near0], atol=1e-2)
        assert np.allclose(aug.synthetic[near1], q[near1], atol=1e-2)

    def test_neighbor_is_a_minority_scope_knn(self):
        data = overlap_dataset()
        cfg = OversampleConfig(k=5)
        aug = smote(data, cfg, seed=5)
        scaled, minority = zscored(data.features), np.flatnonzero(data.labels == 1)
        for parent, neighbor in zip(aug.parent_idx, aug.neighbor_idx):
            allowed = brute_force_knn(scaled, parent, minority, cfg.k)
            assert neighbor in allowed
            assert data.labels[parent] == 1
            assert data.labels[neighbor] == 1

    def test_default_target_balances(self):
        data = overlap_dataset()
        out = partition(smote(data, OversampleConfig(k=5), seed=0).to_dataset())
        assert out.ir == 1.0

    def test_deterministic(self):
        data = overlap_dataset()
        a = smote(data, OversampleConfig(k=5), seed=11)
        b = smote(data, OversampleConfig(k=5), seed=11)
        assert np.array_equal(a.synthetic, b.synthetic)
        assert np.array_equal(a.delta, b.delta)

    def test_too_few_minority(self):
        data = make_blob_dataset(4, 30, seed=2)
        with pytest.raises(InsufficientMinorityError):
            smote(data, OversampleConfig(k=5), seed=0)

    def test_target_must_exceed_count(self):
        data = overlap_dataset()
        with pytest.raises(ParameterError):
            smote(data, OversampleConfig(k=5, target=40), seed=0)

    @given(seed=st.integers(min_value=0, max_value=10_000),
           k=st.integers(min_value=1, max_value=6))
    @settings(max_examples=20, deadline=None)
    def test_synthetic_rows_stay_within_endpoints(self, seed, k):
        data = overlap_dataset(seed=seed % 7)
        aug = smote(data, OversampleConfig(k=k), seed=seed)
        p = aug.base.features[aug.parent_idx]
        q = aug.base.features[aug.neighbor_idx]
        lo = np.minimum(p, q) - 1e-12
        hi = np.maximum(p, q) + 1e-12
        assert np.all(aug.synthetic >= lo)
        assert np.all(aug.synthetic <= hi)


def brute_force_danger(data, cfg):
    """Recompute the DANGER set with a naive per-row neighbor vote."""
    scaled = zscored(data.features)
    out = []
    for i in np.flatnonzero(data.labels == 1):
        neigh = brute_force_knn(scaled, i, np.arange(data.n), cfg.k)
        m_prime = int(np.sum(data.labels[neigh] == 0))
        if cfg.danger_band[0] * cfg.k <= m_prime < cfg.danger_band[1] * cfg.k:
            out.append(i)
    return np.asarray(out, dtype=np.int64)


class TestBorderline:
    def test_danger_matches_brute_force(self):
        data = overlap_dataset()
        cfg = OversampleConfig(k=5)
        assert np.array_equal(danger_set(data, cfg), brute_force_danger(data, cfg))

    def test_parents_come_from_danger_set(self):
        data = overlap_dataset()
        cfg = OversampleConfig(k=5)
        aug = borderline_smote(data, cfg, seed=4)
        danger = set(brute_force_danger(data, cfg).tolist())
        assert danger
        assert set(aug.parent_idx.tolist()) <= danger

    def test_separated_clusters_have_no_danger(self):
        data = make_blob_dataset(20, 60, gap=50.0, seed=1)
        with pytest.raises(NoBorderlineError):
            borderline_smote(data, OversampleConfig(k=5), seed=0)

    def test_noise_point_is_never_a_parent(self):
        # a lone minority row planted deep in the majority blob has m' = k
        rng = np.random.default_rng(6)
        maj = rng.normal(0.0, 0.7, size=(60, 2))
        mi = rng.normal(1.5, 1.0, size=(20, 2))
        noise_row = np.array([[0.0, 0.0]])
        feats = np.vstack([maj, mi, noise_row])
        labels = np.concatenate([np.zeros(60), np.ones(21)]).astype(np.int64)
        data = Dataset(feats, labels, ("a", "b"))
        cfg = OversampleConfig(k=5)
        noise_idx = data.n - 1
        neigh = brute_force_knn(zscored(data.features), noise_idx, np.arange(data.n), 5)
        assert np.sum(data.labels[neigh] == 0) == 5  # it really is NOISE
        assert noise_idx not in danger_set(data, cfg)
        aug = borderline_smote(data, cfg, seed=9)
        assert noise_idx not in aug.parent_idx


def brute_force_enn_removed(feats, labels, k, standardized=True):
    scaled = zscored(feats) if standardized else feats
    removed = np.zeros(len(feats), dtype=bool)
    for i in range(len(feats)):
        votes = labels[brute_force_knn(scaled, i, range(len(feats)), k)]
        if np.sum(votes != labels[i]) * 2 > k:
            removed[i] = True
    return removed


class TestSmoteEnn:
    def test_separated_classes_lose_nothing(self):
        data = make_blob_dataset(20, 60, gap=50.0, seed=3)
        cfg = OversampleConfig(k=5)
        plain = smote(data, cfg, seed=2)
        edited = smote_enn(data, cfg, seed=2)
        assert np.all(edited.base_kept)
        assert np.all(edited.synthetic_kept)
        assert np.array_equal(edited.features, plain.features)

    def test_lone_minority_row_is_removed(self):
        rng = np.random.default_rng(0)
        maj = rng.normal(0.0, 0.05, size=(20, 2)) + 10.0
        mi = rng.normal(0.0, 0.05, size=(5, 2))
        lone = np.array([[10.0, 10.0]])
        feats = np.vstack([maj, mi, lone])
        labels = np.concatenate([np.zeros(20), np.ones(6)]).astype(np.int64)
        data = Dataset(feats, labels, ("a", "b"))
        lone_idx = data.n - 1
        aug = smote_enn(data, OversampleConfig(k=3, target=7), seed=1)
        assert not aug.base_kept[lone_idx]

    def test_removed_set_matches_oracle(self):
        data = overlap_dataset()
        cfg = OversampleConfig(k=5)
        plain = smote(data, cfg, seed=7)
        feats = np.vstack([plain.base.features, plain.synthetic])
        labels = np.concatenate([plain.base.labels,
                                 np.ones(len(plain.synthetic), dtype=np.int64)])
        want_removed = brute_force_enn_removed(feats, labels, cfg.k)
        edited = smote_enn(data, cfg, seed=7)
        got_kept = np.concatenate([edited.base_kept, edited.synthetic_kept])
        assert np.array_equal(got_kept, ~want_removed)

    def test_raw_distances_at_large_norm_match_oracle(self):
        # rows a few ulps apart around 1e8, where the expanded distance
        # form rounds at about 4 and cannot order neighbors
        rng = np.random.default_rng(9)
        ulp = np.spacing(1e8)
        labels = np.concatenate([np.zeros(150), np.ones(60)]).astype(np.int64)
        cluster = rng.integers(0, 3, size=labels.size)
        steps = rng.integers(0, 12, size=(labels.size, 2)) + 6 * labels[:, None]
        feats = (1e8 + 1e4 * cluster)[:, None] + ulp * steps
        data = Dataset(feats, labels, ("a", "b"))
        cfg = OversampleConfig(k=5, standardized_distances=False)
        plain = smote(data, cfg, seed=4)
        combined = np.vstack([plain.base.features, plain.synthetic])
        combined_labels = np.concatenate([labels, np.ones(len(plain.synthetic), dtype=np.int64)])
        want_removed = brute_force_enn_removed(combined, combined_labels, cfg.k, standardized=False)
        edited = smote_enn(data, cfg, seed=4)
        got_kept = np.concatenate([edited.base_kept, edited.synthetic_kept])
        assert want_removed.any()
        assert np.array_equal(got_kept, ~want_removed)

    def test_paper_literal_also_drops_voters(self):
        data = overlap_dataset()
        standard = smote_enn(data, OversampleConfig(k=5), seed=7)
        literal = smote_enn(data, OversampleConfig(k=5, enn_mode="paper-literal"), seed=7)
        std_kept = np.concatenate([standard.base_kept, standard.synthetic_kept])
        lit_kept = np.concatenate([literal.base_kept, literal.synthetic_kept])
        assert np.all(lit_kept <= std_kept)  # removal is a superset
        assert lit_kept.sum() < std_kept.sum()

    def test_editing_away_a_class_raises(self):
        # every minority row is isolated inside tight majority rings, so
        # votes remove all of them (and the synthetic segment rows too)
        rng = np.random.default_rng(4)
        centers = np.array([[0, 0], [40, 0], [0, 40], [40, 40], [20, 80], [80, 20]], dtype=float)
        maj = np.vstack([c + rng.normal(0, 0.2, size=(12, 2)) for c in centers])
        mi = centers.copy()
        feats = np.vstack([maj, mi])
        labels = np.concatenate([np.zeros(len(maj)), np.ones(6)]).astype(np.int64)
        data = Dataset(feats, labels, ("a", "b"))
        with pytest.raises(DegenerateEditError):
            smote_enn(data, OversampleConfig(k=5, target=8), seed=0)


def exhaustive_tomek_scan(feats, labels, kept):
    """All cross-class mutual-1NN pairs among kept rows, by brute force."""
    scaled = zscored(feats)
    alive = np.flatnonzero(kept)
    nearest = {i: brute_force_knn(scaled, i, alive, 1)[0] for i in alive}
    links = []
    for i in alive:
        j = nearest[i]
        if i < j and nearest[j] == i and labels[i] != labels[j]:
            links.append((i, j))
    return links


def full_rescan_tomek(data, cfg, seed):
    """Reference cleaning loop: every round searches every alive row's
    nearest neighbor again and walks the links one pair at a time.

    Returns (kept mask over base then synthetic rows, removal rounds).
    """
    aug = smote(data, cfg, seed)
    feats = np.vstack([aug.base.features, aug.synthetic])
    labels = np.concatenate([aug.base.labels, np.ones(len(aug.synthetic), dtype=np.int64)])
    scaled = zscore(feats) if cfg.standardized_distances else feats
    alive = np.ones(len(feats), dtype=bool)
    rounds = 0
    while True:
        alive_idx = np.flatnonzero(alive)
        nn = _knn_block(scaled, scaled[alive_idx], alive_idx, 1, exclude=alive_idx)[:, 0]
        nearest = np.full(len(feats), -1)
        nearest[alive_idx] = nn
        pairs = []
        for i in alive_idx:
            j = nearest[i]
            if i < j and nearest[j] == i and labels[i] != labels[j]:
                pairs.append((i, j))
        if not pairs:
            return alive, rounds
        rounds += 1
        for i, j in pairs:
            if not (alive[i] and alive[j]):
                continue
            if cfg.tomek_mode == "remove-both":
                alive[i] = alive[j] = False
            else:
                alive[i if labels[i] == 0 else j] = False


class TestSmoteTomek:
    def test_no_links_means_no_edits(self):
        data = make_blob_dataset(20, 60, gap=50.0, seed=5)
        cfg = OversampleConfig(k=5)
        plain = smote(data, cfg, seed=3)
        cleaned = smote_tomek(data, cfg, seed=3)
        assert np.all(cleaned.base_kept)
        assert np.all(cleaned.synthetic_kept)
        assert np.array_equal(cleaned.features, plain.features)

    def test_forced_link_drops_majority_member(self):
        # two isolated points of opposite class are mutual nearest neighbors
        rng = np.random.default_rng(1)
        maj = rng.normal(0.0, 0.5, size=(30, 2))
        mi = rng.normal(8.0, 0.5, size=(10, 2))
        pair = np.array([[100.0, 100.0], [100.5, 100.5]])
        feats = np.vstack([maj, pair[:1], mi, pair[1:]])
        labels = np.concatenate([np.zeros(31), np.ones(11)]).astype(np.int64)
        data = Dataset(feats, labels, ("a", "b"))
        maj_member, min_member = 30, data.n - 1
        cleaned = smote_tomek(data, OversampleConfig(k=5), seed=2)
        assert not cleaned.base_kept[maj_member]
        assert cleaned.base_kept[min_member]

    def test_remove_both_drops_the_pair(self):
        rng = np.random.default_rng(1)
        maj = rng.normal(0.0, 0.5, size=(30, 2))
        mi = rng.normal(8.0, 0.5, size=(10, 2))
        pair = np.array([[100.0, 100.0], [100.5, 100.5]])
        feats = np.vstack([maj, pair[:1], mi, pair[1:]])
        labels = np.concatenate([np.zeros(31), np.ones(11)]).astype(np.int64)
        data = Dataset(feats, labels, ("a", "b"))
        cleaned = smote_tomek(data, OversampleConfig(k=5, tomek_mode="remove-both"), seed=2)
        assert not cleaned.base_kept[30]
        assert not cleaned.base_kept[data.n - 1]

    def test_no_links_remain_after_cleaning(self):
        for seed in range(3):
            data = overlap_dataset(seed=seed)
            cleaned = smote_tomek(data, OversampleConfig(k=5), seed=seed)
            feats = np.vstack([cleaned.base.features, cleaned.synthetic])
            labels = np.concatenate([
                cleaned.base.labels,
                np.ones(len(cleaned.synthetic), dtype=np.int64),
            ])
            kept = np.concatenate([cleaned.base_kept, cleaned.synthetic_kept])
            assert exhaustive_tomek_scan(feats, labels, kept) == []

    @pytest.mark.parametrize("mode", ["remove-majority", "remove-both"])
    def test_incremental_rounds_match_full_rescans(self, mode):
        rounds = []
        for seed in range(4):
            data = make_blob_dataset(60, 240, d=3, spread=1.0, gap=1.0, seed=seed)
            for standardized in (True, False):
                cfg = OversampleConfig(k=5, tomek_mode=mode, standardized_distances=standardized)
                want, n_rounds = full_rescan_tomek(data, cfg, seed)
                got = smote_tomek(data, cfg, seed)
                assert np.array_equal(np.concatenate([got.base_kept, got.synthetic_kept]), want)
                rounds.append(n_rounds)
        assert max(rounds) >= 2  # some runs needed rounds after the first

    def test_minority_rows_survive_majority_mode(self):
        data = overlap_dataset()
        cleaned = smote_tomek(data, OversampleConfig(k=5), seed=6)
        dropped_base = np.flatnonzero(~cleaned.base_kept)
        assert np.all(data.labels[dropped_base] == 0)
        assert np.all(cleaned.synthetic_kept)


class TestAdaptiveQuotas:
    def test_sums_exactly(self):
        r = np.array([0.5, 0.3, 0.2])
        assert adaptive_quotas(r, 7).sum() == 7
        assert adaptive_quotas(r, 1000).sum() == 1000

    def test_largest_remainder(self):
        # shares 3.5, 2.1, 1.4 -> floors 3, 2, 1, leftover 1 goes to .5
        r = np.array([0.5, 0.3, 0.2])
        assert list(adaptive_quotas(r, 7)) == [4, 2, 1]

    def test_fraction_tie_prefers_larger_weight(self):
        # shares 2.5 and 1.5 and 1.0: equal fractions, heavier row wins
        r = np.array([0.5, 0.3, 0.2])
        assert list(adaptive_quotas(r, 5)) == [3, 1, 1]

    def test_uniform_weights_stay_within_one(self):
        r = np.full(7, 1 / 7)
        q = adaptive_quotas(r, 10)
        assert q.sum() == 10
        assert q.max() - q.min() <= 1

    @given(
        n=st.integers(min_value=1, max_value=30),
        total=st.integers(min_value=1, max_value=500),
        seed=st.integers(min_value=0, max_value=9999),
    )
    @settings(max_examples=50, deadline=None)
    def test_property_sum_and_proportionality(self, n, total, seed):
        rng = np.random.default_rng(seed)
        w = rng.random(n) + 1e-6
        r = w / w.sum()
        q = adaptive_quotas(r, total)
        assert q.sum() == total
        assert np.all(q >= np.floor(r * total))
        assert np.all(q <= np.floor(r * total) + 1)


def brute_force_adasyn_quotas(data, cfg):
    scaled = zscored(data.features)
    minority = np.flatnonzero(data.labels == 1)
    deltas = []
    for i in minority:
        neigh = brute_force_knn(scaled, i, np.arange(data.n), cfg.k)
        deltas.append(int(np.sum(data.labels[neigh] == 0)))
    r = np.asarray(deltas, dtype=np.float64) / cfg.k
    r_hat = r / r.sum()
    n_min, n_maj = minority.size, int(np.sum(data.labels == 0))
    total = int(round(cfg.beta * (n_maj - n_min)))
    return adaptive_quotas(r_hat, total), minority, total


class TestAdasyn:
    def test_quota_oracle(self):
        data = overlap_dataset()
        cfg = OversampleConfig(k=5)
        aug = adasyn(data, cfg, seed=3)
        want, minority, total = brute_force_adasyn_quotas(data, cfg)
        assert aug.synthetic.shape[0] == total
        got = np.bincount(
            np.searchsorted(minority, aug.parent_idx), minlength=minority.size
        )
        assert np.array_equal(got, want)

    def test_lone_boundary_row_takes_whole_quota(self):
        # minority B's nearest row is minority A; A's nearest is majority
        feats = np.array([[0.0], [1.0], [1.3], [1.4], [5.0], [6.0]])
        labels = np.array([1, 1, 0, 0, 0, 0])
        data = Dataset(feats, labels, ("x",))
        cfg = OversampleConfig(k=1)
        aug = adasyn(data, cfg, seed=0)
        assert aug.synthetic.shape[0] == 2  # beta * (4 - 2)
        assert np.all(aug.parent_idx == 1)  # row A gets everything

    def test_beta_scales_the_quota(self):
        data = overlap_dataset()
        aug = adasyn(data, OversampleConfig(k=5, beta=0.5), seed=1)
        assert aug.synthetic.shape[0] == round(0.5 * (120 - 40))

    def test_pure_neighborhoods_raise(self):
        data = make_blob_dataset(20, 60, gap=50.0, seed=7)
        with pytest.raises(DegenerateDensityError):
            adasyn(data, OversampleConfig(k=5), seed=0)

    def test_segment_property_holds(self):
        data = overlap_dataset()
        aug = adasyn(data, OversampleConfig(k=5), seed=9)
        assert segment_residual(aug) < 1e-9
        assert np.all(data.labels[aug.parent_idx] == 1)
        assert np.all(data.labels[aug.neighbor_idx] == 1)

    def test_balances_at_default_beta(self):
        data = overlap_dataset()
        out = partition(adasyn(data, OversampleConfig(k=5), seed=2).to_dataset())
        assert out.ir == 1.0


class TestAugmentedSet:
    def test_origin_tags(self):
        data = overlap_dataset()
        aug = smote(data, OversampleConfig(k=5), seed=0)
        origin = aug.origin
        assert np.sum(origin == ORIGIN_MAJORITY) == 120
        assert np.sum(origin == ORIGIN_MINORITY) == 40
        assert np.sum(origin == ORIGIN_SYNTHETIC) == 80
        labels = aug.labels
        assert np.all(labels[origin == ORIGIN_SYNTHETIC] == 1)
        assert np.all(labels[origin == ORIGIN_MAJORITY] == 0)

    def test_origin_respects_filtering(self):
        data = overlap_dataset()
        aug = smote_enn(data, OversampleConfig(k=5), seed=0)
        assert len(aug.origin) == len(aug.features)
        assert len(aug.labels) == len(aug.features)

    def test_csv_export_round_trips(self, tmp_path):
        from flowbalance.dataset import load_csv

        data = overlap_dataset()
        aug = smote(data, OversampleConfig(k=5), seed=0)
        path = tmp_path / "aug.csv"
        aug.to_csv(path)
        back = load_csv(path)
        assert np.array_equal(back.features, aug.features)
        assert np.array_equal(back.labels, aug.labels)
        header = path.read_text().splitlines()[0]
        assert header.endswith(",label,origin")

    def test_dispatch(self):
        data = overlap_dataset()
        cfg = OversampleConfig(k=5)
        a = oversample("smote", data, cfg, seed=1)
        b = smote(data, cfg, seed=1)
        assert np.array_equal(a.synthetic, b.synthetic)
        with pytest.raises(ParameterError):
            oversample("random-over", data, cfg, seed=1)

    def test_bad_config_values(self):
        with pytest.raises(ParameterError):
            OversampleConfig(k=0)
        with pytest.raises(ParameterError):
            OversampleConfig(danger_band=(0.8, 0.5))
        with pytest.raises(ParameterError):
            OversampleConfig(enn_mode="aggressive")
        with pytest.raises(ParameterError):
            OversampleConfig(tomek_mode="keep")
        for beta in (0.0, float("nan"), float("inf")):
            with pytest.raises(ParameterError):
                OversampleConfig(beta=beta)
        # mistyped values fail here with the typed error, not later in a run
        for bad in (
            {"k": 2.5}, {"k": True}, {"k": "5"}, {"target": 1000.5}, {"target": True},
            {"beta": "x"},
            {"danger_band": [0.5]}, {"danger_band": 0.5}, {"danger_band": ("0", 1)},
            {"standardized_distances": "no"}, {"standardized_distances": 1},
        ):
            with pytest.raises(SchemaError):
                OversampleConfig(**bad)

    @pytest.mark.parametrize("method", ["smote", "borderline", "smote_enn",
                                        "smote_tomek", "adasyn"])
    def test_every_method_is_deterministic(self, method):
        data = overlap_dataset()
        cfg = OversampleConfig(k=5)
        a = oversample(method, data, cfg, seed=21)
        b = oversample(method, data, cfg, seed=21)
        assert np.array_equal(a.features, b.features)
        assert np.array_equal(a.labels, b.labels)
        assert np.array_equal(a.origin, b.origin)
