"""End-to-end acceptance checks, one numbered criterion per test.

Every test funnels its verdict through the shared ``criterion`` fixture,
which prints a ``criterion NN PASS/FAIL`` line and echoes all lines
together after the run summary. The method-comparison sweep behind
criteria 2 and 3 is the slow part (about five minutes) and runs once per
session; everything else is seconds.
"""
import json
import time

import numpy as np
import pytest

from conftest import make_blob_dataset
from flowbalance.cli import main as cli_main
from flowbalance.dataset import (
    DEFAULT_PROFILE,
    FlowProfile,
    apply_scheme,
    generate_flows,
    partition,
    standard_schemes,
)
from flowbalance.evaluate import f1_score, ks_report, ks_two_sample, tsne
from flowbalance.gan import GanConfig, train_ctgan, train_gan
from flowbalance.harness import DataConfig, ExperimentConfig, run_experiment
from flowbalance.mixtures import ModeNormalizer, fit_mixture
from flowbalance.nets import FeedforwardNet, gradient_check
from flowbalance.oversample import (
    OversampleConfig,
    adasyn,
    smote,
    smote_enn,
    smote_tomek,
)
from flowbalance.trees import MODEL_KINDS, fit_model


def _zscore(feats: np.ndarray) -> np.ndarray:
    """Population z-score with the same constant-column guard the
    augmentation code applies."""
    means = feats.mean(axis=0)
    stds = feats.std(axis=0)
    stds = np.where(stds <= 1e-12, 1.0, stds)
    return (feats - means) / stds


def _brute_knn(scaled: np.ndarray, query: np.ndarray, k: int) -> np.ndarray:
    """k nearest rows per query index via the full distance matrix.

    Ties break toward the lower row index and the query row itself is
    excluded, matching the neighbor-search contract.
    """
    d2 = ((scaled[query][:, None, :] - scaled[None, :, :]) ** 2).sum(axis=2)
    d2[np.arange(query.size), query] = np.inf
    order = np.argsort(d2, axis=1, kind="stable")
    return order[:, :k]


# --- criterion 1 -----------------------------------------------------------

# Extreme imbalance only breaks learning when the classes overlap; with
# cleanly separable regimes a deep tree shrugs off any ratio. This profile
# narrows the throughput gap and pulls the slow-RTT regime toward the
# normal one so the 1:1000 population behaves like the degenerate case.
OVERLAP_PROFILE = FlowProfile(separation=0.7, slow_rtt_mean=1.95)

# Shallow settings used for both fits: ~100 balanced rows cannot support
# the default depths, and depth is irrelevant to the degenerate side.
SHALLOW_PARAMS = {
    "tree": {"max_depth": 4},
    "forest": {"max_depth": 6},
    "boost": {"max_depth": 2, "n_rounds": 40},
}


def test_criterion_01_extreme_imbalance_degeneracy(criterion):
    t0 = time.monotonic()
    pop = generate_flows(50_000, 1 / 1000, seed=103, profile=OVERLAP_PROFILE)
    test = generate_flows(3_000, 1.0, seed=9003, profile=OVERLAP_PROFILE)
    train2 = apply_scheme(pop, standard_schemes(partition(pop))["train2"], seed=3)

    raw_f1 = {}
    balanced_f1 = {}
    for kind in MODEL_KINDS:
        params = SHALLOW_PARAMS[kind]
        model = fit_model(kind, pop.features, pop.labels, params, seed=3)
        raw_f1[kind] = f1_score(test.labels, model.predict(test.features))
        model = fit_model(kind, train2.features, train2.labels, params, seed=3)
        balanced_f1[kind] = f1_score(test.labels, model.predict(test.features))
    elapsed = time.monotonic() - t0

    ok = (
        all(v < 0.05 for v in raw_f1.values())
        and all(v >= 0.7 for v in balanced_f1.values())
        and elapsed < 300
    )
    criterion(
        1, "1:1000 degrades all classifiers; balanced scheme recovers", ok,
        f"raw max F1 {max(raw_f1.values()):.3f} < 0.05, "
        f"balanced min F1 {min(balanced_f1.values()):.3f} >= 0.7, {elapsed:.0f}s",
    )


# --- criteria 2 and 3 ------------------------------------------------------

@pytest.fixture(scope="session")
def method_sweep(tmp_path_factory):
    """Full method x {1:2, 1:10} x 5-seed sweep with one classifier."""
    out = tmp_path_factory.mktemp("method_sweep")
    config = ExperimentConfig(
        out_dir=str(out),
        data=DataConfig(n_total=30_000, population_ir=0.08),
        classifiers=("forest",),
        train_irs=(0.5, 0.1),
        train_minority=500,
        seeds=(0, 1, 2, 3, 4),
        gan={"epochs": 500},
        tsne_cap=120,
    )
    t0 = time.monotonic()
    report = run_experiment(config)
    return config, report, time.monotonic() - t0


def test_criterion_02_methods_track_stratified_baseline(method_sweep, criterion):
    config, report, elapsed = method_sweep
    baseline = report.median_f1("none", "forest", 1.0)
    deltas = {
        m: report.median_f1(m, "forest", 0.5) - baseline
        for m in config.methods
        if m != "none"
    }
    worst = max(abs(v) for v in deltas.values())
    ok = (
        not report.failed
        and baseline is not None
        and worst <= 0.05
        and elapsed < 1800
    )
    criterion(
        2, "every method within +/-0.05 of the balanced baseline at 1:2", ok,
        f"baseline {baseline:.3f}, worst |delta| {worst:.3f} <= 0.05, "
        f"{elapsed / 60:.1f} min < 30",
    )


def test_criterion_03_more_imbalance_never_helps(method_sweep, criterion):
    config, report, _ = method_sweep
    drift = {
        m: report.median_f1(m, "forest", 0.1) - report.median_f1(m, "forest", 0.5)
        for m in config.methods
    }
    worst = max(drift.values())
    criterion(
        3, "median F1 at 1:10 <= median at 1:2 + 0.02 for every method",
        worst <= 0.02,
        f"worst drift {worst:+.3f} <= +0.02",
    )


# --- criterion 4 -----------------------------------------------------------

def test_criterion_04_smote_rows_sit_on_recorded_segments(criterion):
    worst = 0.0
    n_rows = 0
    for trial in range(10):
        t_rng = np.random.default_rng(400 + trial)
        data = make_blob_dataset(
            n_min=int(t_rng.integers(12, 40)),
            n_maj=int(t_rng.integers(50, 150)),
            d=int(t_rng.integers(2, 7)),
            spread=float(t_rng.uniform(0.5, 2.0)),
            gap=float(t_rng.uniform(1.0, 4.0)),
            seed=400 + trial,
        )
        k = int(t_rng.integers(1, 6))
        aug = smote(data, OversampleConfig(k=k), seed=trial)
        x_parent = data.features[aug.parent_idx]
        x_neighbor = data.features[aug.neighbor_idx]
        expected = x_parent + (x_neighbor - x_parent) * aug.delta[:, None]
        worst = max(worst, float(np.abs(aug.synthetic - expected).max()))
        n_rows += aug.synthetic.shape[0]
    criterion(
        4, "synthetic rows reproduce parent/neighbor/delta provenance",
        worst < 1e-9,
        f"{n_rows} rows over 10 datasets, max residual {worst:.1e} < 1e-9",
    )


# --- criterion 5 -----------------------------------------------------------

def _largest_remainder(weights: np.ndarray, total: int) -> np.ndarray:
    """Independent integer apportionment: floor the proportional shares
    and hand leftovers to the largest fractions (larger weight, then
    lower index, on ties)."""
    shares = weights * total
    base = np.floor(shares).astype(np.int64)
    frac = shares - base
    leftover = total - int(base.sum())
    order = sorted(range(weights.size), key=lambda i: (-frac[i], -weights[i], i))
    for i in order[:leftover]:
        base[i] += 1
    return base


def test_criterion_05_adasyn_quotas_match_brute_force(criterion):
    all_ok = True
    checked = 0
    for trial in range(10):
        t_rng = np.random.default_rng(500 + trial)
        data = make_blob_dataset(
            n_min=int(t_rng.integers(15, 40)),
            n_maj=int(t_rng.integers(60, 160)),
            d=int(t_rng.integers(2, 6)),
            gap=float(t_rng.uniform(0.5, 2.0)),  # overlap keeps weights mixed
            seed=500 + trial,
        )
        cfg = OversampleConfig(k=5)
        aug = adasyn(data, cfg, seed=trial)

        minority_idx = np.flatnonzero(data.labels == 1)
        majority_n = int(np.sum(data.labels == 0))
        scaled = _zscore(data.features)
        neigh = _brute_knn(scaled, minority_idx, cfg.k)
        delta_counts = np.sum(data.labels[neigh] == 0, axis=1)
        r_hat = delta_counts / cfg.k
        r_hat = r_hat / r_hat.sum()
        g_total = int(round(cfg.beta * (majority_n - minority_idx.size)))
        quotas = _largest_remainder(r_hat, g_total)

        observed = np.bincount(
            np.searchsorted(minority_idx, aug.parent_idx),
            minlength=minority_idx.size,
        )
        all_ok &= aug.synthetic.shape[0] == g_total
        all_ok &= bool(np.array_equal(observed, quotas))
        checked += 1
    criterion(
        5, "adaptive quotas sum to G and match independent recomputation",
        all_ok and checked == 10,
        f"{checked} datasets, exact integer agreement",
    )


# --- criterion 6 -----------------------------------------------------------

def test_criterion_06_edit_postconditions_hold(criterion):
    tomek_clean = True
    enn_exact = True
    links_possible = 0
    removed_total = 0
    for trial in range(10):
        t_rng = np.random.default_rng(600 + trial)
        data = make_blob_dataset(
            n_min=int(t_rng.integers(15, 35)),
            n_maj=int(t_rng.integers(60, 140)),
            d=int(t_rng.integers(2, 6)),
            gap=float(t_rng.uniform(0.8, 2.0)),  # overlap so edits trigger
            seed=600 + trial,
        )
        cfg = OversampleConfig()

        # Tomek: no cross-class mutual-1-NN pair may survive among the
        # retained rows, measured in the frozen pre-edit z-scored space.
        aug = smote_tomek(data, cfg, seed=trial)
        feats = np.vstack([data.features, aug.synthetic])
        labels = np.concatenate(
            [data.labels, np.ones(aug.synthetic.shape[0], dtype=np.int64)]
        )
        scaled = _zscore(feats)
        alive = np.concatenate([aug.base_kept, aug.synthetic_kept])
        idx = np.flatnonzero(alive)
        nn_local = _brute_knn(scaled[idx], np.arange(idx.size), 1)[:, 0]
        for a_local, b_local in enumerate(nn_local):
            b_local = int(b_local)
            if nn_local[b_local] == a_local and labels[idx[a_local]] != labels[idx[b_local]]:
                tomek_clean = False
        links_possible += idx.size

        # ENN (standard): the removed set must be exactly the rows that
        # lose the k-neighbor vote in the pre-edit set.
        aug = smote_enn(data, cfg, seed=trial)
        feats = np.vstack([data.features, aug.synthetic])
        labels = np.concatenate(
            [data.labels, np.ones(aug.synthetic.shape[0], dtype=np.int64)]
        )
        scaled = _zscore(feats)
        kept = np.concatenate([aug.base_kept, aug.synthetic_kept])
        neigh = _brute_knn(scaled, np.arange(feats.shape[0]), cfg.k)
        opposite = np.sum(labels[neigh] != labels[:, None], axis=1)
        misclassified = opposite * 2 > cfg.k
        enn_exact &= bool(np.array_equal(~kept, misclassified))
        removed_total += int(np.sum(~kept))
    criterion(
        6, "no surviving cross-class links; removals are vote losers",
        tomek_clean and enn_exact,
        f"10 datasets, {links_possible} rows link-scanned, "
        f"{removed_total} neighbor-edited removals re-derived",
    )


# --- criterion 7 -----------------------------------------------------------

def test_criterion_07_gradients_match_finite_differences(criterion):
    worst = 0.0
    configs = 0
    pick = np.random.default_rng(77)
    for trial in range(20):
        depth = int(pick.integers(2, 5))
        sizes = tuple(int(pick.integers(2, 10)) for _ in range(depth))
        batch = int(pick.integers(1, 8))
        net = FeedforwardNet(sizes, seed=trial)
        x = pick.normal(scale=2.0, size=(batch, sizes[0]))
        worst = max(worst, gradient_check(net, x, seed=trial))
        configs += 1
    criterion(
        7, "backprop matches central differences on randomized networks",
        worst < 1e-4 and configs == 20,
        f"{configs} configurations, worst relative error {worst:.1e} < 1e-4",
    )


# --- criterion 8 -----------------------------------------------------------

def test_criterion_08_em_monotone_and_recovers_modes(criterion):
    min_step = np.inf
    for trial in range(5):
        t_rng = np.random.default_rng(800 + trial)
        parts = [
            t_rng.normal(t_rng.uniform(-5, 5), t_rng.uniform(0.3, 2.0), size=200)
            for _ in range(int(t_rng.integers(1, 4)))
        ]
        values = np.concatenate(parts)
        mix = fit_mixture(values, k=int(t_rng.integers(1, 4)))
        steps = np.diff(np.asarray(mix.loglik_trace))
        if steps.size:
            min_step = min(min_step, float(steps.min()))

    t_rng = np.random.default_rng(88)
    values = np.concatenate(
        [t_rng.normal(0.0, 1.0, 500), t_rng.normal(100.0, 1.0, 500)]
    )
    t_rng.shuffle(values)
    mix = fit_mixture(values, k=2)
    mean_err = float(np.mean(np.abs(np.sort(mix.means) - np.array([0.0, 100.0]))))

    criterion(
        8, "EM log-likelihood never decreases; far modes recovered",
        min_step >= -1e-9 and mean_err < 1.0,
        f"min step {min_step:+.2e} >= -1e-9, mean |mu err| {mean_err:.3f} < 1.0",
    )


# --- criterion 9 -----------------------------------------------------------

def test_criterion_09_gan_matches_toy_gaussian_moments(criterion):
    t0 = time.monotonic()
    rng = np.random.default_rng(0)
    data = rng.multivariate_normal(
        [0.5, -0.3], [[1.0, 0.6], [0.6, 1.0]], size=640
    )
    cfg = GanConfig(
        noise_dim=16, hidden=(128, 128), lr=5e-4,
        batch_size=64, epochs=2000, d_steps=5, seed=0,
    )
    model = train_gan(data, cfg)
    fake = model.sample(5000, seed=1)
    mean_err = float(np.linalg.norm(fake.mean(axis=0) - data.mean(axis=0)))
    cov_err = float(np.linalg.norm(np.cov(fake.T) - np.cov(data.T)))
    p_real = model.discriminator_prob(data)
    p_fake = model.discriminator_prob(fake[: data.shape[0]])
    acc = 0.5 * (float(np.mean(p_real >= 0.5)) + float(np.mean(p_fake < 0.5)))
    elapsed = time.monotonic() - t0
    ok = mean_err < 0.15 and cov_err < 0.3 and 0.4 <= acc <= 0.6 and elapsed < 180
    criterion(
        9, "2000-epoch toy GAN lands on the target moments", ok,
        f"|mean err| {mean_err:.3f} < 0.15, cov Frobenius {cov_err:.3f} < 0.3, "
        f"D accuracy {acc:.3f} in [0.4, 0.6], {elapsed:.0f}s",
    )


# --- criterion 10 ----------------------------------------------------------

def test_criterion_10_ctgan_covers_both_modes(criterion):
    rng = np.random.default_rng(3)
    n = 600
    low_mode = rng.random(n) < 0.5
    bimodal = np.where(
        low_mode, rng.normal(-4.0, 0.5, n), rng.normal(4.0, 0.5, n)
    )
    data = np.column_stack([bimodal, rng.normal(0.0, 1.0, n)])

    normalizer = ModeNormalizer.fit(data)
    round_trip = normalizer.decode(normalizer.encode(data), harden=False)
    rt_err = float(np.abs(round_trip - data).max())

    model = train_ctgan(data, GanConfig(epochs=300, seed=0))
    out = model.sample(4000, seed=50)
    low_mass = float(np.mean(out[:, 0] < 0.0))
    min_mass = min(low_mass, 1.0 - low_mass)
    criterion(
        10, "generated mass lands in both modes; encoding round-trips",
        min_mass >= 0.2 and rt_err < 1e-5,
        f"mode masses {low_mass:.3f}/{1 - low_mass:.3f} >= 0.2, "
        f"round-trip max err {rt_err:.1e} < 1e-5",
    )


# --- criterion 11 ----------------------------------------------------------

KS_HAND_CASES = [
    ([1, 2, 3, 4], [3, 4, 5, 6], 0.5),
    ([0, 0, 0], [1, 1, 1], 1.0),
    ([1, 2], [1, 2], 0.0),
    ([1, 1, 2], [1, 2, 2], 1 / 3),
    ([1, 2, 3, 4, 5], [3], 0.4),
    ([0, 10], [5], 0.5),
]


def test_criterion_11_ks_statistic_matches_hand_enumeration(criterion):
    max_dev = 0.0
    for a, b, expected in KS_HAND_CASES:
        res = ks_two_sample(np.asarray(a, float), np.asarray(b, float))
        max_dev = max(max_dev, abs(res.d - expected))
    same = np.random.default_rng(11).normal(size=300)
    ident = ks_two_sample(same, same.copy())
    criterion(
        11, "KS D matches hand enumeration; identical samples score 1",
        max_dev < 1e-12 and ident.d == 0.0 and ident.score == 1.0,
        f"{len(KS_HAND_CASES)} hand cases, max |D err| {max_dev:.1e}",
    )


# --- criterion 12 ----------------------------------------------------------

def test_criterion_12_smote_preserves_unimodal_marginals(criterion):
    data = generate_flows(3_000, 0.5, seed=21)
    aug = smote(data, OversampleConfig(), seed=5)
    real_minority = data.features[data.labels == 1]
    synthetic = aug.synthetic[aug.synthetic_kept]
    rep = ks_report(real_minority, synthetic, data.feature_names)
    scores = {f: rep.score_of(f) for f in DEFAULT_PROFILE.unimodal_features}
    worst = min(scores.values())
    criterion(
        12, "per-feature KS score >= 0.8 on unimodal features at n=3000",
        worst >= 0.8,
        "worst " + min(scores, key=scores.get) + f" {worst:.3f} >= 0.8",
    )


# --- criterion 13 ----------------------------------------------------------

def _axis_split_accuracy(coords: np.ndarray, labels: np.ndarray) -> float:
    """Accuracy of the midpoint threshold along the class-mean axis."""
    mu0 = coords[labels == 0].mean(axis=0)
    mu1 = coords[labels == 1].mean(axis=0)
    proj = coords @ (mu1 - mu0)
    cut = 0.5 * (proj[labels == 0].mean() + proj[labels == 1].mean())
    acc = float(np.mean((proj > cut).astype(int) == labels))
    return max(acc, 1.0 - acc)


def test_criterion_13_tsne_separates_far_clusters(criterion):
    rng = np.random.default_rng(13)
    x = np.vstack([
        rng.normal(0.0, 1.0, size=(60, 10)),
        rng.normal(8.0, 1.0, size=(60, 10)),
    ])
    labels = np.concatenate([np.zeros(60, dtype=int), np.ones(60, dtype=int)])
    emb = tsne(x, perplexity=25.0, seed=4)
    emb_again = tsne(x, perplexity=25.0, seed=4)

    acc = _axis_split_accuracy(emb.coords, labels)
    trace = np.asarray(emb.kl_trace)
    # iteration 249 is the last one under early exaggeration
    ok = (
        acc >= 0.99
        and bool(np.isfinite(trace).all())
        and trace[-1] < trace[249]
        and np.array_equal(emb.coords, emb_again.coords)
    )
    criterion(
        13, "far clusters embed separably; KL sane; rerun identical", ok,
        f"linear split {acc:.3f} >= 0.99, KL {trace[249]:.3f} -> {trace[-1]:.3f}",
    )


# --- criterion 14 ----------------------------------------------------------

def test_criterion_14_experiment_reruns_byte_identical(tmp_path, criterion):
    out = tmp_path / "run"
    config = {
        "out_dir": str(out),
        "data": {"n_total": 3000, "population_ir": 0.2},
        "methods": ["none", "smote", "gan"],
        "classifiers": ["tree"],
        "train_irs": [0.5, 0.25],
        "train_minority": 60,
        "seeds": [0, 1],
        "grids": {"tree": {"max_depth": [4]}},
        "gan": {"epochs": 30, "batch_size": 16, "hidden": [8, 8], "noise_dim": 4},
        "tsne_cap": 60,
    }
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config))

    rc_first = cli_main(["experiment", "--config", str(config_path)])
    first = {p.name: p.read_bytes() for p in sorted(out.glob("*.csv"))}
    rc_second = cli_main(["experiment", "--config", str(config_path)])
    second = {p.name: p.read_bytes() for p in sorted(out.glob("*.csv"))}

    ok = rc_first == 0 and rc_second == 0 and bool(first) and first == second
    criterion(
        14, "rerunning the experiment reproduces every CSV byte", ok,
        f"{len(first)} CSV files compared",
    )
