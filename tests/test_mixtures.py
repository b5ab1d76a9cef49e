import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from flowbalance.errors import EncodingError, ParameterError, SingularComponentError
from flowbalance.mixtures import (
    WEIGHT_FLOOR,
    MinMaxNormalizer,
    Mixture1D,
    ModeNormalizer,
    bic,
    fit_mixture,
    select_mixture,
)


def bimodal_sample(n=1000, seed=0, means=(0.0, 100.0), weight=0.5):
    rng = np.random.default_rng(seed)
    pick = rng.random(n) < weight
    return np.where(pick, rng.normal(means[0], 1.0, n), rng.normal(means[1], 1.0, n))


class TestFitMixture:
    def test_loglik_never_decreases(self):
        x = bimodal_sample(seed=1)
        mix = fit_mixture(x, k=2)
        trace = np.asarray(mix.loglik_trace)
        assert len(trace) >= 2
        assert np.all(np.diff(trace) >= -1e-9)

    def test_recovers_separated_modes(self):
        x = bimodal_sample(seed=2)
        mix = fit_mixture(x, k=2)
        means = np.sort(mix.means)
        assert abs(means[0] - 0.0) < 1.0
        assert abs(means[1] - 100.0) < 1.0
        assert np.all(mix.weights > 0.3)

    def test_single_component_is_moment_matching(self):
        rng = np.random.default_rng(3)
        x = rng.normal(5.0, 2.0, size=400)
        mix = fit_mixture(x, k=1)
        assert mix.means[0] == pytest.approx(x.mean(), abs=1e-9)
        assert mix.stds[0] == pytest.approx(x.std(), rel=1e-6)
        assert mix.weights[0] == 1.0

    def test_weights_stay_normalized(self):
        x = bimodal_sample(seed=4)
        mix = fit_mixture(x, k=3)
        assert mix.weights.sum() == pytest.approx(1.0, abs=1e-12)
        assert np.all(mix.stds > 0)

    def test_more_components_than_values_rejected(self):
        with pytest.raises(ParameterError):
            fit_mixture(np.array([1.0, 2.0]), k=3)

    def test_tiny_sample_with_duplicates_stays_well_formed(self):
        # the variance floor lets duplicate components coexist instead of
        # collapsing, so this fits rather than raising
        mix = fit_mixture(np.array([0.0, 0.0, 0.0, 100.0]), k=4)
        assert mix.weights.sum() == pytest.approx(1.0, abs=1e-12)
        assert np.all(np.isfinite(mix.means))
        assert np.all(mix.stds > 0)

    def test_input_validation(self):
        with pytest.raises(ParameterError):
            fit_mixture(np.arange(10.0), k=0)
        with pytest.raises(ParameterError):
            fit_mixture(np.array([1.0]), k=1)

    @given(
        seed=st.integers(min_value=0, max_value=5000),
        k=st.integers(min_value=1, max_value=4),
        n=st.integers(min_value=30, max_value=300),
    )
    @settings(max_examples=30, deadline=None)
    def test_property_monotone_loglik(self, seed, k, n):
        rng = np.random.default_rng(seed)
        x = np.concatenate([
            rng.normal(0.0, 1.0, n // 2),
            rng.normal(rng.uniform(0, 20), 1.0 + rng.random(), n - n // 2),
        ])
        try:
            mix = fit_mixture(x, k=k)
        except SingularComponentError:
            return
        trace = np.asarray(mix.loglik_trace)
        assert np.all(np.diff(trace) >= -1e-9)


class TestSelectMixture:
    def test_single_gaussian_gets_one_mode(self):
        rng = np.random.default_rng(5)
        x = rng.normal(0.0, 1.0, size=800)
        mix = select_mixture(x, max_modes=10)
        assert mix.n_modes == 1

    def test_bimodal_gets_two_modes(self):
        x = bimodal_sample(seed=6)
        mix = select_mixture(x, max_modes=10)
        assert mix.n_modes == 2
        assert abs(np.sort(mix.means)[1] - 100.0) < 1.0

    def test_pruned_weights_renormalize(self):
        x = bimodal_sample(seed=7)
        mix = select_mixture(x, max_modes=6)
        assert np.all(mix.weights >= WEIGHT_FLOOR)
        assert mix.weights.sum() == pytest.approx(1.0, abs=1e-12)

    def test_bic_prefers_fewer_on_ties(self):
        # one clean mode: k=1 must win over k=2 despite equal likelihoods
        rng = np.random.default_rng(8)
        x = rng.normal(0.0, 1.0, size=500)
        one = fit_mixture(x, 1)
        two = fit_mixture(x, 2)
        assert bic(one, x) < bic(two, x)


class TestModeNormalizer:
    def test_single_gaussian_alpha_is_quarter_zscore(self):
        rng = np.random.default_rng(9)
        x = rng.normal(10.0, 3.0, size=(600, 1))
        norm = ModeNormalizer().fit(x, ("c",))
        span = norm.layout.spans[0]
        assert span.mixture.n_modes == 1
        enc = norm.encode(x)
        mu, sigma = span.mixture.means[0], span.mixture.stds[0]
        want = (x[:, 0] - mu) / (4.0 * sigma)
        assert np.allclose(enc[:, span.alpha], want, atol=1e-12)
        assert np.all(enc[:, span.beta[0]:span.beta[1]] == 1.0)

    def test_constant_column_round_trips(self):
        x = np.full((50, 1), 7.25)
        norm = ModeNormalizer().fit(x, ("c",))
        enc = norm.encode(x)
        assert np.allclose(enc[:, 0], 0.0)
        back = norm.decode(enc)
        assert np.allclose(back, 7.25, atol=1e-9)

    def test_round_trip_continuous(self):
        rng = np.random.default_rng(10)
        x = np.column_stack([
            bimodal_sample(1000, seed=11),
            rng.normal(-3.0, 0.5, 1000),
        ])
        norm = ModeNormalizer().fit(x, ("a", "b"))
        back = norm.decode(norm.encode(x))
        assert np.max(np.abs(back - x)) < 1e-5

    def test_round_trip_with_posterior_sampling(self):
        x = np.column_stack([bimodal_sample(500, seed=12)])
        norm = ModeNormalizer().fit(x, ("a",))
        rng = np.random.default_rng(13)
        back = norm.decode(norm.encode(x, rng))
        assert np.max(np.abs(back - x)) < 1e-5

    def test_posterior_sampling_uses_both_modes_near_the_middle(self):
        # near the midpoint of a 0/10 mixture both responsibilities are
        # sizeable, so sampling must pick each mode sometimes
        x = np.concatenate([
            np.random.default_rng(1).normal(0, 2.0, 500),
            np.random.default_rng(2).normal(10, 2.0, 500),
        ])[:, None]
        norm = ModeNormalizer().fit(x, ("a",))
        span = norm.layout.spans[0]
        if span.mixture.n_modes < 2:
            pytest.skip("EM merged the modes on this draw")
        mid = np.full((400, 1), 5.0)
        rng = np.random.default_rng(14)
        enc = norm.encode(mid, rng)
        picks = enc[:, span.beta[0]:span.beta[1]].argmax(axis=1)
        assert len(np.unique(picks)) == 2

    def test_decode_validates_onehot(self):
        x = np.random.default_rng(15).normal(size=(100, 1))
        norm = ModeNormalizer().fit(x, ("a",))
        enc = norm.encode(x)
        enc[0, norm.layout.spans[0].beta[0]] = 0.4
        with pytest.raises(EncodingError):
            norm.decode(enc)

    def test_harden_clamps_and_argmaxes(self):
        x = bimodal_sample(300, seed=16)[:, None]
        norm = ModeNormalizer().fit(x, ("a",))
        span = norm.layout.spans[0]
        soft = np.zeros((2, norm.layout.width))
        soft[:, span.beta[0]:span.beta[1]] = [[0.7, 0.3], [0.2, 0.8]] \
            if span.mixture.n_modes == 2 else 1.0
        soft[0, span.alpha] = 5.0   # out of range, must clamp to 1
        soft[1, span.alpha] = -5.0
        out = norm.decode(soft, harden=True)
        mix = span.mixture
        hi_mode = 0 if mix.n_modes == 1 else 0
        assert out[0, 0] == pytest.approx(mix.means[hi_mode] + 4.0 * mix.stds[hi_mode])

    def test_misuse_raises(self):
        norm = ModeNormalizer()
        with pytest.raises(ParameterError):
            norm.encode(np.ones((2, 1)))
        with pytest.raises(ParameterError):
            ModeNormalizer(max_modes=0)
        with pytest.raises(ParameterError):
            ModeNormalizer().fit(np.ones((3, 2)), ("a",))

    def test_decode_checks_width(self):
        x = np.random.default_rng(17).normal(size=(50, 1))
        norm = ModeNormalizer().fit(x, ("a",))
        with pytest.raises(EncodingError):
            norm.decode(np.ones((2, norm.layout.width + 1)))


class TestMinMaxNormalizer:
    def test_round_trip(self):
        rng = np.random.default_rng(18)
        x = rng.normal(5.0, 20.0, size=(200, 3))
        norm = MinMaxNormalizer().fit(x)
        scaled = norm.transform(x)
        assert scaled.min() >= -1.0 and scaled.max() <= 1.0
        assert np.allclose(norm.inverse(scaled), x, atol=1e-12)

    def test_constant_column(self):
        x = np.column_stack([np.full(10, 3.0), np.arange(10.0)])
        norm = MinMaxNormalizer().fit(x)
        scaled = norm.transform(x)
        assert np.all(scaled[:, 0] == 0.0)
        assert np.allclose(norm.inverse(scaled)[:, 0], 3.0)

    def test_endpoints_map_to_unit_interval_edges(self):
        x = np.array([[0.0], [50.0], [100.0]])
        norm = MinMaxNormalizer().fit(x)
        assert np.allclose(norm.transform(x)[:, 0], [-1.0, 0.0, 1.0])

    def test_unfit_raises(self):
        with pytest.raises(ParameterError):
            MinMaxNormalizer().transform(np.ones((2, 2)))
        with pytest.raises(ParameterError):
            MinMaxNormalizer().fit(np.ones(3))
