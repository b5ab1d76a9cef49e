import numpy as np
import pytest

from flowbalance.errors import (
    InsufficientMinorityError,
    ParameterError,
    TrainingDivergedError,
)
from flowbalance.gan import (
    GanConfig,
    LossTrace,
    train_ctgan,
    train_gan,
)


def tiny_config(**overrides):
    base = dict(noise_dim=4, hidden=(8, 8), lr=1e-3, batch_size=32,
                epochs=25, seed=0)
    base.update(overrides)
    return GanConfig(**base)


def blob_features(n=120, seed=0):
    rng = np.random.default_rng(seed)
    return np.column_stack([
        rng.normal(3.0, 1.0, n),
        rng.normal(-1.0, 0.5, n),
    ])


class TestTrainGan:
    def test_same_seed_same_trace(self):
        feats = blob_features()
        a = train_gan(feats, tiny_config())
        b = train_gan(feats, tiny_config())
        assert a.trace.rows == b.trace.rows
        assert np.array_equal(a.sample(10, seed=5), b.sample(10, seed=5))

    def test_different_seed_different_trace(self):
        feats = blob_features()
        a = train_gan(feats, tiny_config(seed=0))
        b = train_gan(feats, tiny_config(seed=1))
        assert a.trace.rows != b.trace.rows

    def test_trace_shape_and_finiteness(self):
        feats = blob_features()
        model = train_gan(feats, tiny_config(epochs=12))
        assert len(model.trace.rows) == 12
        assert list(model.trace.column("epoch")) == list(range(12))
        for name in ("d_loss", "g_loss", "value"):
            assert np.all(np.isfinite(model.trace.column(name)))

    def test_divergence_reports_epoch(self):
        feats = blob_features()
        with pytest.raises(TrainingDivergedError) as err:
            with np.errstate(all="ignore"):
                train_gan(feats, tiny_config(lr=1e4, epochs=200))
        assert err.value.epoch >= 0

    def test_needs_two_batches_of_rows(self):
        feats = blob_features(n=40)
        with pytest.raises(InsufficientMinorityError):
            train_gan(feats, tiny_config(batch_size=32))

    def test_sample_determinism_and_shape(self):
        model = train_gan(blob_features(), tiny_config())
        a = model.sample(20, seed=3)
        b = model.sample(20, seed=3)
        c = model.sample(20, seed=4)
        assert a.shape == (20, 2)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_sample_zero_rows(self):
        model = train_gan(blob_features(), tiny_config())
        out = model.sample(0, seed=0)
        assert out.shape == (0, 2)

    def test_samples_stay_within_training_box(self):
        # tanh head plus min-max inverse bounds every column by the
        # training min/max, well inside the 10%-of-range slack
        feats = blob_features()
        model = train_gan(feats, tiny_config())
        out = model.sample(10_000, seed=9)
        lo, hi = feats.min(axis=0), feats.max(axis=0)
        slack = 0.1 * (hi - lo)
        assert np.all(out >= lo - slack)
        assert np.all(out <= hi + slack)

    def test_rejects_bad_input(self):
        with pytest.raises(ParameterError):
            train_gan(np.ones(5), tiny_config())
        with pytest.raises(ParameterError):
            GanConfig(epochs=0)
        with pytest.raises(ParameterError):
            GanConfig(hidden=())
        with pytest.raises(ParameterError):
            GanConfig(d_steps=0)


@pytest.mark.parametrize("train", [train_gan, train_ctgan])
def test_discriminator_prob_range(train):
    feats = blob_features()
    model = train(feats, tiny_config())
    p = model.discriminator_prob(feats)
    assert p.shape == (len(feats),)
    assert np.all((p > 0) & (p < 1))


class TestTrainCtgan:
    def test_no_discrete_means_no_condition(self):
        feats = blob_features()
        model = train_ctgan(feats, tiny_config(), feature_names=("a", "b"))
        width = model.normalizer.layout.width
        assert model.g_net.layer_sizes[0] == tiny_config().noise_dim  # noise only
        assert model.g_net.layer_sizes[-1] == width
        assert model.d_net.layer_sizes[0] == width  # encoded rows only
        out = model.sample(15, seed=1)
        assert out.shape == (15, 2)

    def test_deterministic(self):
        feats = blob_features()
        a = train_ctgan(feats, tiny_config())
        b = train_ctgan(feats, tiny_config())
        assert a.trace.rows == b.trace.rows
        assert np.array_equal(a.sample(8, seed=0), b.sample(8, seed=0))


class TestLossTrace:
    def test_csv_export(self, tmp_path):
        trace = LossTrace(((0, 1.5, 2.5, -1.38), (1, 1.25, 2.0, -1.40)))
        path = tmp_path / "trace.csv"
        trace.to_csv(path)
        lines = path.read_text().splitlines()
        assert lines[0] == "epoch,d_loss,g_loss,value"
        assert lines[1] == "0,1.5,2.5,-1.38"
        assert len(lines) == 3

    def test_column_lookup(self):
        trace = LossTrace(((0, 1.0, 2.0, 3.0),))
        assert trace.column("g_loss")[0] == 2.0
        with pytest.raises(ValueError):
            trace.column("nope")
