import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from flowbalance.errors import ParameterError, ShapeError, StaleCacheError
from flowbalance.gan import sigmoid
from flowbalance.nets import (
    LEAK,
    FeedforwardNet,
    MixedActivation,
    SgdMomentum,
    gradient_check,
    leaky_relu,
    leaky_relu_grad,
)


def reference_forward(net, x):
    """Independently coded forward pass: explicit loops, no shared code."""
    h = np.array(x, dtype=np.float64)
    last = len(net.weights) - 1
    for i, (w, b) in enumerate(zip(net.weights, net.biases)):
        z = np.empty((h.shape[0], w.shape[1]))
        for row in range(h.shape[0]):
            for col in range(w.shape[1]):
                acc = b[col]
                for inner in range(w.shape[0]):
                    acc += h[row, inner] * w[inner, col]
                z[row, col] = acc
        if i < last:
            h = np.where(z > 0, z, LEAK * z)
        else:
            h = z
    return h


class TestForward:
    def test_zero_net_scores_logistic_half(self):
        net = FeedforwardNet((4, 8, 1), seed=0)
        for w in net.weights:
            w[:] = 0.0
        x = np.random.default_rng(1).normal(size=(6, 4))
        scores = net.forward(x)
        assert np.all(scores == 0.0)
        assert np.all(sigmoid(scores) == 0.5)

    def test_identity_single_layer(self):
        net = FeedforwardNet((3, 3), seed=0)
        net.weights[0][:] = np.eye(3)
        net.biases[0][:] = 0.0
        x = np.random.default_rng(2).normal(size=(5, 3))
        assert np.array_equal(net.forward(x), x)

    def test_matches_independent_implementation(self):
        net = FeedforwardNet((5, 7, 4, 2), seed=3)
        x = np.random.default_rng(4).normal(size=(9, 5))
        assert np.allclose(net.forward(x), reference_forward(net, x), atol=1e-12)

    def test_shape_errors(self):
        net = FeedforwardNet((3, 2), seed=0)
        with pytest.raises(ShapeError):
            net.forward(np.ones((4, 5)))
        with pytest.raises(ParameterError):
            FeedforwardNet((3,), seed=0)
        with pytest.raises(ParameterError):
            FeedforwardNet((3, 0, 1), seed=0)

    def test_init_is_seeded(self):
        a = FeedforwardNet((4, 6, 2), seed=11)
        b = FeedforwardNet((4, 6, 2), seed=11)
        c = FeedforwardNet((4, 6, 2), seed=12)
        assert all(np.array_equal(x, y) for x, y in zip(a.weights, b.weights))
        assert not all(np.array_equal(x, y) for x, y in zip(a.weights, c.weights))

    def test_hidden_layers_leak(self):
        net = FeedforwardNet((1, 1, 1), seed=0)
        net.weights[0][:] = 1.0
        net.weights[1][:] = 1.0
        neg = net.forward(np.array([[-2.0]]))
        assert neg[0, 0] == pytest.approx(LEAK * -2.0)

    def test_leaky_relu_matches_where_form_bitwise(self):
        tiny = np.finfo(np.float64).smallest_subnormal
        normal = np.finfo(np.float64).tiny
        z = np.array([
            0.0, -0.0, tiny, -tiny, 3 * tiny, -3 * tiny, normal, -normal,
            np.inf, -np.inf, 1.5, -1.5, np.finfo(np.float64).max,
            -np.finfo(np.float64).max,
        ])
        want = np.where(z > 0, z, LEAK * z)
        got = leaky_relu(z)
        assert np.array_equal(got, want)
        assert np.array_equal(np.signbit(got), np.signbit(want))

    def test_leaky_relu_grad_matches_where_form_bitwise(self):
        tiny = np.finfo(np.float64).smallest_subnormal
        normal = np.finfo(np.float64).tiny
        big = np.finfo(np.float64).max
        z = np.array([
            0.0, -0.0, tiny, -tiny, 3 * tiny, -3 * tiny, normal, -normal,
            np.inf, -np.inf, np.nan, 1.5, -1.5, big, -big,
        ])
        z = np.concatenate([z, np.random.default_rng(0).normal(size=1000)])
        want = np.where(z > 0, 1.0, LEAK)
        got = leaky_relu_grad(z)
        assert got.dtype == want.dtype
        assert np.array_equal(got.view(np.int64), want.view(np.int64))

    @given(
        hidden=st.lists(st.integers(min_value=1, max_value=12), min_size=0, max_size=3),
        n_in=st.integers(min_value=1, max_value=6),
        n_out=st.integers(min_value=1, max_value=5),
        rows=st.integers(min_value=1, max_value=40),
        seed=st.integers(min_value=0, max_value=10_000),
    )
    @settings(max_examples=30, deadline=None)
    def test_predict_equals_forward_bitwise(self, hidden, n_in, n_out, rows, seed):
        net = FeedforwardNet((n_in, *hidden, n_out), seed=seed)
        for b in net.biases:
            b[:] = np.random.default_rng(seed + 1).normal(size=b.shape)
        x = np.random.default_rng(seed + 2).normal(size=(rows, n_in))
        x[0, 0] = -0.0
        got = net.predict(x)
        want = net.forward(x)
        assert np.array_equal(got.view(np.int64), want.view(np.int64))

    def test_predict_keeps_no_cache_and_leaves_input(self):
        net = FeedforwardNet((3, 5, 2), seed=4)
        x = np.random.default_rng(5).normal(size=(6, 3))
        before = x.copy()
        net.predict(x)
        assert net._cache is None
        assert np.array_equal(x, before)
        net.forward(x)
        cache = net._cache
        net.predict(2.0 * x)
        assert net._cache is cache
        with pytest.raises(ShapeError):
            net.predict(np.ones((4, 5)))


class TestBackward:
    def test_constant_loss_has_zero_gradients(self):
        net = FeedforwardNet((4, 6, 3), seed=5)
        x = np.random.default_rng(6).normal(size=(7, 4))
        net.forward(x)
        grads = net.backward(np.zeros((7, 3)))
        assert all(np.all(g == 0) for g in grads.weights)
        assert all(np.all(g == 0) for g in grads.biases)
        assert np.all(grads.inputs == 0)

    def test_linearity_in_the_loss(self):
        net = FeedforwardNet((4, 6, 3), seed=5)
        x = np.random.default_rng(7).normal(size=(7, 4))
        r = np.random.default_rng(8).normal(size=(7, 3))
        net.forward(x)
        once = net.backward(r)
        net.forward(x)
        twice = net.backward(2.0 * r)
        for g1, g2 in zip(once.weights, twice.weights):
            assert np.allclose(2.0 * g1, g2, rtol=1e-12)
        assert np.allclose(2.0 * once.inputs, twice.inputs, rtol=1e-12)

    def test_finite_differences_on_2_16_8_1(self):
        net = FeedforwardNet((2, 16, 8, 1), seed=9)
        x = np.random.default_rng(10).normal(size=(4, 2))
        assert gradient_check(net, x, seed=0) < 1e-4

    def test_backward_before_forward(self):
        net = FeedforwardNet((2, 2), seed=0)
        with pytest.raises(StaleCacheError):
            net.backward(np.zeros((1, 2)))

    def test_stale_cache_after_update(self):
        net = FeedforwardNet((3, 4, 2), seed=1)
        opt = SgdMomentum(net, lr=0.1)
        x = np.random.default_rng(11).normal(size=(5, 3))
        net.forward(x)
        grads = net.backward(np.ones((5, 2)))
        opt.step(grads)
        with pytest.raises(StaleCacheError):
            net.backward(np.ones((5, 2)))

    def test_dout_shape_checked(self):
        net = FeedforwardNet((3, 2), seed=1)
        net.forward(np.ones((4, 3)))
        with pytest.raises(ShapeError):
            net.backward(np.ones((4, 3)))

    @given(
        hidden=st.lists(st.integers(min_value=1, max_value=10), min_size=1, max_size=3),
        n_in=st.integers(min_value=1, max_value=5),
        n_out=st.integers(min_value=1, max_value=4),
        rows=st.integers(min_value=1, max_value=6),
        seed=st.integers(min_value=0, max_value=999),
    )
    # a layer-1 pre-activation sits 1.2e-5 from the kink, inside one step
    @example(hidden=[10, 7], n_in=4, n_out=1, rows=3, seed=72)
    @settings(max_examples=15, deadline=None)
    def test_gradient_check_on_random_configs(self, hidden, n_in, n_out, rows, seed):
        net = FeedforwardNet((n_in, *hidden, n_out), seed=seed)
        x = np.random.default_rng(seed + 1).normal(size=(rows, n_in))
        assert gradient_check(net, x, seed=seed) < 1e-4


class TestSgdMomentum:
    def test_first_step_is_plain_descent(self):
        net = FeedforwardNet((2, 2), seed=0)
        before = [w.copy() for w in net.weights]
        opt = SgdMomentum(net, lr=0.5, momentum=0.9)
        net.forward(np.ones((1, 2)))
        grads = net.backward(np.ones((1, 2)))
        opt.step(grads)
        assert np.allclose(net.weights[0], before[0] - 0.5 * grads.weights[0])

    def test_momentum_accumulates(self):
        net = FeedforwardNet((1, 1), seed=0)
        net.weights[0][:] = 0.0
        opt = SgdMomentum(net, lr=0.1, momentum=0.5)
        x = np.array([[1.0]])
        # constant gradient of 1: v1 = -0.1, v2 = 0.5*-0.1 - 0.1 = -0.15
        for _ in range(2):
            net.forward(x)
            grads = net.backward(np.ones((1, 1)))
            grads.weights[0][:] = 1.0
            grads.biases[0][:] = 0.0
            opt.step(grads)
        assert net.weights[0][0, 0] == pytest.approx(-0.25)

    def test_version_bumps_on_step(self):
        net = FeedforwardNet((2, 2), seed=0)
        opt = SgdMomentum(net, lr=0.1)
        v0 = net.version
        net.forward(np.ones((1, 2)))
        opt.step(net.backward(np.ones((1, 2))))
        assert net.version == v0 + 1

    def test_rejects_bad_hyperparameters(self):
        net = FeedforwardNet((2, 2), seed=0)
        with pytest.raises(ParameterError):
            SgdMomentum(net, lr=0.0)
        with pytest.raises(ParameterError):
            SgdMomentum(net, lr=0.1, momentum=1.0)


class TestMixedActivation:
    def test_tanh_and_softmax_parts(self):
        act = MixedActivation(tanh_cols=(0,), softmax_blocks=((1, 4),))
        s = np.array([[0.5, 1.0, 2.0, 3.0], [-0.5, 0.0, 0.0, 0.0]])
        out = act.forward(s)
        assert out[0, 0] == pytest.approx(np.tanh(0.5))
        assert out[:, 1:4].sum(axis=1) == pytest.approx([1.0, 1.0])
        assert np.allclose(out[1, 1:4], 1 / 3)

    def test_identity_on_unclaimed_columns(self):
        act = MixedActivation(tanh_cols=(1,))
        s = np.array([[3.0, 0.1, -7.0]])
        out = act.forward(s)
        assert out[0, 0] == 3.0
        assert out[0, 2] == -7.0

    def test_backward_matches_finite_differences(self):
        act = MixedActivation(tanh_cols=(0, 1), softmax_blocks=((2, 5),))
        rng = np.random.default_rng(3)
        s = rng.normal(size=(4, 6))
        r = rng.normal(size=(4, 6))
        act.forward(s)
        analytic = act.backward(r)
        h = 1e-6
        numeric = np.empty_like(s)
        fresh = MixedActivation(tanh_cols=(0, 1), softmax_blocks=((2, 5),))
        for i in range(s.shape[0]):
            for j in range(s.shape[1]):
                up = s.copy()
                up[i, j] += h
                down = s.copy()
                down[i, j] -= h
                numeric[i, j] = (np.sum(fresh.forward(up) * r)
                                 - np.sum(fresh.forward(down) * r)) / (2 * h)
        assert np.allclose(analytic, numeric, atol=1e-6)

    def test_softmax_is_shift_invariant(self):
        act = MixedActivation(softmax_blocks=((0, 3),))
        s = np.array([[1.0, 2.0, 3.0]])
        shifted = s + 500.0  # also exercises the overflow guard
        assert np.allclose(act.forward(s), act.forward(shifted))

    def test_overlap_rejected(self):
        with pytest.raises(ParameterError):
            MixedActivation(tanh_cols=(0, 0))
        with pytest.raises(ParameterError):
            MixedActivation(tanh_cols=(2,), softmax_blocks=((1, 3),))
        with pytest.raises(ParameterError):
            MixedActivation(softmax_blocks=((3, 3),))

    def test_predict_equals_forward_bitwise_and_keeps_no_output(self):
        head = MixedActivation(tanh_cols=(0, 5), softmax_blocks=((1, 3), (3, 5)))
        s = 4.0 * np.random.default_rng(3).normal(size=(50, 7))
        got = head.predict(s)
        assert head._out is None
        want = head.forward(s)
        assert np.array_equal(got.view(np.int64), want.view(np.int64))
        kept = head._out
        head.predict(s + 1.0)
        assert head._out is kept

    def test_backward_needs_forward(self):
        act = MixedActivation(tanh_cols=(0,))
        with pytest.raises(StaleCacheError):
            act.backward(np.zeros((1, 1)))
