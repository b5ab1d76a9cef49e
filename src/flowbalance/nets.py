"""Small feedforward networks with hand-written backpropagation.

Everything here is plain numpy. A :class:`FeedforwardNet` keeps leaky-ReLU
hidden layers and a linear final layer; :meth:`FeedforwardNet.backward`
returns gradients for every weight and bias plus the gradient with respect
to the input batch, which is what lets a generator be trained through a
discriminator. A version counter guards against computing gradients from a
cache that predates the latest parameter update.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ParameterError, ShapeError, StaleCacheError

LEAK = 0.2


def leaky_relu(z: np.ndarray) -> np.ndarray:
    return np.maximum(z, LEAK * z)


def leaky_relu_grad(z: np.ndarray) -> np.ndarray:
    return np.where(z > 0, 1.0, LEAK)


def sigmoid(s: np.ndarray) -> np.ndarray:
    # split on sign so exp never sees a large positive argument
    out = np.empty_like(s, dtype=np.float64)
    pos = s >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-s[pos]))
    es = np.exp(s[~pos])
    out[~pos] = es / (1.0 + es)
    return out


@dataclass
class NetGrads:
    """Gradients from one backward pass.

    ``weights[i]``/``biases[i]`` match the net's layer order; ``inputs``
    is the gradient of the loss with respect to the forward batch.
    """

    weights: list[np.ndarray]
    biases: list[np.ndarray]
    inputs: np.ndarray


class FeedforwardNet:
    """Fully connected net: leaky-ReLU hidden layers, linear output.

    ``layer_sizes`` runs (input, hidden..., output). Weights start from a
    seeded He-style Gaussian, biases at zero. ``forward`` caches the
    activations it needs; ``backward`` consumes that cache and raises
    :class:`StaleCacheError` if the parameters changed in between.
    """

    def __init__(self, layer_sizes: tuple[int, ...], seed: int):
        if len(layer_sizes) < 2:
            raise ParameterError("need at least an input and an output size")
        if any(s < 1 for s in layer_sizes):
            raise ParameterError(f"layer sizes must be positive, got {layer_sizes}")
        rng = np.random.default_rng(seed)
        self.layer_sizes = tuple(int(s) for s in layer_sizes)
        self.weights: list[np.ndarray] = []
        self.biases: list[np.ndarray] = []
        for fan_in, fan_out in zip(layer_sizes[:-1], layer_sizes[1:]):
            scale = np.sqrt(2.0 / fan_in)
            self.weights.append(rng.normal(0.0, scale, size=(fan_in, fan_out)))
            self.biases.append(np.zeros(fan_out))
        self._version = 0
        self._cache: tuple[int, list[np.ndarray], list[np.ndarray]] | None = None

    @property
    def n_layers(self) -> int:
        return len(self.weights)

    @property
    def version(self) -> int:
        return self._version

    def bump_version(self) -> None:
        """Record that parameters changed; outstanding caches become stale."""
        self._version += 1

    def forward(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        if x.ndim != 2 or x.shape[1] != self.layer_sizes[0]:
            raise ShapeError(
                f"expected input of shape (n, {self.layer_sizes[0]}), got {x.shape}"
            )
        activations = [x]
        pre_acts = []
        h = x
        last = self.n_layers - 1
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            z = h @ w + b
            pre_acts.append(z)
            h = leaky_relu(z) if i < last else z
            activations.append(h)
        self._cache = (self._version, activations, pre_acts)
        return h

    def backward(self, dout: np.ndarray) -> NetGrads:
        """Backpropagate ``dout = dL/d(output)`` through the cached pass."""
        if self._cache is None:
            raise StaleCacheError("backward called before any forward pass")
        version, activations, pre_acts = self._cache
        if version != self._version:
            raise StaleCacheError(
                "parameters changed since the cached forward pass; rerun forward"
            )
        dout = np.asarray(dout, dtype=np.float64)
        if dout.shape != activations[-1].shape:
            raise ShapeError(
                f"dout shape {dout.shape} does not match output {activations[-1].shape}"
            )
        d_weights: list[np.ndarray] = [np.empty(0)] * self.n_layers
        d_biases: list[np.ndarray] = [np.empty(0)] * self.n_layers
        grad = dout
        last = self.n_layers - 1
        for i in range(last, -1, -1):
            dz = grad if i == last else grad * leaky_relu_grad(pre_acts[i])
            d_weights[i] = activations[i].T @ dz
            d_biases[i] = dz.sum(axis=0)
            grad = dz @ self.weights[i].T
        return NetGrads(d_weights, d_biases, grad)


class SgdMomentum:
    """Classic momentum SGD over one net's weights and biases."""

    def __init__(self, net: FeedforwardNet, lr: float, momentum: float = 0.9):
        if lr <= 0:
            raise ParameterError("learning rate must be positive")
        if not 0 <= momentum < 1:
            raise ParameterError("momentum must be in [0, 1)")
        self.net = net
        self.lr = lr
        self.momentum = momentum
        self._vel = [np.zeros_like(p) for p in net.weights + net.biases]

    def step(self, grads: NetGrads) -> None:
        params = self.net.weights + self.net.biases
        arrays = grads.weights + grads.biases
        for p, g, v in zip(params, arrays, self._vel):
            v *= self.momentum
            v -= self.lr * g
            p += v
        self.net.bump_version()


class MixedActivation:
    """tanh on chosen columns, softmax within column blocks, rest identity.

    This sits on top of a net's linear output so a generator can emit
    bounded continuous values alongside one-hot-ish categorical blocks.
    ``backward`` converts a gradient in output space to a gradient on the
    pre-activation the net produced.
    """

    def __init__(
        self,
        tanh_cols: tuple[int, ...] = (),
        softmax_blocks: tuple[tuple[int, int], ...] = (),
    ):
        claimed: set[int] = set()
        for c in tanh_cols:
            if c in claimed:
                raise ParameterError(f"column {c} listed twice")
            claimed.add(c)
        for start, stop in softmax_blocks:
            if stop <= start:
                raise ParameterError(f"empty softmax block ({start}, {stop})")
            cols = set(range(start, stop))
            if cols & claimed:
                raise ParameterError("softmax block overlaps an earlier column")
            claimed |= cols
        self.tanh_cols = tuple(tanh_cols)
        self.softmax_blocks = tuple(softmax_blocks)
        self._out: np.ndarray | None = None

    def forward(self, s: np.ndarray) -> np.ndarray:
        out = np.array(s, dtype=np.float64, copy=True)
        if self.tanh_cols:
            cols = list(self.tanh_cols)
            out[:, cols] = np.tanh(s[:, cols])
        for start, stop in self.softmax_blocks:
            block = s[:, start:stop]
            shifted = block - block.max(axis=1, keepdims=True)
            e = np.exp(shifted)
            out[:, start:stop] = e / e.sum(axis=1, keepdims=True)
        self._out = out
        return out

    def backward(self, dout: np.ndarray) -> np.ndarray:
        if self._out is None:
            raise StaleCacheError("backward called before forward")
        if dout.shape != self._out.shape:
            raise ShapeError(
                f"dout shape {dout.shape} does not match output {self._out.shape}"
            )
        ds = np.array(dout, dtype=np.float64, copy=True)
        if self.tanh_cols:
            cols = list(self.tanh_cols)
            y = self._out[:, cols]
            ds[:, cols] = dout[:, cols] * (1.0 - y * y)
        for start, stop in self.softmax_blocks:
            y = self._out[:, start:stop]
            d = dout[:, start:stop]
            inner = np.sum(d * y, axis=1, keepdims=True)
            ds[:, start:stop] = y * (d - inner)
        return ds


def _norm_rel_err(a: np.ndarray, b: np.ndarray) -> float:
    denom = max(float(np.linalg.norm(a)), float(np.linalg.norm(b)), 1e-12)
    return float(np.linalg.norm(a - b)) / denom


def gradient_check(net: FeedforwardNet, x: np.ndarray, seed: int, h: float = 1e-5) -> float:
    """Max norm-relative error between backward() and central differences.

    The probe loss is ``sum(forward(x) * r)`` for a fixed random ``r``, so
    the analytic output gradient is exactly ``r``. Every weight, bias, and
    the input batch is perturbed entry by entry. Along one entry the net is
    piecewise linear, so where a step of ``h`` flips a hidden unit across
    the leaky-ReLU kink on one side only, the one-sided difference on the
    other side is used instead: it is exact there, while the central one is
    not.
    """
    x = np.array(x, dtype=np.float64, copy=True)
    rng = np.random.default_rng(seed)
    out = net.forward(x)
    r = rng.normal(size=out.shape)
    grads = net.backward(r)

    def probe() -> tuple[float, list[np.ndarray]]:
        loss = float(np.sum(net.forward(x) * r))
        _, _, pre_acts = net._cache
        return loss, [z > 0 for z in pre_acts[:-1]]

    def same(a: list[np.ndarray], b: list[np.ndarray]) -> bool:
        return all(np.array_equal(p, q) for p, q in zip(a, b))

    base, base_signs = probe()
    worst = 0.0
    arrays = net.weights + net.biases + [x]
    analytic = grads.weights + grads.biases + [grads.inputs]
    for arr, ana in zip(arrays, analytic):
        numeric = np.empty_like(arr)
        flat = arr.reshape(-1)
        num_flat = numeric.reshape(-1)
        for j in range(flat.size):
            orig = flat[j]
            flat[j] = orig + h
            up, up_signs = probe()
            flat[j] = orig - h
            down, down_signs = probe()
            flat[j] = orig
            up_ok, down_ok = same(up_signs, base_signs), same(down_signs, base_signs)
            if up_ok and not down_ok:
                num_flat[j] = (up - base) / h
            elif down_ok and not up_ok:
                num_flat[j] = (base - down) / h
            else:
                num_flat[j] = (up - down) / (2.0 * h)
        worst = max(worst, _norm_rel_err(numeric, ana))
    net.forward(x)  # leave a cache consistent with the restored parameters
    return worst
