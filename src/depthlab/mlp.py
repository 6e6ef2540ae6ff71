"""Dense feedforward ReLU networks: construction, evaluation, backprop.

Networks are weight/bias lists with ReLU on every layer except the last,
in float64 numpy.  A net stores its parameters once, as a read-only flat
vector (layer by layer, W row-major then b); ``layers`` are (W, b) views
into it.  ``with_flat_params`` keeps the vector it is given, not a copy:
the caller must not write that vector afterwards.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "Mlp",
    "DimensionError",
    "forward",
    "forward_many",
    "grad_params",
    "output_grad_params",
    "hinge",
    "population_hinge_loss",
    "population_hinge_grad",
    "xavier_init",
]


class DimensionError(ValueError):
    """Input or layer shapes do not chain."""


def _layer_views(layers, theta: np.ndarray):
    """(W, b) views into the flat vector ``theta``, shaped like ``layers``."""
    views, k = [], 0
    for W, b in layers:
        w = theta[k : k + W.size].reshape(W.shape)
        k += W.size
        views.append((w, theta[k : k + b.size]))
        k += b.size
    return tuple(views)


@dataclass(frozen=True)
class Mlp:
    """ReLU network: ``layers`` is a list of (W, b), W of shape (out, in).

    ReLU is applied after every layer except the last; the last layer must
    have a single output.
    """

    layers: tuple[tuple[np.ndarray, np.ndarray], ...] = field()
    _theta: np.ndarray = field(repr=False)

    def __init__(self, layers):
        layers = [(np.atleast_2d(np.asarray(W, dtype=np.float64)),
                   np.atleast_1d(np.asarray(b, dtype=np.float64))) for W, b in layers]
        for W, b in layers:
            if W.shape[0] != b.shape[0]:
                raise DimensionError(f"bias length {b.shape[0]} != rows {W.shape[0]}")
        if not layers:
            raise DimensionError("network needs at least one layer")
        for (W0, _), (W1, _) in zip(layers, layers[1:]):
            if W1.shape[1] != W0.shape[0]:
                raise DimensionError(
                    f"layer out-dim {W0.shape[0]} does not chain into in-dim {W1.shape[1]}"
                )
        if layers[-1][0].shape[0] != 1:
            raise DimensionError("last layer must have a single output")
        theta = np.empty(sum(W.size + b.size for W, b in layers))
        for (W, b), (w, bb) in zip(layers, _layer_views(layers, theta)):
            w[...], bb[...] = W, b
        self._store(layers, theta)

    def _store(self, shapes, theta: np.ndarray) -> None:
        """Keep ``theta`` read-only as the parameters, laid out like ``shapes``."""
        if not np.isfinite(theta).all():
            raise ValueError("non-finite parameter values")
        theta.flags.writeable = False
        object.__setattr__(self, "_theta", theta)
        object.__setattr__(self, "layers", _layer_views(shapes, theta))

    @property
    def in_dim(self) -> int:
        return self.layers[0][0].shape[1]

    @property
    def depth(self) -> int:
        """Number of affine stages (hidden ReLU layers + final affine)."""
        return len(self.layers)

    @property
    def width(self) -> int:
        return max(W.shape[0] for W, _ in self.layers)

    @property
    def n_params(self) -> int:
        return self._theta.size

    def flat_params(self) -> np.ndarray:
        """The stored read-only parameter vector: layer by layer, W (row-major) then b."""
        return self._theta

    def with_flat_params(self, theta: np.ndarray) -> "Mlp":
        """New net with the same shapes, keeping ``theta`` (read-only) as its parameters."""
        theta = np.ascontiguousarray(theta, dtype=np.float64)
        if theta.shape != (self.n_params,):
            raise DimensionError(f"expected {self.n_params} parameters, got {theta.shape}")
        net = object.__new__(Mlp)
        net._store(self.layers, theta.view())
        return net


def forward(net: Mlp, x) -> float:
    """Scalar network output at a single input vector."""
    x = np.atleast_1d(np.asarray(x, dtype=np.float64))
    return float(forward_many(net, x[None, :])[0])


def forward_many(net: Mlp, X: np.ndarray) -> np.ndarray:
    """Vectorized forward pass: X of shape (m, in_dim) -> outputs (m,)."""
    A = np.asarray(X, dtype=np.float64)
    if A.ndim != 2 or A.shape[1] != net.in_dim:
        raise DimensionError(f"expected inputs of shape (m, {net.in_dim}), got {A.shape}")
    last = len(net.layers) - 1
    for i, (W, b) in enumerate(net.layers):
        A = A @ W.T + b
        if i != last:
            np.maximum(A, 0.0, out=A)
    return A[:, 0]


def _forward_trace(net: Mlp, X: np.ndarray):
    """Forward pass keeping activations and ReLU masks; returns
    (activations, masks, out).  The mask convention is preact >= 0."""
    A = np.asarray(X, dtype=np.float64)
    acts = [A]
    masks = []
    last = len(net.layers) - 1
    for i, (W, b) in enumerate(net.layers):
        Z = np.matmul(A, W.T)
        Z += b
        if i != last:
            masks.append(Z >= 0.0)
            np.maximum(Z, 0.0, out=Z)
        A = Z
        acts.append(A)
    return acts, masks, acts[-1][:, 0]


def _backward(net: Mlp, acts, masks, dout: np.ndarray) -> np.ndarray:
    """Backprop ``dout`` (m,) through the traced forward pass.

    Returns the flat parameter gradient summed over the batch.  ReLU
    subgradient is 1 at exactly zero pre-activation (masks carry
    preact >= 0).
    """
    grad = np.empty(net.n_params)
    grads = _layer_views(net.layers, grad)
    G = dout[:, None]
    for i in range(len(net.layers) - 1, -1, -1):
        gW, gb = grads[i]
        np.matmul(G.T, acts[i], out=gW)
        G.sum(axis=0, out=gb)
        if i > 0:
            G = np.matmul(G, net.layers[i][0])
            G *= masks[i - 1]
    return grad


def hinge(y, yhat):
    """Hinge loss max(0, 1 - y*yhat), elementwise."""
    return np.maximum(0.0, 1.0 - np.asarray(y) * np.asarray(yhat))


def grad_params(net: Mlp, x, y: float) -> np.ndarray:
    """Subgradient of hinge(y, forward(net, x)) in the flat parameters.

    Conventions at kinks: ReLU derivative 1 at zero pre-activation, hinge
    derivative -y at margin exactly 1.
    """
    x = np.atleast_1d(np.asarray(x, dtype=np.float64))
    acts, masks, out = _forward_trace(net, x[None, :])
    margin = y * out[0]
    if margin > 1.0:
        return np.zeros(net.n_params)
    return _backward(net, acts, masks, np.array([-float(y)]))


def output_grad_params(net: Mlp, x) -> np.ndarray:
    """Gradient of the network output itself w.r.t. the flat parameters."""
    x = np.atleast_1d(np.asarray(x, dtype=np.float64))
    acts, masks, _ = _forward_trace(net, x[None, :])
    return _backward(net, acts, masks, np.array([1.0]))


def population_hinge_loss(net: Mlp, target, dist) -> float:
    """Expected hinge loss of the net against a +-1 target over ``dist``.

    ``target`` maps a (m, d) point array to +-1 labels.  Exact weighted sum
    over the distribution's support; on uniform weights the loss is the
    plain arithmetic mean of the per-point hinge values, bit for bit.
    """
    X = dist.points_float()
    y = np.asarray(target(X), dtype=np.float64)
    out = forward_many(net, X)
    h = hinge(y, out)
    w = dist.weights
    if np.all(w == w[0]):
        return float(np.mean(h) * (w[0] * w.shape[0]))
    return float(np.dot(w, h))


def population_hinge_grad(net: Mlp, target, dist):
    """Population hinge loss and its flat subgradient over ``dist``.

    Returns (loss, grad).  The gradient is the weight-averaged per-sample
    hinge subgradient, with the same kink conventions as ``grad_params``.
    """
    X = dist.points_float()
    y = np.asarray(target(X), dtype=np.float64)
    acts, masks, out = _forward_trace(net, X)
    margins = y * out
    loss = float(np.dot(dist.weights, np.maximum(0.0, 1.0 - margins)))
    dout = np.where(margins <= 1.0, -y, 0.0) * dist.weights
    grad = _backward(net, acts, masks, dout)
    return loss, grad


def xavier_init(depth: int, width: int, in_dim: int, seed: int) -> Mlp:
    """Gaussian init: each weight entry ~ N(0, 1/fan_in), biases zero.

    ``depth`` counts affine stages; the hidden stages all have ``width``
    units and the final stage has a single output.
    """
    if depth < 2:
        raise ValueError("depth must be >= 2")
    if width < 1 or in_dim < 1:
        raise ValueError("width and in_dim must be >= 1")
    rng = np.random.default_rng(seed)
    dims = [in_dim] + [width] * (depth - 1) + [1]
    layers = []
    for fan_in, fan_out in zip(dims[:-1], dims[1:]):
        W = rng.normal(0.0, 1.0 / np.sqrt(fan_in), size=(fan_out, fan_in))
        layers.append((W, np.zeros(fan_out)))
    return Mlp(layers)
