"""Dense feedforward ReLU networks: construction, evaluation, backprop.

Networks are weight/bias lists with ReLU on every layer except the last,
in float64 numpy.  A net stores its parameters once, as a read-only flat
vector (layer by layer, W row-major then b); ``layers`` are (W, b) views
into it.  ``with_flat_params`` keeps the vector it is given, not a copy:
the caller must not write that vector afterwards.  One caller does:
``gd.gd_train`` steps its net's vector in place, a vector the run owns
and never hands out.  The hinge subgradient is one forward and one
backward pass over weighted rows, and every gradient in the lab takes
its passes from one implementation, ``_Backprop``: ``hinge_grad_rows``
and ``output_grad_params`` run a fresh one per call.
``_population_hinge_grad_fn`` computes a distribution's points and labels
once and keeps one ``_Backprop`` for the nets of one shape: GD's dense
path takes every step of a run from it, allocating no more than a block
of hinge weights per step, and ``population_hinge_grad`` is its single
call.  The dense passes over a distribution's points,
``forward_many`` and ``_population_hinge_grad_fn``, stream the rows in
the blocks of ``_row_blocks``, so they hold one block's activations,
O(ROW_BLOCK x width), whatever the number of points.  At a single point
(x, y) the hinge subgradient is ``population_hinge_grad`` on the
one-point support {x} with label y.
``_forward_rays`` evaluates a net at many parameter points along rays
from its own, at one input, without forming the points.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "Mlp",
    "DimensionError",
    "forward",
    "forward_many",
    "output_grad_params",
    "hinge",
    "hinge_grad_rows",
    "l2_norm",
    "population_hinge_loss",
    "population_hinge_grad",
    "xavier_init",
]


class DimensionError(ValueError):
    """Input or layer shapes do not chain."""


# Rows per block of the dense passes: a block's activations of a width-32
# layer take 1 MiB, whatever the number of rows.
ROW_BLOCK = 4096


def _layer_views(layers, theta: np.ndarray):
    """(W, b) views into the flat vector ``theta``, shaped like ``layers``.
    Leading axes of ``theta`` stack flat vectors and lead every view."""
    views, k, lead = [], 0, theta.shape[:-1]
    for W, b in layers:
        w = theta[..., k : k + W.size].reshape(lead + W.shape)
        k += W.size
        views.append((w, theta[..., k : k + b.size]))
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


def _row_blocks(m: int):
    """(lo, hi) bounds of the row blocks that the dense passes stream:
    blocks start at multiples of ROW_BLOCK and the last one takes the
    remainder, so it holds ROW_BLOCK to 2 ROW_BLOCK - 1 rows and fewer than
    2 ROW_BLOCK rows are one block.  With aligned starts and no short last
    block, the blocked outputs of every net and size tried are the single
    pass's, bit for bit, at one BLAS thread, and do not move at two, where
    a single pass over more rows can move an output by an ulp."""
    starts = range(0, max(m // ROW_BLOCK, 1) * ROW_BLOCK, ROW_BLOCK)
    return list(zip(starts, [*starts[1:], m]))


def forward_many(net: Mlp, X: np.ndarray) -> np.ndarray:
    """Vectorized forward pass: X of shape (m, in_dim) -> outputs (m,).

    The rows go through in ``_row_blocks``, each block's outputs written
    into the one (m,) result.  Each layer allocates its output once and
    adds the bias and applies the ReLU in place, so at most two layers'
    activations of one block are alive at a time."""
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != net.in_dim:
        raise DimensionError(f"expected inputs of shape (m, {net.in_dim}), got {X.shape}")
    out = np.empty(X.shape[0])
    last = len(net.layers) - 1
    for lo, hi in _row_blocks(X.shape[0]):
        A = X[lo:hi]
        for i, (W, b) in enumerate(net.layers):
            A = np.dot(A, W.T)
            A += b
            if i != last:
                np.maximum(A, 0.0, out=A)
        out[lo:hi] = A[:, 0]
    return out


def _forward_rays(net: Mlp, x, dirs: np.ndarray, steps: np.ndarray) -> np.ndarray:
    """Outputs (k, R) at the one input ``x`` of the nets at theta0 + t d,
    theta0 the parameters of ``net``, for each row d of ``dirs``
    (k, n_params) and each step t in the same row of ``steps`` (k, R).

    All k R points go through one pass per layer.  At theta0 + t d a layer
    maps its input rows A to A (W + t D)^T + b + t e, with (D, e) the
    layer's views of d; it is computed as A W^T + b + t (A D^T + e), so no
    parameter vector is formed.  The first layer's input is the one row x.
    """
    A = np.asarray(x, dtype=np.float64)[None, None, :]
    t = steps[..., None]
    last = len(net.layers) - 1
    for i, ((W, b), (D, e)) in enumerate(zip(net.layers, _layer_views(net.layers, dirs))):
        base = A @ W.T
        base += b
        Z = A @ np.swapaxes(D, -1, -2)
        Z += e[:, None, :]
        Z = t * Z
        Z += base
        if i != last:
            np.maximum(Z, 0.0, out=Z)
        A = Z
    return A[..., 0]


class _Backprop:
    """One forward and one backward pass over the rows of nets shaped like
    ``net``.  The first call allocates the activation and ReLU-mask arrays
    for its rows.  A later call on as many rows writes into them, one on
    fewer rows into their leading rows, and one on more rows allocates
    them anew; every call overwrites them, the returned gradient included.
    A layer's delta overwrites its input's activations once its weight
    gradient has read them, so the backward pass allocates nothing.

    The passes multiply with ``np.dot``: on 2-D float64 operands it makes
    matmul's BLAS call, bit for bit, without the ufunc set-up, which is
    ~2 us of a ~5 us product on the small nets that GD steps, and it
    writes into an array through ``out=`` (``out=None`` allocates one).
    """

    def __init__(self, net: Mlp):
        self.acts = [None] * (net.depth + 1)
        self.masks = [None] * (net.depth - 1)
        self.grad = np.empty(net.n_params)
        self.grads = _layer_views(net.layers, self.grad)

    def grad_rows(self, net: Mlp, X: np.ndarray, loss_and_dout):
        """(loss, grad) over the float64 rows X (k, in_dim); ``loss_and_dout``
        as in ``hinge_grad_rows``.  The mask convention is preact >= 0, so
        the ReLU subgradient is 1 at exactly zero pre-activation; ``grad``
        is this object's array."""
        acts, masks = self.acts, self.masks
        k = X.shape[0]
        if acts[-1] is not None and k != acts[-1].shape[0]:
            if k > acts[-1].shape[0]:
                acts = self.acts = [None] * len(acts)
                masks = self.masks = [None] * len(masks)
            else:
                acts = [None] + [A[:k] for A in acts[1:]]
                masks = [M[:k] for M in masks]
        acts[0] = X
        last = len(net.layers) - 1
        for i, (W, b) in enumerate(net.layers):
            acts[i + 1] = Z = np.dot(acts[i], W.T, out=acts[i + 1])
            Z += b
            if i != last:
                masks[i] = np.greater_equal(Z, 0.0, out=masks[i])
                np.maximum(Z, 0.0, out=Z)
        loss, dout = loss_and_dout(acts[-1][:, 0])
        G = dout[:, None]
        for i in range(last, -1, -1):
            gW, gb = self.grads[i]
            np.dot(G.T, acts[i], out=gW)
            np.add.reduce(G, axis=0, out=gb)
            if i > 0:
                G = np.dot(G, net.layers[i][0], out=acts[i])
                G *= masks[i - 1]
        return loss, self.grad


def hinge(y, yhat):
    """Hinge loss max(0, 1 - y*yhat), elementwise."""
    return np.maximum(0.0, 1.0 - np.asarray(y) * np.asarray(yhat))


def l2_norm(v: np.ndarray) -> float:
    """Euclidean norm of a vector by numpy's own sum: np.linalg.norm's BLAS
    dot sums in an order that changes with the BLAS thread count."""
    return np.sqrt(np.add.reduce(v * v))


def output_grad_params(net: Mlp, x) -> np.ndarray:
    """Gradient of the network output itself w.r.t. the flat parameters."""
    x = np.atleast_1d(np.asarray(x, dtype=np.float64))
    return _Backprop(net).grad_rows(net, x[None, :], lambda out: (None, np.ones(1)))[1]


def population_hinge_loss(net: Mlp, target, dist) -> float:
    """Expected hinge loss of the net against a +-1 target over ``dist``.

    ``target`` maps a (m, d) point array to +-1 labels.  The support is
    uniform, so the loss is the mean of the m per-point hinge values,
    np.add.reduce(h) / m: the loss ``population_hinge_grad`` returns, bit
    for bit.
    """
    X = dist.points_float()
    y = np.asarray(target(X), dtype=np.float64)
    return float(np.add.reduce(hinge(y, forward_many(net, X))) / dist.n_points)


def hinge_grad_rows(net: Mlp, X: np.ndarray, loss_and_dout):
    """(loss, grad) from one forward and one backward pass over the rows X.

    ``loss_and_dout`` maps the outputs (m,) on the rows to the loss and the
    signed row weights ``dout`` (m,) that are backpropagated: the gradient
    is the sum over the rows of dout times the output's parameter gradient.
    """
    X = np.asarray(X, dtype=np.float64)
    return _Backprop(net).grad_rows(net, X, loss_and_dout)


def _population_hinge_grad_fn(net: Mlp, target, dist):
    """(net -> (loss, grad)): ``population_hinge_grad`` over ``dist`` for
    nets shaped like ``net``.

    The points and the labels are computed once.  The rows go through in
    ``_row_blocks``, all of them through one ``_Backprop``, whose buffers
    reach the size of the largest block (the last) on the first call; so
    the returned gradient is a buffer that the next call overwrites.  Each
    block writes 1 - margin, then its hinge values, into one (m,) array,
    and the loss is their one sum over all m points:
    ``population_hinge_loss``, bit for bit.  One block's gradient is the
    passes' own; above one block, the block gradients are added into one
    more buffer in block order, which rounds differently from a single
    pass over all m rows.
    """
    X = dist.points_float()
    y = np.asarray(target(X), dtype=np.float64)
    m, neg_w, h = dist.n_points, -dist.weight, np.empty(dist.n_points)

    def hinge_rows(lo, hi):
        """The passes' (X, loss_and_dout) for rows lo:hi, whose hook fills h[lo:hi]."""
        yb, hb = y[lo:hi], h[lo:hi]

        def dout(out):
            np.subtract(1.0, np.multiply(yb, out, out=hb), out=hb)
            d = np.where(hb >= 0.0, yb * neg_w, 0.0)  # -y/m while the margin is <= 1
            np.maximum(0.0, hb, out=hb)
            return None, d

        return X[lo:hi], dout

    (first, first_dout), *rest = [hinge_rows(lo, hi) for lo, hi in _row_blocks(m)]
    passes = _Backprop(net)
    total = np.empty(net.n_params) if rest else None

    def grad(net):
        g = passes.grad_rows(net, first, first_dout)[1]
        if rest:
            np.copyto(total, g)
            for Xb, dout in rest:
                np.add(total, passes.grad_rows(net, Xb, dout)[1], out=total)
            g = total
        return float(np.add.reduce(h) / m), g

    return grad


def population_hinge_grad(net: Mlp, target, dist):
    """Population hinge loss and its flat subgradient over ``dist``.

    Returns (loss, grad).  The gradient is the mean per-sample hinge
    subgradient.  Conventions at kinks: ReLU derivative 1 at zero
    pre-activation, hinge derivative -y at margin exactly 1.
    """
    return _population_hinge_grad_fn(net, target, dist)(net)


def xavier_init(depth: int, width: int, in_dim: int, seed: int, bias_std: float = 0.0) -> Mlp:
    """Gaussian init: each weight entry ~ N(0, 1/fan_in), each bias ~
    N(0, bias_std^2/fan_in) (zero for the default bias_std = 0).

    ``depth`` counts affine stages; the hidden stages all have ``width``
    units and the final stage has a single output.  A zero-bias net is
    positively homogeneous, so on a 1-D input in [0,1] it is one linear
    piece; bias_std = 1 gives nets with many pieces there.
    """
    if depth < 2:
        raise ValueError("depth must be >= 2")
    if width < 1 or in_dim < 1:
        raise ValueError("width and in_dim must be >= 1")
    if not bias_std >= 0.0:
        raise ValueError("bias_std must be >= 0")
    rng = np.random.default_rng(seed)
    dims = [in_dim] + [width] * (depth - 1) + [1]
    layers = []
    for fan_in, fan_out in zip(dims[:-1], dims[1:]):
        W = rng.normal(0.0, 1.0 / np.sqrt(fan_in), size=(fan_out, fan_in))
        b = np.zeros(fan_out)
        if bias_std:  # no draw at 0, so zero-bias nets keep their weights
            b = rng.normal(0.0, bias_std / np.sqrt(fan_in), size=fan_out)
        layers.append((W, b))
    return Mlp(layers)
