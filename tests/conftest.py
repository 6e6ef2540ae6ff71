import numpy as np
import pytest

from depthlab.dists import InputDistribution
from depthlab.mlp import forward, hinge, population_hinge_grad


def point_hinge_grad(net, x, y):
    """Hinge subgradient at one point: ``population_hinge_grad`` on the
    one-point support {x} with weight 1 and label y."""
    x = np.atleast_1d(np.asarray(x, dtype=np.float64))
    point = InputDistribution("point", x[None, :], np.ones(1))
    return population_hinge_grad(net, lambda X: np.full(len(X), float(y)), point)[1]


def central_fd_hinge_grad(net, x, y, h=1e-6):
    """Finite-difference oracle for the hinge subgradient in the parameters."""
    theta = net.flat_params()
    g = np.zeros_like(theta)
    for i in range(theta.shape[0]):
        tp = theta.copy()
        tp[i] += h
        tm = theta.copy()
        tm[i] -= h
        lp = float(hinge(y, forward(net.with_flat_params(tp), x)))
        lm = float(hinge(y, forward(net.with_flat_params(tm), x)))
        g[i] = (lp - lm) / (2 * h)
    return g


def is_smooth_point(net, x, y, kink_tol=1e-4):
    """No pre-activation and no hinge margin within kink_tol of a kink."""
    a = np.atleast_1d(np.asarray(x, dtype=np.float64))[None, :]
    last = len(net.layers) - 1
    for i, (W, b) in enumerate(net.layers):
        a = a @ W.T + b
        if i != last:
            if np.min(np.abs(a)) < kink_tol:
                return False
            a = np.maximum(a, 0.0)
    margin = y * a[0, 0]
    return abs(margin - 1.0) >= kink_tol


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
