import tracemalloc

import numpy as np
import pytest

from depthlab import audit
from depthlab.audit import audit_l_standard
from depthlab.mlp import Mlp, _forward_rays, forward, forward_many, l2_norm, output_grad_params, xavier_init


def pair_ratio(net_a: Mlp, net_b: Mlp, x) -> float:
    """|g_a(x) - g_b(x)| / ||theta_a - theta_b|| for one probe pair, one net
    at a time: the reference the audit's ray rungs are checked against."""
    num = abs(forward(net_a, x) - forward(net_b, x))
    den = l2_norm(net_a.flat_params() - net_b.flat_params())
    if den == 0.0:
        raise ValueError("probe points coincide")
    return num / den


def test_affine_ratio_is_exactly_abs_x():
    # weight-only perturbation of g(x) = w x: ratio |dw * x| / |dw| = |x|
    a = Mlp([(np.array([[1.0]]), np.array([0.0]))])
    b = Mlp([(np.array([[1.5]]), np.array([0.0]))])
    assert pair_ratio(a, b, [0.5]) == 0.5
    assert pair_ratio(a, b, [2.0]) == 2.0
    # along the ray from a through b, the steps 0 and 1 give the two outputs w x
    ray = b.flat_params() - a.flat_params()
    assert _forward_rays(a, [2.0], ray[None], np.array([[0.0, 1.0]])).tolist() == [[2.0, 3.0]]


def dyadic(rng, shape, bits):
    """Integers in [-8, 8] over 2^bits: few-bit dyadic floats."""
    return rng.integers(-8, 9, size=shape) / 2.0**bits


@pytest.mark.parametrize("depth, width, d", [(2, 3, 1), (3, 4, 2), (4, 5, 3)])
def test_ray_outputs_are_exact_on_dyadic_nets(depth, width, d):
    """Weights, biases, directions, steps and input with few bits make
    every product and sum exact, so each rung's output equals the net
    built at theta0 + t d, bit for bit, whichever way it is computed."""
    rng = np.random.default_rng(depth)
    dims = [d] + [width] * (depth - 1) + [1]
    net = Mlp([(dyadic(rng, (o, i), 3), dyadic(rng, o, 3)) for i, o in zip(dims, dims[1:])])
    dirs = dyadic(rng, (2, net.n_params), 2)
    steps = np.array([[0.0, 1.0, 0.5, 2.0**-10], [0.25, 0.75, 3.0, 2.0**-20]])
    x = dyadic(rng, d, 2)
    got = _forward_rays(net, x, dirs, steps)
    want = [[forward_many(net.with_flat_params(net.flat_params() + t * dirs[j]), x[None])[0]
             for t in steps[j]] for j in range(2)]
    assert got.tolist() == want
    assert len(np.unique(got)) > 2  # the rungs do not all sit on one output


@pytest.mark.parametrize("depth, width, d", [(2, 3, 1), (3, 4, 2)])
def test_probe_ladder_matches_pairwise_on_dyadic_nets(depth, width, d):
    """With a dyadic net, directions, scales and input, and power-of-two
    rungs, every built theta0 + r s d is exact, so each rung's ratio and
    the slope along theta - theta' equal the pairwise reference's bit for
    bit: the ladder's r ||u_step|| distances and its slope direction are
    checked with no rounding term to hide a slip."""
    rng = np.random.default_rng(10 + depth)
    dims = [d] + [width] * (depth - 1) + [1]
    net = Mlp([(dyadic(rng, (o, i), 3), dyadic(rng, o, 3)) for i, o in zip(dims, dims[1:])])
    dirs = dyadic(rng, (2, net.n_params), 2)
    scales = np.array([0.75, 0.25])
    radii = np.array([0.25, 0.125, 2.0**-4])
    x = dyadic(rng, d, 2)
    ratios, slope = audit._probe_ladder(net, x, dirs, scales, radii)
    theta0 = net.flat_params()
    pairs = [[net.with_flat_params(theta0 + r * s * dj) for s, dj in zip(scales, dirs)]
             for r in radii]
    assert ratios.tolist() == [pair_ratio(a, b, x) for a, b in pairs]
    diff = pairs[-1][0].flat_params() - pairs[-1][1].flat_params()
    assert slope == abs(np.add.reduce(output_grad_params(net, x) * diff)) / l2_norm(diff)
    assert slope > 0.0 and len(set(ratios.tolist())) > 1


def test_coincident_probes_rejected():
    a = Mlp([(np.array([[1.0]]), np.array([0.0]))])
    with pytest.raises(ValueError):
        pair_ratio(a, a, [1.0])


def xavier_factory(depth, width, d):
    return lambda s: xavier_init(depth, width, d, seed=s)


def test_xavier_draws_satisfy_ratio_bound():
    # depth 4, width 64 >= depth^2, d = 2: at least 95% of 100 draws stay
    # within 1.1 * ||x|| * 1.05 inside the 1/depth ball
    rep = audit_l_standard(xavier_factory(4, 64, 2), rho=0.25, trials=100,
                           probe_count=8, seed=7)
    assert rep.pass_fraction >= 0.95
    assert rep.lhat_theta >= 0.0 and rep.lhat_x >= 0.0 and rep.lhat_sup >= 0.0


def test_reported_ratios_monotone_in_rho():
    # dyadic radii ladder: the probe set for a larger rho is a superset
    factory = xavier_factory(3, 16, 2)
    reps = [audit_l_standard(factory, rho=r, trials=8, probe_count=4, seed=3)
            for r in (0.125, 0.25, 0.5)]
    assert reps[0].lhat_theta <= reps[1].lhat_theta <= reps[2].lhat_theta


def test_invalid_rho():
    with pytest.raises(ValueError):
        audit_l_standard(xavier_factory(3, 8, 1), rho=0.0, trials=1,
                         probe_count=1, seed=0)


def pairwise_audit(net_factory, rho, trials, probe_count, seed):
    """The audit one probe pair at a time: two nets built and evaluated per
    rung, and the smallest rung's ratio against the gradient's slope.

    Returns the report and, for lhat_theta and grad_gap, the interval
    (lo, hi) that the rounding of theta0 + t d leaves them in.  An entry
    of a built theta is off from the ray's exact point by at most
    u |theta| + u |t d|, u = 2^-53: one rounding of the product and one of
    the sum.  So a pair's parameters are off by at most
    e = u (||theta_a|| + ||theta_b|| + t_a + t_b) (unit d), which moves
    its output difference by at most G e, G the larger output-gradient
    norm of the pair, and its distance by at most e: its ratio moves by at
    most (G + ratio) e / dist, and the slope along the rounded diff by at
    most 2 G e / dist.  The forward passes' own rounding, a few u per layer
    on outputs of order 1, is inside the factor 4 taken on top.  Each
    ratio v, and each gap, is within its tol of the exact rays' value, so
    their maximum lies in [max(v - tol), max(v + tol)].
    """
    u = 2.0**-53
    rng = np.random.default_rng(seed)
    radii = audit._probe_radii(rho)
    lhat_theta = lhat_x = lhat_sup = grad_gap = 0.0
    bounds = {"lhat_theta": [0.0, 0.0], "grad_gap": [0.0, 0.0]}

    def widen(key, v, tol):
        lo, hi = bounds[key]
        bounds[key] = [max(lo, v - tol), max(hi, v + tol)]
    passed = 0
    for trial in range(trials):
        net = net_factory(int(rng.integers(2**63)))
        theta0 = net.flat_params()
        dirs = rng.normal(size=(probe_count, 2, theta0.shape[0]))
        dirs /= np.linalg.norm(dirs, axis=2, keepdims=True)
        scales = rng.random((probe_count, 2))
        xs = rng.random((probe_count, net.in_dim))
        x_pairs = rng.random((probe_count, 2, net.in_dim))
        trial_ok = True
        for p in range(probe_count):
            x = xs[p]
            xnorm = np.linalg.norm(x)
            for r in radii:
                a = net.with_flat_params(theta0 + r * scales[p, 0] * dirs[p, 0])
                b = net.with_flat_params(theta0 + r * scales[p, 1] * dirs[p, 1])
                ratio = pair_ratio(a, b, x)
                lhat_theta = max(lhat_theta, ratio)
                if ratio > 1.1 * xnorm * audit._SLACK:
                    trial_ok = False
                e = u * (l2_norm(a.flat_params()) + l2_norm(b.flat_params())
                         + r * (scales[p, 0] + scales[p, 1]))
                G = max(l2_norm(output_grad_params(n, x)) for n in (a, b))
                dist = l2_norm(a.flat_params() - b.flat_params())
                widen("lhat_theta", ratio, 4 * (G + ratio) * e / dist)
            diff = a.flat_params() - b.flat_params()
            slope = abs(np.add.reduce(output_grad_params(net, x) * diff)) / l2_norm(diff)
            grad_gap = max(grad_gap, abs(ratio - slope))
            widen("grad_gap", abs(ratio - slope), 4 * (3 * G + ratio) * e / dist)
            pert = net.with_flat_params(theta0 + radii[-1] * scales[p, 0] * dirs[p, 0])
            g1 = output_grad_params(pert, x_pairs[p, 0])
            g2 = output_grad_params(pert, x_pairs[p, 1])
            dx = np.linalg.norm(x_pairs[p, 0] - x_pairs[p, 1])
            if dx > 0:
                lhat_x = max(lhat_x, np.max(np.abs(g1 - g2)) / dx)
            lhat_sup = max(lhat_sup, np.max(np.abs(g1)), np.max(np.abs(g2)))
        passed += trial_ok
    return audit.LStandardReport(lhat_theta=lhat_theta, lhat_x=lhat_x, lhat_sup=lhat_sup,
                                 pass_fraction=passed / trials, slack=audit._SLACK,
                                 grad_gap=grad_gap), bounds


# the ids end in the rungs per block of the parameter buffer that the
# rays replaced, so that each case keeps its name
@pytest.mark.parametrize("depth, width, d, rho, trials", [
    pytest.param(4, 64, 2, 0.25, 25, id="4-64-2-0.25-25-3"),  # the default shape: 19 rungs
    pytest.param(4, 64, 1, 0.25, 5, id="4-64-1-0.25-5-3"),
    pytest.param(4, 64, 3, 0.25, 5, id="4-64-3-0.25-5-3"),
    pytest.param(4, 64, 2, 0.3, 5, id="4-64-2-0.3-5-3"),  # non-dyadic rho: 20 rungs
    pytest.param(4, 256, 2, 0.25, 2, id="4-256-2-0.25-2-1"),
    pytest.param(4, 48, 2, 0.25, 5, id="4-48-2-0.25-5-6"),
    pytest.param(2, 8, 2, 0.25, 5, id="2-8-2-0.25-5-992"),
])
def test_stacked_ladder_matches_pairwise_reference(depth, width, d, rho, trials):
    """The rungs stacked as rows along the two rays, against the pairwise
    loop: pass_fraction, lhat_x, lhat_sup and slack bit for bit, and
    lhat_theta and grad_gap, which the rays take without rounding
    theta0 + t d, within that rounding's reach."""
    factory = xavier_factory(depth, width, d)
    got = audit_l_standard(factory, rho=rho, trials=trials, probe_count=8, seed=11)
    want, bounds = pairwise_audit(factory, rho=rho, trials=trials, probe_count=8, seed=11)
    exact = ("pass_fraction", "lhat_x", "lhat_sup", "slack")
    assert {k: float(getattr(got, k)).hex() for k in exact} == \
        {k: float(getattr(want, k)).hex() for k in exact}
    for k, (lo, hi) in bounds.items():
        assert lo <= getattr(got, k) <= hi, k
    assert 0.0 < got.grad_gap <= 1e-6


def test_audit_memory_stays_bounded():
    """A probe's rungs take a few (2, rungs, width) activations, not a
    parameter vector per rung: the default shape's traced peak stays below
    4 MiB (the per-trial directions alone take 1.1 MB)."""
    tracemalloc.start()
    try:
        audit_l_standard(xavier_factory(4, 64, 2), rho=0.25, trials=5, probe_count=8, seed=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20
