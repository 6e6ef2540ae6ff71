import dataclasses
import tracemalloc

import numpy as np
import pytest

from depthlab import audit
from depthlab.audit import audit_l_standard
from depthlab.mlp import Mlp, forward, forward_stacked, l2_norm, output_grad_params, xavier_init


def pair_ratio(net_a: Mlp, net_b: Mlp, x) -> float:
    """|g_a(x) - g_b(x)| / ||theta_a - theta_b|| for one probe pair, one net
    at a time: the reference the audit's stacked rungs are checked against."""
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
    # the stacked pass gives the two outputs w x at once
    thetas = np.array([a.flat_params(), b.flat_params()])
    assert forward_stacked(a, thetas, [2.0]).tolist() == [2.0, 3.0]


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
    rung, and the smallest rung's ratio against the gradient's slope."""
    rng = np.random.default_rng(seed)
    radii = audit._probe_radii(rho)
    lhat_theta = lhat_x = lhat_sup = grad_gap = 0.0
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
            diff = a.flat_params() - b.flat_params()
            slope = abs(np.add.reduce(output_grad_params(net, x) * diff)) / l2_norm(diff)
            grad_gap = max(grad_gap, abs(ratio - slope))
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
                                 grad_gap=grad_gap)


@pytest.mark.parametrize("depth, width, d, rho, trials, per_block", [
    (4, 64, 2, 0.25, 25, 3),   # the default shape: 19 rungs as 6 x 3 + 1
    (4, 64, 1, 0.25, 5, 3),
    (4, 64, 3, 0.25, 5, 3),
    (4, 64, 2, 0.3, 5, 3),     # non-dyadic rho: 20 rungs as 6 x 3 + 2
    (4, 256, 2, 0.25, 2, 1),   # one rung per block
    (4, 48, 2, 0.25, 5, 6),    # 3 x 6 + 1
    (2, 8, 2, 0.25, 5, 992),   # the whole ladder in one block
])
def test_stacked_ladder_matches_pairwise_reference(depth, width, d, rho, trials, per_block):
    """Every field of the report, bit for bit, against the pairwise loop."""
    n_params = xavier_init(depth, width, d, seed=0).n_params
    assert max(1, audit._BLOCK_FLOATS // (2 * n_params)) == per_block
    factory = xavier_factory(depth, width, d)
    got = audit_l_standard(factory, rho=rho, trials=trials, probe_count=8, seed=11)
    want = pairwise_audit(factory, rho=rho, trials=trials, probe_count=8, seed=11)
    assert {k: float(v).hex() for k, v in dataclasses.asdict(got).items()} == \
        {k: float(v).hex() for k, v in dataclasses.asdict(want).items()}
    assert 0.0 < got.grad_gap <= 1e-6


def test_audit_memory_stays_bounded():
    """Rungs go through one buffer of at most audit._BLOCK_FLOATS floats, not
    one for the whole ladder: the default shape's traced peak stays below
    4 MiB (the per-trial directions alone take 1.1 MB)."""
    tracemalloc.start()
    try:
        audit_l_standard(xavier_factory(4, 64, 2), rho=0.25, trials=5, probe_count=8, seed=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20
