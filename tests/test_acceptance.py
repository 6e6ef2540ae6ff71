"""Acceptance suite: the headline checks at their stated tolerances.

Each criterion prints one pass/fail line (run pytest with -s to see them
all).  Thresholds are pinned here, not configurable.
"""

import json
import math
import time

import numpy as np
import pytest

from depthlab.boolfn import enumerate_signs, inner_product, or_parity_fn, \
    or_parity_inner_closed_form, parity_family
from depthlab.constructions import lipschitz_approx_net, or_parity_net, telgarsky_net, \
    telgarsky_target
from depthlab.dists import uniform_cube, uniform_signs
from depthlab.experiments import ExperimentConfig, derive_seed, run
from depthlab.gd import GdConfig, gd_train
from depthlab.kernel import depth2_to_kernel, feature_map_from_family, hardness_bound, \
    min_hinge, random_sign_features, verify_linear_hardness
from depthlab.mlp import Mlp, forward_many, grad_params, xavier_init
from depthlab.pwl import count_pieces, evaluate, from_mlp_1d, piece_bound, \
    sign_crossings, sign_hinge_loss_vs_fn
from depthlab.sq import HonestNoisyOracle, adversarial_game, certify_sqdim, \
    correlation_count_check, correlation_weak_learner, hoeffding_zset, \
    make_correlation_learner, make_majority_learner, make_random_query_learner
from conftest import central_fd_hinge_grad, is_smooth_point


def report(name: str, ok: bool, detail: str) -> bool:
    print(f"\n[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    return ok


@pytest.fixture(scope="module")
def parity12():
    return parity_family(12), uniform_signs(12)


def test_c01_exact_square_wave_realization():
    """Sign plateaus of the tent composition hit the wave exactly."""
    ok = True
    times = []
    for n in (4, 8, 12, 16):
        t0 = time.time()
        loss = sign_hinge_loss_vs_fn(from_mlp_1d(telgarsky_net(n)), n)
        dt = time.time() - t0
        times.append(dt)
        ok = ok and loss == 0.0 and dt < 1.0
    assert report("C1 exact-realization",
                  ok, f"sign-plateau loss == 0.0 for n in 4..16, "
                      f"slowest {max(times):.2f}s < 1s")


def test_c02_piece_count_bound():
    """1000 random nets, depth <= 6, width <= 8: pieces <= 2^(L-1) k^L."""
    t0 = time.time()
    rng = np.random.default_rng(202)
    violations = 0
    for _ in range(1000):
        depth = int(rng.integers(2, 7))
        width = int(rng.integers(1, 9))
        net = xavier_init(depth, width, 1, seed=int(rng.integers(2**62)))
        if count_pieces(from_mlp_1d(net)) > piece_bound(depth, width):
            violations += 1
    dt = time.time() - t0
    assert report("C2 piece-count-bound", violations == 0 and dt < 30.0,
                  f"{violations} violations in 1000 nets, {dt:.1f}s < 30s")


def test_c03_shallow_loss_lower_bound():
    """100 random depth-ceil(sqrt(14)) nets: sign loss >= (2^13 - K)/2^13."""
    n = 14
    depth = math.ceil(math.sqrt(n))
    t0 = time.time()
    violations = 0
    for seed in range(100):
        net = xavier_init(depth, 32, 1, seed=seed)
        f = from_mlp_1d(net)
        K = sign_crossings(f)
        if sign_hinge_loss_vs_fn(f, n) < (2 ** (n - 1) - K) / 2 ** (n - 1):
            violations += 1
    dt = time.time() - t0
    assert report("C3 shallow-loss-bound", violations == 0 and dt < 60.0,
                  f"{violations} violations in 100 depth-{depth} nets, {dt:.1f}s < 60s")


def test_c04_gd_flatline_decay_and_sanity():
    """Deep GD flatlines on the hard wave, gradients decay in n, easy wave trains."""
    t0 = time.time()
    # flatline at n = 12: depth-12 width-32, eta 0.1, T = 500, grid 2^16
    n = 12
    dist = uniform_cube(1, grid=2 ** (n + 4))
    net = xavier_init(n, 32, 1, seed=derive_seed(0, "init"))
    traj = gd_train(net, telgarsky_target(n), dist,
                    GdConfig(eta=0.1, iters=500))
    change = abs(float(traj.loss[0]) - float(traj.loss[-1]))
    flat_ok = change <= 1e-3

    # decay of log mean gradient norm over n in {6,8,10,12}, 5 seeds
    points = []
    for seed in range(5):
        for nn in (6, 8, 10, 12):
            d2 = uniform_cube(1, grid=2 ** (nn + 4))
            net2 = xavier_init(nn, 32, 1, seed=derive_seed(seed, f"slope{nn}"))
            tr = gd_train(net2, telgarsky_target(nn), d2,
                          GdConfig(eta=0.1, iters=20))
            points.append((nn, float(np.log(tr.grad_norm.mean()))))
    ns = np.array([p[0] for p in points], dtype=float)
    ys = np.array([p[1] for p in points])
    slope, intercept = np.polyfit(ns, ys, 1)
    pred = slope * ns + intercept
    r2 = 1.0 - float(np.sum((ys - pred) ** 2)) / float(np.sum((ys - ys.mean()) ** 2))
    decay_ok = slope < 0.0 and r2 >= 0.8

    # contrast sanity: the same deep pipeline on the 4-band wave learns
    d_easy = uniform_cube(1, grid=2**6)
    net3 = xavier_init(12, 32, 1, seed=derive_seed(0, "sanity"))
    tr3 = gd_train(net3, telgarsky_target(2), d_easy,
                   GdConfig(eta=0.1, iters=2000))
    sanity_ok = float(tr3.loss[-1]) < 0.5

    dt = time.time() - t0
    ok = flat_ok and decay_ok and sanity_ok and dt < 600.0
    assert report(
        "C4 gd-flatline", ok,
        f"|L0-L500| = {change:.2e} <= 1e-3; slope {slope:.2f} < 0 with "
        f"R^2 {r2:.2f} >= 0.8; sanity loss {float(tr3.loss[-1]):.3f} < 0.5; "
        f"{dt:.0f}s < 600s")


def test_c05_lipschitz_approximation():
    """Monte Carlo L1 error under (2C + L sqrt(d))/n^d plus 3 sigma."""
    t0 = time.time()
    cases = [
        ("x", lambda X: X[:, 0], 1.0, 1.0, 4, 1),
        ("sin6x", lambda X: np.sin(6.0 * X[:, 0]), 6.0, 1.0, 8, 1),
        ("x1x2", lambda X: X[:, 0] * X[:, 1], 2.0, 1.0, 4, 2),
    ]
    rng = np.random.default_rng(55)
    ok = True
    details = []
    for name, h, L, C, nn, d in cases:
        net = lipschitz_approx_net(h, L, C, nn, d)
        S = rng.random((10**5, d))
        errs = np.abs(forward_many(net, S) - h(S))
        est = float(errs.mean())
        sigma = float(errs.std(ddof=1) / np.sqrt(errs.size))
        bound = (2 * C + L * np.sqrt(d)) / nn**d
        ok = ok and est <= bound + 3 * sigma
        details.append(f"{name} {est:.3f}<={bound:.3f}")
    dt = time.time() - t0
    assert report("C5 lipschitz-approx", ok and dt < 60.0,
                  "; ".join(details) + f"; {dt:.1f}s < 60s")


def test_c06_sq_query_lower_bound(parity12):
    """Budget-2 games at tolerance 1/16: loss >= 1 - 2/sqrt(d) always."""
    family, dist = parity12
    d = len(family)
    t0 = time.time()
    cert = certify_sqdim(family, dist)
    assert cert.passed and cert.max_abs_inner == 0.0
    floor = 1.0 - 2.0 / math.sqrt(d)
    cap = 4.0 * d ** (2.0 / 3.0)
    min_loss = np.inf
    worst_count = 0
    games = 0
    for name, factory in [
        ("correlation", lambda s: make_correlation_learner(family)),
        ("random-query", lambda s: make_random_query_learner(family, s)),
        ("majority", lambda s: make_majority_learner()),
    ]:
        for seed in range(20):
            res = adversarial_game(family, factory(seed), budget=2,
                                   tau=1.0 / 16.0, dist=dist)
            games += 1
            min_loss = min(min_loss, res.loss)
            worst_count = max(worst_count, max(res.inconsistent_counts, default=0))
    dt = time.time() - t0
    ok = min_loss >= floor and worst_count <= cap and dt < 300.0
    assert report("C6 sq-lower-bound", ok,
                  f"min loss {min_loss:.5f} >= {floor:.5f} over {games} games; "
                  f"max per-query inconsistent {worst_count} <= {cap:.0f}; "
                  f"{dt:.0f}s < 300s")


def test_c07_sq_weak_learning(parity12):
    """Honest oracle at tau = 1e-3: exact parity recovery, loss 0."""
    family, dist = parity12
    t0 = time.time()
    rng = np.random.default_rng(derive_seed(0, "c7"))
    all_ok = True
    for t in range(50):
        target = family[int(rng.integers(len(family)))]
        oracle = HonestNoisyOracle(target, dist, tau=1e-3,
                                   seed=derive_seed(1, f"c7-{t}"))
        got = correlation_weak_learner(oracle, family)
        loss = float(np.dot(dist.weights,
                            np.maximum(0.0, 1.0 - target(dist.points) * got(dist.points))))
        all_ok = all_ok and np.array_equal(got.table, target.table) and loss == 0.0
    dt = time.time() - t0
    assert report("C7 sq-weak-learn", all_ok and dt < 60.0,
                  f"50/50 exact recoveries with loss 0.0; {dt:.0f}s < 60s")


def test_c08_correlation_counting():
    """Packing bound |{j : |<f_j,h>| >= tau}| <= 2/(tau^2 - 1/d)."""
    t0 = time.time()
    n = 10
    family = parity_family(n)
    dist = uniform_signs(n)
    cert = certify_sqdim(family, dist)
    rng = np.random.default_rng(808)
    checks = 0
    for tau in (0.2, 0.5):
        for _ in range(100):
            h = rng.uniform(-1.0, 1.0, size=dist.n_points)
            correlation_count_check(family, h, tau, dist, certificate=cert)
            checks += 1
    dt = time.time() - t0
    assert report("C8 correlation-count", checks == 200 and dt < 30.0,
                  f"{checks} checks, zero violations; {dt:.1f}s < 30s")


def grid_search_min(Phi, y, weights, B, resolution=0.05):
    N = Phi.shape[1]
    axis = np.arange(-B, B + 1e-9, resolution)
    grids = np.meshgrid(*[axis] * N, indexing="ij")
    W = np.stack([g.ravel() for g in grids], axis=0)
    W = W[:, np.sum(W**2, axis=0) <= B**2 + 1e-12]
    losses = weights @ np.maximum(0.0, 1.0 - y[:, None] * (Phi @ W))
    return float(losses.min())


def test_c09_kernel_hardness():
    """Average bounded-norm hinge minimum stays >= 0.9 on the parity family."""
    t0 = time.time()
    n = 10
    family = parity_family(n)
    dist = uniform_signs(n)
    rng = np.random.default_rng(derive_seed(0, "features"))
    idx = sorted(rng.choice(len(family), size=64, replace=False))
    psi = feature_map_from_family([family[i] for i in idx])
    rep = verify_linear_hardness(psi, 10.0, family, dist, iters=2000)
    bound = hardness_bound(64, 10.0, len(family))
    avg_ok = rep.average_loss >= 0.9
    vacuous_ok = bound == 0.0 and rep.bound_vacuous  # the report states the clamp

    # solver cross-validation against exhaustive grid search at N <= 3
    crossval_ok = True
    fam6 = parity_family(6)
    dist6 = uniform_signs(6)
    for N in (1, 2, 3):
        psiN = random_sign_features(6, N, seed=300 + N)
        res = min_hinge(psiN, 1.5, fam6[11], dist6, iters=2 * 10**4)
        oracle = grid_search_min(psiN(dist6.points), fam6[11](dist6.points),
                                 dist6.weights, 1.5)
        crossval_ok = crossval_ok and abs(res.loss - oracle) <= 2e-2
    dt = time.time() - t0
    ok = avg_ok and vacuous_ok and crossval_ok and dt < 600.0
    assert report("C9 kernel-hardness", ok,
                  f"average loss {rep.average_loss:.4f} >= 0.9 with clamped "
                  f"bound {bound}; grid cross-validation within 2e-2; {dt:.0f}s < 600s")


def test_c10_or_parity_family():
    """OR-parity nets, closed-form correlations, selector set, rounding."""
    t0 = time.time()
    # exact depth-3 realization on all 4^6 inputs
    n = 6
    rng = np.random.default_rng(derive_seed(0, "c10"))
    z_prime = (rng.integers(0, 2, n) * 2 - 1).astype(np.int8)
    net = or_parity_net(z_prime, n)
    U = enumerate_signs(2 * n).astype(np.float64)
    or_ok = bool(np.array_equal(forward_many(net, U), or_parity_fn(z_prime, n)(U)))

    # closed form equals enumeration exactly for n <= 6
    closed_ok = True
    for nn in (4, 5, 6):
        dist2 = uniform_signs(2 * nn)
        zs = enumerate_signs(nn)
        pick = rng.choice(2**nn, size=6, replace=False)
        for i in pick[:3]:
            for j in pick[3:]:
                ip = abs(inner_product(or_parity_fn(zs[i], nn),
                                       or_parity_fn(zs[j], nn), dist2))
                closed_ok = closed_ok and ip == or_parity_inner_closed_form(zs[i], zs[j])

    # selector set: pairwise Hamming >= 48/4
    Z = hoeffding_zset(48, 16, seed=derive_seed(0, "zset"))
    H = (48 - Z.astype(np.int64) @ Z.T.astype(np.int64)) // 2
    np.fill_diagonal(H, 48)
    zset_ok = int(H.min()) >= 12

    # depth-2 rounding reduction on the full 4^8 enumeration
    n8, k = 8, 4
    rng2 = np.random.default_rng(derive_seed(0, "red"))
    W1 = rng2.normal(0.0, 0.3, size=(k, 2 * n8))
    b1 = rng2.normal(0.0, 0.3, size=k)
    W2 = rng2.normal(0.0, 0.3, size=(1, k))
    net2 = Mlp([(W1, b1), (W2, np.zeros(1))])
    R = max([float(np.linalg.norm(W2)), float(np.linalg.norm(b1))]
            + [float(np.linalg.norm(W1[i, :n8])) for i in range(k)]
            + [float(np.linalg.norm(W1[i, n8:])) for i in range(k)])
    red = depth2_to_kernel(net2, 0.25, R, n8)
    Up = enumerate_signs(2 * n8).astype(np.float64)
    g = forward_many(net2, Up)
    ghat = forward_many(red.rounded_net, Up)
    round_ok = float(np.max(np.abs(g - ghat))) <= red.rounding_bound
    Xs = enumerate_signs(n8).astype(np.float64)
    Psi = red.feature_map(Xs)
    ident_err = 0.0
    n_x = 2**n8
    for zi in range(n_x):
        u = red.selector(Xs[zi])
        rows = np.arange(n_x) * n_x + zi
        ident_err = max(ident_err, float(np.max(np.abs(Psi @ u - ghat[rows]))))
    ident_ok = ident_err <= 1e-9
    dt = time.time() - t0
    ok = or_ok and closed_ok and zset_ok and round_ok and ident_ok and dt < 300.0
    assert report("C10 or-parity-family", ok,
                  f"net exact on 4^6; closed form exact for n<=6; Hamming >= 12; "
                  f"identity err {ident_err:.1e} <= 1e-9 and rounding bound hold "
                  f"on 4^8; {dt:.0f}s < 300s")


def test_c11_numerics(rng, tmp_path):
    """Gradient FD agreement, symbolic-vs-dense equality, report determinism."""
    t0 = time.time()
    # hinge subgradient vs central differences at 100 smooth points
    checked = 0
    seed = 0
    worst_rel = 0.0
    while checked < 100:
        net = xavier_init(3, 6, 3, seed=seed)
        seed += 1
        for _ in range(10):
            x = rng.random(3)
            y = float(rng.choice([-1.0, 1.0]))
            if not is_smooth_point(net, x, y):
                continue
            g = grad_params(net, x, y)
            fd = central_fd_hinge_grad(net, x, y)
            scale = max(np.max(np.abs(fd)), 1e-12)
            worst_rel = max(worst_rel, np.max(np.abs(g - fd)) / scale)
            checked += 1
            if checked >= 100:
                break
    fd_ok = worst_rel <= 1e-5

    # symbolic propagation vs dense sampling: 1000 nets, 1e5 points each
    xs = np.linspace(0.0, 1.0, 10**5)
    X = xs[:, None]
    worst_eval = 0.0
    net_rng = np.random.default_rng(4040)
    for _ in range(1000):
        depth = int(net_rng.integers(2, 7))
        width = int(net_rng.integers(1, 9))
        net = xavier_init(depth, width, 1, seed=int(net_rng.integers(2**62)))
        f = from_mlp_1d(net)
        worst_eval = max(worst_eval,
                         float(np.max(np.abs(evaluate(f, xs) - forward_many(net, X)))))
    dense_ok = worst_eval <= 1e-9

    # reports byte-identical per seed
    cfg = ExperimentConfig("lipschitz-approx", {"samples": 5000, "seed": 3})
    run(cfg, tmp_path)
    b1 = (tmp_path / cfg.run_name() / "report.json").read_bytes()
    run(cfg, tmp_path)
    b2 = (tmp_path / cfg.run_name() / "report.json").read_bytes()
    repro_ok = b1 == b2

    dt = time.time() - t0
    ok = fd_ok and dense_ok and repro_ok
    assert report("C11 numerics", ok,
                  f"FD rel err {worst_rel:.1e} <= 1e-5; dense err {worst_eval:.1e} "
                  f"<= 1e-9; reports byte-identical; {dt:.0f}s")
