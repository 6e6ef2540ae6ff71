"""Acceptance suite: the headline checks at their stated tolerances.

Each criterion prints one pass/fail line (run pytest with -s to see them
all).  Thresholds are pinned here, not configurable.  A criterion that
checks an experiment's claim runs that experiment's code in experiments.py:
its _certify_* step on draws pinned here, or its body where the criterion
uses the experiment's own draws, and reads the check records that step
returns.
"""

import math
import time

import numpy as np

from depthlab import experiments as ex
from depthlab.boolfn import parity_family
from depthlab.constructions import telgarsky_net
from depthlab.dists import uniform_signs
from depthlab.experiments import ExperimentConfig, derive_seed, run
from depthlab.kernel import FeatureMap, min_hinge_family
from depthlab.mlp import forward_many, xavier_init
from depthlab.pwl import count_pieces, evaluate, from_mlp_1d, piece_bound, \
    sign_hinge_loss_vs_fn
from depthlab.sq import certify_sqdim, correlation_count_check
from conftest import central_fd_hinge_grad, is_smooth_point, point_hinge_grad


def report(name: str, ok: bool, detail: str) -> bool:
    print(f"\n[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    return ok


def params(experiment, **overrides):
    return ExperimentConfig(experiment, overrides).params


def holds(checks) -> bool:
    """Every check of a certify step holds (each step states at least one)."""
    return bool(checks) and all(c.ok for c in checks)


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
    nets = [xavier_init(depth, 32, 1, seed=seed) for seed in range(100)]
    _, checks, series = ex._certify_separation(params("telgarsky-separation", n=n), nets)
    violations = sum(r["loss"] < (2 ** (n - 1) - r["crossings"]) / 2 ** (n - 1)
                     for r in series)
    dt = time.time() - t0
    assert report("C3 shallow-loss-bound", holds(checks) and violations == 0 and dt < 60.0,
                  f"{violations} violations in 100 depth-{depth} nets, {dt:.1f}s < 60s")


def test_c04_gd_flatline_decay_and_sanity():
    """Deep GD flatlines on the hard wave, gradients decay in n, easy wave trains."""
    t0 = time.time()
    # flatline at n = 12: depth-12 width-32, eta 0.1, T = 500, grid 2^16 (the
    # default gd-flatline run)
    flat, _, _ = ex._exp_gd_flatline(
        params("gd-flatline", n=12, width=32, eta=0.1, iters=500, grid=2**16, seed=0))
    change = flat["abs_loss_change_hinge"]
    flat_ok = change <= 1e-3

    # decay of log mean gradient norm over n in {6,8,10,12}, 5 seeds
    points = []
    for seed in range(5):
        for nn in (6, 8, 10, 12):
            net = xavier_init(nn, 32, 1, seed=derive_seed(seed, f"slope{nn}"))
            m, _, _ = ex._certify_gd_flatline(
                params("gd-flatline", n=nn, eta=0.1, iters=20, grid=2 ** (nn + 4)), net)
            points.append((nn, m["log_mean_grad_norm"]))
    fit = ex._decay_fit(points)
    slope, r2 = fit["slope"], fit["r_squared"]
    decay_ok = slope < 0.0 and r2 >= 0.8

    # contrast sanity: the same deep pipeline on the 4-band wave learns
    net = xavier_init(12, 32, 1, seed=derive_seed(0, "sanity"))
    easy, _, _ = ex._certify_gd_sanity(
        params("gd-sanity", n=2, eta=0.1, iters=2000, grid=2**6), net)
    sanity_ok = easy["loss_end_hinge"] < 0.5

    dt = time.time() - t0
    ok = flat_ok and decay_ok and sanity_ok and dt < 600.0
    assert report(
        "C4 gd-flatline", ok,
        f"|L0-L500| = {change:.2e} <= 1e-3; slope {slope:.2f} < 0 with "
        f"R^2 {r2:.2f} >= 0.8; sanity loss {easy['loss_end_hinge']:.3f} < 0.5; "
        f"{dt:.0f}s < 600s")


def test_c05_lipschitz_approximation():
    """Monte Carlo L1 error under (2C + L sqrt(d))/n^d plus 3 sigma."""
    t0 = time.time()
    _, checks, series = ex._certify_lipschitz(params("lipschitz-approx", samples=10**5),
                                              np.random.default_rng(55))
    details = [f"{r['case']} {r['l1_error']:.3f}<={r['bound']:.3f}" for r in series]
    dt = time.time() - t0
    assert report("C5 lipschitz-approx", holds(checks) and dt < 60.0,
                  "; ".join(details) + f"; {dt:.1f}s < 60s")


def test_c06_sq_query_lower_bound():
    """Budget-2 games at tolerance 1/16: loss >= 1 - 2/sqrt(d) always."""
    family = parity_family(12)
    d = len(family)
    t0 = time.time()
    cert = certify_sqdim(family)
    assert cert.passed and cert.max_abs_inner == 0.0
    floor = 1.0 - 2.0 / math.sqrt(d)
    cap = 4.0 * d ** (2.0 / 3.0)
    m, checks, _ = ex._certify_sq_games(
        params("sq-parity-lower-bound", n=12, budget=2, tau=1.0 / 16.0),
        [(name, list(range(20))) for name in ex._LEARNER_FACTORIES])
    min_loss, worst_count = m["min_loss_hinge"], m["max_inconsistent_per_query"]
    dt = time.time() - t0
    ok = holds(checks) and min_loss >= floor and worst_count <= cap and dt < 300.0
    assert report("C6 sq-lower-bound", ok,
                  f"min loss {min_loss:.5f} >= {floor:.5f} over {m['games']} games; "
                  f"max per-query inconsistent {worst_count} <= {cap:.0f}; "
                  f"{dt:.0f}s < 300s")


def test_c07_sq_weak_learning():
    """Honest oracle at tau = 1e-3: exact parity recovery, loss 0."""
    t0 = time.time()
    rng = np.random.default_rng(derive_seed(0, "c7"))
    draws = [(int(rng.integers(2**12)), derive_seed(1, f"c7-{t}")) for t in range(50)]
    _, checks, _ = ex._certify_weak_learn(params("sq-weak-learn", n=12, tau=1e-3), draws)
    dt = time.time() - t0
    assert report("C7 sq-weak-learn", holds(checks) and dt < 60.0,
                  f"50/50 exact recoveries with loss 0.0; {dt:.0f}s < 60s")


def test_c08_correlation_counting():
    """Packing bound |{j : |<f_j,h>| >= tau}| <= 2/(tau^2 - 1/d)."""
    t0 = time.time()
    n = 10
    family = parity_family(n)
    cert = certify_sqdim(family)
    rng = np.random.default_rng(808)
    checks = 0
    for tau in (0.2, 0.5):
        for _ in range(100):
            h = rng.uniform(-1.0, 1.0, size=2**n)
            correlation_count_check(family, h, tau, certificate=cert)
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
    """Average bounded-norm hinge minimum stays >= 0.9 on the parity family,
    certified from below per target."""
    t0 = time.time()
    # n = 10, 64 parity features, B = 10, 2000 solver iterations (the default
    # kernel-hardness run)
    m, checks, series = ex._exp_kernel_hardness(params(
        "kernel-hardness", n=10, features=64, feature_kind="parity", B=10.0, iters=2000,
        seed=0))
    avg_ok = holds(checks) and m["average_loss_hinge"] >= 0.9
    # the alpha = 1 dual certifies the average from below, and brackets every
    # target's minimum with no gap: a solver that stopped early could not pass
    lower_ok = (m["average_lower_bound_hinge"] >= 0.9 and m["max_bracket_gap"] == 0.0
                and all(r["lower_bound"] <= r["loss"] + 1e-12 for r in series))
    bound = m["formula_bound"]
    vacuous_ok = bound == 0.0 and m["bound_vacuous"]  # the report states the clamp

    # solver cross-validation against exhaustive grid search at N <= 3
    crossval_ok = True
    fam6 = parity_family(6)
    dist6 = uniform_signs(6)
    for N in (1, 2, 3):
        draw = np.random.default_rng(300 + N).integers(0, 2, size=(N, 64)) * 2.0 - 1.0
        psiN = FeatureMap(np.ascontiguousarray(draw.T))
        W, losses, _ = min_hinge_family(psiN, 1.5, fam6[11:12], dist6, iters=2 * 10**4)
        oracle = grid_search_min(psiN(dist6), fam6[11].astype(np.float64),
                                 np.full(dist6.n_points, 1.0 / dist6.n_points), 1.5)
        crossval_ok = (crossval_ok and abs(losses[0] - oracle) <= 2e-2
                       and np.linalg.norm(W[:, 0]) <= 1.5 + 1e-9)
    dt = time.time() - t0
    ok = avg_ok and lower_ok and vacuous_ok and crossval_ok and dt < 600.0
    assert report("C9 kernel-hardness", ok,
                  f"average loss {m['average_loss_hinge']:.4f} >= 0.9, certified lower "
                  f"bound {m['average_lower_bound_hinge']:.4f} >= 0.9 (max gap "
                  f"{m['max_bracket_gap']}), with clamped bound {bound}; grid "
                  f"cross-validation within 2e-2; {dt:.0f}s < 600s")


def test_c10_or_parity_family():
    """OR-parity nets, closed-form correlations, selector set, rounding."""
    t0 = time.time()
    # depth-3 net exact on all 4^6 inputs, closed form exact for n in 4..6, selector
    # set Hamming >= 48/4 (the experiment's own Z), depth-2 rounding on all 4^8 inputs
    p = params("f-family", n_or=6, n_zset=48, d_zset=16, n_reduction=8, k_reduction=4,
               delta=0.25)
    rng = np.random.default_rng(derive_seed(0, "c10"))
    z_prime = (rng.integers(0, 2, 6) * 2 - 1).astype(np.int8)
    pairs = [(nn, rng.choice(2**nn, size=6, replace=False)) for nn in (4, 5, 6)]
    net2 = ex._depth2_net(np.random.default_rng(derive_seed(0, "red")), 8, 4)
    draws = {**ex._f_family_draws(p), "z_prime": z_prime, "pairs": pairs, "net2": net2}
    m, checks, _ = ex._certify_f_family(p, **draws)
    ident_err = m["identity_max_err"]
    ok = holds(checks) and m["zset_min_hamming"] >= 12 and ident_err <= 1e-9
    dt = time.time() - t0
    assert report("C10 or-parity-family", ok and dt < 300.0,
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
            g = point_hinge_grad(net, x, y)
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


def test_c12_separation_with_content():
    """100 biased depth-ceil(sqrt(52)) width-32 nets at n = 52, where the
    width bound 1 - (4k)^sqrt(n)/2^n is not vacuous: every net meets it."""
    n = 52
    depth = math.ceil(math.sqrt(n))
    t0 = time.time()
    nets = [xavier_init(depth, 32, 1, seed=seed, bias_std=1.0) for seed in range(100)]
    m, checks, series = ex._certify_separation(params("telgarsky-separation", n=n), nets)
    pieces = [r["pieces"] for r in series]
    dt = time.time() - t0
    ok = holds(checks) and not m["width_bound_vacuous"] and np.median(pieces) > 1
    assert report("C12 separation-at-n52", ok and dt < 60.0,
                  f"width bound {m['width_based_lower_bound']:.4f} > 0; min loss "
                  f"{m['min_sign_hinge_loss']!r} over 100 depth-{depth} nets with "
                  f"{min(pieces)}/{int(np.median(pieces))}/{max(pieces)} pieces; {dt:.1f}s < 60s")
