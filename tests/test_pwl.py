import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from depthlab.constructions import telgarsky_net, telgarsky_target
from depthlab.dists import uniform_cube
from depthlab import gd
from depthlab.gd import GdConfig, gd_train
from depthlab.mlp import Mlp, forward_many, population_hinge_grad, xavier_init
from depthlab import pwl
from depthlab.pwl import (
    PieceCapError,
    PwlFunction,
    count_pieces,
    evaluate,
    from_mlp_1d,
    grid_cells,
    piece_bound,
    sign_crossings,
    sign_hinge_loss_vs_fn,
)


def tent_mlp():
    return Mlp([
        (np.array([[1.0], [1.0]]), np.array([0.0, -0.5])),
        (np.array([[2.0, -4.0]]), np.array([0.0])),
        (np.array([[1.0]]), np.array([0.0])),
    ])


def tent_tent_mlp():
    return Mlp([
        (np.array([[1.0], [1.0]]), np.array([0.0, -0.5])),
        (np.array([[2.0, -4.0], [2.0, -4.0]]), np.array([0.0, -0.5])),
        (np.array([[2.0, -4.0]]), np.array([0.0])),
        (np.array([[1.0]]), np.array([0.0])),
    ])


def constant_pwl(v, lo=0.0, hi=1.0):
    return PwlFunction(lo, hi, np.array([]), np.array([0.0]), np.array([v]))


def biased_net(depth, width, seed):
    """Weights and biases both N(0, 1/fan_in): with biases a net on [0,1]
    is no longer positively homogeneous, so it can have more than one piece."""
    return xavier_init(depth, width, 1, seed, bias_std=1.0)


# (depth, width, pieces, crossings) of biased_net(depth, width, 1000 * depth
# + width), as the per-unit propagation computed them.
BIASED_PIECES = [
    (2, 1, 1, 0), (2, 4, 1, 0), (2, 16, 5, 0), (2, 32, 9, 1),
    (3, 1, 1, 0), (3, 4, 3, 0), (3, 16, 7, 0), (3, 32, 12, 1),
    (4, 1, 1, 0), (4, 4, 1, 0), (4, 16, 12, 0), (4, 32, 24, 0),
    (6, 1, 1, 0), (6, 4, 4, 0), (6, 16, 15, 1), (6, 32, 47, 0),
    (8, 1, 1, 0), (8, 4, 1, 0), (8, 16, 25, 0), (8, 32, 52, 0),
    (12, 1, 1, 0), (12, 4, 1, 0), (12, 16, 19, 0), (12, 32, 47, 0),
]


class TestFromMlp1d:
    def test_affine_is_one_piece(self):
        net = Mlp([(np.array([[3.0]]), np.array([-1.0]))])
        f = from_mlp_1d(net)
        assert count_pieces(f) == 1
        assert f.slopes[0] == 3.0 and f.intercepts[0] == -1.0

    def test_tent_has_four_pieces(self):
        f = from_mlp_1d(tent_mlp(), -1.0, 2.0)
        assert count_pieces(f) == 4
        assert np.array_equal(f.breaks, [0.0, 0.5, 1.0])
        assert np.array_equal(f.slopes, [0.0, 2.0, -2.0, 0.0])

    def test_double_tent_pieces_and_peaks(self):
        f = from_mlp_1d(tent_tent_mlp(), -1.0, 2.0)
        assert count_pieces(f) == 6
        assert evaluate(f, np.array([0.25]))[0] == 1.0
        assert evaluate(f, np.array([0.75]))[0] == 1.0

    def test_matches_forward_densely(self, rng):
        xs = np.linspace(0.0, 1.0, 10**4)
        for seed in range(50):
            depth = int(rng.integers(2, 7))
            width = int(rng.integers(1, 9))
            net = xavier_init(depth, width, 1, seed=seed)
            f = from_mlp_1d(net)
            err = np.abs(evaluate(f, xs) - forward_many(net, xs[:, None]))
            assert np.max(err) <= 1e-9

    def test_biased_nets_pinned(self):
        grid = np.linspace(0.0, 1.0, 10**4)
        pieces = []
        for depth, width, want_pieces, want_crossings in BIASED_PIECES:
            net = biased_net(depth, width, 1000 * depth + width)
            f = from_mlp_1d(net)
            assert (count_pieces(f), sign_crossings(f)) == (want_pieces, want_crossings)
            xs = np.concatenate([grid, f.breaks])
            err = np.abs(evaluate(f, xs) - forward_many(net, xs[:, None]))
            assert np.max(err) <= 1e-9
            pieces.append(want_pieces)
        assert np.median(pieces) > 1

    def test_requires_one_dim(self):
        with pytest.raises(Exception):
            from_mlp_1d(xavier_init(2, 3, 2, seed=0))

    def test_refinement_cap(self, monkeypatch):
        monkeypatch.setattr(pwl, "PIECE_CAP", 64)
        with pytest.raises(PieceCapError):
            from_mlp_1d(telgarsky_net(10))


class TestPieces:
    @given(seed=st.integers(0, 10**6), depth=st.integers(2, 6), width=st.integers(1, 8),
           biased=st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_piece_bound_holds(self, seed, depth, width, biased):
        net = biased_net(depth, width, seed) if biased else xavier_init(depth, width, 1, seed)
        assert count_pieces(from_mlp_1d(net)) <= piece_bound(depth, width)

    def test_bound_formula(self):
        assert piece_bound(1, 5) == 5
        assert piece_bound(3, 2) == 2**2 * 2**3


class TestSignCrossings:
    def test_constant_has_none(self):
        assert sign_crossings(constant_pwl(1.0)) == 0

    def test_single_root(self):
        f = PwlFunction(0.0, 1.0, np.array([]), np.array([1.0]), np.array([-0.5]))
        assert sign_crossings(f) == 1

    def test_telgarsky_net_crossings(self):
        for n in (1, 3, 6, 10):
            f = from_mlp_1d(telgarsky_net(n))
            assert sign_crossings(f) == 2**n - 1

    def test_flat_zero_with_sign_flip_counts_once(self):
        # -1 up to 0.4, exactly 0 on [0.4, 0.6], +1 after: signs -,+,+
        f = PwlFunction(
            0.0, 1.0,
            np.array([0.4, 0.6]),
            np.array([5.0, 0.0, 5.0]),
            np.array([-2.0, 0.0, -3.0]),
        )
        assert sign_crossings(f) == 1


class TestHingeLoss:
    def test_matches_quadrature_oracle(self, rng):
        # midpoint quadrature at 2^20 points as the independent check of the
        # band-cut hinge reference, on nets that cross both +1 and -1 too
        n = 4
        dist = uniform_cube(grid=2**20)
        X = dist.points_float()
        wave = telgarsky_target(n)(X)
        nets = [xavier_init(3, 4, 1, seed=seed) for seed in range(5)]
        nets += [stretched(biased_net(depth, 32, 9000 + depth)) for depth in (4, 8, 12)]
        for net in nets:
            f = from_mlp_1d(net)
            exact = band_cut_hinge_loss(f, n)
            # summed in blocks of 2^16 points: a width-32 net over all 2^20
            # at once holds 256 MiB per layer
            quad = math.fsum(
                float(np.sum(np.maximum(0.0, 1.0 - wave[k : k + 2**16]
                                        * forward_many(net, X[k : k + 2**16]))))
                for k in range(0, X.shape[0], 2**16)) / X.shape[0]
            assert exact == pytest.approx(quad, abs=1e-5)

    def test_sign_loss_lower_bound_random_nets(self):
        n = 8
        for seed in range(100):
            net = xavier_init(3, 5, 1, seed=seed)
            f = from_mlp_1d(net)
            K = sign_crossings(f)
            loss = sign_hinge_loss_vs_fn(f, n)
            assert loss >= (2 ** (n - 1) - K) / 2 ** (n - 1)
        # biased nets put breakpoints inside the bands, where a float sum of
        # cell widths can land an ulp below the bound
        for depth in (4, 12):
            for seed in range(16):
                f = from_mlp_1d(biased_net(depth, 32, seed))
                K = sign_crossings(f)
                for n in range(8, 15):
                    loss = sign_hinge_loss_vs_fn(f, n)
                    assert loss >= (2 ** (n - 1) - K) / 2 ** (n - 1)

    def test_sign_loss_exact_with_breaks_inside_bands(self):
        # positive throughout, so K = 0 and the loss is exactly 1; one break
        # a third of the way into odd bands 3..15 of each wave, n = 8..14
        x = np.unique([(2 * k + 4 / 3) / 2**n for n in range(8, 15) for k in range(1, 8)])
        x = np.concatenate([[0.0], x, [1.0]])
        v = 1.0 + 0.5 * (np.arange(x.size) % 2)
        s = np.diff(v) / np.diff(x)
        f = PwlFunction(0.0, 1.0, x[1:-1], s, v[:-1] - s * x[:-1])
        assert sign_crossings(f) == 0
        for n in range(8, 15):
            assert sign_hinge_loss_vs_fn(f, n) == 1.0

    def test_telgarsky_sign_plateaus_zero_loss(self):
        for n in (2, 6, 10):
            f = from_mlp_1d(telgarsky_net(n))
            assert sign_hinge_loss_vs_fn(f, n) == 0.0

    def test_domain_must_cover_unit_interval(self):
        f = PwlFunction(0.2, 0.8, np.array([]), np.array([1.0]), np.array([0.0]))
        with pytest.raises(ValueError):
            sign_hinge_loss_vs_fn(f, 2)

    def test_refinement_cap(self, monkeypatch):
        # the cap bounds f's own cells; the 2^n bands cost nothing
        f = from_mlp_1d(telgarsky_net(10))
        monkeypatch.setattr(pwl, "PIECE_CAP", 64)
        with pytest.raises(PieceCapError):
            sign_hinge_loss_vs_fn(f, 4)

    def test_n_outside_1_to_52_refused(self):
        # past 2^52 bands the band edges are no longer exact in float64
        assert sign_hinge_loss_vs_fn(constant_pwl(0.5), 52) == 1.0
        for n in (0, 53):
            with pytest.raises(ValueError):
                sign_hinge_loss_vs_fn(constant_pwl(0.5), n)


def _band_cuts(b, n):
    """0, 1, the 2^n-band edges of [0,1] and the points of b inside [0,1], sorted."""
    return np.unique(np.concatenate([np.arange(2**n + 1) / float(2**n),
                                     b[(b >= 0.0) & (b <= 1.0)]]))


def band_cut_sign_loss(f, n):
    """The sign loss as computed before the closed form: f's zero split
    merged with all 2^n + 1 band edges, the disagreement read at the
    midpoint of each resulting cell and summed exactly over its runs."""
    b, s, c = pwl._split_at_level(f.lo, f.hi, f.breaks, f.slopes, f.intercepts, 0.0)
    edges = pwl._edges(f.lo, f.hi, b)
    signs = np.where(s * (0.5 * (edges[:-1] + edges[1:])) + c >= 0.0, 1, -1)
    cuts = _band_cuts(edges, n)
    mids = 0.5 * (cuts[:-1] + cuts[1:])
    cell = np.searchsorted(edges[1:-1], mids, side="right")
    disagree = (signs[cell] != telgarsky_target(n)(mids[:, None])).astype(np.int8)
    jump = np.diff(disagree, prepend=0, append=0)
    ends = np.concatenate([cuts[jump < 0], -cuts[jump > 0]]) * 2.0**n
    whole = ends == np.floor(ends)
    return 2.0 * math.fsum([ends[whole].sum(), *ends[~whole]]) / 2**n


def band_cut_hinge_loss(f, n):
    """The hinge integral of f against the wave over [0,1]: the midpoint
    rule on f's cells refined at +-1 and at all 2^n + 1 band edges, which
    is exact up to rounding since the integrand is affine on each."""
    b, s, c = f.breaks, f.slopes, f.intercepts
    for level in (1.0, -1.0):
        b, s, c = pwl._split_at_level(f.lo, f.hi, b, s, c, level)
    cuts = _band_cuts(b, n)
    mids = 0.5 * (cuts[:-1] + cuts[1:])
    src = np.searchsorted(b, mids, side="right")
    wave = telgarsky_target(n)(mids[:, None])
    return float(np.dot(np.diff(cuts), np.maximum(0.0, 1.0 - wave * (s[src] * mids + c[src]))))


def fraction_sign_loss(f, n):
    """The sign loss in exact rationals, rounded once: twice the measure of
    {sign(f) != f_n}, from 2^n M(x) = floor(k/2) + r [k odd], M(x) the
    measure of {f_n = -1} in [0, x], k = floor(2^n x) and r = 2^n x - k."""
    N = 2**n

    def scaled(x):
        return Fraction(min(max(float(x), 0.0), 1.0)) * N

    def M(x):
        X = scaled(x)
        k = math.floor(X)
        return k // 2 + (X - k) * (k % 2)

    edges, signs = f.sign_runs
    total = Fraction(0)
    for a, b, sign in zip(edges[:-1], edges[1:], signs):
        minus = M(b) - M(a)
        total += minus if sign > 0 else scaled(b) - scaled(a) - minus
    return float(2 * total / N)


class TestBandFreeIntegrals:
    """The closed-form sign loss against its band-cut predecessor and an
    exact rational reference."""

    def test_sign_loss_equals_band_cuts_bit_for_bit(self):
        for depth in (4, 12):
            for seed in range(6):
                f = from_mlp_1d(biased_net(depth, 32, 7000 + 100 * depth + seed))
                for n in range(8, 21):
                    assert sign_hinge_loss_vs_fn(f, n) == band_cut_sign_loss(f, n)
        for m in range(4, 17):
            f = from_mlp_1d(telgarsky_net(m))
            for n in sorted({m - 1, m, m + 1, 16}):
                assert sign_hinge_loss_vs_fn(f, n) == band_cut_sign_loss(f, n)

    def test_sign_loss_equals_exact_rationals(self):
        for seed in range(10):
            f = from_mlp_1d(biased_net(8, 32, 8000 + seed))
            assert count_pieces(f) > 1
            for n in (30, 52):
                assert sign_hinge_loss_vs_fn(f, n) == fraction_sign_loss(f, n)
        # 1000 sign flips at jittered points: a float sum of their band
        # positions drifts from the exact sum by more than the result's ulp
        for seed in range(3):
            rng = np.random.default_rng(seed)
            x = (np.arange(1000) + 0.5 + 0.8 * (rng.random(1000) - 0.5)) / 1000
            x = np.concatenate([[0.0], x, [1.0]])
            v = np.where(np.arange(x.size) % 2 == 0, 1.0, -1.0) * (0.5 + rng.random(x.size))
            s = np.diff(v) / np.diff(x)
            f = PwlFunction(0.0, 1.0, x[1:-1], s, v[:-1] - s * x[:-1])
            assert sign_crossings(f) == 1001
            for n in (1, 5, 30, 52):
                assert sign_hinge_loss_vs_fn(f, n) == fraction_sign_loss(f, n)

    def test_one_zero_split_per_function(self, monkeypatch):
        f = from_mlp_1d(biased_net(4, 32, 11))
        calls = []
        split = pwl._split_at_level
        monkeypatch.setattr(pwl, "_split_at_level", lambda *a: calls.append(a) or split(*a))
        K = sign_crossings(f)
        sign_hinge_loss_vs_fn(f, 14)
        sign_hinge_loss_vs_fn(f, 52)
        assert sign_crossings(f) == K
        assert len(calls) == 1


def stretched(net):
    """The net with its output mapped affinely onto [-1.5, 1.5] over [0,1]
    (on a 256-point grid), so that it crosses both -1 and +1."""
    f = forward_many(net, uniform_cube(grid=256).points)
    k = 3.0 / (f.max() - f.min())
    *hidden, (W, b) = net.layers
    return Mlp(hidden + [(k * W, k * (b - f.min()) - 1.5)])


class TestGridCells:
    """One gradient from two moment rows per cell (``gd._moment_grad``)
    equals the dense grid gradient: loss within 1e-12, gradient within
    1e-11 max|g|.  A grid point given to the wrong cell, or a cell's rows
    weighted wrongly, moves the gradient by about 1/grid, far above that."""

    def assert_matches_grid(self, net, n, grid=None):
        # the default grid, 2^(n+4) points, holds 16 points per band
        dist = uniform_cube(grid=grid or 2 ** (n + 4))
        target = telgarsky_target(n)
        bounds = grid_cells(net, dist.points[:, 0])
        L = np.diff(bounds)
        assert bounds[0] == 0 and bounds[-1] == dist.n_points and np.all(L > 0)
        assert grid or 4 * (L.size + np.count_nonzero(L > 1)) < dist.n_points
        l0, g0 = population_hinge_grad(net, target, dist)
        l1, g1 = gd._moment_grad(target, dist)(net)
        assert abs(l1 - l0) <= 1e-12
        assert np.max(np.abs(g1 - g0)) <= 1e-11 * np.max(np.abs(g0))
        return bounds

    @pytest.mark.parametrize("n", [6, 8, 12])
    def test_zero_bias_nets(self, n):
        for seed in range(3 if n < 12 else 1):
            self.assert_matches_grid(xavier_init(n, 32, 1, seed=seed), n)

    @pytest.mark.parametrize("n", [6, 8, 12])
    def test_trained_nets(self, n):
        grid = 2 ** (n + 4)
        net = xavier_init(n, 32, 1, seed=n)
        net = gd_train(net, telgarsky_target(n), uniform_cube(grid=grid),
                       GdConfig(eta=0.1, iters=20)).final_net
        self.assert_matches_grid(net, n)

    @pytest.mark.parametrize("n", [6, 8, 12])
    @pytest.mark.parametrize("depth", [4, 12])
    def test_biased_nets_crossing_both_levels(self, depth, n):
        for seed in range(3 if n < 12 else 1):
            net = stretched(biased_net(depth, 32, 100 * depth + seed))
            self.assert_matches_grid(net, n)

    def test_grid_point_on_decreasing_kink(self):
        # unit 0 is relu(x_503 - x): its pre-activation is exactly 0 at the
        # grid point x_503, where the mask is 1 but 0 just to the right
        x = 503.5 / 1024
        rng = np.random.default_rng(7)
        net = Mlp([
            (np.array([[-1.0], [1.0], [0.7], [-0.4]]), np.array([x, -0.25, -0.6, 0.3])),
            (rng.normal(0.0, 0.5, (3, 4)), rng.normal(0.0, 0.5, 3)),
            (5.0 * rng.normal(0.0, 0.6, (1, 3)), np.array([0.0])),
        ])
        bounds = self.assert_matches_grid(net, 6)
        assert {503, 504} <= set(bounds)  # x_503 is a cell of its own

    def test_grid_point_on_margin_one(self):
        # f(x_503) = -1 exactly and the wave is -1 there: margin exactly 1,
        # active at the point, inactive just to the right where f < -1
        x = 503.5 / 1024
        net = Mlp([
            (np.array([[2.0], [-1.0], [1.0]]), np.array([1.0 - 2.0 * x, 0.25, -0.9])),
            (np.array([[-1.0, 3.0, 2.0]]), np.array([0.0])),
        ])
        assert forward_many(net, np.array([[x]]))[0] == -1.0
        assert telgarsky_target(6)(np.array([[x]]))[0] == -1.0
        bounds = self.assert_matches_grid(net, 6)
        assert {503, 504} <= set(bounds)

    def test_grid_point_on_band_edge(self):
        # on a 1000-point grid x_62 = 0.0625 = 256/4096 is a band edge of
        # the 2^12-band wave: the band edges are not cuts, and the label
        # moments count x_62 with the +1 of the band it opens
        dist = uniform_cube(grid=1000)
        assert dist.points[62, 0] == 0.0625
        self.assert_matches_grid(stretched(biased_net(4, 32, 5)), 12, 1000)
        P0, P1 = gd._label_prefix(dist.points[:, 0], 12)(np.array([62, 63]))
        assert P0[1] - P0[0] == 1 and P1[1] - P1[0] == 125

    @pytest.mark.parametrize("mutant", ["f above 1 as inside", "no second row"])
    def test_wrong_moment_rule_fails(self, monkeypatch, mutant):
        # giving the f > 1 cells the |f| <= 1 factor -y, or moving the
        # second row's weight onto the first (so the first moment c1 is
        # lost), must break the dense comparison
        if mutant == "f above 1 as inside":
            rule = gd._factor_moments
            monkeypatch.setattr(gd, "_factor_moments",
                                lambda f, *a: rule(np.minimum(f, 1.0), *a))
        else:
            weights = gd._row_weights

            def first_row_only(w, c0, c1, lo, L):
                beta_a, beta_b = weights(w, c0, c1, lo, L)
                beta_a[L > 1] += beta_b
                return beta_a, 0.0 * beta_b

            monkeypatch.setattr(gd, "_row_weights", first_row_only)
        with pytest.raises(AssertionError):
            self.assert_matches_grid(stretched(biased_net(4, 32, 400)), 8)


class TestValidationAndSerialization:
    def test_continuity_enforced(self):
        with pytest.raises(ValueError):
            PwlFunction(0.0, 1.0, np.array([0.5]),
                        np.array([1.0, 1.0]), np.array([0.0, 5.0]))

    def test_breaks_must_increase(self):
        with pytest.raises(ValueError):
            PwlFunction(0.0, 1.0, np.array([0.6, 0.4]),
                        np.array([0.0, 0.0, 0.0]), np.array([1.0, 1.0, 1.0]))


# ---------------------------------------------------------------------------
# The propagation as it was written before the roots were placed by cell
# counts: the old breaks and the new roots sorted together by np.unique,
# each new cell's source row found by a midpoint search, and the merge mask
# reduced row by row.  ``stats`` records what the population exercised.

def reference_merge(b, s, c, stats=None):
    if b.size == 0:
        return b, s, c
    same = (np.abs(np.diff(s, axis=0)) <= pwl.MERGE_TOL) & (np.abs(np.diff(c, axis=0)) <= pwl.MERGE_TOL)
    same = same.reshape(b.size, -1).all(axis=1)
    if stats is not None and same.any():
        stats["merged"] += 1
    rows = np.concatenate([[True], ~same])
    return b[~same], s[rows], c[rows]


def reference_split(lo, hi, b, s, c, level, stats=None):
    edges = pwl._edges(lo, hi, b)
    col = edges.reshape(-1, *(1,) * (s.ndim - 1))
    hit = np.nonzero((s * col[:-1] + c - level) * (s * col[1:] + c - level) < 0.0)
    roots = (level - c[hit]) / s[hit]
    cell = hit[0]
    roots = roots[(roots > edges[cell]) & (roots < edges[cell + 1])]
    if not roots.size:
        return b, s, c
    new_b = np.unique(np.concatenate([b, roots]))
    if stats is not None:
        distinct = np.unique(roots)
        stats["shared_roots"] += distinct.size < roots.size
        stats["max_roots_per_cell"] = max(stats["max_roots_per_cell"], int(
            np.bincount(np.searchsorted(b, distinct)).max()))
    edges = pwl._edges(lo, hi, new_b)
    src = np.searchsorted(b, 0.5 * (edges[:-1] + edges[1:]), side="right")
    return new_b, s[src], c[src]


def reference_propagate(net, lo, hi, hidden_breaks, stats):
    b = np.array([], dtype=np.float64)
    S, C = np.ones((1, 1)), np.zeros((1, 1))
    last = len(net.layers) - 1
    for i, (W, bias) in enumerate(net.layers):
        S, C = S @ W.T, C @ W.T + bias
        if i != last:
            b, S, C = reference_split(lo, hi, b, S, C, 0.0, stats)
            edges = pwl._edges(lo, hi, b)
            neg = S * (0.5 * (edges[:-1] + edges[1:]))[:, None] + C < 0.0
            S[neg] = 0.0
            C[neg] = 0.0
            hidden_breaks.append(b)
            b, S, C = reference_merge(b, S, C, stats)
        else:
            b, S, C = reference_merge(b, S, C)
    return b, S, C


def reference_outputs(net, x, stats):
    """Every array the certificates and the moment gradient read, by the
    sorting reference."""
    hidden = []
    b, S, C = reference_propagate(net, 0.0, 1.0, hidden, stats)
    f = PwlFunction(0.0, 1.0, b, S[:, 0], C[:, 0])
    zb, zs, zc = reference_split(0.0, 1.0, f.breaks, f.slopes, f.intercepts, 0.0, stats)
    edges = pwl._edges(0.0, 1.0, zb)
    signs = np.where(zs * (0.5 * (edges[:-1] + edges[1:])) + zc >= 0.0, 1, -1).astype(np.int8)
    flips = np.flatnonzero(np.diff(signs))
    runs = (np.concatenate([edges[:1], edges[1 + flips], edges[-1:]]),
            signs[np.concatenate([[0], flips + 1])])
    pieces = reference_merge(f.breaks, f.slopes, f.intercepts)[1].shape[0]
    pb, pS, pC = b, S, C
    for level in (1.0, -1.0):
        pb, pS, pC = reference_split(0.0, 1.0, pb, pS, pC, level, stats)
    cuts = np.unique(np.concatenate([pb, *hidden]))
    bounds = np.unique(np.concatenate([
        [0, x.size], np.searchsorted(x, cuts), np.searchsorted(x, cuts - pwl.KINK_TOL),
        np.searchsorted(x, cuts + pwl.KINK_TOL, side="right")]))
    return [b, S, C, *hidden, pb, pS, pC, zb, zs, zc, *runs, np.array(pieces), bounds]


def lab_outputs(net, x):
    hidden = []
    b, S, C = pwl._propagate(net, 0.0, 1.0, hidden)
    f = from_mlp_1d(net)
    zb, zs, zc = pwl._split_at_level(0.0, 1.0, f.breaks, f.slopes, f.intercepts, 0.0)
    pb, pS, pC = b, S, C
    for level in (1.0, -1.0):
        pb, pS, pC = pwl._split_at_level(0.0, 1.0, pb, pS, pC, level)
    return [b, S, C, *hidden, pb, pS, pC, zb, zs, zc, *f.sign_runs,
            np.array(count_pieces(f)), grid_cells(net, x)]


def twin_unit_net(seed):
    """A biased 3 x 4 net whose first two hidden units are the same unit,
    so every root of the first layer is found twice."""
    (W, b), *rest = biased_net(3, 4, seed).layers
    W, b = W.copy(), b.copy()
    W[1], b[1] = W[0], b[0]
    return Mlp([(W, b), *rest])


def propagation_population():
    nets = [telgarsky_net(m) for m in (1, 2, 4, 8, 12, 16)]
    nets += [biased_net(depth, 32, 500 + seed) for depth in (4, 12) for seed in range(5)]
    nets += [xavier_init(depth, width, 1, seed=depth) for depth in (2, 4, 8) for width in (1, 3, 32)]
    nets += [xavier_init(depth, width, 1, seed=1000 * seed + 100 * depth + width, bias_std=bias_std)
             for seed in range(3) for bias_std in (1.0, 2.0)
             for depth in range(2, 13) for width in (1, 3, 32)]
    nets += [twin_unit_net(seed) for seed in range(4)]
    return nets


class TestCellCountSplit:
    """The split places each layer's roots by cell counts and takes the
    source rows by repeat; it equals the sorting reference bit for bit."""

    def test_split_source_is_the_containing_cell(self):
        # a cell one ulp wide: the midpoint of [r, 0.5] rounds to 0.5
        r = np.nextafter(0.5, 0.0)
        b, s, c = np.array([0.5]), np.array([1.0, 2.0]), np.array([-r, -0.5 - r])
        new_b, new_s, new_c = pwl._split_at_level(0.0, 1.0, b, s, c, 0.0)
        assert new_b.tolist() == [r, 0.5]
        assert new_s.tolist() == [1.0, 1.0, 2.0]
        assert new_c.tolist() == [-r, -r, -0.5 - r]

    def test_propagation_matches_the_sorting_reference(self):
        x = uniform_cube(grid=4096).points[:, 0]
        stats = {"merged": 0, "shared_roots": 0, "max_roots_per_cell": 0}
        for net in propagation_population():
            want = reference_outputs(net, x, stats)
            got = lab_outputs(net, x)
            assert len(got) == len(want)
            for g, w in zip(got, want):
                assert g.dtype == w.dtype and g.shape == w.shape
                assert g.tobytes() == w.tobytes()
        # the population drops hidden breaks by merging, finds one root
        # twice, and puts two or more roots into one cell
        assert stats["merged"] > 0
        assert stats["shared_roots"] > 0
        assert stats["max_roots_per_cell"] >= 2

    def test_no_sort_or_search_of_the_breaks(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("propagation sorted or searched the breaks")

        net = telgarsky_net(8)
        monkeypatch.setattr(np, "unique", refuse)
        monkeypatch.setattr(np, "searchsorted", refuse)
        f = from_mlp_1d(net)
        assert count_pieces(f) == 2**8 + 1
        assert sign_crossings(f) == 2**8 - 1
