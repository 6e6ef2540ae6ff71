import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from depthlab.constructions import (
    Box,
    LIPSCHITZ_NET_CELL_CAP,
    cube_indicator_net,
    lipschitz_approx_net,
    or_parity_net,
    parity_net,
    telgarsky_eval,
    telgarsky_net,
    telgarsky_target,
)
from depthlab.boolfn import enumerate_signs, or_parity_fn
from depthlab.mlp import forward, forward_many


class TestTelgarskyTarget:
    def test_band_examples(self):
        assert telgarsky_eval(telgarsky_target(1), [0.25]) == 1.0
        assert telgarsky_eval(telgarsky_target(2), [0.3]) == -1.0
        assert telgarsky_eval(telgarsky_target(2), [0.6]) == 1.0

    def test_left_closed_convention(self):
        t = telgarsky_target(2)
        assert telgarsky_eval(t, [0.25]) == -1.0  # left endpoint of band 1
        assert telgarsky_eval(t, [0.5]) == 1.0

    def test_domain_error(self):
        with pytest.raises(ValueError):
            telgarsky_eval(telgarsky_target(2), [1.5])

    @given(n=st.integers(1, 16), t=st.integers(0, 2**15))
    @settings(max_examples=200, deadline=None)
    def test_alternation_at_midpoints(self, n, t):
        if t >= 2**n:
            t = t % 2**n
        x = (2 * t + 1) / 2 ** (n + 1)
        assert telgarsky_eval(telgarsky_target(n), [x]) == (-1.0) ** t


class TestTelgarskyNet:
    def test_value_at_quarter(self):
        # m(0.5) - 1/2 = +0.5 after the input pre-shift
        assert forward(telgarsky_net(1), [0.25]) == 0.5

    def test_sign_agreement_dense(self, rng):
        n = 2
        net = telgarsky_net(n)
        t = telgarsky_target(n)
        xs = rng.random(10**5)
        out = forward_many(net, xs[:, None])
        want = t(xs[:, None])
        got = np.where(out >= 0, 1.0, -1.0)
        agree = np.mean(got == want)
        assert agree >= 0.999
        # disagreements only hug the band breakpoints
        bad = xs[got != want]
        if bad.size:
            dist = np.min(np.abs(bad[:, None] - np.arange(2**n + 1) / 2**n), axis=1)
            assert np.max(dist) <= 1e-9

    def test_depth_and_width(self):
        for n in (1, 3, 7):
            net = telgarsky_net(n)
            assert net.depth <= 2 * n + 1
            assert net.width <= 2


class TestCubeIndicator:
    def test_inside_shrunk_box(self):
        net = cube_indicator_net(Box([0.0, 0.0], [1.0, 1.0], 0.1))
        assert forward(net, [0.5, 0.5]) == 1.0

    def test_outside_box(self):
        net = cube_indicator_net(Box([0.0, 0.0], [1.0, 1.0], 0.1))
        assert forward(net, [1.5, 0.5]) == 0.0

    def test_margin_band_interpolates(self):
        net = cube_indicator_net(Box([0.0, 0.0], [1.0, 1.0], 0.1))
        v = forward(net, [0.05, 0.5])
        assert 0.0 <= v <= 1.0

    def test_range_on_probe_grid(self):
        # 1e4 probes covering inside, outside, and the boundary band
        net = cube_indicator_net(Box([0.2, 0.2], [0.8, 0.8], 0.05))
        g = np.linspace(-0.2, 1.2, 100)
        X = np.stack(np.meshgrid(g, g), axis=-1).reshape(-1, 2)
        out = forward_many(net, X)
        assert np.all(out >= 0.0) and np.all(out <= 1.0)

    def test_box_validation(self):
        with pytest.raises(ValueError):
            Box([0.0], [0.0], 0.1)
        with pytest.raises(ValueError):
            Box([0.0], [1.0], 0.6)


class TestLipschitzApprox:
    def test_zero_function_gives_zero_net(self, rng):
        net = lipschitz_approx_net(lambda X: np.zeros(len(X)), 1.0, 1.0, 3, 1)
        assert np.all(forward_many(net, rng.random((200, 1))) == 0.0)

    def test_linear_case_under_bound(self, rng):
        h = lambda X: X[:, 0]
        net = lipschitz_approx_net(h, 1.0, 1.0, 4, 1)
        S = rng.random((10**4, 1))
        err = np.mean(np.abs(forward_many(net, S) - h(S)))
        assert err <= (2 * 1 + 1 * 1) / 4

    def test_width_formula(self):
        net = lipschitz_approx_net(lambda X: X[:, 0] * 0, 1.0, 1.0, 3, 2)
        assert net.layers[0][0].shape[0] == 3**2 * 2 * 2

    def test_bound_violation_rejected(self):
        with pytest.raises(ValueError):
            lipschitz_approx_net(lambda X: 5 * np.ones(len(X)), 1.0, 1.0, 3, 1)

    def test_cell_cap(self):
        n = int(np.ceil((LIPSCHITZ_NET_CELL_CAP + 1) ** 0.5))
        with pytest.raises(ValueError):
            lipschitz_approx_net(lambda X: np.zeros(len(X)), 1.0, 1.0, n, 2)


class TestParityNet:
    def test_product_of_ones(self):
        net = parity_net([0, 1], 4)
        assert forward(net, [1.0, 1.0, 1.0, 1.0]) == 1.0
        assert forward(net, [1.0, -1.0, 1.0, 1.0]) == -1.0

    def test_exhaustive_n10(self, rng):
        n = 10
        I = sorted(rng.choice(n, size=5, replace=False).tolist())
        net = parity_net(I, n)
        X = enumerate_signs(n).astype(np.float64)
        assert np.array_equal(forward_many(net, X), np.prod(X[:, I], axis=1))

    def test_unit_count(self):
        assert parity_net([0, 2, 3], 6).layers[0][0].shape[0] == 4

    def test_empty_subset_rejected(self):
        with pytest.raises(ValueError):
            parity_net([], 4)


class TestOrParityNet:
    def test_all_plus_one(self):
        n = 3
        net = or_parity_net(np.ones(n, dtype=np.int8), n)
        x = np.ones(2 * n)
        assert forward(net, x) == 1.0

    def test_small_or_table(self):
        net = or_parity_net(np.array([1, 1], dtype=np.int8), 2)
        # x = (-1,-1), z = (-1, 1): (-1 or -1) * (-1 or 1) = -1
        assert forward(net, [-1.0, -1.0, -1.0, 1.0]) == -1.0

    def test_exhaustive_n4(self, rng):
        n = 4
        zp = (rng.integers(0, 2, n) * 2 - 1).astype(np.int8)
        net = or_parity_net(zp, n)
        fn = or_parity_fn(zp, n)
        U = enumerate_signs(2 * n).astype(np.float64)
        assert np.array_equal(forward_many(net, U), fn(U))

    def test_structure(self):
        n = 8
        net = or_parity_net(np.ones(n, dtype=np.int8), n)
        assert net.depth == 3
        assert net.width <= 2 * n + 1

    def test_empty_selector_is_constant_one(self):
        n = 3
        net = or_parity_net(-np.ones(n, dtype=np.int8), n)
        U = enumerate_signs(2 * n).astype(np.float64)
        assert np.all(forward_many(net, U) == 1.0)
