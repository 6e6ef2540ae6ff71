import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from depthlab.constructions import (
    LIPSCHITZ_NET_CELL_CAP,
    lipschitz_approx_net,
    or_parity_net,
    telgarsky_net,
    telgarsky_target,
)
from depthlab.boolfn import enumerate_signs, or_parity_fn
from depthlab.mlp import forward, forward_many


class TestTelgarskyTarget:
    def test_band_examples(self):
        assert telgarsky_target(1)(np.array([[0.25]]))[0] == 1.0
        assert telgarsky_target(2)(np.array([[0.3]]))[0] == -1.0
        assert telgarsky_target(2)(np.array([[0.6]]))[0] == 1.0

    def test_left_closed_convention(self):
        t = telgarsky_target(2)
        assert t(np.array([[0.25]]))[0] == -1.0  # left endpoint of band 1
        assert t(np.array([[0.5]]))[0] == 1.0

    def test_domain_error(self):
        with pytest.raises(ValueError):
            telgarsky_target(2)(np.array([[1.5]]))

    @given(n=st.integers(1, 16), t=st.integers(0, 2**15))
    @settings(max_examples=200, deadline=None)
    def test_alternation_at_midpoints(self, n, t):
        if t >= 2**n:
            t = t % 2**n
        x = (2 * t + 1) / 2 ** (n + 1)
        assert telgarsky_target(n)(np.array([[x]]))[0] == (-1.0) ** t


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
    """The soft cell indicator inside lipschitz_approx_net: with C = 1 and h
    equal to 1 at cell (0, 0)'s centre and 0 at the other centres, the net
    outputs that cell's indicator (cells of side 1/2, margin gamma = 2^-4)."""

    GAMMA = 2.0**-4

    @pytest.fixture(scope="class")
    def net(self):
        h = lambda X: np.all(X == 0.25, axis=1).astype(np.float64)
        return lipschitz_approx_net(h, 1.0, 1.0, 2, 2)

    def test_inside_shrunk_box(self, net):
        g = np.linspace(self.GAMMA, 0.5 - self.GAMMA, 40)
        X = np.stack(np.meshgrid(g, g), axis=-1).reshape(-1, 2)
        assert np.all(forward_many(net, X) == 1.0)

    def test_outside_box(self, net):
        for x in ([0.75, 0.25], [0.25, 0.75], [0.75, 0.75], [0.5, 0.25], [1.5, 0.5]):
            assert forward(net, x) == 0.0

    def test_margin_band_interpolates(self, net):
        assert 0.0 < forward(net, [0.03, 0.25]) < 1.0

    def test_range_on_probe_grid(self, net):
        # 1e4 probes covering the cell, its margin band, the other cells and beyond
        g = np.linspace(-0.2, 1.2, 100)
        X = np.stack(np.meshgrid(g, g), axis=-1).reshape(-1, 2)
        out = forward_many(net, X)
        assert np.all(out >= 0.0) and np.all(out <= 1.0)


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
        U = enumerate_signs(2 * n).astype(np.float64)
        assert np.array_equal(forward_many(net, U), or_parity_fn(zp, n))

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
