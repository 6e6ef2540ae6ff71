import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from depthlab.mlp import (
    DimensionError,
    Mlp,
    forward,
    forward_many,
    population_hinge_grad,
    population_hinge_loss,
    xavier_init,
)
from depthlab.dists import uniform_cube, uniform_signs
from conftest import central_fd_hinge_grad, is_smooth_point, point_hinge_grad


def affine(w, b):
    return Mlp([(np.array([[float(w)]]), np.array([float(b)]))])


def tent_net():
    # m(x) = relu(2 relu(x) - 4 relu(x - 1/2)), outer relu on a hidden stage
    return Mlp([
        (np.array([[1.0], [1.0]]), np.array([0.0, -0.5])),
        (np.array([[2.0, -4.0]]), np.array([0.0])),
        (np.array([[1.0]]), np.array([0.0])),
    ])


class TestForward:
    def test_single_affine_layer(self):
        assert forward(affine(2.0, 1.0), [3.0]) == 7.0

    def test_tent_at_half(self):
        assert forward(tent_net(), [0.5]) == 1.0

    def test_tent_clips_past_one(self):
        # 2*1.5 - 4*1.0 = -1, clipped by the outer relu
        assert forward(tent_net(), [1.5]) == 0.0

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            forward(affine(1, 0), [1.0, 2.0])

    def test_shapes_must_chain(self):
        with pytest.raises(DimensionError):
            Mlp([
                (np.ones((3, 2)), np.zeros(3)),
                (np.ones((1, 4)), np.zeros(1)),
            ])

    def test_last_layer_scalar(self):
        with pytest.raises(DimensionError):
            Mlp([(np.ones((2, 2)), np.zeros(2))])

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            Mlp([(np.array([[np.inf]]), np.array([0.0]))])


class TestFlatParams:
    def test_layout_is_w_row_major_then_b(self):
        net = Mlp([
            (np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]]), np.array([7.0, 8.0, 9.0])),
            (np.array([[10.0, 11.0, 12.0]]), np.array([13.0])),
        ])
        assert np.array_equal(net.flat_params(), np.arange(1.0, 14.0))

    def test_flat_params_is_read_only(self):
        net = xavier_init(3, 4, 2, seed=0)
        with pytest.raises(ValueError):
            net.flat_params()[0] = 1.0
        with pytest.raises(ValueError):
            net.layers[0][0][0, 0] = 1.0

    def test_round_trip_is_bit_identical(self):
        net = xavier_init(4, 8, 1, seed=3)
        again = net.with_flat_params(net.flat_params())
        dist = uniform_cube(grid=64)
        target = lambda X: np.where(X[:, 0] > 0.5, 1.0, -1.0)
        X = dist.points_float()
        assert np.array_equal(forward_many(net, X), forward_many(again, X))
        (l0, g0), (l1, g1) = (population_hinge_grad(n, target, dist) for n in (net, again))
        assert l0 == l1 and np.array_equal(g0, g1)

    def test_wrong_length_raises(self):
        net = xavier_init(3, 4, 2, seed=0)
        with pytest.raises(DimensionError):
            net.with_flat_params(np.zeros(net.n_params + 1))

    def test_nan_raises(self):
        net = xavier_init(3, 4, 2, seed=0)
        theta = np.array(net.flat_params())
        theta[5] = np.nan
        with pytest.raises(ValueError):
            net.with_flat_params(theta)


class TestGradParams:
    """The hinge subgradient in the flat parameters at one point, taken
    through ``population_hinge_grad`` on a one-point support."""

    def test_hinge_inactive_gives_zero(self):
        neuron = Mlp([
            (np.array([[1.0]]), np.array([0.0])),
            (np.array([[1.0]]), np.array([0.0])),
        ])
        assert np.all(point_hinge_grad(neuron, [2.0], 1.0) == 0.0)

    def test_single_neuron_negative_label(self):
        # loss = 1 + u relu(wx+b) at u=w=1, b=0, x=2; flat order (w, b, u, b_out)
        # frozen from the central finite-difference oracle at step 1e-6
        neuron = Mlp([
            (np.array([[1.0]]), np.array([0.0])),
            (np.array([[1.0]]), np.array([0.0])),
        ])
        g = point_hinge_grad(neuron, [2.0], -1.0)
        fd = central_fd_hinge_grad(neuron, [2.0], -1.0)
        assert np.allclose(fd, [2.0, 1.0, 2.0, 1.0], atol=1e-8)
        assert np.allclose(g, fd, atol=1e-8)

    def test_matches_finite_differences_at_smooth_points(self, rng):
        # 100 smooth probes across random 3-layer nets, rel err <= 1e-5
        checked = 0
        seed = 0
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
                assert np.max(np.abs(g - fd)) / scale <= 1e-5
                checked += 1
                if checked >= 100:
                    break


class TestPopulationLoss:
    def test_zero_network_loses_exactly_one(self):
        dist = uniform_signs(4)
        net = Mlp([(np.zeros((1, 4)), np.zeros(1))])
        target = lambda X: np.ones(len(X))
        assert population_hinge_loss(net, target, dist) == 1.0

    def test_perfect_and_negated_nets(self):
        dist = uniform_signs(3)
        # net(x) = x_1 matches the first-coordinate target with margin 1
        net = Mlp([(np.array([[1.0, 0.0, 0.0]]), np.zeros(1))])
        target = lambda X: X[:, 0]
        assert population_hinge_loss(net, target, dist) == 0.0
        neg = Mlp([(np.array([[-1.0, 0.0, 0.0]]), np.zeros(1))])
        assert population_hinge_loss(neg, target, dist) == 2.0

    def test_enumeration_is_plain_mean(self):
        dist = uniform_signs(5)
        net = xavier_init(3, 4, 5, seed=1)
        target = lambda X: np.where(X[:, 0] * X[:, 1] > 0, 1.0, -1.0)
        out = forward_many(net, dist.points_float())
        expected = float(np.mean(np.maximum(0.0, 1.0 - target(dist.points_float()) * out)))
        assert population_hinge_loss(net, target, dist) == expected

    @given(seed=st.integers(0, 10**6), depth=st.integers(2, 4), width=st.integers(1, 6))
    @settings(max_examples=25, deadline=None)
    def test_loss_in_range(self, seed, depth, width):
        dist = uniform_cube(grid=64)
        net = xavier_init(depth, width, 1, seed=seed)
        target = lambda X: np.where(X[:, 0] > 0.5, 1.0, -1.0)
        loss = population_hinge_loss(net, target, dist)
        sup = np.max(np.abs(forward_many(net, dist.points_float())))
        assert 0.0 <= loss <= 1.0 + sup + 1e-12


class TestXavierInit:
    def test_entry_statistics(self):
        # pool >= 1e5 entries of fan-in 64 layers
        entries = np.concatenate([
            xavier_init(4, 64, 64, seed=s).layers[1][0].ravel() for s in range(25)
        ])
        assert entries.size >= 10**5
        se = np.sqrt(1.0 / 64.0 / entries.size)
        assert abs(entries.mean()) <= 3 * se
        assert abs(entries.var() - 1.0 / 64.0) <= 0.05 / 64.0

    def test_deterministic_per_seed(self):
        a = xavier_init(4, 16, 2, seed=9)
        b = xavier_init(4, 16, 2, seed=9)
        assert all(
            np.array_equal(Wa, Wb) and np.array_equal(ba, bb)
            for (Wa, ba), (Wb, bb) in zip(a.layers, b.layers)
        )

    def test_distinct_seeds_differ(self):
        a = xavier_init(4, 16, 2, seed=1)
        b = xavier_init(4, 16, 2, seed=2)
        assert not np.array_equal(a.layers[0][0], b.layers[0][0])

    def test_biases_zero(self):
        net = xavier_init(3, 8, 2, seed=0)
        assert all(np.all(b == 0.0) for _, b in net.layers)

    def test_bias_std_draws_bias_after_weights(self):
        # bias_std = 1: each layer draws W, then b ~ N(0, 1/fan_in), from one stream
        rng = np.random.default_rng(4)
        dims = [2, 16, 16, 1]
        want = [(rng.normal(0.0, 1.0 / np.sqrt(fi), size=(fo, fi)),
                 rng.normal(0.0, 1.0 / np.sqrt(fi), size=fo))
                for fi, fo in zip(dims[:-1], dims[1:])]
        net = xavier_init(3, 16, 2, seed=4, bias_std=1.0)
        assert all(np.array_equal(W, Wn) and np.array_equal(b, bn)
                   for (W, b), (Wn, bn) in zip(want, net.layers))
        with pytest.raises(ValueError):
            xavier_init(3, 16, 2, seed=4, bias_std=-1.0)
