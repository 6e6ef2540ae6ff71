import functools
import os
import subprocess
import sys
import tempfile
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from depthlab import mlp
from depthlab.constructions import telgarsky_target
from depthlab.mlp import (
    ROW_BLOCK,
    DimensionError,
    Mlp,
    forward,
    forward_many,
    hinge,
    hinge_grad_rows,
    l2_norm,
    population_hinge_grad,
    population_hinge_loss,
    xavier_init,
)
from depthlab.dists import uniform_cube, uniform_signs
from conftest import blas_threads_env, central_fd_hinge_grad, is_smooth_point, point_hinge_grad


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


# Run in a fresh interpreter: for each case, the outputs of forward_many
# and of the single pass over all rows that forward_many made before it
# streamed its rows in blocks, saved to the .npz file argv[1].
_BLOCKED_AND_SINGLE = """
import sys
import numpy as np
from depthlab.constructions import lipschitz_approx_net
from depthlab.dists import uniform_cube
from depthlab.mlp import ROW_BLOCK, forward_many, xavier_init

def single_pass(net, X):
    A = X
    last = len(net.layers) - 1
    for i, (W, b) in enumerate(net.layers):
        A = np.dot(A, W.T)
        A += b
        if i != last:
            np.maximum(A, 0.0, out=A)
    return A[:, 0]

deep = xavier_init(12, 32, 1, seed=0, bias_std=1.0)
x1x2 = lipschitz_approx_net(lambda X: X[:, 0] * X[:, 1], 2.0, 1.0, 4, 2)
wide = xavier_init(4, 100, 1, seed=0, bias_std=1.0)
cases = [(deep, uniform_cube(grid=2**16).points),
         (x1x2, np.random.default_rng(0).random((10**5, 2))),
         (deep, uniform_cube(grid=2 * ROW_BLOCK + 1).points),
         (wide, uniform_cube(grid=2 * ROW_BLOCK + 1).points),
         (wide, uniform_cube(grid=3 * ROW_BLOCK + 1).points)]
out = {}
for k, (net, X) in enumerate(cases):
    out[f"blocked{k}"] = forward_many(net, X)
    out[f"single{k}"] = single_pass(net, X)
np.savez(sys.argv[1], **out)
"""


@functools.lru_cache(maxsize=2)
def blocked_and_single(threads):
    """{name: outputs} of ``_BLOCKED_AND_SINGLE`` run with ``threads``
    OpenBLAS threads."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "outputs.npz")
        subprocess.run([sys.executable, "-c", _BLOCKED_AND_SINGLE, path],
                       env=blas_threads_env(threads), check=True)
        with np.load(path) as saved:
            return {k: saved[k] for k in saved.files}


class TestRowBlocks:
    def test_blocks_start_aligned_and_the_last_takes_the_remainder(self):
        B = ROW_BLOCK
        assert mlp._row_blocks(0) == [(0, 0)]
        assert mlp._row_blocks(2 * B - 1) == [(0, 2 * B - 1)]
        assert mlp._row_blocks(2 * B) == [(0, B), (B, 2 * B)]
        for m in (1, B, 2 * B + 1, 16 * B, 10**5):
            blocks = mlp._row_blocks(m)
            assert blocks[0][0] == 0 and blocks[-1][1] == m
            assert all(hi == lo for (_, hi), (lo, _) in zip(blocks, blocks[1:]))
            assert all(lo % B == 0 for lo, _ in blocks)
            assert all(B <= hi - lo < 2 * B for lo, hi in blocks) or len(blocks) == 1

    def test_blocked_outputs_are_the_single_pass_bit_for_bit(self):
        """At one BLAS thread, on 65,536 and 2 ROW_BLOCK + 1 rows of a deep
        net, lipschitz-approx's x1x2 net on 10^5 rows and a width-100 net."""
        outputs = blocked_and_single("1")
        for k in range(5):
            assert outputs[f"blocked{k}"].tobytes() == outputs[f"single{k}"].tobytes()

    def test_blocked_outputs_do_not_depend_on_the_blas_thread_count(self):
        """A single pass over all rows of the width-100 cases moves outputs
        by up to 1.1e-16 between one and two OpenBLAS threads; the aligned
        blocks move none."""
        one, two = blocked_and_single("1"), blocked_and_single("2")
        for k in range(5):
            assert one[f"blocked{k}"].tobytes() == two[f"blocked{k}"].tobytes()

    def test_dense_passes_hold_one_block(self):
        """On 65,536 rows of a depth-12 width-32 net, a single pass over all
        rows peaks at 32.0 MiB (forward_many) and 201.2 MiB (gradient)
        traced; the blocked passes at ~2.5 and ~15 MiB."""
        net = xavier_init(12, 32, 1, seed=0, bias_std=1.0)
        dist = uniform_cube(grid=2**16)
        target = telgarsky_target(12)
        for run, bound_mib in ((lambda: forward_many(net, dist.points), 8),
                               (lambda: population_hinge_grad(net, target, dist), 24)):
            tracemalloc.start()
            try:
                run()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < bound_mib * 2**20, f"peak traced memory {peak / 2**20:.1f} MiB"

    def test_blocked_gradient_tracks_a_single_pass(self):
        """Above one block the gradient is the block sums added in block
        order: within 1e-12 relative of one pass over all rows, its loss
        ``population_hinge_loss`` bit for bit, and a run-held gradient
        reproduces a fresh one on every call."""
        dist = uniform_cube(grid=2 * ROW_BLOCK + 808)
        target = telgarsky_target(8)
        net = xavier_init(8, 32, 1, seed=3, bias_std=1.0)
        loss, g = population_hinge_grad(net, target, dist)
        assert loss == population_hinge_loss(net, target, dist)
        y = target(dist.points)
        w = 1.0 / dist.n_points

        def hinge_rows(out):
            return (np.add.reduce(hinge(y, out)) * w,
                    np.where(y * out <= 1.0, -y * w, 0.0))

        single_loss, single_g = hinge_grad_rows(net, dist.points, hinge_rows)
        assert abs(loss - single_loss) <= 1e-15
        assert l2_norm(g - single_g) <= 1e-12 * l2_norm(single_g)
        held = mlp._population_hinge_grad_fn(net, target, dist)
        for theta in (net.flat_params(), 0.9 * net.flat_params()):
            other = net.with_flat_params(theta)
            fresh_loss, fresh_g = population_hinge_grad(other, target, dist)
            held_loss, held_g = held(other)
            assert held_loss == fresh_loss and held_g.tobytes() == fresh_g.tobytes()
