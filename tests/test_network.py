import numpy as np
import pytest

from regnets import network
from regnets.network import NetworkArch, TrainState


def zero_params(arch, bias=None):
    params = network.init_network(arch, 0)
    for i, (w, b) in enumerate(params.layers):
        params.layers[i] = (np.zeros_like(w), np.zeros_like(b) if bias is None else bias.copy())
    return params


def identity_params(grid):
    params = network.init_network(NetworkArch(grid=grid, hidden=()), 0)
    w = np.zeros((1, 1, 3, 3))
    w[0, 0, 1, 1] = 1.0
    params.layers[0] = (w, np.zeros(1))
    return params


class TestInitForward:
    def test_init_deterministic(self):
        arch = NetworkArch(grid=8)
        a = network.init_network(arch, 5)
        b = network.init_network(arch, 5)
        assert all(np.array_equal(x[0], y[0]) and np.array_equal(x[1], y[1]) for x, y in zip(a.layers, b.layers))

    def test_neighbor_seeds_differ(self):
        arch = NetworkArch(grid=8)
        a = network.init_network(arch, 5)
        b = network.init_network(arch, 6)
        assert not np.array_equal(a.layers[0][0], b.layers[0][0])

    def test_bias_only_constant_map(self, rng):
        arch = NetworkArch(grid=4, hidden=())
        params = zero_params(arch, bias=np.array([0.7]))
        out = network.forward_batch(params, rng.standard_normal(16))
        np.testing.assert_array_equal(out, np.full(16, 0.7))

    def test_zero_network_outputs_zero(self, rng):
        params = zero_params(NetworkArch(grid=4, hidden=(3,)))
        np.testing.assert_array_equal(network.forward_batch(params, rng.standard_normal(16)), np.zeros(16))

    def test_delta_kernel_is_identity(self, rng):
        params = identity_params(5)
        x = rng.standard_normal(25)
        np.testing.assert_array_equal(network.forward_batch(params, x), x)

    def test_shape_mismatch(self):
        params = network.init_network(NetworkArch(grid=4), 0)
        with pytest.raises(ValueError):
            network.forward_batch(params, np.zeros(17))

    def test_vector_is_one_row_of_the_stack(self, rng):
        params = network.init_network(NetworkArch(grid=4, hidden=(3,)), 2)
        stack = rng.standard_normal((3, 16))
        out = network.forward_batch(params, stack[1])
        assert out.shape == (16,)
        assert np.array_equal(out, network.forward_batch(params, stack)[1])


class TestConv:
    @pytest.mark.parametrize("cin, cout, grid", [(1, 3, 4), (3, 2, 5), (2, 1, 6)])
    def test_matches_direct_loop(self, rng, cin, cout, grid):
        # (cin, k, n, n) input, zero padding outside the grid:
        #   out[o, j, r, s] = b[o] + sum_{c, dy, dx} w[o, c, dy, dx] * x[c, j, r + dy - 1, s + dx - 1]
        k = 2
        x = rng.standard_normal((cin, k, grid, grid))
        w = rng.standard_normal((cout, cin, 3, 3))
        b = rng.standard_normal(cout)
        ref = np.empty((cout, k, grid, grid))
        for o in range(cout):
            for j in range(k):
                for r in range(grid):
                    for s in range(grid):
                        acc = b[o]
                        for c in range(cin):
                            for dy in range(3):
                                for dx in range(3):
                                    ri, si = r + dy - 1, s + dx - 1
                                    if 0 <= ri < grid and 0 <= si < grid:
                                        acc += w[o, c, dy, dx] * x[c, j, ri, si]
                        ref[o, j, r, s] = acc
        out, patches = network._conv3x3(x, w, b)
        assert patches.shape == (9 * cin, k * grid * grid)
        assert np.max(np.abs(out - ref)) <= 1e-13 * np.max(np.abs(ref))


class TestLossMae:
    """The loss that grad_backprop returns: batch-mean l1 distance."""

    @staticmethod
    def loss(params, pairs):
        inputs, targets = zip(*pairs)
        return network.grad_backprop(params, np.stack(inputs), np.stack(targets))[0]

    def test_zero_when_prediction_matches(self):
        params = zero_params(NetworkArch(grid=3, hidden=()))
        pairs = [(np.zeros(9), np.zeros(9))]
        assert self.loss(params, pairs) == 0.0

    def test_all_ones_residual_gives_grid_size(self):
        params = zero_params(NetworkArch(grid=3, hidden=()))
        pairs = [(np.zeros(9), np.ones(9))]
        assert self.loss(params, pairs) == 9.0

    def test_batch_average(self, rng):
        params = zero_params(NetworkArch(grid=3, hidden=()))
        t1, t2 = rng.standard_normal(9), rng.standard_normal(9)
        a = self.loss(params, [(np.zeros(9), t1)])
        b = self.loss(params, [(np.zeros(9), t2)])
        ab = self.loss(params, [(np.zeros(9), t1), (np.zeros(9), t2)])
        assert ab == pytest.approx((a + b) / 2, rel=1e-15)


class TestGradients:
    def _projection(self, rng, dim, rank=5):
        q = np.linalg.qr(rng.standard_normal((dim, rank)))[0]

        def project(rows):
            rows = np.atleast_2d(rows)
            return rows - (rows @ q) @ q.T

        return project

    def test_zero_residual_gives_zero_gradient(self):
        params = zero_params(NetworkArch(grid=3, hidden=(2,)))
        inputs = np.ones((2, 9))
        targets = inputs + network.forward_batch(params, inputs)
        loss, grads = network.grad_backprop(params, inputs, targets)
        assert loss == 0.0
        assert all(np.all(gw == 0) and np.all(gb == 0) for gw, gb in grads)

    @pytest.mark.parametrize("hidden", [(3,), (3, 2)], ids=["hidden0", "hidden1"])
    def test_finite_difference_agreement(self, rng, hidden):
        # 4x4 input, composed with a fixed projection; the 3->2 middle layer
        # has a non-square kernel, so the adjoint's channel swap shows in values
        arch = NetworkArch(grid=4, hidden=hidden)
        params = network.init_network(arch, 11)
        for _, b in params.layers:
            b[:] = 0.1 * rng.standard_normal(b.shape)
        inputs = rng.standard_normal((3, 16))
        targets = rng.standard_normal((3, 16)) * 2.0
        project = self._projection(rng, 16)
        _, grads = network.grad_backprop(params, inputs, targets, project=project)

        eps = 1e-6
        checked = 0
        for li, (w, b) in enumerate(params.layers):
            picks = [(0, tuple(rng.integers(0, s) for s in w.shape)) for _ in range(12)]
            picks += [(1, (j,)) for j in range(b.size)]
            for part, idx in picks:
                arr = params.layers[li][part]
                orig = arr[idx]
                arr[idx] = orig + eps
                up, _ = network.grad_backprop(params, inputs, targets, project=project)
                arr[idx] = orig - eps
                down, _ = network.grad_backprop(params, inputs, targets, project=project)
                arr[idx] = orig
                fd = (up - down) / (2 * eps)
                bp = grads[li][part][idx]
                assert abs(fd - bp) <= 1e-4 * max(abs(fd), abs(bp), 1e-8)
                checked += 1
        assert checked >= 20

    def test_duplicated_batch_same_gradient(self, rng):
        arch = NetworkArch(grid=4, hidden=(2,))
        params = network.init_network(arch, 2)
        inputs = rng.standard_normal((2, 16))
        targets = rng.standard_normal((2, 16))
        _, g1 = network.grad_backprop(params, inputs, targets)
        _, g2 = network.grad_backprop(params, np.vstack([inputs, inputs]), np.vstack([targets, targets]))
        for (a, ab), (b, bb) in zip(g1, g2):
            np.testing.assert_allclose(a, b, atol=1e-14)
            np.testing.assert_allclose(ab, bb, atol=1e-14)


class TestSgdMomentum:
    def test_zero_momentum_is_plain_sgd(self):
        params = zero_params(NetworkArch(grid=2, hidden=()))
        g = np.ones((1, 1, 3, 3))
        state = TrainState(lr=0.2, momentum=0.0)
        network.sgd_momentum_step(params, [(g, np.ones(1))], state)
        np.testing.assert_allclose(params.layers[0][0], -0.2 * g)
        np.testing.assert_allclose(params.layers[0][1], [-0.2])

    def test_zero_gradient_is_noop(self):
        params = network.init_network(NetworkArch(grid=2, hidden=()), 1)
        before = params.layers[0][0].copy()
        state = TrainState(lr=0.5, momentum=0.9)
        network.sgd_momentum_step(params, [(np.zeros((1, 1, 3, 3)), np.zeros(1))], state)
        np.testing.assert_array_equal(params.layers[0][0], before)

    def test_two_steps_unroll(self):
        params = zero_params(NetworkArch(grid=2, hidden=()))
        g = np.full((1, 1, 3, 3), 0.3)
        state = TrainState(lr=0.1, momentum=0.4)
        network.sgd_momentum_step(params, [(g, np.zeros(1))], state)
        network.sgd_momentum_step(params, [(g, np.zeros(1))], state)
        # displacement lr*g*(1 + (1+m)) after two constant-gradient steps
        np.testing.assert_allclose(-params.layers[0][0], 0.1 * g * (2 + 0.4), rtol=1e-14)

    def test_state_validation(self):
        with pytest.raises(ValueError):
            TrainState(lr=0.0, momentum=0.5)
        with pytest.raises(ValueError):
            TrainState(lr=0.1, momentum=1.0)

    def test_buffers_and_step_are_not_arguments(self):
        state = TrainState(lr=0.1, momentum=0.5)
        assert (state.buffers, state.step) == (None, 0)
        with pytest.raises(TypeError):
            TrainState(lr=0.1, momentum=0.5, step=3)


class TestLipschitz:
    def test_zero_network(self):
        assert network.lipschitz_upper_bound(zero_params(NetworkArch(grid=4, hidden=(2,)))) == 0.0

    def test_identity_layer(self):
        assert network.lipschitz_upper_bound(identity_params(6)) == pytest.approx(1.0, abs=1e-6)

    def test_bound_dominates_sampled_ratios(self, rng):
        arch = NetworkArch(grid=6, hidden=(4,))
        params = network.init_network(arch, 9)
        bound = network.lipschitz_upper_bound(params)
        for _ in range(100):
            a = rng.standard_normal(36)
            b = rng.standard_normal(36)
            ratio = np.linalg.norm(network.forward_batch(params, a) - network.forward_batch(params, b)) / np.linalg.norm(a - b)
            assert ratio <= bound

    def test_soundness_many_pairs(self, rng):
        arch = NetworkArch(grid=5, hidden=(3, 3))
        params = network.init_network(arch, 17)
        bound = network.lipschitz_upper_bound(params)
        a = rng.standard_normal((1000, 25))
        b = rng.standard_normal((1000, 25))
        num = np.linalg.norm(network.forward_batch(params, a) - network.forward_batch(params, b), axis=1)
        den = np.linalg.norm(a - b, axis=1)
        assert np.all(num <= bound * den)

    @pytest.mark.parametrize("hidden", [(4,), (4, 4), (2, 3)])
    @pytest.mark.parametrize("grid", [5, 6, 7, 8])
    def test_at_least_the_dense_layer_norms(self, hidden, grid):
        params = network.init_network(NetworkArch(grid=grid, hidden=hidden), grid)
        exact = 1.0
        for w, _ in params.layers:
            basis = np.eye(w.shape[1] * grid * grid).reshape(-1, w.shape[1], grid, grid)
            out, _ = network._conv3x3(basis.transpose(1, 0, 2, 3), w)
            dense = out.transpose(1, 0, 2, 3).reshape(len(basis), -1).T
            exact *= np.linalg.norm(dense, 2)
        assert network.lipschitz_upper_bound(params) >= exact


class TestTraining:
    def test_progress_on_kernel_completion_task(self, small_op, rng):
        # learn the kernel component of 10 random phantoms from their range part
        xs = rng.uniform(0, 1, (10, small_op.cols))
        kernel = np.stack([small_op.kernel_project(x) for x in xs])
        visible = xs - kernel
        arch = NetworkArch(grid=5, hidden=(6,))
        params = network.init_network(arch, 3)
        state = TrainState(lr=1e-4, momentum=0.9)
        before = network.grad_backprop(params, visible, kernel)[0]
        history = network.train(
            params, state, visible, kernel, epochs=200, batch_size=10, shuffle_seed=0
        )
        assert history[-1] < before

    def test_training_deterministic(self, rng):
        inputs = rng.standard_normal((6, 16))
        targets = rng.standard_normal((6, 16))
        runs = []
        for _ in range(2):
            params = network.init_network(NetworkArch(grid=4, hidden=(2,)), 7)
            state = TrainState(lr=1e-3, momentum=0.5)
            network.train(params, state, inputs, targets, epochs=3, batch_size=2, shuffle_seed=5)
            runs.append(params)
        for (w1, b1), (w2, b2) in zip(runs[0].layers, runs[1].layers):
            assert np.array_equal(w1, w2) and np.array_equal(b1, b2)

    def test_divergence_raises(self, rng):
        inputs = rng.standard_normal((4, 16)) * 10
        targets = rng.standard_normal((4, 16))
        params = network.init_network(NetworkArch(grid=4, hidden=(4,)), 1)
        state = TrainState(lr=1e6, momentum=0.99)
        with pytest.raises(FloatingPointError):
            network.train(params, state, inputs, targets, epochs=50, batch_size=4)

    def test_empty_training_set_rejected(self):
        params = network.init_network(NetworkArch(grid=3, hidden=()), 0)
        with pytest.raises(ValueError):
            network.train(params, TrainState(lr=1e-3, momentum=0.5), np.zeros((0, 9)), np.zeros((0, 9)))
