import numpy as np
import pytest

from regnets import network
from regnets.filters import TikhonovFilter, TruncatedSvdFilter
from regnets.linop import svd_decompose
from regnets.network import NetworkArch
from regnets.regnet import (
    CLASSICAL,
    CONTINUED,
    NULLSPACE,
    ReconstructionMethod,
    RegNetFamily,
    a3_residual,
    continued_svd_residual,
    nullspace_residual,
    residual_projection,
)


@pytest.fixture
def net(small_op):
    return network.init_network(NetworkArch(grid=5, hidden=(4,)), 3)


@pytest.fixture
def zero_net(small_op):
    params = network.init_network(NetworkArch(grid=5, hidden=(4,)), 0)
    for i, (w, b) in enumerate(params.layers):
        params.layers[i] = (np.zeros_like(w), np.zeros_like(b))
    return params


def mid_alpha(op):
    sigma = op.singular_values[: op.rank]
    return float(sigma[len(sigma) // 2] ** 2)


class TestResiduals:
    def test_nullspace_zero_network(self, small_op, zero_net, rng):
        got = nullspace_residual(small_op, zero_net, rng.standard_normal(small_op.cols))
        np.testing.assert_array_equal(got, np.zeros(small_op.cols))

    def test_nullspace_trivial_kernel(self, rng):
        m = rng.standard_normal((30, 9)) + 2 * np.eye(30, 9)
        op = svd_decompose(m)
        params = network.init_network(NetworkArch(grid=3, hidden=(2,)), 1)
        got = nullspace_residual(op, params, rng.standard_normal(9))
        assert np.linalg.norm(got) <= 1e-10

    def test_nullspace_forward_annihilation(self, small_op, net, rng):
        for _ in range(5):
            r = nullspace_residual(small_op, net, rng.standard_normal(small_op.cols))
            assert np.linalg.norm(small_op.forward(r)) <= 1e-8 * small_op.sigma_max * np.linalg.norm(r)

    def test_continued_empty_projection_set(self, rng):
        m = rng.standard_normal((30, 9)) + 2 * np.eye(30, 9)
        op = svd_decompose(m)  # trivial kernel
        params = network.init_network(NetworkArch(grid=3, hidden=(2,)), 1)
        alpha = 0.5 * float(op.singular_values[: op.rank][-1] ** 2)
        got = continued_svd_residual(op, alpha, params, rng.standard_normal(9))
        assert np.linalg.norm(got) <= 1e-10

    def test_continued_full_output_above_spectrum(self, small_op, net, rng):
        z = rng.standard_normal(small_op.cols)
        alpha = 2.0 * small_op.sigma_max**2
        got = continued_svd_residual(small_op, alpha, net, z)
        np.testing.assert_array_equal(got, network.forward_batch(net, z))

    def test_continued_orthogonal_to_retained(self, small_op, net, rng):
        alpha = mid_alpha(small_op)
        got = continued_svd_residual(small_op, alpha, net, rng.standard_normal(small_op.cols))
        u_retained = small_op.image_vectors[:, : small_op.retained_rank(alpha)]
        assert np.abs(u_retained.T @ got).max() <= 1e-10


    @pytest.mark.parametrize("variant", [NULLSPACE, CONTINUED])
    def test_row_projection_matches_per_vector_residual(self, small_op, net, rng, variant):
        alpha = float(small_op.singular_values[small_op.rank // 2] ** 2)
        zs = rng.standard_normal((5, small_op.cols))
        got = residual_projection(variant, small_op, alpha)(network.forward_batch(net, zs))
        if variant == NULLSPACE:
            want = np.stack([nullspace_residual(small_op, net, z) for z in zs])
        else:
            want = np.stack([continued_svd_residual(small_op, alpha, net, z) for z in zs])
        assert np.all(np.linalg.norm(got - want, axis=1) <= 1e-13 * np.linalg.norm(want, axis=1))


class TestReconstruct:
    def test_zero_data_zero_network(self, small_op, zero_net):
        for variant, params in ((CLASSICAL, None), (NULLSPACE, zero_net), (CONTINUED, zero_net)):
            m = ReconstructionMethod(variant, small_op, TruncatedSvdFilter(), 0.1, params)
            np.testing.assert_array_equal(m.reconstruct(np.zeros(small_op.rows)), np.zeros(small_op.cols))

    def test_continued_preserves_retained_coefficients(self, small_op, net, rng):
        alpha = mid_alpha(small_op)
        cont = ReconstructionMethod(CONTINUED, small_op, TruncatedSvdFilter(), alpha, net)
        base = ReconstructionMethod(CLASSICAL, small_op, TruncatedSvdFilter(), alpha)
        y = rng.standard_normal(small_op.rows)
        # retained coefficients come out of the same floating-point path
        assert np.array_equal(cont.retained_coefficients(y), base.retained_coefficients(y))
        # and the assembled vectors agree on those directions to roundoff
        u = small_op.image_vectors[:, : small_op.retained_rank(alpha)]
        assert np.abs(u.T @ cont.reconstruct(y) - u.T @ base.reconstruct(y)).max() <= 1e-12

    def test_nullspace_residual_invisible_to_forward(self, small_op, net, rng):
        alpha = mid_alpha(small_op)
        m = ReconstructionMethod(NULLSPACE, small_op, TruncatedSvdFilter(), alpha, net)
        base = ReconstructionMethod(CLASSICAL, small_op, TruncatedSvdFilter(), alpha)
        y = rng.standard_normal(small_op.rows)
        diff = m.reconstruct(y) - base.reconstruct(y)
        assert np.linalg.norm(small_op.forward(diff)) <= 1e-8 * small_op.sigma_max * np.linalg.norm(diff)

    def test_zero_network_degeneracy(self, small_op, zero_net, rng):
        alpha = mid_alpha(small_op)
        y = rng.standard_normal(small_op.rows)
        recs = [
            ReconstructionMethod(v, small_op, TruncatedSvdFilter(), alpha, p).reconstruct(y)
            for v, p in ((CLASSICAL, None), (NULLSPACE, zero_net), (CONTINUED, zero_net))
        ]
        assert np.array_equal(recs[0], recs[1]) and np.array_equal(recs[0], recs[2])

    def test_missing_params_rejected(self, small_op):
        with pytest.raises(ValueError):
            ReconstructionMethod(NULLSPACE, small_op, TruncatedSvdFilter(), 0.1)
        with pytest.raises(ValueError):
            ReconstructionMethod("bogus", small_op, TruncatedSvdFilter(), 0.1)


class TestA3Residual:
    def test_continued_vanishes(self, small_op, net, rng):
        m = ReconstructionMethod(CONTINUED, small_op, TruncatedSvdFilter(), mid_alpha(small_op), net)
        for _ in range(20):
            assert a3_residual(m, rng.standard_normal(small_op.cols)) <= 1e-12

    def test_classical_is_zero(self, small_op, rng):
        m = ReconstructionMethod(CLASSICAL, small_op, TikhonovFilter(), 0.05)
        assert a3_residual(m, rng.standard_normal(small_op.cols)) == 0.0

    def test_nullspace_kernel_annihilated(self, small_op, net, rng):
        m = ReconstructionMethod(NULLSPACE, small_op, TruncatedSvdFilter(), mid_alpha(small_op), net)
        x = rng.standard_normal(small_op.cols)
        assert a3_residual(m, x) <= 1e-10 * max(np.linalg.norm(x), 1.0)

    def test_tikhonov_regnet_measured_only(self, small_op, net, rng):
        # no rate claim for this combination; the scalar is merely finite
        m = ReconstructionMethod(NULLSPACE, small_op, TikhonovFilter(), 0.05, net)
        value = a3_residual(m, rng.standard_normal(small_op.cols))
        assert np.isfinite(value) and value >= 0.0


class TestFamily:
    def _family(self, op, params, alphas):
        members = [(a, params) for a in alphas]
        cap = network.lipschitz_upper_bound(params) + 1.0
        return RegNetFamily(NULLSPACE, op, TruncatedSvdFilter(), members, lipschitz_cap=cap)

    def test_alpha_ordering_enforced(self, small_op, net):
        with pytest.raises(ValueError):
            self._family(small_op, net, [0.1, 0.5])

    def test_nearest_member(self, small_op, net):
        family = self._family(small_op, net, [1.0, 0.1, 0.01])
        assert family.nearest(0.09).alpha == 0.1
        assert family.nearest(5.0).alpha == 1.0
