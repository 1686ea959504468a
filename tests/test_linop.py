import numpy as np
import pytest

from regnets import linop, radon
from regnets.linop import SvdOperator, svd_decompose


class TestDecompose:
    def test_identity(self):
        op = svd_decompose(np.eye(3))
        np.testing.assert_allclose(op.singular_values, [1, 1, 1])
        # singular vectors are the standard basis up to sign and order
        np.testing.assert_allclose(np.abs(op.image_vectors), np.eye(3), atol=1e-12)
        np.testing.assert_allclose(np.abs(op.data_vectors), np.eye(3), atol=1e-12)

    def test_diagonal_with_kernel(self):
        op = svd_decompose(np.diag([2.0, 0.0]))
        np.testing.assert_allclose(op.singular_values, [2.0, 0.0], atol=1e-15)
        assert op.rank == 1
        e2 = np.array([0.0, 1.0])
        np.testing.assert_allclose(op.kernel_project(e2), e2, atol=1e-12)

    def test_reconstruction_residual(self, rng):
        m = rng.standard_normal((6, 4))
        op = svd_decompose(m)
        rebuilt = (op.data_vectors * op.singular_values) @ op.image_vectors.T
        assert np.linalg.norm(m - rebuilt) / np.linalg.norm(m) <= 1e-10

    def test_orthonormal_systems(self, small_op):
        k = small_op.singular_values.size
        assert np.abs(small_op.image_vectors.T @ small_op.image_vectors - np.eye(k)).max() <= 1e-10
        assert np.abs(small_op.data_vectors.T @ small_op.data_vectors - np.eye(k)).max() <= 1e-10

    def test_descending_singular_values(self, small_op):
        sigma = small_op.singular_values
        assert np.all(np.diff(sigma) <= 0) and np.all(sigma >= 0)

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            svd_decompose(np.array([[1.0, np.nan]]))
        with pytest.raises(ValueError):
            svd_decompose(np.ones((2, 2)), rank_tol=0.0)
        with pytest.raises(ValueError):
            svd_decompose(np.ones((2, 2)), rank_tol=1.5)
        with pytest.raises(ValueError):
            svd_decompose(np.zeros((0, 3)))

    def test_sign_canonicalization_is_stable(self, rng):
        m = rng.standard_normal((7, 5))
        a = svd_decompose(m)
        b = svd_decompose(m)
        assert np.array_equal(a.image_vectors, b.image_vectors)
        assert np.array_equal(a.data_vectors, b.data_vectors)

    @pytest.mark.parametrize("sigma", [[1.0, 2.0], [1.0, -0.5], [np.nan, 1.0], [np.inf, 1.0]])
    def test_rejects_unordered_or_invalid_singular_values(self, sigma):
        with pytest.raises(ValueError):
            SvdOperator(np.eye(2), np.eye(2), np.eye(2), np.array(sigma), 1e-10)


# (grid_n, n_angles, n_detectors): odd grids, odd detector counts and even
# angle counts give orbits with non-trivial stabilisers on both sides, and
# (6, 5, 8) and (3, 2, 5) have blocks of both shapes, which supply fewer
# than min(rows, cols) singular pairs
FIXED_POINT_GEOMETRIES = [(5, 4, 7), (6, 5, 8), (16, 5, 16), (3, 2, 5)]
SHORT_BLOCK_GEOMETRIES = [(6, 5, 8), (3, 2, 5)]


def _geometry(shape):
    return radon.RadonGeometry(grid_n=shape[0], n_angles=shape[1], n_detectors=shape[2])


class TestSymmetryBlocks:
    @pytest.mark.parametrize("shape", FIXED_POINT_GEOMETRIES)
    def test_blockwise_matches_dense(self, shape):
        geom = _geometry(shape)
        a = radon.assemble_matrix(geom)
        dense = svd_decompose(a)
        blocks = svd_decompose(a, symmetries=geom.mirrors())
        k = min(a.shape)
        sigma_1 = dense.singular_values[0]
        assert np.abs(blocks.singular_values - dense.singular_values).max() <= 1e-13 * sigma_1
        assert blocks.rank == dense.rank
        rebuilt = (blocks.data_vectors * blocks.singular_values) @ blocks.image_vectors.T
        assert np.linalg.norm(rebuilt - a) <= 1e-13 * np.linalg.norm(a)
        for basis in (blocks.image_vectors, blocks.data_vectors):
            assert np.abs(basis.T @ basis - np.eye(k)).max() <= 1e-12
        r = dense.rank
        p_dense = dense.image_vectors[:, :r] @ dense.image_vectors[:, :r].T
        p_blocks = blocks.image_vectors[:, :r] @ blocks.image_vectors[:, :r].T
        assert np.linalg.norm(p_blocks - p_dense) <= 1e-10 * np.linalg.norm(p_dense)

    @pytest.mark.parametrize("shape", SHORT_BLOCK_GEOMETRIES)
    def test_short_blocks_factor_the_whole_matrix(self, shape):
        geom = _geometry(shape)
        a = radon.assemble_matrix(geom)
        row_perms, col_perms = linop._symmetry_group(a, geom.mirrors())
        blocks = linop._blocks(row_perms, col_perms, linop._characters(2))
        assert sum(min(r.shape[1], c.shape[1]) for _, r, _, c, _ in blocks) < min(a.shape)
        dense = svd_decompose(a)
        blocks = svd_decompose(a, symmetries=geom.mirrors())
        for name in ("singular_values", "image_vectors", "data_vectors"):
            assert np.array_equal(getattr(blocks, name), getattr(dense, name))

    @pytest.mark.parametrize("shape", FIXED_POINT_GEOMETRIES + [(8, 6, 10)])
    def test_block_sizes_sum_to_the_matrix(self, shape):
        geom = _geometry(shape)
        row_perms, col_perms = linop._symmetry_group(radon.assemble_matrix(geom), geom.mirrors())
        chars = linop._characters(2)
        assert chars.shape == (4, 4)
        rows = [linop._orbit_basis(row_perms, chi)[0].shape[1] for chi in chars]
        cols = [linop._orbit_basis(col_perms, chi)[0].shape[1] for chi in chars]
        assert sum(rows) == geom.rows and sum(cols) == geom.cols

    def test_tied_singular_values_keep_character_order(self):
        # every sigma is 1: the stable merge puts the 20 symmetric directions
        # (trivial character) before the 20 antisymmetric ones
        swap = np.arange(40) ^ 1
        op = svd_decompose(np.eye(40), symmetries=[(swap, swap)])
        u = op.image_vectors
        assert np.array_equal(op.singular_values, np.ones(40))
        assert np.array_equal(u[swap, :20], u[:, :20])
        assert np.array_equal(u[swap, 20:], -u[:, 20:])

    def test_wrong_pair_rejected(self):
        geom = _geometry((6, 4, 8))
        a = radon.assemble_matrix(geom)
        _, x_cols = geom.mirrors()[0]
        with pytest.raises(ValueError, match="changes the matrix"):
            svd_decompose(a, symmetries=[(np.arange(geom.rows), x_cols)])

    def test_malformed_pairs_rejected(self):
        geom = _geometry((4, 2, 4))
        a = radon.assemble_matrix(geom)
        x_flip, y_flip = geom.mirrors()
        ident = (np.arange(geom.rows), np.arange(geom.cols))
        shift = (np.roll(np.arange(geom.rows), 1), np.arange(geom.cols))
        for symmetries in ([ident], [x_flip, x_flip], [shift], [(x_flip[0][:-1], x_flip[1])], [x_flip[0]]):
            with pytest.raises(ValueError):
                svd_decompose(a, symmetries=symmetries)
        svd_decompose(a, symmetries=[y_flip, x_flip])

    def test_no_symmetries_is_one_block(self, rng):
        m = rng.standard_normal((9, 14))
        op = svd_decompose(m, symmetries=())
        np.testing.assert_allclose(op.singular_values, np.linalg.svd(m, compute_uv=False), rtol=1e-13)
        assert op.matrix is m

    @pytest.mark.parametrize("rows, cols", [(40, 25), (70_000, 9)])
    def test_vectorised_sign_rule_matches_the_column_loop(self, rng, rows, cols):
        # ties in magnitude (the first index wins), zero columns and negative
        # zeros; the second shape is done a few columns at a time
        u = rng.integers(-3, 4, (rows, cols)).astype(float)
        u[:, 3] = 0.0
        u[:, 4] = -0.0
        u[5, 6], u[9, 6] = -7.0, 7.0
        v = rng.standard_normal((30, cols))
        want_u, want_v = u.copy(), v.copy()
        for n in range(u.shape[1]):
            pivot = np.argmax(np.abs(want_u[:, n]))
            if want_u[pivot, n] < 0:
                want_u[:, n] = -want_u[:, n]
                want_v[:, n] = -want_v[:, n]
        linop._canonical_signs(u, v)
        assert np.array_equal(u, want_u) and np.array_equal(v, want_v)
        assert np.array_equal(np.signbit(u), np.signbit(want_u))


class TestPrefixRanks:
    def test_retained_rank_at_each_singular_value(self, small_op):
        for j, sigma in enumerate(small_op.singular_values[: small_op.rank]):
            assert small_op.retained_rank(float(sigma**2)) == j + 1

    def test_nothing_retained_above_the_spectrum(self, small_op):
        assert small_op.retained_rank(np.nextafter(small_op.sigma_max**2, np.inf)) == 0

    def test_never_more_than_rank(self):
        # sigma = 1e-12 lies below the cutoff though its square exceeds alpha
        op = svd_decompose(np.diag([1.0, 1e-12]))
        assert op.rank == 1
        assert op.retained_rank(1e-30) == 1


class TestForwardAdjoint:
    def test_forward_zero(self, small_op):
        np.testing.assert_array_equal(small_op.forward(np.zeros(small_op.cols)), np.zeros(small_op.rows))

    def test_forward_singular_vector(self, small_op):
        got = small_op.forward(small_op.image_vectors[:, 0])
        want = small_op.singular_values[0] * small_op.data_vectors[:, 0]
        np.testing.assert_allclose(got, want, atol=1e-12)

    def test_forward_matches_svd_sum(self, small_op, rng):
        x = rng.standard_normal(small_op.cols)
        coef = small_op.singular_values * (small_op.image_vectors.T @ x)
        want = small_op.data_vectors @ coef
        got = small_op.forward(x)
        assert np.linalg.norm(got - want) <= 1e-10 * np.linalg.norm(want)

    def test_dimension_mismatch(self, small_op):
        with pytest.raises(ValueError):
            small_op.forward(np.zeros(small_op.cols + 1))


class TestKernelProject:
    def test_kernel_vector_is_fixed(self, small_op, rng):
        x = small_op.kernel_project(rng.standard_normal(small_op.cols))
        np.testing.assert_allclose(small_op.kernel_project(x), x, atol=1e-12)

    def test_first_singular_vector_annihilated(self, small_op):
        got = small_op.kernel_project(small_op.image_vectors[:, 0])
        assert np.linalg.norm(got) <= 1e-10

    def test_forward_annihilates_projection(self, small_op, rng):
        for _ in range(5):
            r = small_op.kernel_project(rng.standard_normal(small_op.cols))
            assert np.linalg.norm(small_op.forward(r)) <= 1e-8 * small_op.sigma_max * np.linalg.norm(r)

    def test_complement_orthogonal_to_kernel(self, small_op, rng):
        x = rng.standard_normal(small_op.cols)
        r = small_op.kernel_project(x)
        kept = small_op.image_vectors[:, : small_op.rank]
        # x - r lies in the span of the kept directions
        resid = (x - r) - kept @ (kept.T @ (x - r))
        assert np.linalg.norm(resid) <= 1e-10 * np.linalg.norm(x)


class TestPowerApply:
    def test_half_power_on_singular_vector(self, small_op):
        got = small_op.power_apply(small_op.image_vectors[:, 0], 0.5)
        want = small_op.singular_values[0] * small_op.image_vectors[:, 0]
        np.testing.assert_allclose(got, want, atol=1e-12)

    def test_full_power_matches_normal_operator(self, small_op, rng):
        x = rng.standard_normal(small_op.cols)
        want = small_op.matrix.T @ small_op.forward(x)
        got = small_op.power_apply(x, 1.0)
        assert np.linalg.norm(got - want) <= 1e-10 * np.linalg.norm(want)

    def test_kernel_annihilated(self, small_op, rng):
        xk = small_op.kernel_project(rng.standard_normal(small_op.cols))
        assert np.linalg.norm(small_op.power_apply(xk, 1.0)) <= 1e-10 * np.linalg.norm(xk)

    def test_power_composition(self, small_op, rng):
        x = rng.standard_normal(small_op.cols)
        for p, q in [(0.5, 0.5), (0.3, 1.2), (1.0, 1.0)]:
            combined = small_op.power_apply(x, p + q)
            chained = small_op.power_apply(small_op.power_apply(x, p), q)
            assert np.linalg.norm(combined - chained) <= 1e-9 * np.linalg.norm(combined)

    def test_rejects_non_positive_mu(self, small_op):
        with pytest.raises(ValueError):
            small_op.power_apply(np.zeros(small_op.cols), 0.0)
        with pytest.raises(ValueError):
            small_op.power_apply(np.zeros(small_op.cols), -1.0)


class TestSpectralMultiply:
    def test_matches_the_sum_over_the_scaled_directions(self, small_op, rng):
        x = rng.standard_normal(small_op.cols)
        scale = np.array([2.0, -0.5, 0.25])
        u = small_op.image_vectors
        want = sum(scale[n] * (u[:, n] @ x) * u[:, n] for n in range(scale.size))
        np.testing.assert_allclose(small_op.spectral_multiply(x, scale), want, rtol=0, atol=1e-13)

    def test_stack_gives_the_rows_of_one_vector_at_a_time(self, small_op, rng):
        # GEMM and GEMV may round differently, so rows agree to rounding
        xs = rng.standard_normal((4, small_op.cols))
        scale = rng.standard_normal(small_op.rank)
        got = small_op.spectral_multiply(xs, scale)
        assert got.shape == xs.shape
        for x, row in zip(xs, got):
            np.testing.assert_allclose(row, small_op.spectral_multiply(x, scale), rtol=0, atol=1e-13)

    def test_rejects_a_wrong_length(self, small_op):
        with pytest.raises(ValueError):
            small_op.spectral_multiply(np.zeros((2, small_op.cols + 1)), np.ones(small_op.rank))


# an even grid whose blocks are all used: 4 characters on both sides
EVEN_GEOMETRY = (10, 6, 12)


def _operator(case):
    if case == "random":
        return svd_decompose(np.random.default_rng(5).standard_normal((15, 25)))
    geom = _geometry(case)
    return svd_decompose(radon.assemble_matrix(geom), symmetries=geom.mirrors())


def _scattered(blocks):
    """The full basis rebuilt from a side's block factors, one block at a time."""
    out = np.zeros((blocks.size, blocks.count))
    for s, (block, pairs) in enumerate(zip(blocks.blocks, blocks.pairs)):
        parts = [np.zeros((pairs.size, other.shape[0])) for other in blocks.blocks]
        parts[s] = block.T
        out[:, pairs] = blocks._scatter(parts).T
    return out


def _close(got, want):
    assert got.shape == want.shape
    assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)


class TestBlockProducts:
    @pytest.mark.parametrize("case", FIXED_POINT_GEOMETRIES + [EVEN_GEOMETRY, "random"])
    def test_products_match_the_sums_over_the_singular_vectors(self, case):
        op = _operator(case)
        u, v = op.image_vectors, op.data_vectors
        rng = np.random.default_rng(11)
        alpha = float(op.singular_values[op.rank // 2] ** 2)
        for r in (0, op.retained_rank(alpha), op.rank):
            for count in ((), (3,)):
                x = rng.standard_normal(count + (op.cols,))
                y = rng.standard_normal(count + (op.rows,))
                c = rng.standard_normal(count + (r,))
                x_coef = np.stack([x @ u[:, n] for n in range(r)], axis=-1) if r else np.zeros(count + (0,))
                y_coef = np.stack([y @ v[:, n] for n in range(r)], axis=-1) if r else np.zeros(count + (0,))
                synth = sum((c[..., n, None] * u[:, n] for n in range(r)), np.zeros(count + (op.cols,)))
                _close(op.image_coefficients(x, r), x_coef)
                _close(op.data_coefficients(y, r), y_coef)
                _close(op.synthesize(c), synth)

    @pytest.mark.parametrize("shape", FIXED_POINT_GEOMETRIES + [EVEN_GEOMETRY])
    def test_blocks_scatter_back_to_the_basis(self, shape, tmp_path):
        from regnets import storage

        op = _operator(shape)
        storage.write_operator(tmp_path / "op.rgn1", op)
        back = storage.read_operator(tmp_path / "op.rgn1")
        for each in (op, back):
            assert np.array_equal(_scattered(each._image_blocks), op.image_vectors)
            assert np.array_equal(_scattered(each._data_blocks), op.data_vectors)
        assert np.array_equal(back.characters, op.characters)
        assert len(back.symmetries) == len(op.symmetries)

    @pytest.mark.parametrize("shape", SHORT_BLOCK_GEOMETRIES)
    def test_fallback_records_the_trivial_group(self, shape):
        op = _operator(shape)
        assert op.symmetries == ()
        assert not np.any(op.characters)
        assert op._image_blocks.blocks[0] is op.image_vectors

    def test_five_arguments_build_the_one_block_operator(self):
        op = _operator(EVEN_GEOMETRY)
        assert len(op.symmetries) == 2
        plain = SvdOperator(op.matrix, op.image_vectors, op.data_vectors, op.singular_values, op.rank_tol)
        assert plain.symmetries == () and not np.any(plain.characters)
        # U and V as they are: no copy of either
        assert plain._image_blocks.blocks == [op.image_vectors] and plain._image_blocks.blocks[0] is op.image_vectors
        assert plain._data_blocks.blocks[0] is op.data_vectors
        x = np.random.default_rng(2).standard_normal((2, op.cols))
        _close(plain.project_out(x, op.rank), op.project_out(x, op.rank))

    def test_malformed_group_rejected(self):
        op = _operator(EVEN_GEOMETRY)
        (r0, c0), pair1 = op.symmetries
        parts = (op.matrix, op.image_vectors, op.data_vectors, op.singular_values, op.rank_tol)
        not_perm = c0.copy()
        not_perm[0] = not_perm[1]
        for symmetries, characters in (
            ([(r0[:-1], c0), pair1], op.characters),
            ([(r0, not_perm), pair1], op.characters),
            ([(r0, c0), pair1], np.full(op.characters.size, 4)),
            ([(r0, c0), pair1], op.characters[:-1]),
            ([(r0, c0)] * 9, op.characters),
        ):
            with pytest.raises(ValueError):
                SvdOperator(*parts, symmetries, characters)
        with pytest.raises(ValueError):
            op.synthesize(np.zeros(op.singular_values.size + 1))
