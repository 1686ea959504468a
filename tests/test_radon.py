import warnings

import mpmath
import numpy as np
import pytest
from scipy.integrate import quad

from regnets import radon
from regnets.linop import svd_decompose
from regnets.radon import RadonGeometry


def series_i0(x, tol=1e-10):
    """Independent power-series evaluation of I0 (all-positive terms)."""
    t = 0.25 * x * x
    term, acc = 1.0, 1.0
    k = 0
    while term > tol * acc:
        k += 1
        term *= t / (k * k)
        acc += term
    return acc


def quad_line_integral(s, a, rho):
    half = np.sqrt(max(a * a - s * s, 0.0))
    if half == 0.0:
        return 0.0
    val, _ = quad(
        lambda t: radon.kb_value(np.hypot(s, t), a, rho),
        -half, half, epsabs=0.0, epsrel=1e-12, limit=200,
    )
    return val


def besseli0(x) -> float:
    return float(mpmath.besseli(0, x))


class TestBlobClosedForm:
    A = 0.055

    def test_against_mpmath(self):
        # the profile and its line integral against their closed forms in mpmath
        for rho in (3.0, 7.0, 12.5):
            norm = mpmath.besseli(0, rho)
            for t in np.linspace(-1.0, 1.0, 41):
                root = mpmath.sqrt(1 - mpmath.mpf(float(t)) ** 2)
                profile = float(mpmath.besseli(0, rho * root) / norm)
                assert radon.kb_value(abs(t) * self.A, self.A, rho) == pytest.approx(profile, rel=1e-12)
                if abs(t) < 1.0:
                    line = float(2 * self.A / (rho * norm) * mpmath.sinh(rho * root))
                    assert radon.kb_line_integral(t * self.A, self.A, rho) == pytest.approx(line, rel=1e-12)


class TestBlobProfile:
    A, RHO = 0.055, 7.0

    def test_center_value(self):
        assert radon.kb_value(0.0, self.A, self.RHO) == 1.0

    def test_edge_value(self):
        want = 1.0 / besseli0(self.RHO)
        assert radon.kb_value(self.A, self.A, self.RHO) == pytest.approx(want, rel=1e-14)

    def test_outside_support(self):
        assert radon.kb_value(self.A * 1.0001, self.A, self.RHO) == 0.0

    def test_normaliser_follows_rho(self):
        for rho in (self.RHO, 3.0, self.RHO, 3.0):
            want = 1.0 / besseli0(rho)
            assert radon.kb_value(self.A, self.A, rho) == pytest.approx(want, rel=1e-14)

    def test_half_radius_matches_series(self):
        r = self.A / 2
        arg = self.RHO * np.sqrt(1 - (r / self.A) ** 2)
        want = series_i0(arg) / series_i0(self.RHO)
        assert radon.kb_value(r, self.A, self.RHO) == pytest.approx(want, rel=1e-10)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            radon.kb_value(0.0, -1.0, 7.0)


class TestLineIntegral:
    A, RHO = 0.055, 7.0

    def test_outside_support_is_zero(self):
        assert radon.kb_line_integral(self.A, self.A, self.RHO) == 0.0
        assert radon.kb_line_integral(-2 * self.A, self.A, self.RHO) == 0.0

    def test_center_matches_quadrature(self):
        want = quad_line_integral(0.0, self.A, self.RHO)
        assert radon.kb_line_integral(0.0, self.A, self.RHO) == pytest.approx(want, rel=1e-10)

    def test_even_symmetry_exact(self, rng):
        s = rng.uniform(0, self.A, 50)
        np.testing.assert_array_equal(
            radon.kb_line_integral(s, self.A, self.RHO),
            radon.kb_line_integral(-s, self.A, self.RHO),
        )

    def test_quadrature_agreement_sampled(self, rng):
        ss = rng.uniform(-self.A, self.A, 100)
        for s in ss:
            want = quad_line_integral(float(s), self.A, self.RHO)
            got = radon.kb_line_integral(float(s), self.A, self.RHO)
            assert got == pytest.approx(want, rel=1e-6)


class TestAssembly:
    def test_blob_on_line(self):
        geom = RadonGeometry(grid_n=3, n_angles=1, n_detectors=3, detector_min=-1.0, detector_max=1.0)
        a = radon.assemble_matrix(geom)
        # angle 0 line with offset -1 passes through the centers with x = -1
        centers = geom.grid_centers()
        through = np.flatnonzero(centers[:, 0] == -1.0)
        want = radon.kb_line_integral(0.0, geom.kb_support, geom.kb_shape)
        np.testing.assert_allclose(a[0, through], want, rtol=1e-14)

    def test_far_blobs_give_zero_angle_block(self):
        # detectors far outside the unit square never meet any blob
        geom = RadonGeometry(grid_n=4, n_angles=2, n_detectors=3, detector_min=2.0, detector_max=3.0)
        a = radon.assemble_matrix(geom)
        np.testing.assert_array_equal(a, np.zeros_like(a))

    def test_matches_continuous_radon_quadrature(self, rng):
        geom = RadonGeometry(grid_n=8, n_angles=4, n_detectors=10)
        a = radon.assemble_matrix(geom)
        c = rng.uniform(0.0, 1.0, geom.cols)
        y = a @ c
        centers = geom.grid_centers()

        def f(point):
            r = np.hypot(centers[:, 0] - point[0], centers[:, 1] - point[1])
            return float(c @ radon.kb_value(r, geom.kb_support, geom.kb_shape))

        angles, offsets = geom.angles(), geom.detector_offsets()
        rows = np.argsort(-np.abs(y))[:5]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            for row in rows:
                k, j = divmod(int(row), geom.n_detectors)
                omega = np.array([np.cos(angles[k]), np.sin(angles[k])])
                perp = np.array([-omega[1], omega[0]])
                want, _ = quad(
                    lambda t: f(offsets[j] * omega + t * perp),
                    -1.6, 1.6, epsabs=1e-13, epsrel=1e-10, limit=500,
                )
                assert y[row] == pytest.approx(want, rel=1e-5)

    def test_point_symmetry(self, rng):
        geom = RadonGeometry(grid_n=5, n_angles=3, n_detectors=7)
        a = radon.assemble_matrix(geom)
        centers = geom.grid_centers()
        offsets = geom.detector_offsets()
        # entry for (theta, s, x) equals the entry for (theta, -s, -x)
        for k in range(geom.n_angles):
            for j, s in enumerate(offsets):
                j_neg = np.argmin(np.abs(offsets + s))
                assert abs(offsets[j_neg] + s) < 1e-12
                for i in range(geom.cols):
                    i_neg = int(np.argmin(np.hypot(centers[:, 0] + centers[i, 0], centers[:, 1] + centers[i, 1])))
                    row, row_neg = k * geom.n_detectors + j, k * geom.n_detectors + j_neg
                    assert abs(a[row, i] - a[row_neg, i_neg]) <= 1e-12

    @pytest.mark.parametrize("shape", [(5, 4, 7), (6, 5, 8), (4, 1, 3)])
    def test_mirrors_map_each_line_to_its_mirror_image(self, shape):
        geom = RadonGeometry(grid_n=shape[0], n_angles=shape[1], n_detectors=shape[2])
        a = radon.assemble_matrix(geom)
        centers = geom.grid_centers()
        theta = np.repeat(geom.angles(), geom.n_detectors)
        s = np.tile(geom.detector_offsets(), geom.n_angles)
        lines = np.column_stack([np.cos(theta), np.sin(theta), s])
        mirrors = geom.mirrors()
        assert len(mirrors) == 2
        for (rows, cols), flip in zip(mirrors, ([-1.0, 1.0], [1.0, -1.0])):
            np.testing.assert_allclose(centers[cols], centers * flip, atol=1e-15)
            # the line <x, omega> = s goes to <x, flip * omega> = s, up to the sign of (omega, s)
            want = lines * np.append(flip, 1.0)
            got = lines[rows]
            same = np.all(np.abs(got - want) <= 1e-12, axis=1)
            negated = np.all(np.abs(got + want) <= 1e-12, axis=1)
            assert np.all(same | negated)
            assert np.max(np.abs(a[rows][:, cols] - a)) <= 1e-12 * np.max(np.abs(a))

    def test_off_centre_detector_has_no_mirrors(self):
        geom = RadonGeometry(grid_n=6, n_angles=4, n_detectors=9, detector_min=-1.2, detector_max=1.5)
        assert geom.mirrors() == ()
        a = radon.assemble_matrix(geom)
        op = svd_decompose(a, symmetries=geom.mirrors())
        rebuilt = (op.data_vectors * op.singular_values) @ op.image_vectors.T
        assert np.linalg.norm(rebuilt - a) <= 1e-13 * np.linalg.norm(a)
        centred = RadonGeometry(grid_n=6, n_angles=4, n_detectors=9)
        with pytest.raises(ValueError):
            svd_decompose(a, symmetries=centred.mirrors())

    def test_deterministic(self):
        geom = RadonGeometry(grid_n=6, n_angles=3, n_detectors=5)
        assert np.array_equal(radon.assemble_matrix(geom), radon.assemble_matrix(geom))

    def test_geometry_validation(self):
        with pytest.raises(ValueError):
            RadonGeometry(grid_n=0)
        with pytest.raises(ValueError):
            RadonGeometry(detector_min=1.0, detector_max=-1.0)

    def test_paper_scale_dimensions(self):
        # the paper's geometry is set by its keys, like any other
        geom = RadonGeometry(grid_n=128, n_angles=30, n_detectors=200)
        assert (geom.rows, geom.cols) == (6000, 16384)
        assert geom.angles()[0] == 0.0 and geom.angles()[-1] < np.pi

    def test_desk_scale_dimensions(self):
        geom = RadonGeometry()
        assert (geom.rows, geom.cols) == (960, 4096)


class TestPhantoms:
    def test_deterministic(self):
        a = radon.gen_phantom(5, 16)
        b = radon.gen_phantom(5, 16)
        assert np.array_equal(a.coeffs, b.coeffs)
        assert a.ellipses == b.ellipses

    def test_values_in_unit_interval(self):
        for seed in range(20):
            c = radon.gen_phantom(seed, 16).coeffs
            assert c.min() >= 0.0 and c.max() <= 1.0

    def test_count_range_respected(self):
        for seed in range(10):
            p = radon.gen_phantom(seed, 8)
            assert 5 <= len(p.ellipses) <= 10


class TestNoise:
    def test_zero_delta_copies(self, rng):
        y = rng.standard_normal(30)
        got = radon.add_noise(y, 0.0, 3)
        assert np.array_equal(got, y) and got is not y

    def test_zero_signal_untouched(self):
        np.testing.assert_array_equal(radon.add_noise(np.zeros(10), 0.05, 3), np.zeros(10))

    def test_scale_identity_per_seed(self, rng):
        # y_delta - y = delta * max|y| * g exactly, so the max-ratio equals
        # delta * max|g| with g regenerated from the same seed
        y = rng.standard_normal(50)
        ratios = []
        for seed in range(100):
            noisy = radon.add_noise(y, 0.05, seed)
            g = np.random.default_rng(seed).standard_normal(50)
            want = 0.05 * np.max(np.abs(y)) * g
            np.testing.assert_allclose(noisy - y, want, atol=1e-15)
            ratios.append(np.max(np.abs(noisy - y)) / np.max(np.abs(y)) / 0.05)
        # concentration around the expected maximum of 50 standard normals
        assert 1.5 < np.mean(ratios) < 3.5

    def test_exact_norm(self, rng):
        y = rng.standard_normal(40)
        for delta in (1e-6, 1e-2, 1.0):
            z = radon.add_noise_exact(y, delta, 7) - y
            assert np.linalg.norm(z) == pytest.approx(delta, rel=1e-12)

    def test_negative_delta_rejected(self):
        with pytest.raises(ValueError):
            radon.add_noise(np.ones(3), -0.1, 0)
