import numpy as np
import pytest

from regnets.filters import (
    FilterRegularizer,
    LandweberFilter,
    TikhonovFilter,
    TruncatedSvdFilter,
    make_filter,
    qualification_sup,
    verify_filter_axioms,
)


class ConstantFilter:
    """Negative control: g_alpha(lambda) = 1 never approximates 1/lambda."""

    name = "constant"

    def value(self, alpha, lam):
        return np.ones_like(np.asarray(lam, dtype=float))


class TestFilterValues:
    def test_tikhonov_midpoint(self):
        assert TikhonovFilter().value(1.0, 1.0) == 0.5

    def test_tsvd_cut(self):
        f = TruncatedSvdFilter()
        assert f.value(1.0, 0.5) == 0.0
        assert f.value(1.0, 2.0) == 0.5
        assert f.value(1.0, 1.0) == 1.0  # boundary keeps lambda >= alpha

    def test_landweber_single_step(self):
        # alpha = 1 gives k = 1, so g = beta regardless of lambda
        f = LandweberFilter(beta=1.0)
        assert f.value(1.0, 0.5) == 1.0

    def test_landweber_matches_geometric_sum(self):
        f = LandweberFilter(beta=0.7)
        for alpha, lam in [(0.3, 0.9), (0.05, 0.01), (0.001, 1.3), (0.02, 1e-12)]:
            k = f.iterations(alpha)
            expected = sum(f.beta * (1 - f.beta * lam) ** j for j in range(k))
            assert f.value(alpha, lam) == pytest.approx(expected, rel=1e-12)

    def test_rejects_negative_arguments(self):
        with pytest.raises(ValueError):
            TikhonovFilter().value(-1.0, 1.0)
        with pytest.raises(ValueError):
            TruncatedSvdFilter().value(1.0, -0.5)

    def test_factory(self):
        assert make_filter("tikhonov").name == "tikhonov"
        assert make_filter("tsvd").name == "tsvd"
        assert make_filter("landweber", beta=0.5).beta == 0.5
        with pytest.raises(ValueError):
            make_filter("unknown")


class TestApplyRegularizer:
    def test_tsvd_everything_cut(self, small_op, rng):
        reg = FilterRegularizer(small_op, TruncatedSvdFilter(), small_op.sigma_max**2 * 2)
        got = reg.apply(rng.standard_normal(small_op.rows))
        np.testing.assert_array_equal(got, np.zeros(small_op.cols))

    def test_tsvd_nothing_cut_equals_pseudo_inverse(self, tall_op, rng):
        sigma_min = tall_op.singular_values[: tall_op.rank][-1]
        reg = FilterRegularizer(tall_op, TruncatedSvdFilter(), 0.5 * sigma_min**2)
        x = rng.standard_normal(tall_op.cols)
        x -= tall_op.kernel_project(x)
        got = reg.apply(tall_op.forward(x))
        assert np.linalg.norm(got - x) <= 1e-8 * np.linalg.norm(x)

    def test_tikhonov_on_singular_vector(self, small_op):
        alpha = 0.3
        s1 = small_op.sigma_max
        reg = FilterRegularizer(small_op, TikhonovFilter(), alpha)
        got = reg.apply(s1 * small_op.data_vectors[:, 0])
        want = s1**2 / (s1**2 + alpha) * small_op.image_vectors[:, 0]
        np.testing.assert_allclose(got, want, atol=1e-12)

    @pytest.mark.parametrize("filt", [TikhonovFilter(), TruncatedSvdFilter(), LandweberFilter(0.01)])
    def test_matches_spectral_synthesis(self, small_op, rng, filt):
        for alpha in (1e-3, 0.1, 1.0):
            reg = FilterRegularizer(small_op, filt, alpha)
            r = small_op.rank
            sigma = small_op.singular_values[:r]
            synth = (
                small_op.image_vectors[:, :r]
                * (filt.value(alpha, sigma**2) * sigma)
            ) @ small_op.data_vectors[:, :r].T
            y = rng.standard_normal(small_op.rows)
            want = synth @ y
            got = reg.apply(y)
            assert np.linalg.norm(got - want) <= 1e-10 * max(np.linalg.norm(want), 1e-300)

    def test_monotone_cut_consistency(self, small_op):
        alphas = np.sort(small_op.singular_values[: small_op.rank] ** 2)[::2]
        previous = None
        for alpha in alphas[::-1]:  # descending alpha grows the retained set
            retained = set(range(small_op.retained_rank(alpha)))
            if previous is not None:
                assert previous <= retained
            previous = retained

    def test_dimension_mismatch(self, small_op):
        reg = FilterRegularizer(small_op, TikhonovFilter(), 0.1)
        with pytest.raises(ValueError):
            reg.apply(np.zeros(small_op.rows + 2))
        with pytest.raises(ValueError):
            reg.apply(np.zeros((3, small_op.rows + 2)))
        with pytest.raises(ValueError):
            reg.apply(np.zeros((2, 3, small_op.rows)))

    @pytest.mark.parametrize("filt", [TikhonovFilter(), TruncatedSvdFilter(), LandweberFilter(0.01)])
    def test_row_stack_matches_per_row(self, small_op, rng, filt):
        reg = FilterRegularizer(small_op, filt, 0.1)
        ys = rng.standard_normal((6, small_op.rows))
        got = reg.apply(ys)
        want = np.stack([reg.apply(y) for y in ys])
        assert np.all(np.linalg.norm(got - want, axis=1) <= 1e-13 * np.linalg.norm(want, axis=1))


class TestRegularizerNorm:
    def test_tsvd_inverse_of_smallest_kept(self, small_op):
        sigma = small_op.singular_values[: small_op.rank]
        alpha = float(sigma[len(sigma) // 2] ** 2)
        reg = FilterRegularizer(small_op, TruncatedSvdFilter(), alpha)
        kept_sigmas = sigma[sigma**2 >= alpha]
        assert reg.norm() == pytest.approx(1.0 / kept_sigmas[-1], rel=1e-12)

    def test_tikhonov_calculus_bound(self, small_op):
        for alpha in (1e-4, 1e-2, 1.0):
            reg = FilterRegularizer(small_op, TikhonovFilter(), alpha)
            sigma = small_op.singular_values[: small_op.rank]
            assert reg.norm() == pytest.approx(np.max(sigma / (sigma**2 + alpha)), rel=1e-12)
            assert reg.norm() <= 1.0 / (2.0 * np.sqrt(alpha)) + 1e-15

    def test_tsvd_alpha_beyond_spectrum(self, small_op):
        reg = FilterRegularizer(small_op, TruncatedSvdFilter(), 10.0 * small_op.sigma_max**2)
        assert reg.norm() == 0.0

    def test_landweber_step_validation(self, small_op):
        bad_beta = 2.0 / small_op.sigma_max**2
        with pytest.raises(ValueError):
            FilterRegularizer(small_op, LandweberFilter(bad_beta), 0.1)


class TestQualification:
    def test_tsvd_sup_approaches_alpha_power(self):
        f = TruncatedSvdFilter()
        for mu in (0.25, 0.5, 1.0, 2.0):
            for alpha in (1e-4, 1e-2, 0.5):
                sup = qualification_sup(f, alpha, mu, 2.0)
                assert sup <= alpha**mu * (1 + 1e-12)
                assert sup >= alpha**mu * (1 - 1e-9)

    def test_tikhonov_mu_one_bounded_by_alpha(self):
        f = TikhonovFilter()
        for alpha in (1e-5, 1e-3, 0.1):
            assert qualification_sup(f, alpha, 1.0, 2.0) <= alpha

    def test_tikhonov_interior_maximum(self):
        # analytic maximizer of lambda^mu alpha/(lambda+alpha)
        sup = qualification_sup(TikhonovFilter(), 0.01, 0.5, 1.0)
        assert sup == pytest.approx(0.5 * np.sqrt(0.01), rel=1e-6)

    @pytest.mark.parametrize(
        "filt,mus",
        [
            (TruncatedSvdFilter(), (0.25, 0.5, 1.0, 2.0)),
            (TikhonovFilter(), (0.25, 0.5, 1.0)),
            (LandweberFilter(0.5), (0.25, 0.5, 1.0, 2.0)),
        ],
    )
    def test_bounded_by_declared_constant(self, filt, mus):
        for mu in mus:
            constant = filt.constant(mu)
            for alpha in np.logspace(-6, 0, 7):
                sup = qualification_sup(filt, alpha, mu, 2.0)
                assert sup <= constant * alpha**mu * (1 + 1e-3)

    def test_constant_rejects_beyond_qualification(self):
        with pytest.raises(ValueError):
            TikhonovFilter().constant(1.5)

    @pytest.mark.parametrize("lambda_max", [0.0, -1.0, np.nan, np.inf])
    def test_lambda_max_validated(self, lambda_max):
        with pytest.raises(ValueError, match="lambda_max"):
            qualification_sup(TikhonovFilter(), 0.1, 0.5, lambda_max)


class TestAxioms:
    ALPHAS = np.logspace(-1, -6, 6)

    @pytest.mark.parametrize(
        "filt", [TikhonovFilter(), TruncatedSvdFilter(), LandweberFilter(0.5)]
    )
    def test_real_filters_pass(self, filt):
        report = verify_filter_axioms(filt, 2.0, self.ALPHAS)
        assert report.passed
        assert np.max(report.per_alpha_sup) <= 1.0 + 1e-12

    def test_tsvd_residual_exactly_zero_once_cut_passes(self):
        report = verify_filter_axioms(TruncatedSvdFilter(), 2.0, self.ALPHAS)
        # once alpha < lambda the filter equals 1/lambda exactly
        assert report.residuals[-1, -1] == 0.0

    def test_tikhonov_residual_closed_form(self):
        report = verify_filter_axioms(TikhonovFilter(), 2.0, self.ALPHAS)
        lam = report.probe_lambdas[-1]
        want = [a / (lam * (lam + a)) for a in self.ALPHAS]
        # the subtractive path |1/(lam+a) - 1/lam| loses ~6 digits at tiny a
        np.testing.assert_allclose(report.residuals[-1], want, rtol=1e-9)

    def test_constant_filter_flagged(self):
        report = verify_filter_axioms(ConstantFilter(), 2.0, self.ALPHAS)
        assert not report.convergent
        assert not report.passed

    def test_alpha_validation(self):
        with pytest.raises(ValueError):
            verify_filter_axioms(TikhonovFilter(), 1.0, [0.1, 0.2])

    @pytest.mark.parametrize("lambda_max", [0.0, -1.0, np.nan, np.inf])
    def test_lambda_max_validated(self, lambda_max):
        # at 0 every check held vacuously; at nan or inf every entry was nan
        with pytest.raises(ValueError, match="lambda_max"):
            verify_filter_axioms(TikhonovFilter(), lambda_max, self.ALPHAS)
