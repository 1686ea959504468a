import numpy as np
import pytest

from conftest import projected_gradient_distance
from regnets import network, radon
from regnets.analysis import (
    SourceCondition,
    distance_function,
    error_bound_terms,
    evaluate_testset,
    fit_loglog_slope,
    param_choice,
    rate_experiment,
    rescale_unit,
    source_element,
)
from regnets.filters import TikhonovFilter, TruncatedSvdFilter
from regnets.linop import SvdOperator, svd_decompose
from regnets.network import NetworkArch
from regnets.regnet import CLASSICAL, CONTINUED, NULLSPACE, ReconstructionMethod, RegNetFamily


def classical(op, alpha, filt=None):
    return ReconstructionMethod(CLASSICAL, op, filt or TruncatedSvdFilter(), alpha)


class TestDistanceFunction:
    def test_zero_on_source_representable(self, small_op, rng):
        sc = SourceCondition(mu=0.5, rho=2.0)
        w = rng.standard_normal(small_op.cols)
        w *= 1.5 / np.linalg.norm(w)
        x = small_op.power_apply(w, sc.mu)
        assert distance_function(classical(small_op, 0.1), x, sc) <= 1e-10

    def test_source_element_is_in_the_source_set(self, small_op):
        sc = SourceCondition(mu=0.7, rho=0.3)
        x = source_element(small_op, sc, 5)
        w = np.random.default_rng(5).standard_normal(small_op.cols)
        np.testing.assert_array_equal(x, small_op.power_apply(w * (sc.rho / np.linalg.norm(w)), sc.mu))
        assert distance_function(classical(small_op, 0.1), x, sc) <= 1e-10

    def test_kernel_element_keeps_full_norm(self, small_op, rng):
        sc = SourceCondition(mu=0.5, rho=5.0)
        x = small_op.kernel_project(rng.standard_normal(small_op.cols))
        got = distance_function(classical(small_op, 0.1), x, sc)
        assert got == pytest.approx(np.linalg.norm(x), rel=1e-12)

    def test_against_projected_gradient_oracle(self, small_op, rng):
        for trial in range(25):
            r = rng.standard_normal(small_op.cols)
            sc = SourceCondition(mu=float(rng.uniform(0.3, 1.5)), rho=float(rng.uniform(0.05, 0.5)))
            got = distance_function(classical(small_op, 0.1), r, sc)
            want = projected_gradient_distance(small_op, r, sc.mu, sc.rho)
            assert got == pytest.approx(want, rel=1e-6)

    def test_non_increasing_in_rho(self, small_op, rng):
        x = rng.standard_normal(small_op.cols)
        m = classical(small_op, 0.1)
        values = [
            distance_function(m, x, SourceCondition(mu=0.5, rho=rho))
            for rho in (0.01, 0.1, 1.0, 10.0)
        ]
        assert all(b <= a + 1e-12 for a, b in zip(values, values[1:]))

    def test_unconstrained_regime_returns_kernel_mass(self, small_op, rng):
        sc = SourceCondition(mu=0.5, rho=1e9)  # ball never binds
        x = rng.standard_normal(small_op.cols)
        got = distance_function(classical(small_op, 0.1), x, sc)
        want = np.linalg.norm(small_op.kernel_project(x))
        assert got == pytest.approx(want, rel=1e-9, abs=1e-12)

    @pytest.mark.parametrize("rho", [1e9, 0.05], ids=["kernel-mass", "ball-binds"])
    def test_blocks_give_the_one_block_distance(self, tiny_radon_op, rho):
        # the mirror blocks against the same singular system used as one block
        op = tiny_radon_op
        assert len(op.symmetries) == 2
        one_block = SvdOperator(op.matrix, op.image_vectors, op.data_vectors, op.singular_values, op.rank_tol)
        params = network.init_network(NetworkArch(grid=16, hidden=(2,)), 4)
        alpha = float(op.singular_values[op.rank // 2] ** 2)
        sc = SourceCondition(mu=0.5, rho=rho)
        x = np.random.default_rng(8).standard_normal(op.cols)
        for variant, net in ((CLASSICAL, None), (CONTINUED, params), (NULLSPACE, params)):
            got, want = (
                distance_function(ReconstructionMethod(variant, o, TruncatedSvdFilter(), alpha, net), x, sc)
                for o in (op, one_block)
            )
            assert got == pytest.approx(want, rel=1e-12)


class TestErrorBound:
    def test_noise_free_exact_source_all_terms_vanish(self, tall_op, rng):
        sc = SourceCondition(mu=0.5, rho=1.0)
        w = rng.standard_normal(tall_op.cols)
        w *= sc.rho / np.linalg.norm(w)
        x = tall_op.power_apply(w, sc.mu)
        sigma_min = tall_op.singular_values[: tall_op.rank][-1]
        alpha = 0.5 * sigma_min**2  # nothing truncated
        m = classical(tall_op, alpha)
        terms = error_bound_terms(m, x, tall_op.forward(x), 0.0, sc, 0.0)
        assert terms.noise_term == 0.0
        assert terms.dist_term <= 1e-10
        assert terms.a3_term == 0.0
        assert terms.lhs <= 1e-8

    def test_approximation_constant_is_the_filters(self, small_op, rng):
        # Tikhonov at mu = 0.5 has C = 0.5^0.5 * 0.5^0.5 = 0.5, not TSVD's 1
        sc = SourceCondition(mu=0.5, rho=1.0)
        alpha = 0.1
        x = rng.standard_normal(small_op.cols)
        m = classical(small_op, alpha, TikhonovFilter())
        terms = error_bound_terms(m, x, small_op.forward(x), 0.0, sc, 0.0)
        assert terms.approx_term == pytest.approx(0.5 * sc.rho * alpha**0.5, rel=1e-12)
        assert terms.lhs <= terms.rhs + 1e-9

    def test_continued_a3_term_zero(self, small_op, rng):
        sc = SourceCondition(mu=0.5, rho=1.0)
        params = network.init_network(NetworkArch(grid=5, hidden=(3,)), 2)
        sigma = small_op.singular_values[: small_op.rank]
        alpha = float(sigma[len(sigma) // 2] ** 2)
        m = ReconstructionMethod(CONTINUED, small_op, TruncatedSvdFilter(), alpha, params)
        x = rng.standard_normal(small_op.cols)
        y = small_op.forward(x)
        terms = error_bound_terms(m, x, y, 0.0, sc, network.lipschitz_upper_bound(params))
        assert terms.a3_term <= 1e-12

    def test_randomized_instances_respect_bound(self, small_op, rng):
        sc = SourceCondition(mu=0.5, rho=1.0)
        params = network.init_network(NetworkArch(grid=5, hidden=(3,)), 2)
        lip = network.lipschitz_upper_bound(params)
        sigma = small_op.singular_values[: small_op.rank]
        for trial in range(30):
            alpha = float(rng.choice(sigma) ** 2)
            variant = [CLASSICAL, NULLSPACE, CONTINUED][trial % 3]
            m = ReconstructionMethod(
                variant, small_op, TruncatedSvdFilter(), alpha,
                None if variant == CLASSICAL else params,
            )
            x = rng.standard_normal(small_op.cols)
            delta = float(10 ** rng.uniform(-4, -1))
            y = small_op.forward(x)
            z = rng.standard_normal(small_op.rows)
            y_delta = y + delta * rng.uniform(0.1, 1.0) * z / np.linalg.norm(z)
            terms = error_bound_terms(m, x, y_delta, delta, sc, 0.0 if variant == CLASSICAL else lip)
            assert terms.lhs <= terms.rhs + 1e-9

    def test_misfit_precondition(self, small_op, rng):
        sc = SourceCondition(mu=0.5, rho=1.0)
        x = rng.standard_normal(small_op.cols)
        y_far = small_op.forward(x) + 1.0
        with pytest.raises(ValueError):
            error_bound_terms(classical(small_op, 0.1), x, y_far, 1e-6, sc, 0.0)

    def test_qualification_precondition(self, small_op, rng):
        sc = SourceCondition(mu=1.5, rho=1.0)  # above Tikhonov's order
        x = rng.standard_normal(small_op.cols)
        y = small_op.forward(x)
        with pytest.raises(ValueError):
            error_bound_terms(classical(small_op, 0.1, TikhonovFilter()), x, y, 0.0, sc, 0.0)


class TestParamChoice:
    def test_exponent_one_at_half_smoothness(self):
        assert param_choice(1e-4, SourceCondition(mu=0.5, rho=1.0)) == pytest.approx(1e-4)

    def test_exponent_two_thirds(self):
        got = param_choice(1e-3, SourceCondition(mu=1.0, rho=1.0))
        assert got == pytest.approx(1e-2, rel=1e-12)

    def test_monotone_in_delta(self):
        sc = SourceCondition(mu=0.7, rho=1.0)
        deltas = np.logspace(-1, -8, 12)
        alphas = [param_choice(d, sc) for d in deltas]
        assert all(b < a for a, b in zip(alphas, alphas[1:]))

    def test_rejects_zero_delta(self):
        with pytest.raises(ValueError):
            param_choice(0.0, SourceCondition(mu=0.5, rho=1.0))


class TestRateExperiment:
    def test_degenerate_delta_list_rejected(self, small_op):
        sc = SourceCondition(mu=0.5, rho=1.0)
        with pytest.raises(ValueError):
            rate_experiment(small_op, TruncatedSvdFilter(), sc, [1e-3, 1e-4], seed=0)
        with pytest.raises(ValueError):
            rate_experiment(small_op, TruncatedSvdFilter(), sc, [1e-3, 2e-3, 3e-3], seed=0)

    def test_exactly_three_decades_accepted(self, tiny_radon_op):
        # 1e-2 / 1e-5 rounds to 999.9999999999999
        deltas = [1e-5, 1e-4, 1e-3, 1e-2]
        report = rate_experiment(tiny_radon_op, TruncatedSvdFilter(), SourceCondition(mu=0.5, rho=1.0), deltas, seed=0)
        assert [r.delta for r in report.rows] == deltas

    def test_non_positive_delta_rejected(self, tiny_radon_op):
        # a noise level <= 0 has no a-priori alpha and no place on the log-log fit
        sc = SourceCondition(mu=0.5, rho=1.0)
        for bad in (0.0, -1e-4):
            deltas = [bad] + list(np.logspace(-6, -2, 5))
            with pytest.raises(ValueError, match="positive"):
                rate_experiment(tiny_radon_op, TruncatedSvdFilter(), sc, deltas, seed=0, scale=10.0)

    def test_rows_sorted_by_delta(self, tiny_radon_op):
        sc = SourceCondition(mu=0.5, rho=1.0)
        report = rate_experiment(
            tiny_radon_op, TruncatedSvdFilter(), sc, [1e-2, 1e-6, 1e-4, 1e-3, 1e-5], seed=0, scale=10.0
        )
        deltas = [r.delta for r in report.rows]
        assert deltas == sorted(deltas)

    @pytest.mark.parametrize("variant", [NULLSPACE, CONTINUED])
    def test_learned_family_converges(self, tiny_radon_op, variant):
        params = network.init_network(NetworkArch(grid=16, hidden=(2,)), 4)
        alphas = [1e-1, 1e-2, 1e-3, 1e-4, 1e-5, 1e-7]
        family = RegNetFamily(
            variant, tiny_radon_op, TruncatedSvdFilter(), [(a, params) for a in alphas],
            lipschitz_cap=network.lipschitz_upper_bound(params),
        )
        sc = SourceCondition(mu=0.5, rho=1.0)
        deltas = [0.1, 0.05, 0.02, 0.01, 0.005, 1e-4, 1e-6, 1e-8]
        report = rate_experiment(
            tiny_radon_op, TruncatedSvdFilter(), sc, deltas, seed=0, family=family
        )
        assert all(r.alpha in alphas for r in report.rows)
        errors = [r.error for r in report.rows]
        assert errors[0] < 0.1 * errors[-1]
        assert np.isfinite(report.slope) and report.slope > 0

    def test_fit_loglog_residual(self):
        slope, resid = fit_loglog_slope([1e-3, 1e-2, 1e-1], [2e-3, 2e-2, 2e-1])
        assert slope == pytest.approx(1.0, rel=1e-12)
        assert resid <= 1e-12


class IdentityOracle:
    """Test double: returns the ground truth regardless of the data."""

    alpha = 1.0
    kept_count = 0

    def __init__(self, truths):
        self._iter = iter(truths)

    def reconstruct(self, y):
        return next(self._iter)


class TestEvaluateTestset:
    def _testset(self, op, rng, count=4):
        truths = [radon.gen_phantom(100 + i, int(round(op.cols**0.5))).coeffs for i in range(count)]
        sinograms = [op.forward(c) for c in truths]
        return truths, sinograms

    def test_identity_oracle_scores_zero(self, tiny_radon_op, rng):
        truths, sinograms = self._testset(tiny_radon_op, rng)
        report = evaluate_testset([IdentityOracle(truths)], truths, sinograms, 0.05, seed=1)
        assert report.rows[0].mse == 0.0
        assert report.rows[0].mae == 0.0

    def test_duplicated_item_leaves_mean_unchanged(self, tiny_radon_op, rng):
        truths, sinograms = self._testset(tiny_radon_op, rng, count=1)
        m = classical(tiny_radon_op, 1e-3)
        single = evaluate_testset([m], truths, sinograms, 0.05, seed=1)
        repeated = evaluate_testset([m], truths * 5, sinograms * 5, 0.05, seed=1)
        assert single.rows[0].mse == repeated.rows[0].mse
        assert single.rows[0].mae == repeated.rows[0].mae

    def test_affine_rescaling_invariance(self, tiny_radon_op, rng):
        truths, sinograms = self._testset(tiny_radon_op, rng)
        base = classical(tiny_radon_op, 1e-3)

        class Affine:
            alpha, kept_count = base.alpha, base.kept_count

            def reconstruct(self, y):
                return 4.2 * base.reconstruct(y) - 1.3

        plain = evaluate_testset([base], truths, sinograms, 0.05, seed=1)
        scaled = evaluate_testset([Affine()], truths, sinograms, 0.05, seed=1)
        assert plain.rows[0].mse == pytest.approx(scaled.rows[0].mse, abs=1e-14)

    def test_best_alpha_reported(self, tiny_radon_op, rng):
        truths, sinograms = self._testset(tiny_radon_op, rng)
        sigma = tiny_radon_op.singular_values[: tiny_radon_op.rank]
        methods = [classical(tiny_radon_op, float(sigma[k] ** 2)) for k in (10, 30, 60)]
        report = evaluate_testset(methods, truths, sinograms, 0.02, seed=1)
        best = min(report.rows, key=lambda r: r.mse)
        assert report.best_alpha == best.alpha

    def test_empty_set_rejected(self, tiny_radon_op):
        with pytest.raises(ValueError):
            evaluate_testset([classical(tiny_radon_op, 0.1)], [], [], 0.05, seed=1)

    def test_rescale_unit(self):
        np.testing.assert_array_equal(rescale_unit(np.array([2.0, 2.0])), np.zeros(2))
        np.testing.assert_allclose(rescale_unit(np.array([-1.0, 3.0])), [0.0, 1.0])
