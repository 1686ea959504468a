"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -s`` to see the lines as they
complete.  The tomography-scale criteria share one cached 960 x 4096
operator; its factorization time is charged to the first criterion that
uses it.
"""

import time
import warnings

import numpy as np
import pytest
from scipy.integrate import quad

from conftest import projected_gradient_distance
from regnets import cli, network, radon, storage
from regnets.analysis import (
    SourceCondition,
    distance_function,
    error_bound_terms,
    evaluate_testset,
    rate_experiment,
)
from regnets.filters import (
    FilterRegularizer,
    LandweberFilter,
    TikhonovFilter,
    TruncatedSvdFilter,
    qualification_sup,
    verify_filter_axioms,
)
from regnets.linop import svd_decompose
from regnets.network import NetworkArch
from regnets.regnet import (
    CLASSICAL,
    CONTINUED,
    NULLSPACE,
    ReconstructionMethod,
    a3_residual,
    residual_projection,
)

_DESK = {}


def desk_operator():
    """Desk-scale tomography operator, built once; returns (op, build_seconds)."""
    if "op" not in _DESK:
        start = time.perf_counter()
        geom = radon.RadonGeometry()
        _DESK["op"] = svd_decompose(radon.assemble_matrix(geom), symmetries=geom.mirrors())
        _DESK["build"] = time.perf_counter() - start
    return _DESK["op"], _DESK["build"]


def report(criterion, ok, detail, elapsed, budget):
    status = "PASS" if ok and elapsed < budget else "FAIL"
    print(f"[{status}] criterion {criterion}: {detail} ({elapsed:.1f}s / budget {budget:.0f}s)")
    assert ok, f"criterion {criterion}: {detail}"
    assert elapsed < budget, f"criterion {criterion} exceeded runtime budget: {elapsed:.1f}s"


class ConstantFilter:
    def value(self, alpha, lam):
        return np.ones_like(np.asarray(lam, dtype=float))


def test_criterion_01_filter_axioms():
    start = time.perf_counter()
    alphas = np.logspace(-1, -6, 6)
    ok = True
    details = []
    for filt in (TikhonovFilter(), TruncatedSvdFilter(), LandweberFilter(0.5)):
        rep = verify_filter_axioms(filt, 2.0, alphas)
        bound = float(np.max(rep.per_alpha_sup))
        ok &= rep.passed and bound <= 1.0 + 1e-12
        residuals_decreasing = np.all(np.diff(rep.residuals, axis=1) <= 1e-15)
        ok &= bool(residuals_decreasing)
        details.append(f"{filt.name}:sup={bound:.3f}")
    negative = verify_filter_axioms(ConstantFilter(), 2.0, alphas)
    ok &= not negative.passed
    details.append("constant-filter flagged")
    report(1, ok, "filter axioms " + ", ".join(details), time.perf_counter() - start, 1.0)


def test_criterion_02_qualification():
    start = time.perf_counter()
    alphas = np.logspace(-6, 0, 13)
    cases = [(TruncatedSvdFilter(), mu, 1.0) for mu in (0.25, 0.5, 1.0, 2.0)]
    cases += [
        (TikhonovFilter(), mu, mu**mu * (1 - mu) ** (1 - mu) if mu < 1 else 1.0)
        for mu in (0.25, 0.5, 1.0)
    ]
    worst = 0.0
    for filt, mu, constant in cases:
        for alpha in alphas:
            sup = qualification_sup(filt, float(alpha), mu, 1.0)
            worst = max(worst, sup / (constant * alpha**mu))
    ok = worst <= 1.0 + 1e-3
    report(2, ok, f"qualification sup ratio <= {worst:.6f}", time.perf_counter() - start, 5.0)


def test_criterion_03_analytic_radon():
    start = time.perf_counter()
    a, rho = 0.055, 7.0
    rng = np.random.default_rng(42)

    worst_line = 0.0
    for s in rng.uniform(-a, a, 1000):
        half = np.sqrt(a * a - s * s)
        want, _ = quad(
            lambda t: radon.kb_value(np.hypot(s, t), a, rho),
            -half, half, epsabs=0.0, epsrel=1e-10, limit=200,
        )
        got = radon.kb_line_integral(float(s), a, rho)
        worst_line = max(worst_line, abs(got - want) / abs(want))

    geom = radon.RadonGeometry(grid_n=8, n_angles=4, n_detectors=10)
    matrix = radon.assemble_matrix(geom)
    c = rng.uniform(0.0, 1.0, geom.cols)
    y = matrix @ c
    centers = geom.grid_centers()

    def density(point):
        r = np.hypot(centers[:, 0] - point[0], centers[:, 1] - point[1])
        return float(c @ radon.kb_value(r, geom.kb_support, geom.kb_shape))

    worst_row = 0.0
    rows = rng.choice(np.flatnonzero(np.abs(y) > 0.2 * np.abs(y).max()), 5, replace=False)
    angles, offsets = geom.angles(), geom.detector_offsets()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for row in rows:
            k, j = divmod(int(row), geom.n_detectors)
            omega = np.array([np.cos(angles[k]), np.sin(angles[k])])
            perp = np.array([-omega[1], omega[0]])
            want, _ = quad(
                lambda t: density(offsets[j] * omega + t * perp),
                -1.6, 1.6, epsabs=1e-13, epsrel=1e-10, limit=500,
            )
            worst_row = max(worst_row, abs(want - y[row]) / abs(want))

    ok = worst_line <= 1e-6 and worst_row <= 1e-5
    detail = f"line-integral rel {worst_line:.2e} (<=1e-6), matrix rel {worst_row:.2e} (<=1e-5)"
    report(3, ok, detail, time.perf_counter() - start, 30.0)


def test_criterion_04_classical_rates():
    op, build = desk_operator()
    start = time.perf_counter()
    filt = TruncatedSvdFilter()
    configs = {
        0.25: (1000.0, np.logspace(-5, -1, 9)),
        0.5: (256.0, np.logspace(-5, -1, 9)),
        1.0: (4.0, np.logspace(-7, -3, 9)),
    }
    ok = True
    details = []
    for mu, (scale, deltas) in configs.items():
        sc = SourceCondition(mu=mu, rho=1.0)
        rep = rate_experiment(op, filt, sc, deltas, seed=11, scale=scale)
        theory = 2 * mu / (2 * mu + 1)
        ok &= abs(rep.slope - theory) <= 0.15
        details.append(f"mu={mu}: slope {rep.slope:.3f} vs {theory:.3f}")
    elapsed = time.perf_counter() - start + build
    report(4, ok, "; ".join(details), elapsed, 120.0)


def test_criterion_05_error_bound():
    start = time.perf_counter()
    rng = np.random.default_rng(7)
    op = svd_decompose(rng.standard_normal((15, 25)))
    filt = TruncatedSvdFilter()
    sc = SourceCondition(mu=0.5, rho=1.0)
    params = network.init_network(NetworkArch(grid=5, hidden=(4,)), 2)
    lip = network.lipschitz_upper_bound(params)
    sigma = op.singular_values[: op.rank]
    checked = 0
    ok = True
    for trial in range(102):
        variant = (CLASSICAL, NULLSPACE, CONTINUED)[trial % 3]
        alpha = float(rng.choice(sigma) ** 2)
        method = ReconstructionMethod(
            variant, op, filt, alpha, None if variant == CLASSICAL else params
        )
        x = rng.standard_normal(op.cols)
        delta = float(10 ** rng.uniform(-4, -1))
        direction = rng.standard_normal(op.rows)
        y_delta = op.forward(x) + delta * rng.uniform(0.1, 1.0) * direction / np.linalg.norm(direction)
        terms = error_bound_terms(
            method, x, y_delta, delta, sc, 0.0 if variant == CLASSICAL else lip
        )
        ok &= terms.lhs <= terms.rhs + 1e-9
        checked += 1
    report(5, ok and checked == 102, f"{checked} admissible instances satisfy the bound", time.perf_counter() - start, 60.0)


def test_criterion_06_continued_svd_structure():
    start = time.perf_counter()
    rng = np.random.default_rng(8)
    op = svd_decompose(rng.standard_normal((15, 25)))
    filt = TruncatedSvdFilter()
    params = network.init_network(NetworkArch(grid=5, hidden=(4,)), 5)
    sigma = op.singular_values[: op.rank]
    alpha = float(sigma[len(sigma) // 2] ** 2)
    cont = ReconstructionMethod(CONTINUED, op, filt, alpha, params)
    base = ReconstructionMethod(CLASSICAL, op, filt, alpha)

    worst_a3 = max(a3_residual(cont, rng.standard_normal(op.cols)) for _ in range(100))
    preserved = True
    u_retained = op.image_vectors[:, : op.retained_rank(alpha)]
    for _ in range(20):
        y = rng.standard_normal(op.rows)
        preserved &= np.array_equal(cont.retained_coefficients(y), base.retained_coefficients(y))
        pixel_gap = np.abs(u_retained.T @ cont.reconstruct(y) - u_retained.T @ base.reconstruct(y)).max()
        preserved &= pixel_gap <= 1e-12
    ok = worst_a3 <= 1e-12 and preserved
    detail = f"a3 residual <= {worst_a3:.2e} (<=1e-12), retained coefficients preserved exactly"
    report(6, ok, detail, time.perf_counter() - start, 10.0)


def test_criterion_07_nullspace_confinement():
    start = time.perf_counter()
    rng = np.random.default_rng(9)
    op = svd_decompose(rng.standard_normal((15, 25)))
    filt = TruncatedSvdFilter()
    params = network.init_network(NetworkArch(grid=5, hidden=(4,)), 6)
    sigma = op.singular_values[: op.rank]
    alpha = float(sigma[len(sigma) // 2] ** 2)
    method = ReconstructionMethod(NULLSPACE, op, filt, alpha, params)
    base = ReconstructionMethod(CLASSICAL, op, filt, alpha)
    worst = 0.0
    for _ in range(100):
        y = rng.standard_normal(op.rows)
        residual = method.reconstruct(y) - base.reconstruct(y)
        norm = np.linalg.norm(residual)
        if norm == 0.0:
            continue
        worst = max(worst, np.linalg.norm(op.forward(residual)) / norm)
    ok = worst <= 1e-8 * op.sigma_max
    detail = f"||A r||/||r|| <= {worst:.2e} (budget {1e-8 * op.sigma_max:.2e})"
    report(7, ok, detail, time.perf_counter() - start, 10.0)


def test_criterion_08_testbench_ordering():
    op, _ = desk_operator()
    start = time.perf_counter()
    filt = TruncatedSvdFilter()
    sigma_sq = op.singular_values**2
    alphas = [float((sigma_sq[t - 1] + sigma_sq[t]) / 2) for t in (100, 200, 350, 500)]

    truths = np.vstack([radon.gen_phantom(i, 64).coeffs for i in range(200)])
    sinograms = truths @ op.matrix.T
    test_truths = [radon.gen_phantom(1_000_000 + i, 64).coeffs for i in range(50)]
    test_sinograms = [op.matrix @ c for c in test_truths]

    arch = NetworkArch(grid=64, hidden=(16, 16))
    families = {}
    for variant in (NULLSPACE, CONTINUED):
        members = []
        for idx, alpha in enumerate(alphas):
            base = FilterRegularizer(op, filt, alpha).apply(sinograms)
            params = network.init_network(arch, 42 + idx)
            state = network.TrainState(lr=3e-5, momentum=0.99)
            network.train(
                params, state, base, truths,
                project=residual_projection(variant, op, alpha),
                epochs=12, batch_size=10, shuffle_seed=idx,
            )
            members.append((alpha, params))
        families[variant] = members

    ok = True
    details = []
    for delta in (0.02, 0.05):
        best = {}
        for variant in (CLASSICAL, NULLSPACE, CONTINUED):
            if variant == CLASSICAL:
                methods = [ReconstructionMethod(CLASSICAL, op, filt, a) for a in alphas]
            else:
                methods = [
                    ReconstructionMethod(variant, op, filt, a, p) for a, p in families[variant]
                ]
            rep = evaluate_testset(methods, test_truths, test_sinograms, delta, seed=7)
            best[variant] = min(r.mse for r in rep.rows)
        ordered = best[CONTINUED] < best[NULLSPACE] < best[CLASSICAL]
        ok &= ordered
        details.append(
            f"d={delta}: continued {best[CONTINUED]:.4f} < nullspace {best[NULLSPACE]:.4f}"
            f" < tsvd {best[CLASSICAL]:.4f} [{'ok' if ordered else 'violated'}]"
        )
    report(8, ok, "; ".join(details), time.perf_counter() - start, 1800.0)


def test_criterion_09_gradient_check():
    start = time.perf_counter()
    rng = np.random.default_rng(10)
    arch = NetworkArch(grid=4, hidden=(3,))
    params = network.init_network(arch, 11)
    inputs = rng.standard_normal((3, 16))
    targets = rng.standard_normal((3, 16)) * 2.0
    q = np.linalg.qr(rng.standard_normal((16, 5)))[0]

    def project(rows):
        rows = np.atleast_2d(rows)
        return rows - (rows @ q) @ q.T

    _, grads = network.grad_backprop(params, inputs, targets, project=project)
    eps = 1e-6
    checked = 0
    worst = 0.0
    for li, (w, _) in enumerate(params.layers):
        for _ in range(12):
            idx = tuple(rng.integers(0, s) for s in w.shape)
            orig = w[idx]
            w[idx] = orig + eps
            up, _ = network.grad_backprop(params, inputs, targets, project=project)
            w[idx] = orig - eps
            down, _ = network.grad_backprop(params, inputs, targets, project=project)
            w[idx] = orig
            fd = (up - down) / (2 * eps)
            bp = grads[li][0][idx]
            worst = max(worst, abs(fd - bp) / max(abs(fd), abs(bp), 1e-8))
            checked += 1
    ok = checked >= 20 and worst <= 1e-4
    report(9, ok, f"{checked} parameters, worst relative error {worst:.2e} (<=1e-4)", time.perf_counter() - start, 5.0)


def test_criterion_10_distance_function():
    start = time.perf_counter()
    rng = np.random.default_rng(12)
    op = svd_decompose(rng.standard_normal((15, 25)))
    method = ReconstructionMethod(CLASSICAL, op, TruncatedSvdFilter(), 0.1)
    worst = 0.0
    for _ in range(50):
        r = rng.standard_normal(op.cols)
        sc = SourceCondition(mu=float(rng.uniform(0.3, 1.5)), rho=float(rng.uniform(0.05, 0.5)))
        got = distance_function(method, r, sc)
        want = projected_gradient_distance(op, r, sc.mu, sc.rho)
        worst = max(worst, abs(got - want) / max(want, 1e-12))
    sc = SourceCondition(mu=0.5, rho=2.0)
    w = rng.standard_normal(op.cols)
    w *= 1.5 / np.linalg.norm(w)
    representable = distance_function(method, op.power_apply(w, sc.mu), sc)
    ok = worst <= 1e-6 and representable <= 1e-10
    detail = f"oracle agreement {worst:.2e} (<=1e-6), representable input distance {representable:.2e}"
    report(10, ok, detail, time.perf_counter() - start, 10.0)


def test_criterion_11_training_determinism(tmp_path, monkeypatch):
    start = time.perf_counter()
    config = (
        "grid_n=10\nn_angles=6\nn_detectors=12\nalphas=2e-3,5e-4\nlr=1e-4\n"
        "epochs=2\nbatch_size=4\ntrain_count=8\ntest_count=2\nseed=3\nmethod=continued\nhidden=3\n"
    )
    outputs = {}
    for run in ("first", "second"):
        workdir = tmp_path / run
        workdir.mkdir()
        (workdir / "run.cfg").write_text(config)
        monkeypatch.chdir(workdir)
        assert cli.main(["assemble", "--config", "run.cfg"]) == 0
        assert cli.main(["phantoms", "--config", "run.cfg"]) == 0
        assert cli.main(["train", "--config", "run.cfg"]) == 0
        outputs[run] = {
            p.name: p.read_bytes() for p in sorted((workdir / "models/continued").iterdir())
        }
    ok = outputs["first"] == outputs["second"]
    names = ", ".join(sorted(outputs["first"]))
    report(11, ok, f"byte-identical rerun of cmd_train ({names})", time.perf_counter() - start, 120.0)
