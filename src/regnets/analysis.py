"""Quantitative error analysis: distance function, bound decomposition,
a-priori parameter choice, and the rate / test-set experiments.

The central estimate splits the reconstruction error of a learned method
into four measurable pieces,

    ||R_alpha(y_delta) - x||  <=  delta (1+L) ||B_alpha||        (noise)
                                + C rho alpha^mu                 (approximation)
                                + d_alpha(x; rho, mu)            (distance)
                                + ||B_alpha A res(B_alpha A x)|| (leakage)

valid whenever ||A x - y_delta|| <= delta and the filter has qualification
at least mu.  The distance function d_alpha is the norm distance of the
method's effective residual to the source set {(A*A)^mu w : ||w|| <= rho},
solved exactly in the singular basis.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass

import numpy as np

from .linop import SvdOperator
from .regnet import CLASSICAL, ReconstructionMethod, RegNetFamily, a3_residual, nullspace_residual
from .radon import add_noise, add_noise_exact

__all__ = [
    "SourceCondition",
    "BoundTerms",
    "CurveRow",
    "RateRow",
    "CurveReport",
    "RateReport",
    "source_element",
    "distance_function",
    "error_bound_terms",
    "param_choice",
    "rate_experiment",
    "evaluate_testset",
    "rescale_unit",
    "fit_loglog_slope",
]


@dataclass(frozen=True)
class SourceCondition:
    """Smoothness order mu and source-ball radius rho."""

    mu: float
    rho: float

    def __post_init__(self):
        if not (np.isfinite(self.mu) and self.mu > 0):
            raise ValueError(f"mu must be finite and positive, got {self.mu}")
        if not (np.isfinite(self.rho) and self.rho > 0):
            raise ValueError(f"rho must be finite and positive, got {self.rho}")


@dataclass(frozen=True)
class BoundTerms:
    """The four right-hand-side terms and the directly measured left side."""

    noise_term: float
    approx_term: float
    dist_term: float
    a3_term: float
    lhs: float

    @property
    def rhs(self) -> float:
        return self.noise_term + self.approx_term + self.dist_term + self.a3_term


@dataclass(frozen=True)
class CurveRow:
    alpha: float
    kept: int
    mse: float
    mae: float


@dataclass(frozen=True)
class RateRow:
    delta: float
    alpha: float
    error: float


@dataclass(frozen=True)
class CurveReport:
    """One CurveRow per method of a test-set sweep and the MSE-optimal alpha."""

    rows: list
    best_alpha: float


@dataclass(frozen=True)
class RateReport:
    """RateRows sorted by delta and the log-log fit of error against delta."""

    rows: list
    slope: float
    slope_residual: float


def source_element(op: SvdOperator, sc: SourceCondition, seed: int) -> np.ndarray:
    """x = (A*A)^mu (rho w/||w||) for a standard-normal direction w drawn
    from ``default_rng(seed)``: a point of the source set, on its rim."""
    w = np.random.default_rng(seed).standard_normal(op.cols)
    w *= sc.rho / np.linalg.norm(w)
    return op.power_apply(w, sc.mu)


def distance_function(method: ReconstructionMethod, x, sc: SourceCondition) -> float:
    """Exact distance of r = x - residual(B_alpha A x) to the source set
    {(A*A)^mu w : ||w|| <= rho}.

    In the singular basis the unconstrained representer is w_n =
    r_n / sigma_n^(2 mu); if it fits in the rho-ball the distance is the
    kernel mass of r, otherwise the active-ball multiplier nu solves
    sum (sigma^(2mu) r_n / (sigma^(4mu) + nu))^2 = rho^2 and is found by
    bisection to 1e-12 relative accuracy.  The sum is at most
    ||sigma^(2mu) r||^2 / nu^2, so nu = ||sigma^(2mu) r|| / rho brackets it.
    """
    op = method.operator
    x = op._check_coeff(x)
    reg = method.regularizer()
    r = x - method.residual_map(reg.apply_gram(x))

    if op.rank == 0:
        return float(np.linalg.norm(r))
    s = op.singular_values[: op.rank] ** (2.0 * sc.mu)
    coef = op.image_coefficients(r, op.rank)
    kernel_sq = float(np.sum((r - op.synthesize(coef)) ** 2))

    w_unconstrained = coef / s
    if np.linalg.norm(w_unconstrained) <= sc.rho:
        return float(np.sqrt(kernel_sq))

    def ball_norm_sq(nu):
        w = s * coef / (s**2 + nu)
        return float(w @ w)

    target = sc.rho**2
    lo, hi = 0.0, float(np.linalg.norm(s * coef)) / sc.rho
    while hi - lo > 1e-12 * hi:
        mid = 0.5 * (lo + hi)
        if ball_norm_sq(mid) > target:
            lo = mid
        else:
            hi = mid
    nu = hi
    w = s * coef / (s**2 + nu)
    range_sq = float(np.sum((coef - s * w) ** 2))
    return float(np.sqrt(range_sq + kernel_sq))


def error_bound_terms(
    method: ReconstructionMethod,
    x,
    y_delta,
    delta: float,
    sc: SourceCondition,
    lipschitz: float,
) -> BoundTerms:
    """Evaluate every term of the error estimate and check it holds; the
    approximation constant C is the filter's ``constant(mu)``.

    Raises ValueError if the data misfit exceeds delta or the filter's
    qualification is below mu, and ArithmeticError if the verified bound
    is violated beyond 1e-9 absolute slack (which would indicate a broken
    implementation, not an unlucky input).
    """
    op = method.operator
    x = op._check_coeff(x)
    y_delta = op._check_data(y_delta)
    if delta < 0:
        raise ValueError(f"delta must be non-negative, got {delta}")
    misfit = float(np.linalg.norm(op.forward(x) - y_delta))
    if misfit > delta * (1.0 + 1e-9) + 1e-300:
        raise ValueError(f"data misfit {misfit} exceeds the declared noise level {delta}")
    if method.filt.qualification < sc.mu:
        raise ValueError(
            f"filter qualification {method.filt.qualification} is below mu={sc.mu}"
        )

    reg = method.regularizer()
    terms = BoundTerms(
        noise_term=delta * (1.0 + lipschitz) * reg.norm(),
        approx_term=method.filt.constant(sc.mu) * sc.rho * method.alpha**sc.mu,
        dist_term=distance_function(method, x, sc),
        a3_term=a3_residual(method, x),
        lhs=float(np.linalg.norm(method.reconstruct(y_delta) - x)),
    )
    if terms.lhs > terms.rhs + 1e-9:
        raise ArithmeticError(
            f"error bound violated: lhs={terms.lhs} > rhs={terms.rhs}"
        )
    return terms


def param_choice(delta: float, sc: SourceCondition, scale: float = 1.0) -> float:
    """A-priori rule alpha = scale * delta^(2 / (2 mu + 1))."""
    if delta <= 0:
        raise ValueError(f"delta must be positive, got {delta}")
    return float(scale * delta ** (2.0 / (2.0 * sc.mu + 1.0)))


def fit_loglog_slope(xs, ys):
    """Least-squares slope of log ys against log xs plus the fit's rms residual."""
    xs = np.log(np.asarray(xs, dtype=float))
    ys = np.log(np.asarray(ys, dtype=float))
    if xs.size < 3:
        raise ValueError(f"degenerate fit: need at least 3 points, got {xs.size}")
    coeffs = np.polyfit(xs, ys, 1)
    resid = ys - np.polyval(coeffs, xs)
    return float(coeffs[0]), float(np.sqrt(np.mean(resid**2)))


def rate_experiment(
    op: SvdOperator,
    filt,
    sc: SourceCondition,
    deltas,
    seed: int,
    family: RegNetFamily | None = None,
    scale: float = 1.0,
) -> RateReport:
    """Error against noise level under the a-priori parameter choice.

    The truth is synthesized to satisfy the assumptions: classically as
    ``source_element(op, sc, seed)``; for a learned family as x = z +
    nullspace_residual(z) with z in the range of the pseudo-inverse and the
    alpha-min member's network.  Either variant's learned truth uses that
    kernel residual, also for a continued family, whose members project
    onto sigma^2 < alpha and not onto the kernel.
    Noise has exact l2 norm delta; every delta must be positive.
    """
    deltas = [float(d) for d in deltas]
    if not all(d > 0 for d in deltas):
        raise ValueError(f"noise levels must be positive, got {deltas}")
    if len(deltas) < 3:
        raise ValueError("degenerate fit: need at least 3 noise levels")
    if np.log10(max(deltas)) - np.log10(min(deltas)) < 3.0 - 1e-12:
        raise ValueError("noise levels must span at least 3 decades")

    if family is None:
        x = source_element(op, sc, seed)
    else:
        z = np.random.default_rng(seed).standard_normal(op.cols)
        z = z - op.kernel_project(z)
        z *= sc.rho / np.linalg.norm(z)
        _, params_min = family.members[-1]
        x = z + nullspace_residual(op, params_min, z)
    y = op.forward(x)

    rows = []
    for i, delta in enumerate(deltas):
        alpha = param_choice(delta, sc, scale)
        if family is None:
            m = ReconstructionMethod(CLASSICAL, op, filt, alpha)
        else:
            m = family.nearest(alpha)
            alpha = m.alpha
        y_delta = add_noise_exact(y, delta, seed + 1000 + i)
        err = float(np.linalg.norm(m.reconstruct(y_delta) - x))
        rows.append(RateRow(delta=delta, alpha=alpha, error=err))

    rows.sort(key=lambda r: r.delta)
    fit_rows = [r for r in rows if r.error > 0]
    slope, resid = fit_loglog_slope([r.delta for r in fit_rows], [r.error for r in fit_rows])
    return RateReport(rows=rows, slope=slope, slope_residual=resid)


def rescale_unit(img) -> np.ndarray:
    """Affine rescale to [0, 1]; constant images map to zero."""
    img = np.asarray(img, dtype=float)
    lo, hi = float(np.min(img)), float(np.max(img))
    if hi <= lo:
        return np.zeros_like(img)
    return (img - lo) / (hi - lo)


def _item_noise_seed(base_seed: int, y: np.ndarray) -> int:
    # content-derived so duplicated items get identical noise and every
    # method sees the same noisy data
    return (int(base_seed) + zlib.crc32(y.tobytes())) % (2**63)


def evaluate_testset(methods, truths, sinograms, delta: float, seed: int) -> CurveReport:
    """Mean MSE / MAE over a test set for each method, after rescaling both
    reconstruction and truth to [0, 1]; reports the MSE-optimal alpha.

    ``methods`` need ``alpha`` and ``kept_count`` attributes and a
    ``reconstruct(y)`` method;
    noise follows the max-scaled Gaussian convention, seeded per item and
    drawn once for all methods.
    """
    truths = [rescale_unit(t) for t in truths]
    sinograms = [np.asarray(s, dtype=float) for s in sinograms]
    if not truths or len(truths) != len(sinograms):
        raise ValueError("test set must be non-empty with matching truths and sinograms")

    noisy = [add_noise(y, delta, _item_noise_seed(seed, y)) for y in sinograms]
    rows = []
    for m in methods:
        sq = []
        ab = []
        for truth, y_delta in zip(truths, noisy):
            diff = rescale_unit(m.reconstruct(y_delta)) - truth
            sq.append(float(np.mean(diff**2)))
            ab.append(float(np.mean(np.abs(diff))))
        rows.append(
            CurveRow(
                alpha=float(m.alpha),
                kept=int(m.kept_count),
                mse=float(np.mean(sq)),
                mae=float(np.mean(ab)),
            )
        )
    best = min(rows, key=lambda r: r.mse)
    return CurveReport(rows=rows, best_alpha=best.alpha)
