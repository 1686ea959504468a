"""Spectral regularizing filters and the reconstruction maps they induce.

A filter family g_alpha approximates 1/lambda on the spectrum of A*A and
defines the regularized inverse

    B_alpha y = sum_n g_alpha(sigma_n^2) sigma_n <v_n, y> u_n,

applied here on the stored singular system of an :class:`SvdOperator`.
Directions below the operator's rank cutoff are treated as exact kernel
and never inverted.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .linop import SvdOperator

__all__ = [
    "RegularizingFilter",
    "TikhonovFilter",
    "TruncatedSvdFilter",
    "LandweberFilter",
    "FilterRegularizer",
    "make_filter",
    "qualification_sup",
    "verify_filter_axioms",
    "FilterAxiomReport",
]


def _as_lambda_array(alpha, lam):
    if alpha <= 0:
        raise ValueError(f"alpha must be positive, got {alpha}")
    lam = np.asarray(lam, dtype=float)
    if np.any(lam < 0):
        raise ValueError("spectral argument lambda must be non-negative")
    return lam


class RegularizingFilter:
    """Base class: a named filter family with a declared qualification order."""

    name = "abstract"
    qualification = math.inf

    def value(self, alpha: float, lam):
        """g_alpha(lambda), vectorized over lam."""
        raise NotImplementedError

    def constant(self, mu: float) -> float:
        """Constant C(mu) with sup lambda^mu |1 - lambda g_alpha(lambda)| <= C alpha^mu."""
        raise NotImplementedError

    def _check_mu(self, mu: float):
        if not (np.isfinite(mu) and mu > 0):
            raise ValueError(f"mu must be finite and positive, got {mu}")
        if mu > self.qualification:
            raise ValueError(f"mu={mu} exceeds the qualification {self.qualification} of {self.name}")


class TikhonovFilter(RegularizingFilter):
    """g_alpha(lambda) = 1 / (lambda + alpha); qualification 1."""

    name = "tikhonov"
    qualification = 1.0

    def value(self, alpha, lam):
        lam = _as_lambda_array(alpha, lam)
        return 1.0 / (lam + alpha)

    def constant(self, mu):
        # maximum of lambda^mu * alpha/(lambda+alpha) over lambda >= 0 is
        # mu^mu (1-mu)^(1-mu) alpha^mu for mu < 1, and alpha for mu = 1
        self._check_mu(mu)
        return float(mu**mu * (1.0 - mu) ** (1.0 - mu))


class TruncatedSvdFilter(RegularizingFilter):
    """Hard spectral cut: 0 below alpha, exact inverse 1/lambda above."""

    name = "tsvd"
    qualification = math.inf

    def value(self, alpha, lam):
        lam = _as_lambda_array(alpha, lam)
        out = np.zeros_like(lam)
        keep = lam >= alpha
        np.divide(1.0, lam, out=out, where=keep)
        return out if out.ndim else float(out)

    def constant(self, mu):
        self._check_mu(mu)
        return 1.0


class LandweberFilter(RegularizingFilter):
    """Geometric-sum filter of k(alpha) = ceil(1/alpha) gradient steps.

    g_alpha(lambda) = sum_{j<k} beta (1 - beta lambda)^j
                    = (1 - (1 - beta lambda)^k) / lambda.

    The step size must satisfy beta <= 1/||A*A|| on the operator it is
    applied to (checked by :class:`FilterRegularizer`).
    """

    name = "landweber"
    qualification = math.inf

    def __init__(self, beta: float = 1.0):
        if not (np.isfinite(beta) and beta > 0):
            raise ValueError(f"beta must be finite and positive, got {beta}")
        self.beta = float(beta)

    def iterations(self, alpha: float) -> int:
        if alpha <= 0:
            raise ValueError(f"alpha must be positive, got {alpha}")
        return max(1, math.ceil(1.0 / alpha))

    def value(self, alpha, lam):
        lam = _as_lambda_array(alpha, lam)
        k = self.iterations(alpha)
        x = self.beta * lam
        # closed form loses all digits once (1-x)^k rounds to 1; expand there
        small = k * x < 1e-8
        out = np.empty_like(lam)
        safe = np.where(small, 1.0, lam)
        out[...] = (1.0 - (1.0 - x) ** k) / safe
        expansion = k * self.beta * (1.0 - 0.5 * (k - 1) * x)
        out = np.where(small, expansion, out)
        return out if out.ndim else float(out)

    def constant(self, mu):
        # lambda^mu (1-beta lambda)^k <= lambda^mu e^{-k beta lambda}
        # maximized at lambda = mu/(k beta); with k >= 1/alpha this gives
        # sup <= (mu/(e beta))^mu alpha^mu
        self._check_mu(mu)
        return float((mu / (math.e * self.beta)) ** mu)


def make_filter(kind: str, beta: float | None = None) -> RegularizingFilter:
    """CLI-facing factory for {tikhonov|tsvd|landweber}."""
    kind = kind.strip().lower()
    if kind == "tikhonov":
        return TikhonovFilter()
    if kind == "tsvd":
        return TruncatedSvdFilter()
    if kind == "landweber":
        return LandweberFilter(beta if beta is not None else 1.0)
    raise ValueError(f"unknown filter kind {kind!r}; expected tikhonov, tsvd or landweber")


@dataclass(frozen=True)
class FilterRegularizer:
    """B_alpha = g_alpha(A*A) A* bound to one operator, filter and alpha."""

    operator: SvdOperator
    filt: RegularizingFilter
    alpha: float

    def __post_init__(self):
        if not (np.isfinite(self.alpha) and self.alpha > 0):
            raise ValueError(f"alpha must be finite and positive, got {self.alpha}")
        smax = self.operator.sigma_max
        if isinstance(self.filt, LandweberFilter) and smax > 0:
            bound = 1.0 / smax**2
            if self.filt.beta > bound * (1.0 + 1e-12):
                raise ValueError(
                    f"Landweber step {self.filt.beta} exceeds 1/||A*A|| = {bound}"
                )

    def _gain(self) -> np.ndarray:
        """g_alpha(sigma^2) sigma over the kept spectrum."""
        sigma = self.operator.singular_values[: self.operator.rank]
        return self.filt.value(self.alpha, sigma**2) * sigma

    def coefficients(self, y) -> np.ndarray:
        """Spectral coefficients of B_alpha y on the kept directions, for one
        data vector or a (count, rows) stack of them.

        This is the single floating-point path producing reconstruction
        coefficients; every consumer synthesizes from these numbers.
        """
        return self.operator.data_coefficients(y, self.operator.rank) * self._gain()

    def synthesize(self, coef) -> np.ndarray:
        return self.operator.synthesize(coef)

    def apply(self, y) -> np.ndarray:
        """B_alpha y, row by row for a (count, rows) stack."""
        return self.synthesize(self.coefficients(y))

    def apply_gram(self, x) -> np.ndarray:
        """B_alpha A x = g_alpha(A*A) A*A x."""
        sigma = self.operator.singular_values[: self.operator.rank]
        return self.operator.spectral_multiply(x, self.filt.value(self.alpha, sigma**2) * sigma**2)

    def norm(self) -> float:
        """Exact operator norm of B_alpha on the stored spectrum."""
        if self.operator.rank == 0:
            return 0.0
        return float(np.max(np.abs(self._gain())))


def qualification_sup(filt: RegularizingFilter, alpha: float, mu: float, lambda_max: float) -> float:
    """Grid supremum of lambda^mu |1 - lambda g_alpha(lambda)| on [0, lambda_max],
    over 100,000 equidistant points.

    The grid is refined just below lambda = alpha, where the hard-cut
    filter attains its supremum.
    """
    if mu <= 0:
        raise ValueError(f"mu must be positive, got {mu}")
    if not (np.isfinite(lambda_max) and lambda_max > 0):
        raise ValueError(f"lambda_max must be finite and positive, got {lambda_max}")
    grid = np.linspace(0.0, lambda_max, 100_000)
    if 0.0 < alpha <= lambda_max:
        grid = np.concatenate([grid, [np.nextafter(alpha, 0.0), alpha]])
    residual = np.abs(1.0 - grid * filt.value(alpha, grid))
    return float(np.max(grid**mu * residual))


@dataclass
class FilterAxiomReport:
    """Numerical evidence for the two filter axioms.

    ``per_alpha_sup[j]`` is max over the lambda grid of |lambda g_{alpha_j}|;
    ``residuals[i, j]`` = |g_{alpha_j}(probe_i) - 1/probe_i|.
    """

    alphas: np.ndarray
    per_alpha_sup: np.ndarray
    probe_lambdas: np.ndarray
    residuals: np.ndarray
    bounded: bool
    convergent: bool

    @property
    def passed(self) -> bool:
        return self.bounded and self.convergent


def verify_filter_axioms(filt, lambda_max: float, alphas) -> FilterAxiomReport:
    """Check boundedness of lambda g_alpha(lambda) and pointwise convergence
    g_alpha(lambda) -> 1/lambda along a descending alpha sequence, on 2001
    equidistant points of [0, lambda_max] and at the probes lambda_max
    times 1e-3, 1e-2, 1e-1, 0.5 and 1.

    Boundedness is flagged heuristically when the per-alpha suprema blow up
    by more than a factor 10 over the sweep; convergence requires each
    probe's residual sequence to be non-increasing and to end well below
    its starting value.  Any object with a ``value(alpha, lam)`` method can
    be checked, which is how negative controls are exercised.
    """
    alphas = np.asarray(alphas, dtype=float)
    if alphas.ndim != 1 or alphas.size < 2:
        raise ValueError("need a descending list of at least two alphas")
    if np.any(alphas <= 0) or np.any(np.diff(alphas) >= 0):
        raise ValueError("alphas must be positive and strictly descending")
    if not (np.isfinite(lambda_max) and lambda_max > 0):
        raise ValueError(f"lambda_max must be finite and positive, got {lambda_max}")

    grid = np.linspace(0.0, lambda_max, 2001)
    probe_lambdas = lambda_max * np.array([1e-3, 1e-2, 1e-1, 0.5, 1.0])

    per_alpha_sup = np.array(
        [np.max(np.abs(grid * filt.value(a, grid))) for a in alphas]
    )
    residuals = np.empty((probe_lambdas.size, alphas.size))
    for i, lam in enumerate(probe_lambdas):
        residuals[i] = [abs(filt.value(a, lam) - 1.0 / lam) for a in alphas]

    bounded = per_alpha_sup[-1] <= 10.0 * max(1.0, per_alpha_sup[0])

    convergent = True
    for i, lam in enumerate(probe_lambdas):
        e = residuals[i]
        nonincreasing = np.all(e[1:] <= e[:-1] * (1.0 + 1e-9) + 1e-15)
        settled = e[-1] <= max(0.5 * e[0], 1e-12 * (1.0 + 1.0 / lam))
        if not (nonincreasing and settled):
            convergent = False

    return FilterAxiomReport(
        alphas=alphas,
        per_alpha_sup=per_alpha_sup,
        probe_lambdas=probe_lambdas,
        residuals=residuals,
        bounded=bool(bounded),
        convergent=bool(convergent),
    )
