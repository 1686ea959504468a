import math

import numpy as np
import pytest

from regnets import radon
from regnets.linop import svd_decompose


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


@pytest.fixture
def small_op(rng):
    """15 x 25 random map on a 5x5 grid; kernel dimension 10."""
    return svd_decompose(rng.standard_normal((15, 25)))


@pytest.fixture
def tall_op(rng):
    """Well-conditioned 12 x 9 map (trivial kernel)."""
    m = rng.standard_normal((12, 9)) + 3.0 * np.eye(12, 9)
    return svd_decompose(m)


@pytest.fixture(scope="session")
def tiny_radon_op():
    """Small real tomography operator (80 x 256, grid 16)."""
    geom = radon.RadonGeometry(grid_n=16, n_angles=5, n_detectors=16)
    return svd_decompose(radon.assemble_matrix(geom), symmetries=geom.mirrors())


def projected_gradient_distance(op, r, mu, rho, iters=300_000, tol=1e-8):
    """Independent constrained least-squares solver for the source-set
    distance: projected gradient descent on the representer, run to
    1e-8 stationarity.  Used as the oracle against the closed-form path.
    Norms are ``math.sqrt(v @ v)``: the arithmetic of ``np.linalg.norm`` on
    1-D float64 input without its per-call overhead."""
    u = op.image_vectors[:, : op.rank]
    s = op.singular_values[: op.rank] ** (2.0 * mu)
    coef = u.T @ r
    kernel_sq = float(np.sum((r - u @ coef) ** 2))
    w = np.zeros_like(coef)
    step = 0.9 / float(np.max(s**2))
    for _ in range(iters):
        grad = -s * (coef - s * w)
        w_new = w - step * grad
        norm = math.sqrt(w_new @ w_new)
        if norm > rho:
            w_new *= rho / norm
        step_vec = w_new - w
        if math.sqrt(step_vec @ step_vec) <= tol * max(1.0, math.sqrt(w @ w)):
            w = w_new
            break
        w = w_new
    return float(np.sqrt(np.sum((coef - s * w) ** 2) + kernel_sq))
