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
    distance: projected gradient descent on the representer with FISTA
    momentum and adaptive restart, stopped once the plain projected-gradient
    step at the iterate is at most 1e-8 max(1, ||w||).  Used as the oracle
    against the closed-form path.  Norms are ``math.sqrt(v @ v)``: the
    arithmetic of ``np.linalg.norm`` on 1-D float64 input without its
    per-call overhead."""
    u = op.image_vectors[:, : op.rank]
    s = op.singular_values[: op.rank] ** (2.0 * mu)
    coef = u.T @ r
    kernel_sq = float(np.sum((r - u @ coef) ** 2))
    step = 0.9 / float(np.max(s**2))

    def descend(v):
        # one projected-gradient step on 0.5 ||coef - s v||^2 over ||v|| <= rho
        v = v + step * s * (coef - s * v)
        norm = math.sqrt(v @ v)
        return v * (rho / norm) if norm > rho else v

    w = np.zeros_like(coef)
    y, t = w, 1.0
    for _ in range(iters):
        plain = descend(w) - w
        if math.sqrt(plain @ plain) <= tol * max(1.0, math.sqrt(w @ w)):
            break
        w_new = descend(y)
        t_new = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * t * t))
        if (y - w_new) @ (w_new - w) > 0.0:  # momentum points uphill: restart
            y, t_new = w_new, 1.0
        else:
            y = w_new + ((t - 1.0) / t_new) * (w_new - w)
        w, t = w_new, t_new
    return float(np.sqrt(np.sum((coef - s * w) ** 2) + kernel_sq))
