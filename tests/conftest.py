import math
import struct

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


def split_operator_file(path):
    """An operator file as (everything up to the data-space vectors' end,
    the symmetry section, the footer text)."""
    blob = path.read_bytes()
    rows, cols = struct.unpack("<QQ", blob[8:24])
    k = min(rows, cols)
    end = 24 + 8 * (rows * cols + k + (rows + cols) * k)
    (length,) = struct.unpack("<Q", blob[-8:])
    start = len(blob) - 8 - length
    return blob[:end], blob[end:start], blob[start:-8].decode()


def join_operator_file(path, body, section, footer):
    path.write_bytes(body + section + footer.encode() + struct.pack("<Q", len(footer.encode())))


def _put_u64(section, index, value):
    return section[: 8 * index] + struct.pack("<Q", value) + section[8 * index + 8 :]


# Corruptions of an operator file's symmetry section, as functions of its
# section bytes and footer text; each must make the file a StorageError.
SECTION_CORRUPTIONS = {
    "cut": lambda section, footer: (section[:-8], footer),
    "short-permutation": lambda section, footer: (section[8:], footer),
    "not-a-permutation": lambda section, footer: (_put_u64(section, 0, struct.unpack("<Q", section[8:16])[0]), footer),
    "character-2^m": lambda section, footer: (_put_u64(section, len(section) // 8 - 1, 4), footer),
    "key-without-section": lambda section, footer: (b"", footer),
    "zero-generators": lambda section, footer: (section, footer.replace("symmetries=2", "symmetries=0")),
}


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
