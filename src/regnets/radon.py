"""Sparse-angle Radon forward operator on a Kaiser-Bessel blob basis.

A density on [-1, 1]^2 is expanded as f(x) = sum_i c_i phi(x - x_i) with
blob centers x_i on an N x N grid and

    phi(x) = I0(rho * sqrt(1 - (|x|/a)^2)) / I0(rho)   for |x| <= a,

zero outside.  Because the blob is radial its line integrals are known
in closed form, so the discrete forward matrix (angles x detector
offsets by blob index) is assembled analytically.  The module also
provides the random ellipse phantoms and the two noise conventions used
by the experiments.
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass

import numpy as np

__all__ = [
    "RadonGeometry",
    "Phantom",
    "Ellipse",
    "kb_value",
    "kb_line_integral",
    "assemble_matrix",
    "gen_phantom",
    "add_noise",
    "add_noise_exact",
]

Ellipse = namedtuple("Ellipse", "cx cy ax ay tilt value")


def kb_value(r, a: float, rho: float):
    """Blob profile at radial distance r; 1 at the center, 1/I0(rho) at r = a."""
    if a <= 0 or rho <= 0:
        raise ValueError("blob support and shape parameters must be positive")
    r = np.asarray(r, dtype=float)
    scalar = r.ndim == 0
    r = np.atleast_1d(np.abs(r))
    w = np.clip(1.0 - (r / a) ** 2, 0.0, None)
    bessel = np.i0(np.append(rho * np.sqrt(w), rho))  # one call; I0(rho) is the last
    val = np.where(r <= a, bessel[:-1] / bessel[-1], 0.0)
    return float(val[0]) if scalar else val


def kb_line_integral(s, a: float, rho: float):
    """Integral of the blob along a line at signed distance s from its center.

    For the order-zero blob the projection reduces to
        p(s) = (2 a / (rho I0(rho))) * sinh(rho * sqrt(1 - (s/a)^2))
    on |s| < a and vanishes outside, matching direct quadrature of the
    profile to full precision.
    """
    if a <= 0 or rho <= 0:
        raise ValueError("blob support and shape parameters must be positive")
    s = np.asarray(s, dtype=float)
    scalar = s.ndim == 0
    s = np.atleast_1d(s)
    w2 = 1.0 - (s / a) ** 2
    inside = w2 > 0.0
    out = np.zeros_like(s)
    out[inside] = (2.0 * a / (rho * np.i0(rho))) * np.sinh(rho * np.sqrt(w2[inside]))
    return float(out[0]) if scalar else out


@dataclass(frozen=True)
class RadonGeometry:
    """Angles, detector offsets and the blob grid of the discrete transform.

    Rows of the assembled matrix are ordered angle-major: row
    ``k * n_detectors + j`` holds angle theta_k = k*pi/n_angles and the
    j-th offset of an equidistant grid on [detector_min, detector_max].
    """

    grid_n: int = 64
    n_angles: int = 15
    n_detectors: int = 64
    detector_min: float = -1.5
    detector_max: float = 1.5
    kb_support: float = 0.055
    kb_shape: float = 7.0

    def __post_init__(self):
        if min(self.grid_n, self.n_angles, self.n_detectors) < 1:
            raise ValueError("grid side, angle count and detector count must be >= 1")
        if self.kb_support <= 0 or self.kb_shape <= 0:
            raise ValueError("blob parameters must be positive")
        if self.detector_max <= self.detector_min:
            raise ValueError("empty detector interval")

    @property
    def rows(self) -> int:
        return self.n_angles * self.n_detectors

    @property
    def cols(self) -> int:
        return self.grid_n**2

    def angles(self) -> np.ndarray:
        return np.arange(self.n_angles) * np.pi / self.n_angles

    def detector_offsets(self) -> np.ndarray:
        return np.linspace(self.detector_min, self.detector_max, self.n_detectors)

    def mirrors(self) -> tuple:
        """The x- and y-mirror flips that leave the assembled matrix fixed,
        as ``(row_perm, col_perm)`` pairs with ``a[row_perm][:, col_perm]
        == a``; ``()`` when the detector interval is not centred.

        Mirroring x takes theta_k to pi - theta_k = theta_{n_angles-k}; at
        k = 0 that is theta_0 with the offset negated.  Mirroring y negates
        the offset as well.
        """
        if self.detector_min != -self.detector_max:
            return ()
        n, n_a, n_d = self.grid_n, self.n_angles, self.n_detectors
        iy, ix = np.divmod(np.arange(n * n), n)
        k, j = np.divmod(np.arange(n_a * n_d), n_d)
        turned = (n_a - k) % n_a
        x_rows = np.where(k == 0, n_d - 1 - j, turned * n_d + j)
        y_rows = np.where(k == 0, j, turned * n_d + n_d - 1 - j)
        return (
            (x_rows, iy * n + (n - 1 - ix)),
            (y_rows, (n - 1 - iy) * n + ix),
        )

    def grid_centers(self) -> np.ndarray:
        """Blob centers, shape (grid_n^2, 2); index i = iy * grid_n + ix so a
        coefficient vector reshapes to an (iy, ix) image."""
        return _grid_centers(self.grid_n)


def _grid_centers(n: int) -> np.ndarray:
    axis = np.linspace(-1.0, 1.0, n) if n > 1 else np.zeros(1)
    return np.column_stack([np.tile(axis, n), np.repeat(axis, n)])


def assemble_matrix(geom: RadonGeometry) -> np.ndarray:
    """Dense forward matrix; entry (row, i) is the line integral of blob i
    along the row's line, i.e. kb_line_integral(s - <x_i, omega(theta)>)."""
    centers = geom.grid_centers()
    offsets = geom.detector_offsets()
    a = np.empty((geom.rows, geom.cols))
    for k, theta in enumerate(geom.angles()):
        omega = np.array([math.cos(theta), math.sin(theta)])
        proj = centers @ omega
        dist = offsets[:, None] - proj[None, :]
        a[k * geom.n_detectors : (k + 1) * geom.n_detectors] = kb_line_integral(
            dist, geom.kb_support, geom.kb_shape
        )
    return a


@dataclass(frozen=True)
class Phantom:
    """Coefficient image in [0, 1] plus the seeded ellipse recipe behind it."""

    coeffs: np.ndarray
    seed: int
    ellipses: tuple


# the phantom recipe: ellipse count, centre box, semi-axes, additive values
_ELLIPSE_COUNT = (5, 10)
_CENTER_BOUND = 0.7
_AXIS_RANGE = (0.05, 0.6)
_VALUE_RANGE = (-0.5, 1.0)


def gen_phantom(seed: int, grid_n: int) -> Phantom:
    """Random superposition of tilted ellipses, rasterized at the blob grid
    centers and clipped to [0, 1].  Deterministic per seed."""
    rng = np.random.default_rng(seed)
    count = int(rng.integers(_ELLIPSE_COUNT[0], _ELLIPSE_COUNT[1] + 1))

    ellipses = []
    for _ in range(count):
        cx, cy = rng.uniform(-_CENTER_BOUND, _CENTER_BOUND, 2)
        ax, ay = rng.uniform(*_AXIS_RANGE, 2)
        tilt = rng.uniform(0.0, np.pi)
        value = rng.uniform(*_VALUE_RANGE)
        ellipses.append(Ellipse(cx, cy, ax, ay, tilt, value))

    centers = _grid_centers(grid_n)
    img = np.zeros(grid_n * grid_n)
    for e in ellipses:
        dx = centers[:, 0] - e.cx
        dy = centers[:, 1] - e.cy
        c, s = math.cos(e.tilt), math.sin(e.tilt)
        major = (dx * c + dy * s) / e.ax
        minor = (-dx * s + dy * c) / e.ay
        img += e.value * (major**2 + minor**2 <= 1.0)
    return Phantom(coeffs=np.clip(img, 0.0, 1.0), seed=int(seed), ellipses=tuple(ellipses))


def add_noise(y, delta: float, seed: int) -> np.ndarray:
    """Gaussian noise scaled by delta * max|y| (the sinogram convention)."""
    if not (np.isfinite(delta) and delta >= 0):
        raise ValueError(f"delta must be finite and non-negative, got {delta}")
    y = np.asarray(y, dtype=float)
    if delta == 0:
        return y.copy()
    g = np.random.default_rng(seed).standard_normal(y.shape)
    return y + delta * np.max(np.abs(y)) * g


def add_noise_exact(y, delta: float, seed: int) -> np.ndarray:
    """Seeded random direction scaled so the perturbation has l2 norm exactly
    delta; used by the rate experiments where the noise level is a hard bound."""
    if not (np.isfinite(delta) and delta >= 0):
        raise ValueError(f"delta must be finite and non-negative, got {delta}")
    y = np.asarray(y, dtype=float)
    if delta == 0:
        return y.copy()
    g = np.random.default_rng(seed).standard_normal(y.shape)
    return y + (delta / np.linalg.norm(g)) * g
