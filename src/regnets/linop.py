"""Dense linear operators with a cached singular system.

Everything downstream (spectral filters, learned reconstructions, the
error analysis) works in the singular basis of one fixed forward map,
so the decomposition is computed once and carried around explicitly.

Convention, fixed once and for all: ``u_n`` are orthonormal directions
in coefficient (image) space, ``v_n`` in data space, and

    A x = sum_n sigma_n <u_n, x> v_n.

The singular values are stored in descending order, so every spectral
set the code uses is a prefix of the stored system: directions
``0 .. rank-1`` are kept (sigma_n above ``rank_tol * sigma_1``), and the
first ``retained_rank(alpha)`` of them have sigma_n^2 >= alpha.  The
numerical kernel is the span of the remaining stored directions together
with the orthogonal complement of the stored system.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = ["SvdOperator", "svd_decompose"]


@dataclass(frozen=True)
class SvdOperator:
    """A dense forward map together with its thin SVD.

    Attributes
    ----------
    matrix : (rows, cols) array
        The forward map A.
    image_vectors : (cols, k) array
        Columns are the u_n (coefficient space), k = min(rows, cols).
    data_vectors : (rows, k) array
        Columns are the v_n (data space).
    singular_values : (k,) array, descending and non-negative.
    rank_tol : float
        Relative threshold; sigma_n <= rank_tol * sigma_1 is treated as 0.
    rank : int
        Number of kept directions: columns 0 .. rank-1 (a prefix, as the
        singular values descend).  ``retained_rank(alpha)`` is a shorter one.
    """

    matrix: np.ndarray
    image_vectors: np.ndarray
    data_vectors: np.ndarray
    singular_values: np.ndarray
    rank_tol: float
    rank: int = field(init=False)

    def __post_init__(self):
        sigma = self.singular_values
        if not (np.all(np.isfinite(sigma)) and np.all(sigma >= 0) and np.all(np.diff(sigma) <= 0)):
            raise ValueError("singular values must be finite, non-negative and non-increasing")
        cutoff = self.rank_tol * (sigma[0] if sigma.size else 0.0)
        object.__setattr__(self, "rank", int(np.count_nonzero(sigma > cutoff)))

    @property
    def rows(self) -> int:
        return self.matrix.shape[0]

    @property
    def cols(self) -> int:
        return self.matrix.shape[1]

    @property
    def sigma_max(self) -> float:
        return float(self.singular_values[0]) if self.singular_values.size else 0.0

    def retained_rank(self, alpha: float) -> int:
        """Number of leading kept directions with sigma_n^2 >= alpha."""
        return int(np.count_nonzero(self.singular_values[: self.rank] ** 2 >= alpha))

    def _check_coeff(self, x, stack=False):
        return _check_length(x, self.cols, "coefficient", stack)

    def _check_data(self, y, stack=False):
        return _check_length(y, self.rows, "data", stack)

    def forward(self, x) -> np.ndarray:
        """A x."""
        return self.matrix @ self._check_coeff(x)

    def project_out(self, x, r: int) -> np.ndarray:
        """x minus its orthogonal projection onto u_0 .. u_{r-1}, for one
        coefficient vector or a (count, cols) stack of them."""
        x = self._check_coeff(x, stack=True)
        u = self.image_vectors[:, :r]
        return x - (x @ u) @ u.T

    def kernel_project(self, x) -> np.ndarray:
        """Orthogonal projection onto the numerical kernel."""
        return self.project_out(x, self.rank)

    def power_apply(self, x, mu: float) -> np.ndarray:
        """(A* A)^mu x for mu > 0, with numerical-kernel components annihilated."""
        if not (np.isfinite(mu) and mu > 0):
            raise ValueError(f"mu must be finite and positive, got {mu}")
        x = self._check_coeff(x)
        r = self.rank
        u = self.image_vectors[:, :r]
        scale = self.singular_values[:r] ** (2.0 * mu)
        return u @ (scale * (u.T @ x))


def _check_length(x, length: int, space: str, stack: bool) -> np.ndarray:
    """x as one float vector of ``length``, or with ``stack`` also a (count, length) stack."""
    x = np.asarray(x, dtype=float)
    if x.ndim not in ((1, 2) if stack else (1,)) or x.shape[-1] != length:
        raise ValueError(f"expected {space} vector of length {length}, got shape {x.shape}")
    return x


def svd_decompose(matrix, rank_tol: float = 1e-10) -> SvdOperator:
    """Factor a dense matrix and cache the singular system.

    Signs are canonicalized (largest-magnitude entry of each u_n made
    positive, v_n flipped along) so repeated runs produce identical
    stored systems.

    Raises
    ------
    ValueError
        Non-finite entries, empty matrix, or rank_tol outside (0, 1).
    numpy.linalg.LinAlgError
        If the factorization does not converge.
    """
    matrix = np.array(matrix, dtype=float, copy=True, order="C")
    if matrix.ndim != 2 or matrix.shape[0] < 1 or matrix.shape[1] < 1:
        raise ValueError(f"expected a non-empty 2-d matrix, got shape {matrix.shape}")
    if not np.all(np.isfinite(matrix)):
        raise ValueError("matrix contains non-finite entries")
    if not (0.0 < rank_tol < 1.0):
        raise ValueError(f"rank_tol must lie in (0, 1), got {rank_tol}")

    v, sigma, ut = np.linalg.svd(matrix, full_matrices=False)
    u = ut.T  # columns are coefficient-space directions

    # deterministic sign choice per singular pair
    for n in range(sigma.size):
        pivot = np.argmax(np.abs(u[:, n]))
        if u[pivot, n] < 0:
            u[:, n] = -u[:, n]
            v[:, n] = -v[:, n]

    return SvdOperator(
        matrix=matrix,
        image_vectors=np.ascontiguousarray(u),
        data_vectors=np.ascontiguousarray(v),
        singular_values=sigma,
        rank_tol=float(rank_tol),
    )
