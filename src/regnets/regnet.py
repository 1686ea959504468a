"""Reconstruction methods: classical filters plus learned spectral residuals.

Three variants share the skeleton R_alpha(y) = B_alpha y + residual:

* ``classical``   residual = 0,
* ``nullspace``   residual = P_ker(net(B_alpha y)), confined to the
                  numerical kernel of the operator,
* ``continued``   residual = projection of net(B_alpha y) onto the
                  directions with sigma_n^2 < alpha (kernel included),
                  so the coefficients the filter keeps are untouched and
                  the truncated ones are extended from data.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import network
from .filters import FilterRegularizer, RegularizingFilter
from .linop import SvdOperator

__all__ = [
    "CLASSICAL",
    "NULLSPACE",
    "CONTINUED",
    "VARIANTS",
    "ReconstructionMethod",
    "RegNetFamily",
    "nullspace_residual",
    "continued_svd_residual",
    "residual_projection",
    "a3_residual",
]

CLASSICAL = "classical"
NULLSPACE = "nullspace"
CONTINUED = "continued"
VARIANTS = (CLASSICAL, NULLSPACE, CONTINUED)


def nullspace_residual(op: SvdOperator, params: network.NetworkParams, z) -> np.ndarray:
    """Kernel part of the network output: P_ker(A) net(z)."""
    return op.kernel_project(network.forward_batch(params, z))


def continued_svd_residual(op: SvdOperator, alpha: float, params: network.NetworkParams, z) -> np.ndarray:
    """Network output projected onto span{u_n : sigma_n^2 < alpha} plus the
    numerical kernel, i.e. the complement of the retained directions."""
    if alpha <= 0:
        raise ValueError(f"alpha must be positive, got {alpha}")
    return op.project_out(network.forward_batch(params, z), op.retained_rank(alpha))


def residual_projection(variant: str, op: SvdOperator, alpha: float):
    """The fixed self-adjoint projection a variant applies to raw network
    outputs, acting on row batches; None for the classical variant."""
    if variant == CLASSICAL:
        return None
    if variant == NULLSPACE:
        r = op.rank
    elif variant == CONTINUED:
        r = op.retained_rank(alpha)
    else:
        raise ValueError(f"unknown variant {variant!r}; expected one of {VARIANTS}")
    return lambda rows: op.project_out(rows, r)


@dataclass(frozen=True)
class ReconstructionMethod:
    """One reconstruction map y -> x bound to an operator, filter and alpha.

    For the learned variants ``params`` holds the trained network; the
    classical variant is exactly the zero-network special case.
    """

    variant: str
    operator: SvdOperator
    filt: RegularizingFilter
    alpha: float
    params: network.NetworkParams | None = None

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ValueError(f"unknown variant {self.variant!r}; expected one of {VARIANTS}")
        if self.variant != CLASSICAL and self.params is None:
            raise ValueError(f"variant {self.variant!r} requires trained network parameters")

    def regularizer(self) -> FilterRegularizer:
        return FilterRegularizer(self.operator, self.filt, self.alpha)

    @property
    def kept_count(self) -> int:
        return self.operator.retained_rank(self.alpha)

    def residual_map(self, z) -> np.ndarray:
        """The learned residual applied to a coefficient vector (0 for classical)."""
        if self.variant == CLASSICAL:
            return np.zeros(self.operator.cols)
        if self.variant == NULLSPACE:
            return nullspace_residual(self.operator, self.params, z)
        return continued_svd_residual(self.operator, self.alpha, self.params, z)

    def reconstruct(self, y) -> np.ndarray:
        base = self.regularizer().apply(y)
        if self.variant == CLASSICAL:
            return base
        return base + self.residual_map(base)

    def retained_coefficients(self, y) -> np.ndarray:
        """Spectral coefficients of the reconstruction on the retained
        directions (sigma_n^2 >= alpha).

        Computed on the one shared filter path, so the classical filter and
        the continued-SVD extension return bit-identical numbers here.
        """
        return self.regularizer().coefficients(y)[: self.kept_count]


def a3_residual(method: ReconstructionMethod, x) -> float:
    """The scalar || B_alpha A residual(B_alpha A x) ||, computed by composition."""
    reg = method.regularizer()
    inner = reg.apply_gram(x)
    res = method.residual_map(inner)
    return float(np.linalg.norm(reg.apply_gram(res)))


@dataclass(frozen=True)
class RegNetFamily:
    """An alpha-indexed family of trained methods sharing operator and filter.

    ``members`` is a list of (alpha, NetworkParams) with alphas strictly
    descending; ``lipschitz_cap`` is the declared uniform bound on the
    members' Lipschitz constants; ``regnets train`` records the largest
    ``network.lipschitz_upper_bound`` of the members, the closed-form bound
    from each kernel's DFT symbol on the (n+2)^2 torus.
    """

    variant: str
    operator: SvdOperator
    filt: RegularizingFilter
    members: list
    lipschitz_cap: float

    def __post_init__(self):
        if self.variant not in (NULLSPACE, CONTINUED):
            raise ValueError(f"family variant must be a learned one, got {self.variant!r}")
        alphas = [a for a, _ in self.members]
        if not alphas:
            raise ValueError("family needs at least one member")
        if not np.all(np.isfinite(alphas)) or min(alphas) <= 0 or np.any(np.diff(alphas) >= 0):
            raise ValueError("member alphas must be finite, positive and strictly descending")

    @property
    def alphas(self) -> np.ndarray:
        return np.array([a for a, _ in self.members])

    def nearest(self, alpha: float) -> ReconstructionMethod:
        """Member with the closest alpha on a log scale."""
        idx = int(np.argmin(np.abs(np.log(self.alphas) - np.log(alpha))))
        member_alpha, params = self.members[idx]
        return ReconstructionMethod(self.variant, self.operator, self.filt, member_alpha, params)
