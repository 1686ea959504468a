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

Symmetry blocks.  ``svd_decompose`` may be given commuting involutions of
the matrix, each a row permutation paired with a column permutation that
together leave it fixed (for the tomography operator, the x- and y-mirror
flips of ``RadonGeometry.mirrors``).  They generate a group G = (Z/2)^m,
and A maps the chi-isotypic part of coefficient space into that of data
space for each of the 2^m characters chi.  So A is block diagonal in the
orbit bases e = sum_t chi(t) e_{t(i)} / sqrt(|G| |H|), one basis vector per
index orbit whose stabiliser H lies in the kernel of chi.  The orbits of
each side, with their first indices and stabilisers and the characters
that keep each, are worked out in one place, the table ``_Orbits``; the
block SVD, its unfold and the block products all read it, and it alone
forms the signed orbit sums sum_t chi(t) x_{t(i)} (``gather``) and maps
them back to full length (``scatter``) for both.  Each block is
about 1/|G| of A on each side and is factored by its own SVD, which costs
about 1/|G|^3 of the whole.  Each block's singular vectors are placed, as
soon as it is factored, in orbit coordinates: one row per orbit, about
1/|G| of U or V.  The merged system is sorted there by a stable
descending sort of sigma over the blocks taken in character order
(chi_s(t) = (-1)^popcount(s & t)), so tied singular values keep that
order, its signs are fixed there, and each side is expanded to full
length once.  When blocks of both shapes supply fewer than min(rows,
cols) singular pairs (the zero pairs they lack come from no thin block
SVD), the whole matrix is factored as the one block instead, as it is
with no symmetries.

The operator records the group it was factored with: the generator pairs
and the character of each stored pair (the trivial group and character 0
without symmetries or after that fallback).  So U and V are block diagonal
in the orbit bases, and every product with them is done one block at a
time.  Entry ``U[i, n]`` of a pair n of character chi is chi(t) U[i_O, n]
at each index i = t(i_O) of the orbit O with first index i_O, and is 0 on
the orbits chi drops; so <u_n, x> = sum_O U[i_O, n] (1/|H_O|) sum_t chi(t)
x_{t(i_O)}, and sum_n c_n u_n is sum_chi chi(t) (U_chi c)_O at t(i_O),
where U_chi holds the rows i_O and the columns of chi's pairs of U below
the rank, the only ones a product reads.  The same holds for V with the
row permutations.  A group of one element is one block, the first
``rank`` columns of U or V, not a copy.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

__all__ = ["SvdOperator", "svd_decompose"]

# elements per chunk of the passes that would otherwise copy a whole matrix
_CHUNK = 1 << 18
# generators of a symmetry group at most: 2^8 blocks, and a group table of
# 2^8 index maps on each side
_MAX_GENERATORS = 8


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
    symmetries : tuple
        Generator pairs ``(row_perm, col_perm)`` of the group the singular
        system is block diagonal for (the module docstring); ``()`` for the
        trivial group.  They must be commuting involutions, each new to the
        group; that they leave the matrix fixed is not checked here.
    characters : (k,) int array or None
        The character of each stored pair, below ``2 ** len(symmetries)``;
        None means 0 for every pair.  U and V must have the block structure
        these give them: products read only the orbits' first rows.
    rank : int
        Number of kept directions: columns 0 .. rank-1 (a prefix, as the
        singular values descend).  ``retained_rank(alpha)`` is a shorter one.
        Products with U or V take at most ``rank`` directions.
    """

    matrix: np.ndarray
    image_vectors: np.ndarray
    data_vectors: np.ndarray
    singular_values: np.ndarray
    rank_tol: float
    symmetries: tuple = ()
    characters: np.ndarray | None = None
    rank: int = field(init=False)
    _group: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        sigma = self.singular_values
        if not (np.all(np.isfinite(sigma)) and np.all(sigma >= 0) and np.all(np.diff(sigma) <= 0)):
            raise ValueError("singular values must be finite, non-negative and non-increasing")
        cutoff = self.rank_tol * (sigma[0] if sigma.size else 0.0)
        object.__setattr__(self, "rank", int(np.count_nonzero(sigma > cutoff)))
        row_perms, col_perms = _group_table(self.rows, self.cols, self.symmetries)
        k = sigma.size
        chars = np.zeros(k, dtype=np.intp) if self.characters is None else np.asarray(self.characters)
        if chars.shape != (k,) or chars.dtype.kind not in "iu":
            raise ValueError(f"expected {k} integer characters, got shape {chars.shape} of {chars.dtype}")
        if k and (chars.min() < 0 or chars.max() >= row_perms.shape[0]):
            raise ValueError(f"characters must lie in [0, {row_perms.shape[0]}), got [{chars.min()}, {chars.max()}]")
        generators = tuple((row_perms[1 << n], col_perms[1 << n]) for n in range(len(self.symmetries)))
        object.__setattr__(self, "symmetries", generators)
        object.__setattr__(self, "characters", chars.astype(np.intp, copy=False))
        object.__setattr__(self, "_group", (row_perms, col_perms))

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

    @cached_property
    def _image_blocks(self) -> "_BlockBasis":
        return _BlockBasis(self.image_vectors, _Orbits(self._group[1]), self.characters, self.rank)

    @cached_property
    def _data_blocks(self) -> "_BlockBasis":
        return _BlockBasis(self.data_vectors, _Orbits(self._group[0]), self.characters, self.rank)

    def image_coefficients(self, x, r: int) -> np.ndarray:
        """<u_n, x> for n < r, for one coefficient vector or a (count, cols)
        stack of them, row by row."""
        return self._image_blocks.coefficients(self._check_coeff(x, stack=True), r)

    def data_coefficients(self, y, r: int) -> np.ndarray:
        """<v_n, y> for n < r, for one data vector or a (count, rows) stack."""
        return self._data_blocks.coefficients(self._check_data(y, stack=True), r)

    def synthesize(self, coef) -> np.ndarray:
        """sum_{n < r} coef_n u_n for coefficients of length r, or a
        (count, r) stack of them, row by row."""
        return self._image_blocks.synthesize(np.asarray(coef, dtype=float))

    def spectral_multiply(self, x, scale) -> np.ndarray:
        """sum_{n < len(scale)} scale_n <u_n, x> u_n, for one coefficient
        vector or a (count, cols) stack of them, row by row."""
        return self.synthesize(self.image_coefficients(x, len(scale)) * scale)

    def project_out(self, x, r: int) -> np.ndarray:
        """x minus its orthogonal projection onto u_0 .. u_{r-1}, for one
        coefficient vector or a (count, cols) stack of them."""
        return x - self.spectral_multiply(x, np.ones(r))

    def kernel_project(self, x) -> np.ndarray:
        """Orthogonal projection onto the numerical kernel."""
        return self.project_out(x, self.rank)

    def power_apply(self, x, mu: float) -> np.ndarray:
        """(A* A)^mu x for mu > 0, with numerical-kernel components annihilated."""
        if not (np.isfinite(mu) and mu > 0):
            raise ValueError(f"mu must be finite and positive, got {mu}")
        return self.spectral_multiply(x, self.singular_values[: self.rank] ** (2.0 * mu))


def _check_length(x, length: int, space: str, stack: bool) -> np.ndarray:
    """x as one float vector of ``length``, or with ``stack`` also a (count, length) stack."""
    x = np.asarray(x, dtype=float)
    if x.ndim not in ((1, 2) if stack else (1,)) or x.shape[-1] != length:
        raise ValueError(f"expected {space} vector of length {length}, got shape {x.shape}")
    return x


class _BlockBasis:
    """One side's singular vectors, U or V, up to the rank, as the dense
    block U_chi of each character chi (the module docstring); products
    gather the input with the side's table, multiply block by block and
    scatter back."""

    def __init__(self, basis, orbits, characters, rank: int):
        self.orbits, self.count = orbits, rank
        order = np.argsort(characters[:rank], kind="stable")
        bounds = np.cumsum(np.bincount(characters[:rank], minlength=len(orbits.chars)))[:-1]
        if len(orbits.chars) == 1:
            self.blocks = [basis[:, :rank]]
        else:
            self.blocks = np.split(np.take(basis[orbits.idx[0], :rank], order, axis=1), bounds, axis=1)
        self.pairs = np.split(order, bounds)

    def _check_count(self, r: int):
        if not 0 <= r <= self.count:
            raise ValueError(f"expected at most {self.count} singular vectors, got {r}")

    def coefficients(self, x, r: int) -> np.ndarray:
        """The inner products of x with columns 0 .. r-1, in stored order."""
        self._check_count(r)
        coords = self.orbits.gather(x) / self.orbits.stab
        out = np.empty(x.shape[:-1] + (r,))
        for s, (block, pairs) in enumerate(zip(self.blocks, self.pairs)):
            n = int(np.searchsorted(pairs, r))
            out[..., pairs[:n]] = coords[..., s, :] @ block[:, :n]
        return out

    def synthesize(self, coef) -> np.ndarray:
        """sum_n coef_n times column n, for n below the length of coef."""
        r = coef.shape[-1]
        self._check_count(r)
        values = np.empty(coef.shape[:-1] + self.orbits.idx.shape)
        for s, (block, pairs) in enumerate(zip(self.blocks, self.pairs)):
            n = int(np.searchsorted(pairs, r))
            np.matmul(coef[..., pairs[:n]], block[:, :n].T, out=values[..., s, :])
        return self.orbits.scatter(values)


def svd_decompose(matrix, rank_tol: float = 1e-10, symmetries=()) -> SvdOperator:
    """Factor a dense matrix and cache the singular system.

    ``symmetries`` are commuting involutions of the matrix, each a
    ``(row_perm, col_perm)`` pair with ``matrix[row_perm][:, col_perm]``
    equal to ``matrix`` (``RadonGeometry.mirrors`` gives them for the
    tomography operator).  The matrix is factored one block per character
    of the group they generate, as the module docstring describes; with no
    symmetries, or when the blocks supply fewer than min(rows, cols)
    singular pairs, the whole matrix is the one block.  The stored matrix is
    ``matrix`` itself, not a copy, when it is already a C-ordered float
    array.

    Signs are canonicalized (largest-magnitude entry of each u_n, the
    first one on ties, made positive, v_n flipped along) so repeated runs
    produce identical stored systems.  Both the order and the signs are
    settled in orbit coordinates, before U and V are expanded to full
    length; an entry on an orbit that a pair's character drops is a zero
    carrying the pair's sign flip.

    Raises
    ------
    ValueError
        Non-finite entries, empty matrix, rank_tol outside (0, 1), a
        symmetry that is not a commuting involution of the index sets, or
        a matrix that a symmetry changes by more than 1e-12 relative.
    numpy.linalg.LinAlgError
        If the factorization does not converge.
    """
    matrix = np.ascontiguousarray(matrix, dtype=float)
    if matrix.ndim != 2 or matrix.shape[0] < 1 or matrix.shape[1] < 1:
        raise ValueError(f"expected a non-empty 2-d matrix, got shape {matrix.shape}")
    if not np.all(np.isfinite(matrix)):
        raise ValueError("matrix contains non-finite entries")
    if not (0.0 < rank_tol < 1.0):
        raise ValueError(f"rank_tol must lie in (0, 1), got {rank_tol}")

    row_perms, col_perms = _symmetry_group(matrix, symmetries)
    row_orbits, col_orbits = _Orbits(row_perms), _Orbits(col_perms)
    k = min(matrix.shape)
    if np.minimum(row_orbits.keep.sum(axis=1), col_orbits.keep.sum(axis=1)).sum() < k:
        # blocks of both shapes: no thin block SVD returns the zero pairs they lack
        row_orbits, col_orbits = _Orbits(row_perms[:1]), _Orbits(col_perms[:1])
    # the singular vectors in orbit coordinates, one row per orbit; an
    # orbit a block drops is zero in its columns
    u = np.zeros((col_orbits.idx.shape[1], k))
    v = np.zeros((row_orbits.idx.shape[1], k))
    sigma = np.zeros(k)
    characters = np.zeros(k, dtype=np.intp)
    pos = 0
    blocks = _orbit_blocks(matrix, row_orbits, col_orbits)
    for s_chi in range(len(blocks)):
        # the transposed block, so that w comes out (orbits, pairs) and row-major
        w, s, zt = np.linalg.svd(blocks[s_chi].T, full_matrices=False)
        blocks[s_chi] = None
        pairs = slice(pos, pos + s.size)
        sigma[pairs] = s
        characters[pairs] = s_chi
        # orbit coefficient c becomes c sqrt(|H|/|G|), its value at the orbit's first index
        keep = col_orbits.keep[s_chi]
        u[keep, pairs] = w * np.sqrt(col_orbits.stab[keep] / len(col_orbits.chars))[:, None]
        keep = row_orbits.keep[s_chi]
        v[keep, pairs] = zt.T * np.sqrt(row_orbits.stab[keep] / len(row_orbits.chars))[:, None]
        pos += s.size
        del w, zt  # freed before the next block's SVD, not held through the unfolds

    order = np.argsort(-sigma, kind="stable")
    if np.any(order != np.arange(k)):  # one block comes out of LAPACK in order: no copy then
        sigma, characters = sigma[order], characters[order]
        u, v = np.take(u, order, axis=1), np.take(v, order, axis=1)
    # the largest-magnitude entry of u_n, the first on ties, made positive:
    # |u_n| is |u[O, n]| on orbit O, and orbits come in ascending order of
    # their first index
    pivot = np.argmax(np.abs(u), axis=0)
    sign = np.where(u[pivot, np.arange(k)] < 0, -1.0, 1.0)
    u *= sign
    v *= sign
    u = _unfold(u, col_orbits, characters)  # frees u's orbit coordinates before v's unfold
    v = _unfold(v, row_orbits, characters)
    return SvdOperator(
        matrix=matrix,
        image_vectors=u,
        data_vectors=v,
        singular_values=sigma,
        rank_tol=float(rank_tol),
        symmetries=tuple(symmetries) if len(col_orbits.chars) > 1 else (),
        characters=characters,
    )


def _symmetry_group(matrix, symmetries):
    """``_group_table`` of the pairs, each of which must also leave the
    matrix fixed."""
    row_perms, col_perms = _group_table(*matrix.shape, symmetries)
    norm = np.linalg.norm(matrix) if len(symmetries) else 0.0
    for n in range(len(symmetries)):
        _check_invariant(matrix, row_perms[1 << n], col_perms[1 << n], n, norm)
    return row_perms, col_perms


def _group_table(rows: int, cols: int, symmetries):
    """Every element of the group the pairs generate, as ``(|G|, rows)`` and
    ``(|G|, cols)`` index arrays; element ``b`` composes the generators whose
    bit is set in ``b``, so element 0 is the identity.  There may be at most
    ``_MAX_GENERATORS`` pairs, and each must be a commuting involution of the
    index sets, new to the group."""
    if len(symmetries) > _MAX_GENERATORS:
        raise ValueError(f"at most {_MAX_GENERATORS} symmetries, got {len(symmetries)}")
    row_perms = np.arange(rows)[None, :]
    col_perms = np.arange(cols)[None, :]
    for n, pair in enumerate(symmetries):
        try:
            r, c = (np.asarray(p) for p in pair)
        except (TypeError, ValueError) as exc:
            raise ValueError(f"symmetry {n}: expected a (row_perm, col_perm) pair") from exc
        for perm, size, side in ((r, rows, "row"), (c, cols, "column")):
            if perm.shape != (size,) or perm.dtype.kind not in "iu":
                raise ValueError(f"symmetry {n}: {side} map is not {size} integer indices")
            if not np.array_equal(np.sort(perm), np.arange(size)):
                raise ValueError(f"symmetry {n}: {side} map is not a permutation")
            if not np.array_equal(perm[perm], np.arange(size)):
                raise ValueError(f"symmetry {n}: {side} map is not an involution")
        if not (np.array_equal(row_perms[:, r], r[row_perms]) and np.array_equal(col_perms[:, c], c[col_perms])):
            raise ValueError(f"symmetry {n} does not commute with the earlier ones")
        new_rows, new_cols = r[row_perms], c[col_perms]
        if np.any(np.all(new_rows == np.arange(rows), axis=1) & np.all(new_cols == np.arange(cols), axis=1)):
            raise ValueError(f"symmetry {n} lies in the group of the earlier ones")
        row_perms = np.vstack([row_perms, new_rows])
        col_perms = np.vstack([col_perms, new_cols])
    return row_perms, col_perms


def _check_invariant(matrix, r, c, n: int, norm: float):
    """Require ``matrix[r][:, c] == matrix`` to 1e-12 relative to ``norm``,
    the matrix's Frobenius norm; the rows are compared a chunk at a time.

    Row r(i) of the difference is minus row i with its columns permuted by
    c, as r and c are involutions, so only the rows i <= r(i) are formed
    and those with r(i) != i count twice."""
    rows = np.flatnonzero(np.arange(r.size) <= r)
    weight = np.where(r[rows] == rows, 1.0, 2.0)
    step = max(1, _CHUNK // matrix.shape[1])
    err = 0.0
    for i in range(0, rows.size, step):
        part = rows[i : i + step]
        diff = np.take(matrix[r[part]], c, axis=1)
        diff -= matrix[part]
        err += float(weight[i : i + step] @ np.einsum("ij,ij->i", diff, diff))
    if np.sqrt(err) > 1e-12 * norm:
        raise ValueError(f"symmetry {n} changes the matrix by {np.sqrt(err) / norm:.3g} relative")


class _Orbits:
    """The index orbits of one side under the group, the one place they are
    worked out.

    Built from one side's ``_group_table`` rows.  ``chars`` are the
    characters of the group as rows of +-1, chi_s(b) = (-1)^popcount(s & b)
    at element b, ``size`` the length of the index set, ``idx`` the image
    of each orbit's first index under every group element, shape
    ``(|G|, orbits)`` with the orbits in ascending order of first index,
    ``stab`` each orbit's stabiliser size, and ``keep`` (characters x
    orbits) whether a character has a component on an orbit: it does
    unless an element of the stabiliser has chi = -1.
    """

    def __init__(self, perms):
        self.size = perms.shape[1]
        order = perms.shape[0]
        self.chars = np.array([[(-1.0) ** bin(s & b).count("1") for b in range(order)] for s in range(order)])
        reps = np.flatnonzero(perms.min(axis=0) == np.arange(self.size))
        self.idx = perms[:, reps]
        fixed = self.idx == reps
        self.stab = np.count_nonzero(fixed, axis=0)
        self.keep = ~np.any(fixed & (self.chars < 0)[:, :, None], axis=1)

    def gather(self, x) -> np.ndarray:
        """sum_t chi(t) x[..., t(i)] for every character chi (axis -2) and
        each orbit's first index i (axis -1); for the trivial group, x itself
        with a character axis of length 1, not a copy."""
        if self.idx.shape[0] == 1:
            return x[..., None, :]
        return self.chars @ x[..., self.idx]

    def scatter(self, values) -> np.ndarray:
        """The full-length vector that is sum_chi chi(t) values[..., chi, O]
        at each index t(i) of orbit O; for the trivial group
        ``values[..., 0, :]``, not a copy."""
        if self.idx.shape[0] == 1:
            return values[..., 0, :]
        values = self.chars @ values  # the characters are symmetric
        out = np.empty(values.shape[:-2] + (self.size,))
        out[..., self.idx] = values
        return out


def _orbit_blocks(matrix, row_orbits, col_orbits) -> list:
    """Each character's block of the matrix in the orbit bases, without a
    dense basis: the signed column sums (``gather``) of the row orbits'
    first rows, a chunk of rows at a time, split among the characters by
    the orbits each keeps and weighted 1 / sqrt(|H_row| |H_col|)."""
    row_keep, col_keep = row_orbits.keep, col_orbits.keep
    blocks = [np.empty((np.count_nonzero(r), np.count_nonzero(c))) for r, c in zip(row_keep, col_keep)]
    first = row_orbits.idx[0]
    step = max(1, _CHUNK // matrix.shape[1])
    for i in range(0, first.size, step):
        sums = col_orbits.gather(matrix[first[i : i + step]])
        sums *= 1.0 / np.sqrt(row_orbits.stab[i : i + step])[:, None, None]
        sums *= 1.0 / np.sqrt(col_orbits.stab)
        for s, block in enumerate(blocks):
            keep = row_keep[s, : i + step]
            block[np.count_nonzero(keep[:i]) : np.count_nonzero(keep)] = sums[:, s][np.ix_(keep[i:], col_keep[s])]
    return blocks


def _unfold(vecs, orbits, characters):
    """The full-length basis of orbit coordinates ``vecs``, one row per
    orbit of ``orbits``: entry t(i_O) of column n is chi(t) vecs[O, n] for
    the pair's character chi.  On an orbit that chi drops, each entry is
    vecs[O, n] itself, a zero signed as the pair.  For the trivial group
    this is ``vecs``, not a copy."""
    idx = orbits.idx
    if idx.shape[0] == 1:
        return vecs
    signs = orbits.chars[:, characters]  # chi(t) of each pair; the characters are symmetric
    out = np.empty((orbits.size, vecs.shape[1]))
    step = max(1, _CHUNK // vecs.shape[1])
    for i in range(0, idx.shape[1], step):
        part = vecs[i : i + step]
        out[idx[0, i : i + step]] = part  # the identity, where every chi is 1
        for t in range(1, idx.shape[0]):
            out[idx[t, i : i + step]] = part * signs[t]
    for s, keep in enumerate(orbits.keep):
        dropped = np.flatnonzero(~keep)
        pairs = np.flatnonzero(characters == s)
        for t in range(idx.shape[0]):
            out[np.ix_(idx[t, dropped], pairs)] = vecs[np.ix_(dropped, pairs)]
    return out
