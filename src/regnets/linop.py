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
index orbit whose stabiliser H lies in the kernel of chi.  Each block is
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
where U_chi holds the rows i_O and the columns of chi's pairs of U.  The
same holds for V with the row permutations.  A group of one element is
one block, U or V itself.
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
        return _BlockBasis(self.image_vectors, self._group[1], self.characters)

    @cached_property
    def _data_blocks(self) -> "_BlockBasis":
        return _BlockBasis(self.data_vectors, self._group[0], self.characters)

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
    """One side's singular vectors, U or V, as one dense block per character.

    Block chi is the exact sub-matrix of the basis on the first index of
    every orbit and the columns of chi's pairs, in stored order; for the
    trivial group it is the basis itself.  Products gather the input into
    orbit coordinates, multiply block by block and scatter back, as the
    module docstring describes.
    """

    def __init__(self, basis, perms, characters):
        self.size, self.count = basis.shape
        if perms.shape[0] == 1:
            self.idx = None
            self.blocks = [basis]
            self.pairs = [np.arange(basis.shape[1])]
            return
        chars = _characters(perms.shape[0].bit_length() - 1)
        self.chars = chars
        self.idx, stab = _orbit_basis(perms, chars[0])  # every orbit
        self.inv_stab = 1.0 / stab
        order = np.argsort(characters, kind="stable")
        bounds = np.cumsum(np.bincount(characters, minlength=len(chars)))[:-1]
        self.blocks = np.split(np.take(basis[self.idx[0]], order, axis=1), bounds, axis=1)
        self.pairs = np.split(order, bounds)

    def _gather(self, x) -> list:
        """Per block, (1/|H|) sum_t chi(t) x[t(i)] for each orbit's first index i."""
        if self.idx is None:
            return [x]
        coords = self.chars @ x[..., self.idx]
        coords *= self.inv_stab
        return [coords[..., s, :] for s in range(len(self.chars))]

    def _scatter(self, parts) -> np.ndarray:
        """The vector that is sum_chi chi(t) part_chi[O] at each index t(i) of orbit O."""
        if self.idx is None:
            return parts[0]
        values = self.chars @ np.stack(parts, axis=-2)  # the characters are symmetric
        out = np.empty(values.shape[:-2] + (self.size,))
        out[..., self.idx] = values
        return out

    def _check_count(self, r: int):
        if not 0 <= r <= self.count:
            raise ValueError(f"expected at most {self.count} singular vectors, got {r}")

    def coefficients(self, x, r: int) -> np.ndarray:
        """The inner products of x with columns 0 .. r-1, in stored order."""
        self._check_count(r)
        out = np.empty(x.shape[:-1] + (r,))
        for coords, block, pairs in zip(self._gather(x), self.blocks, self.pairs):
            n = int(np.searchsorted(pairs, r))
            out[..., pairs[:n]] = coords @ block[:, :n]
        return out

    def synthesize(self, coef) -> np.ndarray:
        """sum_n coef_n times column n, for n below the length of coef."""
        r = coef.shape[-1]
        self._check_count(r)
        parts = []
        for block, pairs in zip(self.blocks, self.pairs):
            n = int(np.searchsorted(pairs, r))
            parts.append(coef[..., pairs[:n]] @ block[:, :n].T)
        return self._scatter(parts)


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

    rows, cols = matrix.shape
    row_perms, col_perms = _symmetry_group(matrix, symmetries)
    chars = _characters(len(symmetries))
    blocks = _blocks(row_perms, col_perms, chars)
    k = min(rows, cols)
    if sum(min(r.shape[1], c.shape[1]) for _, r, _, c, _ in blocks) < k:
        # blocks of both shapes: no thin block SVD returns the zero pairs they lack
        row_perms, col_perms, chars = row_perms[:1], col_perms[:1], _characters(0)
        blocks = _blocks(row_perms, col_perms, chars)
    col_reps = _orbit_basis(col_perms, chars[0])[0][0]
    row_reps = _orbit_basis(row_perms, chars[0])[0][0]
    # the singular vectors in orbit coordinates, one row per orbit; an
    # orbit a block drops is zero in its columns
    u = np.zeros((col_reps.size, k))
    v = np.zeros((row_reps.size, k))
    sigma = np.zeros(k)
    characters = np.zeros(k, dtype=np.intp)
    pos = 0
    for s_chi, (chi, row_idx, row_stab, col_idx, col_stab) in enumerate(blocks):
        block = _gather_block(matrix, chi, row_idx, row_stab, col_idx, col_stab)
        # the transposed block, so that w comes out (orbits, pairs) and row-major
        w, s, zt = np.linalg.svd(block.T, full_matrices=False)
        del block
        sigma[pos : pos + s.size] = s
        characters[pos : pos + s.size] = s_chi
        _place(u, col_reps, col_idx, col_stab, w, pos)
        _place(v, row_reps, row_idx, row_stab, zt.T, pos)
        pos += s.size

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
    u = _unfold(u, col_perms, chars, characters)  # frees u's orbit coordinates before v's unfold
    v = _unfold(v, row_perms, chars, characters)
    return SvdOperator(
        matrix=matrix,
        image_vectors=u,
        data_vectors=v,
        singular_values=sigma,
        rank_tol=float(rank_tol),
        symmetries=tuple(symmetries) if len(blocks) > 1 else (),
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


def _characters(m: int) -> np.ndarray:
    """The 2^m characters of (Z/2)^m as rows of +-1: chi[s, b] = (-1)^popcount(s & b)."""
    return np.array([[(-1.0) ** bin(s & b).count("1") for b in range(1 << m)] for s in range(1 << m)])


def _orbit_basis(perms, chi):
    """The orbits of one index set that carry character ``chi``.

    Returns the image of each orbit's smallest index under every group
    element, shape ``(|G|, orbits)``, and each orbit's stabiliser size.  An
    orbit whose stabiliser contains an element with chi = -1 has no
    chi-component and is dropped.
    """
    size = perms.shape[1]
    reps = np.flatnonzero(perms.min(axis=0) == np.arange(size))
    fixed = perms[:, reps] == reps
    keep = ~np.any(fixed & (chi < 0)[:, None], axis=0)
    return perms[:, reps[keep]], np.count_nonzero(fixed[:, keep], axis=0)


def _blocks(row_perms, col_perms, chars):
    """``(chi, row_idx, row_stab, col_idx, col_stab)`` for each character."""
    return [(chi, *_orbit_basis(row_perms, chi), *_orbit_basis(col_perms, chi)) for chi in chars]


def _gather_block(matrix, chi, row_idx, row_stab, col_idx, col_stab):
    """The chi-block of the matrix in the orbit bases, without a dense basis.

    The basis vector of orbit O is sum_t chi(t) e_{t(i)} / sqrt(|G| |H|) on
    either side.  A maps the chi-part of coefficient space into that of
    data space, where the row basis vector of an orbit with first index i
    reads y as sqrt(|G| / |H|) y_i.  So the block needs only the orbits'
    first rows: one row gather, then a signed sum of |G| column gathers,
    weighted 1 / sqrt(|H_row| |H_col|).
    """
    block = np.zeros((row_idx.shape[1], col_idx.shape[1]))
    step = max(1, _CHUNK // matrix.shape[1])
    for i in range(0, block.shape[0], step):
        rows = matrix[row_idx[0, i : i + step]]
        part = block[i : i + step]
        for t, sign in enumerate(chi):
            (np.add if sign > 0 else np.subtract)(part, np.take(rows, col_idx[t], axis=1), out=part)
    block *= 1.0 / np.sqrt(row_stab)[:, None]
    block *= 1.0 / np.sqrt(col_stab)
    return block


def _place(out, reps, idx, stab, vecs, pos: int):
    """Write a block's vectors as columns ``pos`` onwards of the orbit
    coordinates ``out``, whose rows are the orbits with first indices
    ``reps``: orbit coefficient c becomes c sqrt(|H|/|G|), its value at
    the orbit's first index."""
    rows = np.searchsorted(reps, idx[0])
    out[rows, pos : pos + vecs.shape[1]] = vecs * np.sqrt(stab / idx.shape[0])[:, None]


def _unfold(vecs, perms, chars, characters):
    """The full-length basis of orbit coordinates ``vecs``, one row per
    orbit in ascending order of first index i_O: entry t(i_O) of column n
    is chi(t) vecs[O, n] for the pair's character chi.  On an orbit that
    chi drops, each entry is vecs[O, n] itself, a zero signed as the pair.
    For the trivial group this is ``vecs``, not a copy."""
    if perms.shape[0] == 1:
        return vecs
    idx = _orbit_basis(perms, chars[0])[0]
    signs = chars[:, characters]  # chi(t) of each pair; the characters are symmetric
    out = np.empty((perms.shape[1], vecs.shape[1]))
    step = max(1, _CHUNK // vecs.shape[1])
    for i in range(0, idx.shape[1], step):
        part = vecs[i : i + step]
        out[idx[0, i : i + step]] = part  # the identity, where every chi is 1
        for t in range(1, idx.shape[0]):
            out[idx[t, i : i + step]] = part * signs[t]
    for s, chi in enumerate(chars):
        dropped = np.flatnonzero(~np.isin(idx[0], _orbit_basis(perms, chi)[0][0]))
        pairs = np.flatnonzero(characters == s)
        for t in range(idx.shape[0]):
            out[np.ix_(idx[t, dropped], pairs)] = vecs[np.ix_(dropped, pairs)]
    return out
