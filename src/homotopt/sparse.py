"""Sparse storage, deterministic triplet assembly, and direct linear solves.

Every assembled operator in the package (elasticity stiffness, density mass
and stiffness, KKT blocks) is a scipy CSR matrix.  Its data comes from a
:class:`SparsityPattern`, which sorts a fixed triplet layout once and then
sums any values for it by one product with its summation operator.  General
systems go through :func:`solve_direct`, a sparse LU with partial pivoting.
The reduced KKT matrix M of a run is a :class:`BlockSystem` on fixed block
layouts, its values given by an input z.  Each
:class:`Subspace` Q it is restricted to gets, once, an operator from z to
``Q^T M Q`` and a fill-reducing order, on which ``Q^T M Q`` is factored by
diagonal pivoting, ``P A P^T = L D L^T``, which also counts the negative
pivots (the inertia).
A factorization whose smallest pivot falls below ``PIVOT_RATIO`` times the
largest, or whose solution is not finite, raises
:class:`SingularMatrixError`, which callers treat as "the Newton system
degenerated", distinct from a shape error; the symmetric factorization
raises it too when SuperLU left the diagonal.
"""
from __future__ import annotations

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

__all__ = [
    "SparsityPattern",
    "Subspace",
    "BlockSystem",
    "SingularMatrixError",
    "SymmetricFactor",
    "solve_direct",
]

# Pivots below this fraction of the largest pivot count as singular.
PIVOT_RATIO = 1e-14


class SingularMatrixError(RuntimeError):
    """The factorization met a pivot below the singularity threshold."""


class SparseMatrix:
    """Only ``from_triplets``, kept because ``perfbench/tracer.py`` patches
    it by name, as it wraps the otherwise unused ``solve_direct`` imports in
    ``fem`` and ``barrier``.  Every matrix of the package is a scipy CSR
    matrix."""

    @classmethod
    def from_triplets(cls, nrows: int, ncols: int, rows, cols, values) -> sp.csr_matrix:
        """The matrix of the triplets, duplicates summed as
        :class:`SparsityPattern` sums them."""
        values = np.asarray(values, dtype=np.float64).ravel()
        if not (np.size(rows) == np.size(cols) == values.size):
            raise ValueError("rows, cols and values must have equal length")
        return SparsityPattern(nrows, ncols, rows, cols).fill(values)


class SparsityPattern:
    """CSR layout of a fixed ``(rows, cols)`` triplet sequence, with the
    reduction that sums any values for that sequence into its CSR data.

    The stable (row, column) sort runs once, at construction, and fixes the
    reduction as one summation operator, ``summation``: a CSR matrix with
    one row per entry and one column per triplet, which lists the entry's
    triplets in input order with their ``weights`` (default 1) as its data.
    So :meth:`reduce` is one sparse matrix-vector product, which sums each
    entry's weighted values left to right in input order, starting from
    +0.0; a refill is bit-identical to ``from_triplets``.  Where the mask
    ``keep`` is given, only the triplets it marks are laid out and summed:
    the others' indices are not checked and their values are not read.
    """

    __slots__ = ("shape", "summation", "indices", "indptr")

    def __init__(self, nrows: int, ncols: int, rows, cols, keep=None, weights=None):
        rows = np.asarray(rows, dtype=np.int64).ravel()
        cols = np.asarray(cols, dtype=np.int64).ravel()
        if rows.size != cols.size:
            raise ValueError("rows and cols must have equal length")
        if int(nrows) * int(ncols) > np.iinfo(np.int64).max:
            raise ValueError(f"a {nrows}x{ncols} matrix has more entries than int64 can index")
        nvalues = rows.size
        source = np.arange(nvalues)
        if keep is not None:
            source = source[np.asarray(keep, dtype=bool).ravel()]
            rows, cols = rows[source], cols[source]
        if rows.size:
            if rows.min() < 0 or rows.max() >= nrows:
                raise IndexError(f"row index out of range for {nrows}x{ncols} matrix")
            if cols.min() < 0 or cols.max() >= ncols:
                raise IndexError(f"column index out of range for {nrows}x{ncols} matrix")
        order = np.argsort(rows * ncols + cols, kind="stable")  # ties keep input order
        r, c, source = rows[order], cols[order], source[order]
        first = np.ones(r.size, dtype=bool)
        first[1:] = (r[1:] != r[:-1]) | (c[1:] != c[:-1])
        starts = np.flatnonzero(first)
        counts = np.bincount(r[starts], minlength=nrows)
        indptr = np.concatenate([[0], np.cumsum(counts)]).astype(np.int64)
        # scipy picks the index dtype; keep its arrays so refills share them
        csr = sp.csr_matrix((np.zeros(starts.size), c[starts], indptr), shape=(nrows, ncols))
        self.shape = (nrows, ncols)
        self.indices = csr.indices
        self.indptr = csr.indptr
        weights = (np.ones(source.size) if weights is None
                   else np.asarray(weights, dtype=np.float64).ravel()[source])
        self.summation = sp.csr_matrix((weights, source, np.append(starts, r.size)),
                                       shape=(starts.size, nvalues))

    @classmethod
    def expanded(cls, vertex: "SparsityPattern", block, row_dofs, col_dofs) -> "SparsityPattern":
        """The layout of (E, m r, n c) element blocks, derived without a sort
        from ``vertex``, the layout of the (E, m, n) = (E, *block) element
        blocks on vertex numbers.

        Vertex va carries the r row dofs ``row_dofs[va]``, and vertex vb the
        c column dofs ``col_dofs[vb]`` (-1 where clamped), so the vertex
        entry (va, vb) becomes the dof block (``row_dofs[va, i]``,
        ``col_dofs[vb, j]``), clamped dofs dropped.  Each entry sums its
        vertex entry's triplets, each (e, a, b) mapped to the element entry
        (e, r a + i, c b + j), in the same order and with the same weights.
        The free row dofs, and the free column dofs, must be numbered 0, 1,
        ..., k - 1 in vertex, then component order; other numberings raise
        ``ValueError``.  The matrix then has one row (column) per free row
        (column) dof, and the result is bitwise the pattern the constructor
        sorts from those element triplets.
        """
        m, n = block
        free = []
        for dofs in (np.ravel(row_dofs), np.ravel(col_dofs)):
            free.append(np.flatnonzero(dofs >= 0))
            if not np.array_equal(dofs[free[-1]], np.arange(free[-1].size)):
                raise ValueError("the free dofs must be numbered 0, 1, ..., k - 1 "
                                 "in vertex, then component order")
        r, c = np.shape(row_dofs)[1], np.shape(col_dofs)[1]
        nnz = vertex.indices.size
        # the (i, j) dof block of vertex entry k holds its row of ``every``
        # plus 1, so that no stored entry is zero
        ids = np.arange(r * c).reshape(r, c) * nnz + np.arange(1, nnz + 1)[:, None, None]
        full = sp.bsr_matrix((ids, vertex.indices, vertex.indptr),
                             shape=(vertex.shape[0] * r, vertex.shape[1] * c)).tocsr()
        layout = full[free[0]][:, free[1]]
        pattern = cls.__new__(cls)  # the constructor would sort
        pattern.shape = layout.shape
        pattern.indices, pattern.indptr = layout.indices, layout.indptr
        # the summation of every (i, j, k), its terms (e, a, b) -> (e, r a +
        # i, c b + j) in order, then the kept ones picked in layout order
        summation = vertex.summation
        e, ab = np.divmod(summation.indices, m * n)
        a, b = np.divmod(ab, n)
        terms = (e * (m * r * n * c) + r * a * (n * c) + c * b
                 + (np.arange(r)[:, None] * (n * c) + np.arange(c)).reshape(-1, 1))
        starts = summation.indptr[:-1] + terms.shape[1] * np.arange(r * c)[:, None]
        every = sp.csr_matrix((np.tile(summation.data, r * c), terms.ravel(),
                               np.append(starts.ravel(), terms.size)),
                              shape=(r * c * nnz, summation.shape[1] * r * c))
        pattern.summation = every[layout.data - 1]
        return pattern

    def reduce(self, values) -> np.ndarray:
        """CSR data: each entry sums its triplets' weighted values."""
        return self.summation @ np.asarray(values, dtype=np.float64).ravel()

    def matrix(self, data: np.ndarray) -> sp.csr_matrix:
        """The matrix with this pattern and the given CSR data, which shares
        the pattern's index arrays."""
        csr = sp.csr_matrix((np.asarray(data, dtype=np.float64), self.indices, self.indptr),
                            shape=self.shape)
        csr.has_sorted_indices = True
        return csr

    def fill(self, values) -> sp.csr_matrix:
        return self.matrix(self.reduce(values))


def _splu(csc: sp.csc_matrix, **options):
    # spla is looked up at call time, so a wrapper put on it sees every call
    try:
        return spla.splu(csc, **options)
    except RuntimeError as exc:  # SuperLU reports exact singularity this way
        raise SingularMatrixError(str(exc)) from None


def _check_pivots(pivots: np.ndarray) -> None:
    """Raise :class:`SingularMatrixError` unless every pivot's magnitude is at
    least ``PIVOT_RATIO`` times the largest."""
    pivots = np.abs(pivots)
    pmax = pivots.max() if pivots.size else 0.0
    if pmax == 0.0 or pivots.min() < PIVOT_RATIO * pmax:
        raise SingularMatrixError("pivot below singularity threshold")


def _check_finite(x: np.ndarray) -> np.ndarray:
    if not np.all(np.isfinite(x)):
        raise SingularMatrixError("non-finite solution from factorization")
    return x


def solve_direct(a: sp.spmatrix, b: np.ndarray) -> np.ndarray:
    """Solve ``a x = b`` for one right-hand side by sparse LU with partial
    pivoting.

    Raises ``ValueError`` on shape mismatch and :class:`SingularMatrixError`
    when the factorization is exactly or numerically singular.
    """
    nrows, ncols = a.shape
    if nrows != ncols:
        raise ValueError(f"matrix must be square, got {nrows}x{ncols}")
    b = np.asarray(b, dtype=np.float64)
    if b.ndim > 1 or b.size != nrows:
        raise ValueError(f"right-hand side of length {nrows} expected, got shape {b.shape}")
    b = b.ravel()
    if nrows == 0:
        return np.zeros(0)
    lu = _splu(a.tocsc())
    _check_pivots(lu.U.diagonal())
    return _check_finite(lu.solve(b))


class Subspace:
    """An orthonormal basis Q of a subspace of R^N in which each coordinate
    lies in at most one column: row i of Q holds ``weight[i]`` in column
    ``column[i]`` and is zero elsewhere (all of it where ``column[i]`` is
    -1).

    So ``restrict(b) = Q^T b`` is one ``np.bincount``, ``expand(y) = Q y``
    one gather, and each entry (i, j) of an N x N matrix A lands in at most
    one entry of ``Q^T A Q``, (``column[i]``, ``column[j]``), with the
    weight ``weight[i] * weight[j]``.
    """

    __slots__ = ("column", "weight", "size", "_rows", "_columns", "_weights")

    def __init__(self, column, weight):
        self.column = np.asarray(column, dtype=np.int64)
        self.weight = np.asarray(weight, dtype=np.float64)
        if self.weight.shape != self.column.shape or self.column.ndim != 1:
            raise ValueError("column and weight must be vectors of equal length")
        self._rows = np.flatnonzero(self.column >= 0)  # the coordinates in a column
        self._columns, self._weights = self.column[self._rows], self.weight[self._rows]
        norms = np.bincount(self._columns, weights=self._weights ** 2)
        if norms.size and np.abs(norms - 1.0).max() > 1e-15:
            raise ValueError("the columns of a subspace basis must have unit norm")
        self.size = norms.size  # number of columns

    @classmethod
    def identity(cls, n: int) -> "Subspace":
        """All of R^n, Q = I."""
        return cls(np.arange(n), np.ones(n))

    @property
    def dim(self) -> int:
        """N, the dimension of the space around the subspace."""
        return self.column.size

    def restrict(self, b: np.ndarray) -> np.ndarray:
        """``Q^T b``."""
        return np.bincount(self._columns, weights=self._weights * b[self._rows],
                           minlength=self.size)

    def expand(self, y: np.ndarray) -> np.ndarray:
        """``Q y``."""
        x = np.zeros(self.dim)
        x[self._rows] = self._weights * y[self._columns]
        return x


class SymmetricFactor:
    """``P A P^T = L D L^T`` of ``A = Q^T M Q``, a symmetric matrix M
    restricted to a :class:`Subspace` Q, from SuperLU with diagonal pivots.
    ``matrix`` is ``A``, the matrix SuperLU factored; a basis whose columns
    are another's permuted gives that permutation of ``A``.

    ``solve(b)`` is ``Q A^-1 Q^T b``, in M's coordinates, with one step of
    iterative refinement on ``matrix``.  ``negative_pivots`` counts D's
    negative entries, which by Sylvester's law of inertia is the number of
    negative eigenvalues of ``A``.
    """

    __slots__ = ("_lu", "_matrix", "_basis", "negative_pivots")

    def __init__(self, lu, matrix, basis: Subspace):
        if not np.array_equal(lu.perm_r, lu.perm_c):
            raise SingularMatrixError("a pivot left the diagonal")
        pivots = lu.U.diagonal()
        _check_pivots(pivots)
        self._lu = lu
        self._matrix = matrix
        self._basis = basis
        self.negative_pivots = int(np.count_nonzero(pivots < 0.0))

    def solve(self, b: np.ndarray) -> np.ndarray:
        """``x = Q A^-1 Q^T b`` for one right-hand side of M's length:
        ``y = A^-1 r`` and ``y += A^-1 (r - A y)`` for ``r = Q^T b``, then
        ``x = Q y``."""
        b = np.asarray(b, dtype=np.float64)
        n = self._basis.dim
        if b.shape != (n,):
            raise ValueError(f"right-hand side of length {n} expected, got shape {b.shape}")
        r = self._basis.restrict(b)
        y = _check_finite(self._lu.solve(r))
        y = _check_finite(y + self._lu.solve(r - self._matrix @ y))
        return self._basis.expand(y)


# SuperLU settings for a symmetric matrix: order A + A^T's pattern, take each
# diagonal entry as the pivot unless it is exactly zero, and one-column
# panels, which suit matrices of this size
_DIAGONAL_PIVOTS = dict(diag_pivot_thresh=0.0, panel_size=1, options={"SymmetricMode": True})


def _coordinates(layout):
    """Row and column of each entry of a CSR layout (``shape``, ``indptr``,
    ``indices``), in CSR data order."""
    return np.repeat(np.arange(layout.shape[0]), np.diff(layout.indptr)), layout.indices


class BlockSystem:
    """The symmetric block matrix ``M = [[A, B], [B^T, C]]`` on the fixed CSR
    layouts (``shape``, ``indptr``, ``indices``) of A, B and C, its values
    given by an input z, factored restricted to a :class:`Subspace`.

    ``source`` has one row per entry of A, B and C, in that order and each
    in CSR data order: its product with z is their data.  The constructor
    checks that the blocks fit and keeps ``source``'s rows in M-entry order:
    A's, B's, B^T's (B's rows again) and C's.  For a basis Q the layout of
    ``Q^T M Q`` is sorted from the blocks' entries, and its summation,
    which folds in Q's weights, multiplied into those rows gives the
    operator from z to its CSR data, each row's terms sorted by their
    position in z, so that they are summed in that order.  :meth:`assemble`
    is M, the restriction to all of M's space, bitwise.

    :meth:`factor` factors ``Q^T M Q`` as ``P Q^T M Q P^T = L D L^T``.  The
    first call for a basis lets SuperLU order the operator's product with z
    (``MMD_AT_PLUS_A``) and keeps that order as the basis with its columns
    permuted, with the operator's rows put in the CSC order of the
    symmetrically permuted matrix.  Every later call for that basis fills
    that matrix's CSC data by one product of the kept operator with z and
    factors it in the permuted basis with the ``NATURAL`` order.  Pivots stay
    on the diagonal (threshold 0), which is stable for symmetric
    quasi-definite matrices; a factorization that needed an off-diagonal
    pivot, or fails the pivot test, raises :class:`SingularMatrixError`.
    """

    def __init__(self, a, b, c, source: sp.csr_matrix):
        n, m = b.shape
        if a.shape != (n, n) or c.shape != (m, m):
            raise ValueError(f"blocks of shapes {a.shape}, {b.shape} and {c.shape} "
                             f"do not fit [[A, B], [B^T, C]]")
        na, nb, nc = (x.indices.size for x in (a, b, c))
        if source.shape[0] != na + nb + nc:
            raise ValueError(f"source of {na + nb + nc} rows expected, got {source.shape[0]}")
        self._blocks = (a, b, c)
        self._source = source[np.concatenate([np.arange(na + nb), np.arange(na, na + nb + nc)])]
        self._identity = Subspace.identity(n + m)
        self._kept = {}  # basis -> permuted basis, operator and CSC layout of its matrix

    def _restricted(self, basis: Subspace):
        """The layout of ``Q^T M Q`` for the basis Q, and the operator from z
        to its CSR data."""
        if basis.dim != self._identity.dim:
            raise ValueError(f"basis of dimension {self._identity.dim} expected, got {basis.dim}")
        (ra, ca), (rb, cb), (rc, cc) = map(_coordinates, self._blocks)
        n = self._blocks[0].shape[0]
        rows = np.concatenate([ra, rb, cb + n, rc + n])
        cols = np.concatenate([ca, cb + n, rb, cc + n])
        r, c = basis.column[rows], basis.column[cols]
        pattern = SparsityPattern(basis.size, basis.size, r, c, keep=(r >= 0) & (c >= 0),
                                  weights=basis.weight[rows] * basis.weight[cols])
        operator = pattern.summation @ self._source
        operator.sort_indices()
        return pattern, operator

    def assemble(self, z) -> sp.csr_matrix:
        """M at the input z."""
        pattern, operator = self._restricted(self._identity)
        return pattern.matrix(operator @ z)

    def factor(self, z, basis: Subspace) -> SymmetricFactor:
        """``Q^T M Q`` at the input z for the basis Q, factored on the order
        of the basis's first call."""
        if basis in self._kept:
            permuted, operator, indices, indptr = self._kept[basis]
            csc = sp.csc_matrix((operator @ z, indices, indptr), shape=(basis.size,) * 2)
            return SymmetricFactor(_splu(csc, permc_spec="NATURAL", **_DIAGONAL_PIVOTS), csc,
                                   permuted)
        pattern, operator = self._restricted(basis)
        reduced = pattern.matrix(operator @ z)
        lu = _splu(reduced.tocsc(), permc_spec="MMD_AT_PLUS_A", **_DIAGONAL_PIVOTS)
        # entry (row, col) sits at (perm_c[row], perm_c[col]) of the permuted
        # matrix; carried as its CSR position plus 1, it orders the operator
        inv = np.argsort(lu.perm_c)
        layout = pattern.matrix(np.arange(1, operator.shape[0] + 1))[inv][:, inv].tocsc()
        # column c of the basis becomes perm_c[c]; -1, no column, stays -1
        permuted = Subspace(np.append(lu.perm_c, -1)[basis.column], basis.weight)
        self._kept[basis] = (permuted, operator[layout.data.astype(np.int64) - 1],
                             layout.indices, layout.indptr)
        return SymmetricFactor(lu, reduced, basis)
