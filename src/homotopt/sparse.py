"""Sparse storage, deterministic triplet assembly, and direct linear solves.

Every assembled operator in the package (elasticity stiffness, density mass
and stiffness, KKT blocks) is a :class:`SparseMatrix`.  General systems go
through :func:`solve_direct`, a sparse LU with partial pivoting.  The
symmetric block matrix of a run, the reduced KKT matrix, is a
:class:`BlockSystem`: assembled on a layout fixed at its first call and
factored by diagonal pivoting, ``P M P^T = L D L^T``, on a fill-reducing
order computed once, which also counts the negative pivots (the inertia).
A factorization whose smallest pivot falls below ``PIVOT_RATIO`` times the
largest, or whose solution is not finite, raises
:class:`SingularMatrixError`, which callers treat as "the Newton system
degenerated", distinct from a shape error; the symmetric factorization
raises it too when SuperLU left the diagonal.
"""
from __future__ import annotations

from typing import Tuple

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

__all__ = [
    "SparseMatrix",
    "SparsityPattern",
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
    """Immutable sparse matrix in compressed-row form built from triplets.

    Duplicate triplets are summed in a fixed order (stable sort by row then
    column, ``np.add.reduceat`` over each group in input order), so assembly
    is bit-reproducible for a given triplet sequence.  Operators assembled
    again and again on one mesh keep a :class:`SparsityPattern` and only
    refill its values.
    """

    __slots__ = ("_csr",)

    def __init__(self, csr):
        if not sp.issparse(csr):
            raise TypeError("expected a scipy sparse matrix")
        csr = csr.tocsr()
        csr.sort_indices()
        self._csr = csr

    @classmethod
    def from_triplets(cls, nrows: int, ncols: int, rows, cols, values) -> "SparseMatrix":
        values = np.asarray(values, dtype=np.float64).ravel()
        if not (np.size(rows) == np.size(cols) == values.size):
            raise ValueError("rows, cols and values must have equal length")
        return SparsityPattern(nrows, ncols, rows, cols).fill(values)

    @classmethod
    def from_dense(cls, array) -> "SparseMatrix":
        array = np.asarray(array, dtype=np.float64)
        if array.ndim != 2:
            raise ValueError("expected a 2-D array")
        # every entry is stored, zeros included: the layout is the shape alone
        m, n = array.shape
        return cls(sp.csr_matrix((array.ravel(), np.tile(np.arange(n), m), np.arange(m + 1) * n),
                                 shape=array.shape))

    @property
    def csr(self) -> sp.csr_matrix:
        return self._csr

    @property
    def shape(self) -> Tuple[int, int]:
        return self._csr.shape

    @property
    def nrows(self) -> int:
        return self._csr.shape[0]

    @property
    def ncols(self) -> int:
        return self._csr.shape[1]

    @property
    def nnz(self) -> int:
        return self._csr.nnz

    def matvec(self, v: np.ndarray) -> np.ndarray:
        v = np.asarray(v, dtype=np.float64)
        if v.shape != (self.ncols,):
            raise ValueError(f"vector of length {self.ncols} expected, got {v.shape}")
        return self._csr @ v

    def transpose(self) -> "SparseMatrix":
        return SparseMatrix(self._csr.T.tocsr())

    def with_data(self, data) -> "SparseMatrix":
        """The matrix with this layout and the given CSR data."""
        return _csr_matrix(data, self._csr.indices, self._csr.indptr, self.shape)

    def __repr__(self) -> str:
        return f"SparseMatrix({self.nrows}x{self.ncols}, nnz={self.nnz})"


class SparsityPattern:
    """CSR layout of a fixed ``(rows, cols)`` triplet sequence.

    The stable (row, column) sort runs once, at construction; :meth:`fill`
    then assembles any values for the same sequence by a gather and a
    per-entry ``np.add.reduceat``, bit-identical to ``from_triplets``.
    ``source`` optionally gives, for each triplet, the position of its value
    in the arrays later passed to :meth:`fill` (default: its own position),
    so a masked or reordered triplet sequence costs one gather.
    """

    __slots__ = ("shape", "order", "starts", "indices", "indptr")

    def __init__(self, nrows: int, ncols: int, rows, cols, source=None):
        rows = np.asarray(rows, dtype=np.int64).ravel()
        cols = np.asarray(cols, dtype=np.int64).ravel()
        if rows.size != cols.size:
            raise ValueError("rows and cols must have equal length")
        if rows.size:
            if rows.min() < 0 or rows.max() >= nrows:
                raise IndexError(f"row index out of range for {nrows}x{ncols} matrix")
            if cols.min() < 0 or cols.max() >= ncols:
                raise IndexError(f"column index out of range for {nrows}x{ncols} matrix")
        order = np.lexsort((cols, rows))  # stable: ties keep input order
        r, c = rows[order], cols[order]
        first = np.ones(r.size, dtype=bool)
        first[1:] = (r[1:] != r[:-1]) | (c[1:] != c[:-1])
        starts = np.flatnonzero(first)
        counts = np.bincount(r[starts], minlength=nrows)
        indptr = np.concatenate([[0], np.cumsum(counts)]).astype(np.int64)
        # scipy picks the index dtype; keep its arrays so refills share them
        csr = sp.csr_matrix((np.zeros(starts.size), c[starts], indptr), shape=(nrows, ncols))
        self.shape = (nrows, ncols)
        self.order = order if source is None else np.asarray(source, dtype=np.int64)[order]
        self.starts = None if starts.size == r.size else starts  # None: no duplicates
        self.indices = csr.indices
        self.indptr = csr.indptr

    def reduce(self, values) -> np.ndarray:
        """CSR data: each entry sums its triplets' values in input order."""
        v = np.asarray(values, dtype=np.float64).ravel()[self.order]
        if self.starts is not None:
            v = np.add.reduceat(v, self.starts)
        return v

    def matrix(self, data: np.ndarray) -> "SparseMatrix":
        """The matrix with this pattern and the given CSR data."""
        return _csr_matrix(data, self.indices, self.indptr, self.shape)

    def fill(self, values) -> "SparseMatrix":
        return self.matrix(self.reduce(values))


def _csr_matrix(data, indices, indptr, shape) -> SparseMatrix:
    """A matrix on sorted CSR index arrays, which it shares."""
    csr = sp.csr_matrix((np.asarray(data, dtype=np.float64), indices, indptr), shape=shape)
    csr.has_sorted_indices = True
    return SparseMatrix(csr)


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


def solve_direct(a: SparseMatrix, b: np.ndarray) -> np.ndarray:
    """Solve ``a x = b`` for one right-hand side by sparse LU with partial
    pivoting.

    Raises ``ValueError`` on shape mismatch and :class:`SingularMatrixError`
    when the factorization is exactly or numerically singular.
    """
    if a.nrows != a.ncols:
        raise ValueError(f"matrix must be square, got {a.nrows}x{a.ncols}")
    b = np.asarray(b, dtype=np.float64)
    if b.ndim > 1 or b.size != a.nrows:
        raise ValueError(f"right-hand side of length {a.nrows} expected, got shape {b.shape}")
    b = b.ravel()
    if a.nrows == 0:
        return np.zeros(0)
    lu = _splu(a.csr.tocsc())
    _check_pivots(lu.U.diagonal())
    return _check_finite(lu.solve(b))


class SymmetricFactor:
    """``P A P^T = L D L^T`` of a symmetric matrix, from SuperLU with diagonal
    pivots; ``order`` maps each position of the permuted matrix to its index
    in ``A`` (None: SuperLU permuted ``A`` itself).

    ``negative_pivots`` counts D's negative entries, which by Sylvester's law
    of inertia is the number of negative eigenvalues of ``A``.
    """

    __slots__ = ("_lu", "_order", "negative_pivots")

    def __init__(self, lu, order):
        if not np.array_equal(lu.perm_r, lu.perm_c):
            raise SingularMatrixError("a pivot left the diagonal")
        pivots = lu.U.diagonal()
        _check_pivots(pivots)
        self._lu = lu
        self._order = order
        self.negative_pivots = int(np.count_nonzero(pivots < 0.0))

    def solve(self, b: np.ndarray) -> np.ndarray:
        """``x`` with ``A x = b`` for one right-hand side."""
        b = np.asarray(b, dtype=np.float64)
        n = self._lu.shape[0]
        if b.shape != (n,):
            raise ValueError(f"right-hand side of length {n} expected, got shape {b.shape}")
        if self._order is None:
            return _check_finite(self._lu.solve(b))
        x = np.empty(n)
        x[self._order] = self._lu.solve(b[self._order])
        return _check_finite(x)


# SuperLU settings for a symmetric matrix: order A + A^T's pattern and take
# each diagonal entry as the pivot unless it is exactly zero
_DIAGONAL_PIVOTS = dict(diag_pivot_thresh=0.0, options={"SymmetricMode": True})


def _coordinates(a: SparseMatrix):
    """Row and column of each entry of ``a``, in CSR data order."""
    return np.repeat(np.arange(a.nrows), np.diff(a.csr.indptr)), a.csr.indices


class BlockSystem:
    """The symmetric block matrix ``M = [[A, B], [B^T, C]]`` of one fixed
    layout, assembled and factored.

    The first :meth:`assemble` checks that the blocks fit and sorts M's
    layout into a :class:`SparsityPattern`; every later call refills it by
    one gather, ``B^T`` read from ``B``'s own values, so no transpose is
    built.  A block whose CSR layout (shape, ``indptr`` or ``indices``)
    differs from the first call's raises ``ValueError``.

    :meth:`factor` factors the last assembled M as ``P M P^T = L D L^T``.
    The first call lets SuperLU order M (``MMD_AT_PLUS_A``) and keeps that
    order, with a gather from M's CSR data into the CSC data of the
    symmetrically permuted matrix; every later call permutes by that gather
    and factors with the ``NATURAL`` order.  Pivots stay on the diagonal
    (threshold 0), which is stable for symmetric quasi-definite matrices; a
    factorization that needed an off-diagonal pivot, or fails the pivot
    test, raises :class:`SingularMatrixError`.
    """

    def __init__(self):
        self._layout = None  # (shape, indptr, indices) of A, B and C at the first assembly
        self._pattern = None
        self._matrix = None  # the last assembled M
        self._order = None  # position in the permuted matrix -> index in M
        self._csc = None  # (gather, indices, indptr) of the permuted matrix

    def assemble(self, a: SparseMatrix, b: SparseMatrix, c: SparseMatrix) -> SparseMatrix:
        layout = [(x.shape, x.csr.indptr, x.csr.indices) for x in (a, b, c)]
        if self._pattern is None:
            n, m = b.shape
            if a.shape != (n, n) or c.shape != (m, m):
                raise ValueError(f"blocks of shapes {a.shape}, {b.shape} and {c.shape} "
                                 f"do not fit [[A, B], [B^T, C]]")
            (ra, ca), (rb, cb), (rc, cc) = map(_coordinates, (a, b, c))
            self._pattern = SparsityPattern(n + m, n + m,
                                            np.concatenate([ra, rb, cb + n, rc + n]),
                                            np.concatenate([ca, cb + n, rb, cc + n]))
            self._layout = layout
        elif not all(s == s0 and np.array_equal(p, p0) and np.array_equal(i, i0)
                     for (s, p, i), (s0, p0, i0) in zip(layout, self._layout)):
            raise ValueError("block layout differs from the first assembly")
        self._matrix = self._pattern.fill(
            np.concatenate([a.csr.data, b.csr.data, b.csr.data, c.csr.data]))
        return self._matrix

    def factor(self) -> SymmetricFactor:
        """The last assembled M, factored on the order of the first call."""
        m = self._matrix
        if m is None:
            raise ValueError("no matrix assembled")
        if self._order is None:
            lu = _splu(m.csr.tocsc(), permc_spec="MMD_AT_PLUS_A", **_DIAGONAL_PIVOTS)
            order = np.argsort(lu.perm_c)
            # entry k of the CSR data is marked k + 1, so the permuted matrix
            # keeps every entry and its data names the source
            permuted = m.with_data(np.arange(1, m.nnz + 1)).csr[order][:, order].tocsc()
            self._csc = (permuted.data.astype(np.int64) - 1, permuted.indices, permuted.indptr)
            self._order = order
            return SymmetricFactor(lu, None)
        gather, indices, indptr = self._csc
        csc = sp.csc_matrix((m.csr.data[gather], indices, indptr), shape=m.shape)
        return SymmetricFactor(_splu(csc, permc_spec="NATURAL", **_DIAGONAL_PIVOTS), self._order)
