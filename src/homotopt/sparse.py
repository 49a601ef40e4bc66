"""Sparse storage, deterministic triplet assembly, and direct linear solves.

Every assembled operator in the package (elasticity stiffness, density mass
and stiffness, KKT blocks) is a :class:`SparseMatrix`.  General systems go
through :func:`solve_direct`, a sparse LU with partial pivoting.  Symmetric
matrices of one fixed layout, such as the reduced KKT matrix of a run, go
through :class:`SymmetricOrder`: a diagonal-pivoting factorization
``P A P^T = L D L^T`` on a fill-reducing order computed once, which also
counts the negative pivots (the inertia).  A factorization whose smallest
pivot falls below ``PIVOT_RATIO`` times the largest, or whose solution is not
finite, raises :class:`SingularMatrixError`, which callers treat as "the
Newton system degenerated", distinct from a shape error; the symmetric
factorization raises it too when SuperLU left the diagonal.
"""
from __future__ import annotations

from typing import Sequence, Tuple

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

__all__ = [
    "SparseMatrix",
    "SparsityPattern",
    "BlockSystem",
    "SingularMatrixError",
    "SymmetricFactor",
    "SymmetricOrder",
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


class SymmetricOrder:
    """Factors symmetric matrices of one fixed CSR layout on one
    fill-reducing order.

    The first :meth:`factor` lets SuperLU order the matrix
    (``MMD_AT_PLUS_A``) and keeps that order, with a map gathering CSR data
    into the CSC data of the symmetrically permuted matrix; its
    factorization serves as the first one.  Every later call permutes by
    that gather and factors with the ``NATURAL`` order; a matrix whose CSR
    ``indptr`` or ``indices`` differ from the first one's raises
    ``ValueError``.  Pivots stay on the diagonal (threshold 0), which is
    stable for symmetric quasi-definite matrices; a factorization that
    needed an off-diagonal pivot, or fails the pivot test, raises
    :class:`SingularMatrixError`.
    """

    def __init__(self):
        self._order = None  # position in the permuted matrix -> index
        self._layout = None  # (indptr, indices) of the first matrix's CSR
        self._csc = None  # (gather, indices, indptr) of the permuted matrix

    def factor(self, a: SparseMatrix) -> SymmetricFactor:
        if a.nrows != a.ncols:
            raise ValueError(f"matrix must be square, got {a.nrows}x{a.ncols}")
        if self._order is None:
            lu = _splu(a.csr.tocsc(), permc_spec="MMD_AT_PLUS_A", **_DIAGONAL_PIVOTS)
            order = np.argsort(lu.perm_c)
            # entry k of the CSR data is marked k + 1, so the permuted matrix
            # keeps every entry and its data names the source
            mark = _csr_matrix(np.arange(1, a.nnz + 1), a.csr.indices, a.csr.indptr, a.shape)
            permuted = mark.csr[order][:, order].tocsc()
            self._csc = (permuted.data.astype(np.int64) - 1, permuted.indices, permuted.indptr)
            self._layout = (a.csr.indptr, a.csr.indices)
            self._order = order
            return SymmetricFactor(lu, None)
        if not all(map(np.array_equal, (a.csr.indptr, a.csr.indices), self._layout)):
            raise ValueError("matrix layout differs from the first factorization")
        gather, indices, indptr = self._csc
        csc = sp.csc_matrix((a.csr.data[gather], indices, indptr), shape=a.shape)
        return SymmetricFactor(_splu(csc, permc_spec="NATURAL", **_DIAGONAL_PIVOTS), self._order)


class BlockSystem:
    """Square block layout with named blocks, assembled on a cached pattern.

    Entries are :class:`SparseMatrix` blocks; unset blocks are zero, and a
    transposed block is placed as its transpose, read from its own values.
    A second :meth:`set` at a position replaces the block there; nothing
    sums.  The first :meth:`assemble` fixes the layout and sorts it into a
    :class:`SparsityPattern`; later calls only refill it.  Each block must
    then keep its position, transpose flag and entry count, or
    :meth:`assemble` raises ``ValueError``, and its entries' places, which
    callers ensure by refilling a fixed :class:`SparsityPattern`.
    """

    def __init__(self, names: Sequence[str], sizes: Sequence[int]):
        names = tuple(names)
        sizes = tuple(int(s) for s in sizes)
        if len(names) != len(sizes):
            raise ValueError("one size per block name required")
        if len(set(names)) != len(names):
            raise ValueError("block names must be unique")
        if any(s <= 0 for s in sizes):
            raise ValueError("block sizes must be positive")
        self.names = names
        self.sizes = sizes
        self.offsets = tuple(int(o) for o in np.concatenate([[0], np.cumsum(sizes)]))
        self._entries: dict = {}  # (i, j) -> (block, transpose)
        self._layout = None  # per block: position, transpose flag, entry count
        self._pattern = None

    def _index(self, name: str) -> int:
        if name not in self.names:
            raise KeyError(f"unknown block name {name!r}")
        return self.names.index(name)

    def set(self, row, col, block: SparseMatrix, transpose: bool = False) -> None:
        """Place ``block``, or with ``transpose`` its transpose, at (row, col)."""
        i, j = self._index(row), self._index(col)
        if not isinstance(block, SparseMatrix):
            raise TypeError(f"block ({row},{col}) must be a SparseMatrix")
        nr, nc = self.sizes[i], self.sizes[j]
        shape = (nc, nr) if transpose else (nr, nc)
        if block.shape != shape:
            raise ValueError(f"block ({row},{col}) needs a {shape[0]}x{shape[1]} matrix, "
                             f"got {block.shape}")
        self._entries[(i, j)] = (block, bool(transpose))

    def assemble(self) -> SparseMatrix:
        entries = [(key, *self._entries[key]) for key in sorted(self._entries)]
        layout = [(key, transpose, block.nnz) for key, block, transpose in entries]
        if self._pattern is None:
            self._pattern = self._build_pattern(entries)
            self._layout = layout
        elif layout != self._layout:
            raise ValueError("block layout differs from the first assembly")
        return self._pattern.fill(np.concatenate([np.zeros(0)] +
                                                 [block.csr.data for _, block, _ in entries]))

    def _build_pattern(self, entries) -> SparsityPattern:
        """Triplets of every placement, in the order of the concatenated block
        values that :meth:`assemble` fills with."""
        rows, cols = [np.zeros(0, dtype=np.int64)], [np.zeros(0, dtype=np.int64)]
        for (i, j), block, transpose in entries:
            r = np.repeat(np.arange(block.nrows), np.diff(block.csr.indptr))
            c = block.csr.indices
            if transpose:
                r, c = c, r
            rows.append(r + self.offsets[i])
            cols.append(c + self.offsets[j])
        dim = self.offsets[-1]
        return SparsityPattern(dim, dim, np.concatenate(rows), np.concatenate(cols))
