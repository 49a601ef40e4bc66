"""Sparse storage, deterministic triplet assembly, and direct linear solves.

Every assembled operator in the package (elasticity stiffness, density mass
and stiffness, KKT blocks) is a :class:`SparseMatrix`.  Linear systems go
through a sparse LU factorization with partial pivoting; a factorization
whose smallest pivot falls below ``PIVOT_RATIO`` times the largest raises
:class:`SingularMatrixError`, which callers treat as "the Newton system
degenerated", distinct from a shape error.
"""
from __future__ import annotations

from typing import Iterable, Sequence, Tuple, Union

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

__all__ = [
    "SparseMatrix",
    "SparsityPattern",
    "BlockSystem",
    "SingularMatrixError",
    "finalize",
    "solve_direct",
    "identity",
    "diagonal",
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
        return cls(sp.csr_matrix(array))

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

    def row(self, i: int) -> Tuple[np.ndarray, np.ndarray]:
        """Column indices and values of row ``i``."""
        lo, hi = self._csr.indptr[i], self._csr.indptr[i + 1]
        return self._csr.indices[lo:hi].copy(), self._csr.data[lo:hi].copy()

    def toarray(self) -> np.ndarray:
        return self._csr.toarray()

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
        csr = sp.csr_matrix((data, self.indices, self.indptr), shape=self.shape)
        csr.has_sorted_indices = True
        return SparseMatrix(csr)

    def fill(self, values) -> "SparseMatrix":
        return self.matrix(self.reduce(values))


def finalize(nrows: int, ncols: int, triplets: Iterable[Tuple[int, int, float]]) -> SparseMatrix:
    """Compress ``(row, col, value)`` triplets, summing duplicates."""
    items = list(triplets)
    if items:
        rows, cols, values = zip(*items)
    else:
        rows, cols, values = (), (), ()
    return SparseMatrix.from_triplets(nrows, ncols, rows, cols, values)


def identity(n: int) -> SparseMatrix:
    return SparseMatrix(sp.identity(n, format="csr"))


def diagonal(values) -> SparseMatrix:
    values = np.asarray(values, dtype=np.float64).ravel()
    return SparseMatrix(sp.diags(values, format="csr"))


def solve_direct(a: SparseMatrix, b: np.ndarray) -> np.ndarray:
    """Solve ``a x = b`` by sparse LU with partial pivoting.

    Raises ``ValueError`` on shape mismatch and :class:`SingularMatrixError`
    when the factorization is exactly or numerically singular.
    """
    if a.nrows != a.ncols:
        raise ValueError(f"matrix must be square, got {a.nrows}x{a.ncols}")
    b = np.asarray(b, dtype=np.float64).ravel()
    if b.size != a.nrows:
        raise ValueError(f"right-hand side of length {a.nrows} expected, got {b.size}")
    if a.nrows == 0:
        return np.zeros(0)
    try:
        lu = spla.splu(a.csr.tocsc())
    except RuntimeError as exc:  # SuperLU reports exact singularity this way
        raise SingularMatrixError(str(exc)) from None
    pivots = np.abs(lu.U.diagonal())
    pmax = pivots.max() if pivots.size else 0.0
    if pmax == 0.0 or pivots.min() < PIVOT_RATIO * pmax:
        raise SingularMatrixError("pivot below singularity threshold")
    x = lu.solve(b)
    if not np.all(np.isfinite(x)):
        raise SingularMatrixError("non-finite solution from factorization")
    return x


class BlockSystem:
    """Square block layout with named blocks.

    Entries are :class:`SparseMatrix` blocks or 1-D vectors standing for
    diagonal blocks.  Unset blocks are zero.
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
        self._blocks: dict = {}

    @property
    def dim(self) -> int:
        return self.offsets[-1]

    def _index(self, key) -> int:
        if isinstance(key, str):
            try:
                return self.names.index(key)
            except ValueError:
                raise KeyError(f"unknown block name {key!r}") from None
        i = int(key)
        if not 0 <= i < len(self.names):
            raise IndexError(f"block index {i} out of range")
        return i

    def set(self, row, col, block: Union[SparseMatrix, np.ndarray]) -> None:
        i, j = self._index(row), self._index(col)
        nr, nc = self.sizes[i], self.sizes[j]
        if isinstance(block, np.ndarray) and block.ndim == 2:
            block = SparseMatrix.from_dense(block)
        if isinstance(block, SparseMatrix):
            if block.shape != (nr, nc):
                raise ValueError(f"block ({row},{col}) must be {nr}x{nc}, got {block.shape}")
        else:
            block = np.asarray(block, dtype=np.float64).ravel()
            if nr != nc:
                raise ValueError(f"diagonal shorthand needs a square block, ({row},{col}) is {nr}x{nc}")
            if block.size != nr:
                raise ValueError(f"diagonal for block ({row},{col}) must have length {nr}")
        self._blocks[(i, j)] = block

    def get(self, row, col):
        return self._blocks.get((self._index(row), self._index(col)))

    def assemble(self) -> SparseMatrix:
        rows, cols, vals = [], [], []
        for (i, j) in sorted(self._blocks):
            block = self._blocks[(i, j)]
            ro, co = self.offsets[i], self.offsets[j]
            if isinstance(block, SparseMatrix):
                coo = block.csr.tocoo()
                rows.append(coo.row.astype(np.int64) + ro)
                cols.append(coo.col.astype(np.int64) + co)
                vals.append(coo.data)
            else:
                idx = np.arange(block.size, dtype=np.int64)
                rows.append(idx + ro)
                cols.append(idx + co)
                vals.append(block)
        if rows:
            rows = np.concatenate(rows)
            cols = np.concatenate(cols)
            vals = np.concatenate(vals)
        else:
            rows = cols = vals = np.zeros(0)
        return SparseMatrix.from_triplets(self.dim, self.dim, rows, cols, vals)
