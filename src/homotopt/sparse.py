"""Sparse storage, deterministic triplet assembly, and direct linear solves.

Every assembled operator in the package (elasticity stiffness, density mass
and stiffness, KKT blocks) is a :class:`SparseMatrix`.  Linear systems go
through a sparse LU factorization with partial pivoting; a factorization
whose smallest pivot falls below ``PIVOT_RATIO`` times the largest raises
:class:`SingularMatrixError`, which callers treat as "the Newton system
degenerated", distinct from a shape error.
"""
from __future__ import annotations

from typing import Sequence, Tuple, Union

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

__all__ = [
    "SparseMatrix",
    "SparsityPattern",
    "BlockSystem",
    "SingularMatrixError",
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


def solve_direct(a: SparseMatrix, b: np.ndarray) -> np.ndarray:
    """Solve ``a x = b`` by sparse LU with partial pivoting.

    ``b`` is a vector or an ``(m, k)`` array of ``k`` right-hand sides, all
    solved with one factorization.  Raises ``ValueError`` on shape mismatch
    and :class:`SingularMatrixError` when the factorization is exactly or
    numerically singular.
    """
    if a.nrows != a.ncols:
        raise ValueError(f"matrix must be square, got {a.nrows}x{a.ncols}")
    b = np.asarray(b, dtype=np.float64)
    if b.ndim != 2:
        b = b.ravel()
    if b.shape[0] != a.nrows:
        raise ValueError(f"right-hand side with {a.nrows} rows expected, got shape {b.shape}")
    if a.nrows == 0:
        return np.zeros(b.shape)
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
    """Square block layout with named blocks, assembled on a cached pattern.

    Entries are :class:`SparseMatrix` blocks or 1-D vectors standing for
    diagonal blocks.  Unset blocks are zero; a mirrored block also places
    its transpose, and blocks placed at the same position sum.  The first
    :meth:`assemble` fixes the layout and sorts it into a
    :class:`SparsityPattern`; later calls only refill it.  Each block must
    then keep its position, mirror flag, kind (sparse or diagonal) and entry
    count, or :meth:`assemble` raises ``ValueError``; a sparse block must also
    keep its entries' places, which callers ensure by refilling a fixed
    :class:`SparsityPattern` or passing dense blocks.
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
        self._blocks: dict = {}  # (i, j) -> (block, mirror)
        self._layout = None  # per block: position, mirror flag, kind, entry count
        self._pattern = None

    @property
    def dim(self) -> int:
        return self.offsets[-1]

    def _index(self, name: str) -> int:
        if name not in self.names:
            raise KeyError(f"unknown block name {name!r}")
        return self.names.index(name)

    def set(self, row, col, block: Union[SparseMatrix, np.ndarray], mirror: bool = False) -> None:
        """Place ``block`` at (row, col); ``mirror`` also places its transpose
        at (col, row), read from the same values."""
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
        self._blocks[(i, j)] = (block, bool(mirror))

    def assemble(self) -> SparseMatrix:
        entries = [(key, *self._blocks[key]) for key in sorted(self._blocks)]
        values = [block.csr.data if isinstance(block, SparseMatrix) else block
                  for _, block, _ in entries]
        layout = [(key, mirror, isinstance(block, SparseMatrix), v.size)
                  for (key, block, mirror), v in zip(entries, values)]
        if self._pattern is None:
            self._pattern = self._build_pattern(entries)
            self._layout = layout
        elif layout != self._layout:
            raise ValueError("block layout differs from the first assembly")
        return self._pattern.fill(np.concatenate([np.zeros(0)] + values))

    def _build_pattern(self, entries) -> SparsityPattern:
        """Triplets of every placement, each taking its value from the
        concatenated block values that :meth:`assemble` fills with."""
        rows, cols, source = ([np.zeros(0, dtype=np.int64)] for _ in range(3))
        start = 0
        for (i, j), block, mirror in entries:
            if isinstance(block, SparseMatrix):
                r = np.repeat(np.arange(block.nrows), np.diff(block.csr.indptr))
                c = block.csr.indices
            else:
                r = c = np.arange(block.size)
            at = np.arange(start, start + r.size)
            start += r.size
            for bi, bj, br, bc in [(i, j, r, c)] + ([(j, i, c, r)] if mirror else []):
                rows.append(br + self.offsets[bi])
                cols.append(bc + self.offsets[bj])
                source.append(at)
        return SparsityPattern(self.dim, self.dim, np.concatenate(rows), np.concatenate(cols),
                               source=np.concatenate(source))

