import functools
import operator

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from homotopt.sparse import (BlockSystem, SingularMatrixError, SparseMatrix, Subspace,
                             SparsityPattern, solve_direct)


def identity(n):
    return sp.identity(n, format="csr")


def stored(array):
    """``array`` as a CSR matrix that stores every entry, zeros included."""
    array = np.asarray(array, dtype=np.float64)
    csr = sp.csr_matrix(np.ones(array.shape))
    csr.data = array.ravel()
    return csr


def test_finalize_sums_duplicates():
    m = SparseMatrix.from_triplets(1, 1, [0, 0], [0, 0], [1.0, 2.0])
    assert m.toarray() == pytest.approx(np.array([[3.0]]))
    assert m.nnz == 1


def test_finalize_empty_is_zero():
    m = SparseMatrix.from_triplets(3, 3, [], [], [])
    assert m.nnz == 0
    assert np.all(m @ np.ones(3) == 0.0)


def test_identity_matvec(rng):
    m = SparseMatrix.from_triplets(2, 2, [0, 1], [0, 1], [1.0, 1.0])
    for _ in range(5):
        v = rng.standard_normal(2)
        assert m @ v == pytest.approx(v)


def test_finalize_rejects_out_of_range():
    with pytest.raises(IndexError):
        SparseMatrix.from_triplets(2, 2, [2], [0], [1.0])
    with pytest.raises(IndexError):
        SparseMatrix.from_triplets(2, 2, [0], [-1], [1.0])


def test_matvec_matches_triplet_accumulation(rng):
    # property check: random triplets with duplicates against a dense oracle
    for _ in range(10):
        nr, nc = rng.integers(1, 8, size=2)
        k = int(rng.integers(0, 40))
        rows = rng.integers(0, nr, size=k)
        cols = rng.integers(0, nc, size=k)
        vals = rng.standard_normal(k)
        dense = np.zeros((nr, nc))
        for r, c, v in zip(rows, cols, vals):
            dense[r, c] += v
        m = SparseMatrix.from_triplets(nr, nc, rows, cols, vals)
        v = rng.standard_normal(nc)
        assert m @ v == pytest.approx(dense @ v, abs=1e-12)
        assert m.toarray() == pytest.approx(dense, abs=1e-12)


def one_shot_compression(nrows, rows, cols, values):
    """Reference: sort the triplets and sum each group left to right in input
    order, from +0.0."""
    rows, cols, values = (np.asarray(a) for a in (rows, cols, values))
    order = np.lexsort((cols, rows))
    r, c, v = rows[order], cols[order], values[order]
    first = np.ones(r.size, dtype=bool)
    first[1:] = (r[1:] != r[:-1]) | (c[1:] != c[:-1])
    starts = np.flatnonzero(first)
    data = [functools.reduce(operator.add, group, 0.0) for group in np.split(v, starts[1:])]
    indptr = np.concatenate([[0], np.cumsum(np.bincount(r[starts], minlength=nrows))])
    return (data if r.size else v), c[starts], indptr


def assert_same_csr(m, data, indices, indptr):
    assert m.data.tobytes() == np.asarray(data, dtype=np.float64).tobytes()
    assert np.array_equal(m.indices, indices)
    assert np.array_equal(m.indptr, indptr)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_pattern_refill_bit_identical_to_from_triplets(data):
    # few rows and columns, many triplets: groups of up to dozens of duplicates,
    # with magnitudes far apart so that any change of summation order shows
    nrows = data.draw(st.integers(1, 5))
    ncols = data.draw(st.integers(1, 5))
    size = data.draw(st.integers(0, 60))
    index = lambda n: st.lists(st.integers(0, n - 1), min_size=size, max_size=size)
    rows = np.array(data.draw(index(nrows)), dtype=np.int64)
    cols = np.array(data.draw(index(ncols)), dtype=np.int64)
    keep = np.array(data.draw(st.lists(st.booleans(), min_size=size, max_size=size)), bool)
    value = st.one_of(st.floats(-1e8, 1e8), st.floats(-1e-8, 1e-8))
    pattern = SparsityPattern(nrows, ncols, rows, cols)
    masked = SparsityPattern(nrows, ncols, rows, cols, keep=keep)
    for _ in range(2):  # the second fill reuses the pattern with new values
        values = np.array(data.draw(st.lists(value, min_size=size, max_size=size)), float)
        want = SparseMatrix.from_triplets(nrows, ncols, rows, cols, values)
        assert_same_csr(pattern.fill(values), want.data, want.indices, want.indptr)
        assert_same_csr(pattern.fill(values), *one_shot_compression(nrows, rows, cols, values))
        assert_same_csr(masked.fill(values), *one_shot_compression(
            nrows, rows[keep], cols[keep], values[keep]))


def test_pattern_sums_each_group_left_to_right():
    # (1 + 1e16) - 1e16 is 0, where np.add.reduceat's 1 + (1e16 - 1e16) is 1
    rows, cols, values = [0, 0, 0, 1], [1, 1, 1, 0], [1.0, 1e16, -1e16, 2.0]
    m = SparsityPattern(2, 2, rows, cols).fill(values)
    assert_same_csr(m, [0.0, 2.0], [1, 0], [0, 1, 2])
    assert_same_csr(m, *one_shot_compression(2, rows, cols, values))
    # each sum starts from +0.0, so a lone -0.0 fills as +0.0
    assert_same_csr(SparsityPattern(1, 2, [0, 0], [0, 1]).fill([-0.0, 1.0]),
                    [0.0, 1.0], [0, 1], [0, 2])


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_pattern_layout_and_sum_order_match_lexsort(data):
    # one argsort of rows * ncols + cols orders the triplets as lexsort does,
    # on column counts up to 2^40, where the key passes 2^32
    nrows = data.draw(st.integers(1, 6))
    ncols = data.draw(st.sampled_from([1, 2, 7, 2 ** 31 + 1, 2 ** 40]))
    size = data.draw(st.integers(0, 40))
    column = st.sampled_from([0, min(1, ncols - 1), ncols // 2, ncols - 1])
    rows = np.array(data.draw(st.lists(st.integers(0, nrows - 1), min_size=size,
                                       max_size=size)), dtype=np.int64)
    cols = np.array(data.draw(st.lists(column, min_size=size, max_size=size)), dtype=np.int64)
    order = np.lexsort((cols, rows))
    pattern = SparsityPattern(nrows, ncols, rows, cols)
    assert np.array_equal(pattern.summation.indices, order)
    first = np.ones(size, dtype=bool)
    first[1:] = np.diff(rows[order]) != 0
    first[1:] |= np.diff(cols[order]) != 0
    assert np.array_equal(pattern.indices, cols[order][first])
    assert np.array_equal(pattern.indptr,
                          np.searchsorted(rows[order][first], np.arange(nrows + 1)))


def test_pattern_matrix_is_csr_on_the_patterns_index_arrays(rng):
    rows, cols = rng.integers(0, 4, size=30), rng.integers(0, 5, size=30)
    pattern = SparsityPattern(4, 5, rows, cols)
    values = rng.standard_normal(30)
    m = pattern.matrix(pattern.reduce(values))
    assert isinstance(m, sp.csr_matrix) and m.has_sorted_indices
    assert np.shares_memory(m.indices, pattern.indices)
    assert np.shares_memory(m.indptr, pattern.indptr)
    assert_same_csr(pattern.fill(values), m.data, m.indices, m.indptr)


def test_pattern_validation():
    with pytest.raises(ValueError):
        SparsityPattern(2, 2, [0, 1], [0])
    with pytest.raises(IndexError):
        SparsityPattern(2, 2, [0, 2], [0, 0])
    with pytest.raises(ValueError):
        SparseMatrix.from_triplets(2, 2, [0, 1], [0, 1], [1.0])
    with pytest.raises(ValueError, match="int64"):  # the sort key would overflow
        SparsityPattern(2 ** 32, 2 ** 32, [0], [0])


def test_solve_identity(rng):
    b = rng.standard_normal(4)
    assert solve_direct(identity(4), b) == pytest.approx(b)


def test_solve_diagonal():
    a = SparseMatrix.from_triplets(2, 2, [0, 1], [0, 1], [2.0, 4.0])
    assert solve_direct(a, np.array([2.0, 8.0])) == pytest.approx([1.0, 2.0])


def test_solve_matches_dense_oracle(rng):
    # random sparse SPD system vs a dense factorization
    n = 50
    dense = np.zeros((n, n))
    for _ in range(6 * n):
        i, j = rng.integers(0, n, size=2)
        v = rng.standard_normal()
        dense[i, j] += v
        dense[j, i] += v
    dense += n * np.eye(n)
    b = rng.standard_normal(n)
    x = solve_direct(sp.csr_matrix(dense), b)
    x_ref = np.linalg.solve(dense, b)
    assert np.linalg.norm(x - x_ref) <= 1e-10 * np.linalg.norm(x_ref)
    norm_a = np.linalg.norm(dense)
    assert np.linalg.norm(dense @ x - b) <= 1e-10 * (norm_a * np.linalg.norm(x) + np.linalg.norm(b))


def test_solve_after_matvec_roundtrip(rng):
    for _ in range(5):
        n = int(rng.integers(2, 12))
        dense = rng.standard_normal((n, n)) + n * np.eye(n)
        a = sp.csr_matrix(dense)
        x = rng.standard_normal(n)
        assert solve_direct(a, a @ x) == pytest.approx(x, abs=1e-10)


def test_singularity_reported_distinctly():
    singular = SparseMatrix.from_triplets(2, 2, [0], [0], [1.0])
    with pytest.raises(SingularMatrixError):
        solve_direct(singular, np.ones(2))
    near_singular = SparseMatrix.from_triplets(2, 2, [0, 1], [0, 1], [1.0, 1e-16])
    with pytest.raises(SingularMatrixError):
        solve_direct(near_singular, np.ones(2))
    with pytest.raises(ValueError):
        solve_direct(SparseMatrix.from_triplets(2, 3, [], [], []), np.ones(3))
    with pytest.raises(ValueError):
        solve_direct(identity(2), np.ones(3))
    with pytest.raises(ValueError):  # one right-hand side per solve
        solve_direct(identity(2), np.ones((2, 1)))


def quasi_definite(rng, n, m):
    """Random sparse [[A, B], [B^T, -C]] with A symmetric (indefinite) and C SPD."""
    a = np.zeros((n, n))
    for _ in range(3 * n):
        i, j = rng.integers(0, n, size=2)
        a[i, j] = a[j, i] = rng.standard_normal()
    a += np.diag(rng.uniform(2.0, 4.0, n) * rng.choice([-1.0, 1.0], n))
    b = np.where(rng.random((n, m)) < 0.2, rng.standard_normal((n, m)), 0.0)
    c = rng.standard_normal((m, m))
    return np.block([[a, b], [b.T, -(c @ c.T + m * np.eye(m))]])


def direct_system(dense, n):
    """The block system of ``dense``'s blocks split at ``n``, every entry
    stored, whose input z is their concatenated CSR data, and a function
    giving z for a matrix of that layout."""
    def blocks(values):
        return [stored(x) for x in (values[:n, :n], values[:n, n:], values[n:, n:])]

    def z(values):
        return np.concatenate([x.data for x in blocks(values)])

    size = z(dense).size
    return BlockSystem(*blocks(dense), sp.identity(size, format="csr")), z


def test_symmetric_factor_solves_and_counts_negative_eigenvalues(rng):
    # one order serves every input of the layout: the first factorization
    # computes it, the later ones permute by it
    dense = quasi_definite(rng, 30, 12)
    blocks, z = direct_system(dense, 30)
    for k in range(3):
        values = dense + np.diag(np.full(42, 0.5 * k))
        assert np.array_equal(blocks.assemble(z(values)).toarray(), values)
        factor = blocks.factor(z(values), Subspace.identity(42))
        rhs = rng.standard_normal(42)
        x = factor.solve(rhs)
        assert np.linalg.norm(x - np.linalg.solve(values, rhs)) <= 1e-10 * np.linalg.norm(x)
        assert factor.negative_pivots == np.count_nonzero(np.linalg.eigvalsh(values) < 0)
    with pytest.raises(ValueError):
        factor.solve(np.ones(41))


def test_block_system_factors_its_restriction_to_a_subspace(rng):
    # Q pairs some coordinates with weights +-1/sqrt(2), keeps some alone and
    # leaves the rest out; factor(z, Q) solves Q (Q^T M Q)^-1 Q^T b and
    # counts Q^T M Q's negative eigenvalues on every input, and each basis
    # keeps its own order
    n, m = 30, 12
    c = np.sqrt(0.5)
    column = np.full(n + m, -1)
    weight = np.zeros(n + m)
    column[[0, 1, 2, 3, 4, 30, 31, 32]] = [0, 0, 1, 1, 2, 3, 4, 4]
    weight[[0, 1, 2, 3, 4, 30, 31, 32]] = [c, c, c, -c, 1.0, -1.0, c, c]
    column[5:30], weight[5:30] = np.arange(5, 30), 1.0
    basis = Subspace(column, weight)
    assert (basis.dim, basis.size) == (n + m, 30)
    q = np.zeros((n + m, basis.size))
    rows = np.flatnonzero(column >= 0)
    q[rows, column[rows]] = weight[rows]
    other = Subspace.identity(n + m)
    dense = quasi_definite(rng, n, m)
    blocks, z = direct_system(dense, n)
    for k in range(3):
        values = dense + np.diag(np.full(n + m, 0.5 * k))
        reduced = q.T @ values @ q
        factor = blocks.factor(z(values), basis)
        rhs = rng.standard_normal(n + m)
        x = factor.solve(rhs)
        want = q @ np.linalg.solve(reduced, q.T @ rhs)
        assert np.linalg.norm(x - want) <= 1e-10 * np.linalg.norm(want)
        assert factor.negative_pivots == np.count_nonzero(np.linalg.eigvalsh(reduced) < 0)
        whole = blocks.factor(z(values), other)
        assert np.linalg.norm(whole.solve(rhs) - np.linalg.solve(values, rhs)) \
            <= 1e-10 * np.linalg.norm(whole.solve(rhs))
    with pytest.raises(ValueError, match="unit norm"):
        Subspace([0, 0, 1], [1.0, 1.0, 1.0])


def test_block_system_refuses_a_basis_of_the_wrong_dimension(rng):
    dense = quasi_definite(rng, 3, 2)
    blocks, z = direct_system(dense, 3)
    for size in (4, 6):
        with pytest.raises(ValueError, match=f"basis of dimension 5 expected, got {size}"):
            blocks.factor(z(dense), Subspace.identity(size))


def test_composed_system_factors_from_the_blocks_input(rng):
    # each entry of the blocks here sums two entries of the input z, and
    # factor(z, I) solves and counts as the M of those sums
    n, m = 30, 12
    dense = quasi_definite(rng, n, m)
    a, b, c = map(stored, (dense[:n, :n], dense[:n, n:], dense[n:, n:]))
    size = a.nnz + b.nnz + c.nnz
    source = sp.hstack([sp.identity(size), sp.identity(size)], format="csr")
    blocks = BlockSystem(a, b, c, source)
    for k in range(3):
        values = dense + np.diag(np.full(n + m, 0.5 * k))
        data = np.concatenate([stored(x).data for x in
                               (values[:n, :n], values[:n, n:], values[n:, n:])])
        part = rng.standard_normal(size)
        factor = blocks.factor(np.concatenate([part, data - part]), Subspace.identity(n + m))
        rhs = rng.standard_normal(n + m)
        x = factor.solve(rhs)
        assert np.linalg.norm(x - np.linalg.solve(values, rhs)) <= 1e-10 * np.linalg.norm(x)
        assert factor.negative_pivots == np.count_nonzero(np.linalg.eigvalsh(values) < 0)


def test_block_system_refuses_a_source_of_the_wrong_row_count():
    # one row of the source per entry of A, B and C: 1 + 2 + 2 here
    a, b = SparsityPattern(1, 1, [0], [0]), SparsityPattern(1, 2, [0, 0], [0, 1])
    c = SparsityPattern(2, 2, [0, 1], [0, 1])
    for rows in (4, 6):
        with pytest.raises(ValueError, match=f"source of 5 rows expected, got {rows}"):
            BlockSystem(a, b, c, sp.identity(rows, format="csr"))


def test_symmetric_factor_refusals():
    one, zero = stored([[1.0]]), stored([[0.0]])
    # a zero diagonal needs an off-diagonal pivot
    blocks = BlockSystem(zero, one, zero, sp.identity(3, format="csr"))
    with pytest.raises(SingularMatrixError, match="diagonal"):
        blocks.factor(np.array([0.0, 1.0, 0.0]), Subspace.identity(2))
    blocks = BlockSystem(one, SparsityPattern(1, 1, [], []), one, sp.identity(2, format="csr"))
    with pytest.raises(SingularMatrixError, match="threshold"):
        blocks.factor(np.array([1.0, -1e-16]), Subspace.identity(2))


def test_block_diagonal_layout():
    # a B without entries leaves M block diagonal
    one = stored([[1.0]])
    blocks = BlockSystem(one, SparsityPattern(1, 1, [], []), one, sp.identity(2, format="csr"))
    m = blocks.assemble(np.array([3.0, 7.0]))
    assert np.array_equal(m.toarray(), np.array([[3.0, 0.0], [0.0, 7.0]]))


def test_block_identity_blocks_give_global_identity():
    diagonal = [SparsityPattern(k, k, np.arange(k), np.arange(k)) for k in (2, 3)]
    blocks = BlockSystem(diagonal[0], SparsityPattern(2, 3, [], []), diagonal[1],
                         sp.identity(5, format="csr"))
    assert np.array_equal(blocks.assemble(np.ones(5)).toarray(), np.eye(5))


def test_block_roundtrip_every_block(rng):
    a, b, c = (rng.standard_normal(shape) for shape in ((2, 2), (2, 3), (3, 3)))
    full = np.block([[a, b], [b.T, c]])
    blocks, z = direct_system(full, 2)
    assert np.array_equal(blocks.assemble(z(full)).toarray(), full)


def test_block_size_validation():
    # A must be square with B's rows, C square with B's columns
    a, b, c = identity(2), stored(np.ones((2, 3))), identity(3)
    for blocks in [(identity(3), b, c), (a, b.T, c), (a, b, identity(2)),
                   (a, stored(np.ones((2, 2))), c)]:
        size = sum(x.nnz for x in blocks)
        with pytest.raises(ValueError, match="do not fit"):
            BlockSystem(*blocks, sp.identity(size, format="csr"))


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_block_refill_bit_identical_to_fresh_assembly(data):
    # sparse and dense (every entry stored) layouts of A, B and C and a
    # random source whose rows sum up to four terms of z: M at each new z
    # must be bit-identical to a fresh system's and to scipy's bmat of the
    # blocks that the product of the source with z fills
    n, m = data.draw(st.integers(1, 3)), data.draw(st.integers(1, 3))
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
    layouts = []
    for shape in ((n, n), (n, m), (m, m)):
        if data.draw(st.sampled_from(["sparse", "dense"])) == "dense":
            layouts.append(stored(np.zeros(shape)))
        else:
            layouts.append(SparsityPattern(*shape, *np.nonzero(rng.random(shape) < 0.6)))
    rows = sum(x.indices.size for x in layouts)
    width = data.draw(st.integers(1, 8))
    source = sp.random(rows, width, density=min(1.0, 4 / width), format="csr", rng=rng)
    source.sort_indices()
    blocks = BlockSystem(*layouts, source)
    for _ in range(data.draw(st.integers(1, 4))):
        z = rng.standard_normal(width) * 10.0 ** rng.integers(-8, 9, width)
        got = blocks.assemble(z)
        want = BlockSystem(*layouts, source).assemble(z)
        assert_same_csr(got, want.data, want.indices, want.indptr)
        values = np.split(source @ z, np.cumsum([x.indices.size for x in layouts])[:-1])
        a, b, c = (sp.csr_matrix((v, x.indices, x.indptr), shape=x.shape)
                   for v, x in zip(values, layouts))
        reference = sp.bmat([[a, b], [b.T, c]], format="csr")
        reference.sort_indices()
        assert_same_csr(got, reference.data, reference.indices, reference.indptr)
