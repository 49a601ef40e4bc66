import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from homotopt.sparse import (BlockSystem, SingularMatrixError, SparseMatrix,
                             SparsityPattern, solve_direct)


def identity(n):
    return SparseMatrix.from_dense(np.eye(n))


def test_finalize_sums_duplicates():
    m = SparseMatrix.from_triplets(1, 1, [0, 0], [0, 0], [1.0, 2.0])
    assert m.csr.toarray() == pytest.approx(np.array([[3.0]]))
    assert m.nnz == 1


def test_finalize_empty_is_zero():
    m = SparseMatrix.from_triplets(3, 3, [], [], [])
    assert m.nnz == 0
    assert np.all(m.matvec(np.ones(3)) == 0.0)


def test_identity_matvec(rng):
    m = SparseMatrix.from_triplets(2, 2, [0, 1], [0, 1], [1.0, 1.0])
    for _ in range(5):
        v = rng.standard_normal(2)
        assert m.matvec(v) == pytest.approx(v)


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
        assert m.matvec(v) == pytest.approx(dense @ v, abs=1e-12)
        assert m.csr.toarray() == pytest.approx(dense, abs=1e-12)


def one_shot_compression(nrows, rows, cols, values):
    """Reference: sort the triplets and sum each group, all in one call."""
    rows, cols, values = (np.asarray(a) for a in (rows, cols, values))
    order = np.lexsort((cols, rows))
    r, c, v = rows[order], cols[order], values[order]
    first = np.ones(r.size, dtype=bool)
    first[1:] = (r[1:] != r[:-1]) | (c[1:] != c[:-1])
    starts = np.flatnonzero(first)
    data = np.add.reduceat(v, starts) if r.size else v
    indptr = np.concatenate([[0], np.cumsum(np.bincount(r[starts], minlength=nrows))])
    return data, c[starts], indptr


def assert_same_csr(m, data, indices, indptr):
    assert m.csr.data.tobytes() == np.asarray(data, dtype=np.float64).tobytes()
    assert np.array_equal(m.csr.indices, indices)
    assert np.array_equal(m.csr.indptr, indptr)


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
    masked = SparsityPattern(nrows, ncols, rows[keep], cols[keep], source=np.flatnonzero(keep))
    for _ in range(2):  # the second fill reuses the pattern with new values
        values = np.array(data.draw(st.lists(value, min_size=size, max_size=size)), float)
        want = SparseMatrix.from_triplets(nrows, ncols, rows, cols, values).csr
        assert_same_csr(pattern.fill(values), want.data, want.indices, want.indptr)
        assert_same_csr(pattern.fill(values), *one_shot_compression(nrows, rows, cols, values))
        assert_same_csr(masked.fill(values), *one_shot_compression(
            nrows, rows[keep], cols[keep], values[keep]))


def test_pattern_validation():
    with pytest.raises(ValueError):
        SparsityPattern(2, 2, [0, 1], [0])
    with pytest.raises(IndexError):
        SparsityPattern(2, 2, [0, 2], [0, 0])
    with pytest.raises(ValueError):
        SparseMatrix.from_triplets(2, 2, [0, 1], [0, 1], [1.0])


def test_transpose():
    m = SparseMatrix.from_triplets(2, 3, [0, 1], [1, 2], [2.0, -1.0])
    assert m.transpose().csr.toarray() == pytest.approx(m.csr.toarray().T)


def test_solve_identity(rng):
    b = rng.standard_normal(4)
    assert solve_direct(identity(4), b) == pytest.approx(b)


def test_solve_diagonal():
    a = SparseMatrix.from_triplets(2, 2, [0, 1], [0, 1], [2.0, 4.0])
    assert solve_direct(a, np.array([2.0, 8.0])) == pytest.approx([1.0, 2.0])


def test_solve_several_right_hand_sides(rng):
    # one factorization for an (m, k) right-hand side, each column bit-identical
    # to its own solve
    n = 30
    a = SparseMatrix.from_dense(rng.standard_normal((n, n)) + n * np.eye(n))
    b = rng.standard_normal((n, 3))
    x = solve_direct(a, b)
    assert x.shape == (n, 3)
    for k in range(3):
        assert x[:, k].tobytes() == solve_direct(a, b[:, k]).tobytes()
    with pytest.raises(ValueError):
        solve_direct(a, np.ones((n + 1, 2)))
    with pytest.raises(SingularMatrixError):
        solve_direct(SparseMatrix.from_triplets(2, 2, [0], [0], [1.0]), np.ones((2, 2)))


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
    a = SparseMatrix.from_dense(dense)
    x = solve_direct(a, b)
    x_ref = np.linalg.solve(dense, b)
    assert np.linalg.norm(x - x_ref) <= 1e-10 * np.linalg.norm(x_ref)
    norm_a = np.linalg.norm(dense)
    assert np.linalg.norm(dense @ x - b) <= 1e-10 * (norm_a * np.linalg.norm(x) + np.linalg.norm(b))


def test_solve_after_matvec_roundtrip(rng):
    for _ in range(5):
        n = int(rng.integers(2, 12))
        dense = rng.standard_normal((n, n)) + n * np.eye(n)
        a = SparseMatrix.from_dense(dense)
        x = rng.standard_normal(n)
        assert solve_direct(a, a.matvec(x)) == pytest.approx(x, abs=1e-10)


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


def test_block_diagonal_layout():
    blocks = BlockSystem(("p", "q"), (1, 1))
    blocks.set("p", "p", SparseMatrix.from_dense([[3.0]]))
    blocks.set("q", "q", SparseMatrix.from_dense([[7.0]]))
    assert blocks.assemble().csr.toarray() == pytest.approx(np.array([[3.0, 0.0], [0.0, 7.0]]))


def test_block_identity_blocks_give_global_identity():
    blocks = BlockSystem(("a", "b"), (2, 3))
    blocks.set("a", "a", identity(2))
    blocks.set("b", "b", identity(3))
    assert blocks.assemble().csr.toarray() == pytest.approx(np.eye(5))


def test_block_scalar_box_matches_hand_assembly():
    # n=1 primal-dual system: [[h, -1, 1], [za, ca, 0], [-zb, 0, cb]]
    h, za, zb, ca, cb = 2.5, 0.8, 0.3, 0.7456, 1.2456
    blocks = BlockSystem(("x", "za", "zb"), (1, 1, 1))
    blocks.set("x", "x", SparseMatrix.from_dense([[h]]))
    blocks.set("x", "za", -np.ones(1))
    blocks.set("x", "zb", np.ones(1))
    blocks.set("za", "x", np.array([za]))
    blocks.set("za", "za", np.array([ca]))
    blocks.set("zb", "x", np.array([-zb]))
    blocks.set("zb", "zb", np.array([cb]))
    expected = np.array([[h, -1.0, 1.0], [za, ca, 0.0], [-zb, 0.0, cb]])
    assert blocks.assemble().csr.toarray() == pytest.approx(expected)


def test_block_roundtrip_every_block(rng):
    names, sizes = ("r", "s", "t"), (2, 3, 2)
    blocks = BlockSystem(names, sizes)
    stored = {}
    offsets = (0, 2, 5, 7)
    for i in range(3):
        for j in range(3):
            if rng.random() < 0.4:
                continue
            dense = rng.standard_normal((sizes[i], sizes[j]))
            blocks.set(names[i], names[j], SparseMatrix.from_dense(dense))
            stored[(i, j)] = dense
    full = blocks.assemble().csr.toarray()
    for (i, j), dense in stored.items():
        sub = full[offsets[i]:offsets[i + 1], offsets[j]:offsets[j + 1]]
        assert sub == pytest.approx(dense, abs=1e-15)


def test_block_size_validation():
    blocks = BlockSystem(("a", "b"), (2, 3))
    with pytest.raises(ValueError):
        blocks.set("a", "b", identity(2))  # wrong shape: needs 2x3
    with pytest.raises(ValueError):
        blocks.set("a", "b", np.ones(2))  # diagonal shorthand needs square block
    with pytest.raises(ValueError):
        blocks.set("a", "a", np.ones(3))  # diagonal length mismatch
    with pytest.raises(KeyError):
        blocks.set("a", "c", np.ones(2))  # unknown block name


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_block_refill_bit_identical_to_fresh_assembly(data):
    # rounds of new values on one layout of sparse, dense (with exact zeros)
    # and diagonal blocks, mirrored or not: each assembly must be bit-identical
    # to a fresh system's and equal the dense sum of its blocks; then a changed
    # position, mirror flag or entry count must raise
    names = ("a", "b", "c")
    sizes = data.draw(st.lists(st.integers(1, 3), min_size=3, max_size=3))
    offsets = np.concatenate([[0], np.cumsum(sizes)])
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
    keys = data.draw(st.sets(st.tuples(st.integers(0, 2), st.integers(0, 2)),
                             min_size=1, max_size=4))
    layout = {}  # (i, j) -> (kind, pattern or None, mirror)
    for i, j in sorted(keys):
        kinds = ["sparse", "dense"] + (["diagonal"] if sizes[i] == sizes[j] else [])
        kind = data.draw(st.sampled_from(kinds))
        mask = rng.random((sizes[i], sizes[j])) < 0.6
        pattern = SparsityPattern(sizes[i], sizes[j], *np.nonzero(mask))
        layout[(i, j)] = (kind, pattern, data.draw(st.booleans()))

    def new_block(kind, pattern, shape):
        if kind == "diagonal":
            values = rng.standard_normal(shape[0])
            return values, np.diag(values)
        if kind == "dense":
            values = rng.standard_normal(shape) * (rng.random(shape) < 0.7)
            return values, values
        block = pattern.fill(rng.standard_normal(pattern.order.size))
        return block, block.csr.toarray()

    blocks = BlockSystem(names, sizes)
    for _ in range(data.draw(st.integers(1, 4))):
        fresh = BlockSystem(names, sizes)
        reference = np.zeros((offsets[-1], offsets[-1]))
        for (i, j), (kind, pattern, mirror) in layout.items():
            block, dense = new_block(kind, pattern, (sizes[i], sizes[j]))
            blocks.set(names[i], names[j], block, mirror=mirror)
            fresh.set(names[i], names[j], block, mirror=mirror)
            reference[offsets[i]:offsets[i + 1], offsets[j]:offsets[j + 1]] += dense
            if mirror:
                reference[offsets[j]:offsets[j + 1], offsets[i]:offsets[i + 1]] += dense.T
        got = blocks.assemble()
        want = fresh.assemble().csr
        assert_same_csr(got, want.data, want.indices, want.indptr)
        assert np.array_equal(got.csr.toarray(), reference)

    free = [(i, j) for i in range(3) for j in range(3) if (i, j) not in layout]
    change = data.draw(st.sampled_from(["mirror", "count"] + (["position"] if free else [])))
    if change == "position":
        i, j = data.draw(st.sampled_from(free))
        blocks.set(names[i], names[j], np.zeros((sizes[i], sizes[j])))
    else:
        (i, j), (kind, pattern, mirror) = data.draw(st.sampled_from(sorted(layout.items())))
        block, _ = new_block(kind, pattern, (sizes[i], sizes[j]))
        if change == "count":
            # a sparse block with one entry fewer or one more than before
            n = block.size if isinstance(block, np.ndarray) else block.nnz
            rows, cols = np.divmod(np.arange(sizes[i] * sizes[j]), sizes[j])
            k = n - 1 if n > 0 else 1
            block = SparseMatrix.from_triplets(sizes[i], sizes[j], rows[:k], cols[:k], np.ones(k))
        else:
            mirror = not mirror
        blocks.set(names[i], names[j], block, mirror=mirror)
    with pytest.raises(ValueError):
        blocks.assemble()
