import numpy as np
import pytest
import scipy.sparse as sp

from spnpflow.errors import SingularMatrixError, SolverError
from spnpflow.sparse import Reordering, SparseMatrix, factorize


def shuffled(n, seed=0):
    """A non-identity elimination order of n unknowns."""
    return np.random.default_rng(seed).permutation(n)


def random_sparse(n, density, seed):
    rng = np.random.default_rng(seed)
    dense = rng.standard_normal((n, n))
    dense[rng.random((n, n)) > density] = 0.0
    dense += n * np.eye(n)   # diagonally dominant, safely nonsingular
    rows, cols = np.nonzero(dense)
    return SparseMatrix.from_coo(n, n, rows, cols, dense[rows, cols]), dense


def test_from_coo_sums_duplicates():
    A = SparseMatrix.from_coo(2, 2, [0, 0, 1], [1, 1, 0], [2.0, 3.0, 4.0])
    expected = np.array([[0.0, 5.0], [4.0, 0.0]])
    assert np.array_equal(A.to_scipy().toarray(), expected)
    assert A.to_scipy().nnz == 2
    for rows, cols in (([0, 2], [0, 0]), ([0, 0], [-1, 0])):
        with pytest.raises(ValueError):
            SparseMatrix.from_coo(2, 2, rows, cols, [1.0, 1.0])


def test_csr_invariants():
    A, _ = random_sparse(30, 0.2, seed=3)
    A = A.to_scipy()
    assert A.format == "csr" and A.shape == (30, 30)
    assert A.indptr[0] == 0
    assert A.indptr[-1] == A.nnz
    assert (np.diff(A.indptr) >= 0).all()
    for r in range(A.shape[0]):
        cols = A.indices[A.indptr[r]:A.indptr[r + 1]]
        assert (np.diff(cols) > 0).all()


def test_solve_direct_identity():
    A = sp.identity(6, format="csr")
    b = np.linspace(0, 1, 6)
    x, report = factorize(A, shuffled(6)).solve(b)
    assert np.allclose(x, b)
    assert report.residual == 0.0


def test_solve_direct_tridiagonal_vs_dense_lu():
    n = 10
    rows, cols, vals = [], [], []
    for i in range(n):
        rows.append(i); cols.append(i); vals.append(2.0)
        if i > 0:
            rows.append(i); cols.append(i - 1); vals.append(-1.0)
        if i < n - 1:
            rows.append(i); cols.append(i + 1); vals.append(-1.0)
    A = sp.csr_matrix((vals, (rows, cols)), shape=(n, n))
    b = np.ones(n)
    x, _ = factorize(A, np.arange(n)).solve(b)
    expected = np.linalg.solve(A.toarray(), b)
    assert np.abs(x - expected).max() <= 1e-12


def test_solve_direct_singular():
    A = sp.csr_matrix(np.ones((3, 3)))
    with pytest.raises(SingularMatrixError):
        factorize(A, [2, 0, 1]).solve(np.ones(3))


def test_solve_direct_residual_check_under_permutation():
    # the Hilbert matrix of order 14 (condition ~1e18) factors, but its
    # solution misses b by far more than 1e-10 relative
    n = 14
    i = np.arange(n)
    A = sp.csr_matrix(1.0 / (i[:, None] + i[None, :] + 1.0))
    with pytest.raises(SolverError, match="residual"):
        factorize(A, i[::-1]).solve(np.ones(n))


def test_solve_direct_rejects_rectangular():
    with pytest.raises(ValueError, match="square"):
        factorize(sp.csr_matrix((3, 2)), np.arange(3)).solve(np.ones(3))


def test_solve_direct_rejects_non_permutation():
    with pytest.raises(ValueError, match="permutation"):
        factorize(sp.identity(3, format="csr"), [0, 1, 1])


def test_solve_direct_zero_rhs():
    A, _ = random_sparse(8, 0.4, seed=5)
    x, report = factorize(A.to_scipy(), shuffled(8)).solve(np.zeros(8))
    assert np.array_equal(x, np.zeros(8))
    assert report.residual == 0.0


def test_solve_two_columns_as_single_solves():
    A, _ = random_sparse(30, 0.2, seed=8)
    lu = factorize(A.to_scipy(), shuffled(30, seed=2))
    b = np.random.default_rng(9).standard_normal((30, 2))
    b[:, 1] *= 1e6      # columns of unequal scale
    x, report = lu.solve(b)
    assert x.shape == (30, 2)
    singles = [lu.solve(b[:, k]) for k in range(2)]
    for k, (xk, _) in enumerate(singles):
        assert np.linalg.norm(x[:, k] - xk) <= 1e-14 * np.linalg.norm(xk)
        assert x[:, k].flags.c_contiguous
    assert report.residual == pytest.approx(
        max(r.residual for _, r in singles), rel=1e-6, abs=1e-300)


def test_solve_zero_column_gives_zeros():
    A, _ = random_sparse(12, 0.4, seed=6)
    lu = factorize(A.to_scipy(), shuffled(12))
    b = np.zeros((12, 2))
    b[:, 0] = np.linspace(1.0, 2.0, 12)
    x, report = lu.solve(b)
    assert np.array_equal(x[:, 1], np.zeros(12))
    assert np.linalg.norm(x[:, 0] - lu.solve(b[:, 0])[0]) \
        <= 1e-14 * np.linalg.norm(x[:, 0])
    assert report.residual <= 1e-10


def test_solve_residual_checked_per_column():
    # Hilbert matrix of order 14: the solution e_0 of its first column is
    # found to a small residual, that of a vector of ones is not
    n = 14
    i = np.arange(n)
    A = sp.csr_matrix(1.0 / (i[:, None] + i[None, :] + 1.0))
    lu = factorize(A, i[::-1])
    good = A.toarray()[:, 0]
    assert lu.solve(good)[1].residual <= 1e-10
    with pytest.raises(SolverError, match="residual"):
        lu.solve(np.stack([good, np.ones(n)], axis=1))


def test_direct_then_spmv_roundtrip():
    for seed in range(4):
        A, _ = random_sparse(25, 0.25, seed=seed)
        A = A.to_scipy()
        rng = np.random.default_rng(100 + seed)
        b = rng.standard_normal(25)
        x, _ = factorize(A, shuffled(25, seed)).solve(b)
        assert np.linalg.norm(A @ x - b) <= 1e-10 * np.linalg.norm(b)


def test_reordering_is_the_permuted_matrix_in_csc():
    A, dense = random_sparse(20, 0.3, seed=7)
    A = A.to_scipy()
    order = shuffled(20, seed=1)
    Ac = Reordering(A, order).matrix(A.data)
    assert Ac.format == "csc"
    assert Ac.has_canonical_format
    assert np.array_equal(Ac.toarray(), dense[np.ix_(order, order)])


def test_reordering_composed_with_a_gather():
    # the matrix that is one at every position but ``dest``, which take
    # ``data[source]`` of another data vector, reordered in the same gather
    A, dense = random_sparse(12, 0.4, seed=2)
    A = A.to_scipy()
    rng = np.random.default_rng(3)
    dest = rng.choice(A.nnz, A.nnz // 2, replace=False)
    source = rng.integers(0, 50, dest.size)
    data = rng.standard_normal(50)
    expected = np.ones(A.nnz)
    expected[dest] = data[source]
    order = shuffled(12, seed=4)
    plain = Reordering(A, order)
    composed = plain.after(dest, source)
    assert np.array_equal(composed.matrix(data).toarray(),
                          plain.matrix(expected).toarray())
