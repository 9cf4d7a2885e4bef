import numpy as np
import pytest
import scipy.sparse as sp

from spnpflow.errors import SingularMatrixError
from spnpflow.sparse import SparseMatrix, factorize


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
    assert A.nnz == 2


def test_csr_invariants():
    A, _ = random_sparse(30, 0.2, seed=3)
    assert A.row_offsets[0] == 0
    assert A.row_offsets[-1] == A.nnz
    assert (np.diff(A.row_offsets) >= 0).all()
    for r in range(A.n_rows):
        cols = A.col_indices[A.row_offsets[r]:A.row_offsets[r + 1]]
        assert (np.diff(cols) > 0).all()


def test_solve_direct_identity():
    A = sp.identity(6, format="csr")
    b = np.linspace(0, 1, 6)
    x, report = factorize(A).solve(b)
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
    x, _ = factorize(A).solve(b)
    expected = np.linalg.solve(A.toarray(), b)
    assert np.abs(x - expected).max() <= 1e-12


def test_solve_direct_singular():
    A = sp.csr_matrix(np.ones((3, 3)))
    with pytest.raises(SingularMatrixError):
        factorize(A).solve(np.ones(3))


def test_solve_direct_rejects_rectangular():
    with pytest.raises(ValueError, match="square"):
        factorize(sp.csr_matrix((3, 2))).solve(np.ones(3))


def test_solve_direct_zero_rhs():
    A, _ = random_sparse(8, 0.4, seed=5)
    x, report = factorize(A.to_scipy()).solve(np.zeros(8))
    assert np.array_equal(x, np.zeros(8))
    assert report.residual == 0.0


def test_direct_then_spmv_roundtrip():
    for seed in range(4):
        A, _ = random_sparse(25, 0.25, seed=seed)
        A = A.to_scipy()
        rng = np.random.default_rng(100 + seed)
        b = rng.standard_normal(25)
        x, _ = factorize(A).solve(b)
        assert np.linalg.norm(A @ x - b) <= 1e-10 * np.linalg.norm(b)
