"""The direct solver, and a COO-to-CSR shim that ``src/`` does not use.

``fem`` assembles on fixed sparsity patterns and closes its zero-mean
Neumann systems by pinning one unknown, so no matrix of the package goes
through :class:`SparseMatrix`, which hands coordinate triplets to SciPy.  It
stays only because the benchmark's tracer (``bench/spans.py``) and
``bench/tests`` name it, until the next revision of the benchmark.

Every linear system, a SciPy sparse matrix, is solved by sparse LU (SuperLU
through scipy), with each solution's residual checked, and reaches SuperLU
through one :class:`System`, built once per sparsity pattern.  It
eliminates the rows and columns of the unknowns fixed by Dirichlet data or
by a pin, and applies the elimination order, as one gather of the CSR data
into the CSC form of P A_c P^T, with index arrays computed once, so a
re-factored matrix costs no sort and no format change.

The caller chooses the elimination order; the scheme uses the geometric
nested-dissection order of its mesh (``DofMap.ordering``), built once per
mesh, with the two velocity components of a dof adjacent.
SuperLU then factors P A P^T in its ``NATURAL`` column order with
``SymmetricMode``, which prefers diagonal pivots.  The finite-element
matrices of the scheme are structurally symmetric, and on their regular
grids nested dissection gives less L+U fill than minimum degree.  The
default ``diag_pivot_thresh`` is kept, so partial pivoting still takes over
where a diagonal pivot is too small.

A factor is made and released on one thread.  SciPy's SuperLU frees only
the memory it finds among the allocations of the freeing thread, so a
factor made on one thread and dropped on another leaks its L and U.  The
scheme factors its transport systems on its one worker thread and its other
systems on the calling thread, and keeps every :class:`Factorization` on
the thread that made it (see :mod:`spnpflow.scheme`).

Right-hand sides that share a factor are solved together:
:meth:`Factorization.solve` takes an (n, k) array and makes one SuperLU
solve for all k columns, checking each column's residual against that
column's norm.  The scheme solves its two split momentum systems, and the
two velocity components of the projection, this way.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .errors import SingularMatrixError, SolverError


@dataclass
class SolveReport:
    """Outcome of one linear solve: its relative residual."""

    residual: float


class SparseMatrix:
    """A SciPy CSR matrix built from coordinate triplets.  Nothing in the
    package builds one; it stays for the benchmark's tracer."""

    def __init__(self, matrix):
        self.matrix = matrix

    @classmethod
    def from_coo(cls, n_rows, n_cols, rows, cols, values):
        """Compress coordinate triplets, summing duplicate entries."""
        return cls(sp.csr_matrix((values, (rows, cols)),
                                 shape=(n_rows, n_cols)))

    def to_scipy(self):
        return self.matrix


class System:
    """How the matrices on one square CSR pattern (a
    :class:`~spnpflow.fem.Pattern` or a canonical CSR matrix) reach SuperLU:
    the rows and columns of the ``fixed`` unknowns eliminated, and the
    symmetric permutation by ``order`` applied, built once per pattern.

    Each fixed row keeps only a unit diagonal, so a symmetric matrix stays
    symmetric.  ``order[k]`` is the index of A whose row and column become
    row and column k.  The CSC index arrays of P A_c P^T and the CSR data
    position of each of their entries are computed here, so a matrix costs
    one gather of its data.  Data g on the fixed unknowns enter the
    right-hand side through a lift: the free rows get ``b - A g``, the
    fixed rows ``g``.  ``fixed`` is kept sorted, and ``free`` masks the
    other unknowns.
    """

    def __init__(self, pattern, order, fixed=()):
        n = pattern.shape[0]
        if pattern.shape != (n, n):
            raise ValueError("direct solver needs a square matrix")
        order = np.asarray(order, dtype=np.intp)
        if not np.array_equal(np.sort(order), np.arange(n)):
            raise ValueError("order must be a permutation of the unknowns")
        self.order = order
        self.shape = (n, n)
        self.free = np.ones(n, dtype=bool)
        self.free[np.asarray(fixed, dtype=np.intp)] = False
        self.fixed = fixed = np.flatnonzero(~self.free)
        # the eliminated CSR matrix carries the CSR position of every kept
        # entry as data, and -1 on the fixed rows' diagonals
        row = np.repeat(np.arange(n), np.diff(pattern.indptr))
        keep = self.free[row] & self.free[pattern.indices]
        indptr = np.zeros(n + 1, dtype=np.int32)
        np.cumsum(np.bincount(row[keep], minlength=n) + ~self.free,
                  out=indptr[1:])
        kept = np.ones(indptr[-1], dtype=bool)
        kept[indptr[fixed]] = False
        indices = np.empty(indptr[-1], dtype=np.int32)
        indices[kept] = pattern.indices[keep]
        indices[~kept] = fixed
        source = np.full(indptr[-1], -1, dtype=np.int32)
        source[kept] = np.flatnonzero(keep)
        rank = np.empty(n, dtype=np.int32)
        rank[order] = np.arange(n, dtype=np.int32)
        # its rows in new order, their columns renumbered; SciPy's compiled
        # transpose then sorts them by new column, and each column by new
        # row
        rows = sp.csr_matrix((source, indices, indptr),
                             shape=self.shape)[order]
        rows.indices = rank[rows.indices]
        rows.has_sorted_indices = False
        Pc = rows.tocsc()
        self.indptr = Pc.indptr.astype(np.int32, copy=False)
        self.indices = Pc.indices.astype(np.int32, copy=False)
        self._source = Pc.data
        self._unit = np.flatnonzero(self._source < 0).astype(np.int32)
        self._source[self._unit] = 0

    def matrix(self, data):
        """P A_c P^T in CSC form, for the matrix A with ``data`` on the
        pattern."""
        out = data[self._source]
        out[self._unit] = 1.0
        A = sp.csc_matrix((out, self.indices, self.indptr), shape=self.shape)
        A.has_canonical_format = True
        return A

    def factor(self, data):
        """The :class:`Factorization` of A_c, for the matrix A with
        ``data`` on the pattern.  ``data`` is released before SuperLU runs
        when the call holds the only reference to it."""
        A = self.matrix(data)
        del data
        return Factorization(A, self.order)

    def lift(self, A, g):
        """The data's part of a right-hand side: ``-A g`` on the free rows
        and ``g`` on the fixed ones; ``g`` is zero on the free unknowns."""
        out = -(A @ g)
        out[self.fixed] = g[self.fixed]
        return out

    def rhs(self, b, lift=None):
        """A copy of ``b`` with its fixed rows zeroed, plus ``lift``."""
        out = np.array(b, dtype=np.float64)
        out[self.fixed] = 0.0
        if lift is not None:
            out += lift
        return out


class Factorization:
    """SuperLU factors of P A P^T, given in CSC form by
    :meth:`System.factor` with its ``order``, reusable for several
    right-hand sides of A x = b.  The last reference to it must be dropped
    on the thread that made it."""

    def __init__(self, Ac, order):
        self._Ac = Ac
        self._order = order
        try:
            self._lu = spla.splu(Ac, permc_spec="NATURAL",
                                 options=dict(SymmetricMode=True))
        except RuntimeError as exc:  # SuperLU reports exact singularity this way
            raise SingularMatrixError(str(exc)) from exc

    def solve(self, b):
        """x with A x = b, for b of shape (n,) or (n, k): one SuperLU solve
        for every column.  Each column's relative residual must be at most
        1e-10, and a zero column gives zeros; the report holds the largest
        residual.  The columns of a multi-column x are contiguous."""
        b = np.asarray(b, dtype=np.float64)
        nb = np.linalg.norm(b, axis=0)
        if not np.any(nb):
            return np.zeros_like(b), SolveReport(0.0)
        b = b[self._order]
        x = self._lu.solve(b)
        if not np.all(np.isfinite(x)):
            raise SingularMatrixError("direct solve produced non-finite values")
        # the 2-norm does not see the permutation
        rel = np.linalg.norm(self._Ac @ x - b, axis=0) / np.where(nb > 0.0,
                                                                  nb, 1.0)
        worst = float(np.max(rel))
        if worst > 1e-10:
            raise SolverError(f"direct solve residual {worst:.3e} exceeds "
                              f"1e-10")
        out = np.empty_like(x, order="F")
        out[self._order] = x
        if b.ndim == 2:
            out[:, nb == 0.0] = 0.0
        return out, SolveReport(worst)

