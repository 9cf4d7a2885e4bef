"""COO-to-CSR compression for set-up-only matrices, and the direct solver.

Form assembly does not use the compressor: ``fem`` assembles on fixed
sparsity patterns.  It remains for the zero-mean augmented system, built
once per solver.

Every linear system, a SciPy sparse matrix, is solved by sparse LU (SuperLU
through scipy), with each solution's residual checked.

The caller chooses the elimination order; the scheme uses the geometric
nested-dissection order of its mesh (``DofMap.ordering``), built once per
mesh, with the two velocity components of a dof adjacent and a zero-mean
multiplier last.  A :class:`Reordering` applies the order as one gather of
the CSR data into the CSC form of P A P^T, with index arrays computed once
per pattern, so a re-factored matrix costs no sort and no format change.
SuperLU then factors P A P^T in its ``NATURAL`` column order with
``SymmetricMode``, which prefers diagonal pivots.  The finite-element
matrices of the scheme are structurally symmetric, and on their regular
grids nested dissection gives less L+U fill than minimum degree.  The
default ``diag_pivot_thresh`` is kept, so partial pivoting still takes over
where a diagonal pivot is too small, as on the zero diagonal of the
zero-mean multiplier row.

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

import copy
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
    """Compressed-row form of assembled coordinate triplets.

    Invariants: ``row_offsets`` is nondecreasing with
    ``row_offsets[n_rows] == nnz`` and column indices are strictly increasing
    within each row.  Instances are immutable after construction, and
    :meth:`to_scipy` shares the read-only arrays.
    """

    def __init__(self, n_rows, n_cols, row_offsets, col_indices, values):
        self.n_rows = int(n_rows)
        self.n_cols = int(n_cols)
        self.row_offsets = np.asarray(row_offsets, dtype=np.int64)
        self.col_indices = np.asarray(col_indices, dtype=np.int64)
        self.values = np.asarray(values, dtype=np.float64)
        if self.row_offsets.shape != (self.n_rows + 1,):
            raise ValueError("row_offsets must have length n_rows + 1")
        if self.row_offsets[-1] != self.col_indices.size:
            raise ValueError("row_offsets[-1] must equal nnz")
        for arr in (self.row_offsets, self.col_indices, self.values):
            arr.setflags(write=False)

    @classmethod
    def from_coo(cls, n_rows, n_cols, rows, cols, values):
        """Compress coordinate triplets, summing duplicate entries."""
        rows = np.asarray(rows, dtype=np.int64)
        cols = np.asarray(cols, dtype=np.int64)
        values = np.asarray(values, dtype=np.float64)
        if rows.size:
            if rows.min() < 0 or rows.max() >= n_rows:
                raise ValueError("row index out of range")
            if cols.min() < 0 or cols.max() >= n_cols:
                raise ValueError("column index out of range")
        # temporaries are dropped as soon as they are used: on large meshes
        # they set the peak memory of assembly
        order = np.lexsort((cols, rows))
        rows, cols, values = rows[order], cols[order], values[order]
        del order
        if rows.size:
            keep = np.empty(rows.size, dtype=bool)
            keep[0] = True
            keep[1:] = (rows[1:] != rows[:-1]) | (cols[1:] != cols[:-1])
            idx = np.cumsum(keep)
            idx -= 1
            summed = np.zeros(idx[-1] + 1)
            np.add.at(summed, idx, values)
            del idx, values
            rows, cols, values = rows[keep], cols[keep], summed
        offsets = np.zeros(n_rows + 1, dtype=np.int64)
        np.add.at(offsets, rows + 1, 1)
        offsets = np.cumsum(offsets)
        return cls(n_rows, n_cols, offsets, cols, values)

    @property
    def nnz(self):
        return self.col_indices.size

    @property
    def shape(self):
        return (self.n_rows, self.n_cols)

    def to_scipy(self):
        return sp.csr_matrix((self.values, self.col_indices, self.row_offsets),
                             shape=self.shape)


class Reordering:
    """The symmetric permutation P A P^T of the matrices on one square CSR
    pattern (a :class:`~spnpflow.fem.Pattern` or a CSR matrix), in CSC
    form, applied as one gather of their data.

    ``order[k]`` is the index of A whose row and column become row and
    column k.  The CSC index arrays of P A P^T and the CSR data position of
    each of their entries are computed here, once per pattern.
    """

    def __init__(self, pattern, order):
        n = pattern.shape[0]
        if pattern.shape != (n, n):
            raise ValueError("direct solver needs a square matrix")
        order = np.asarray(order, dtype=np.intp)
        if not np.array_equal(np.sort(order), np.arange(n)):
            raise ValueError("order must be a permutation of the unknowns")
        self.order = order
        self.shape = (n, n)
        rank = np.empty(n, dtype=np.int32)
        rank[order] = np.arange(n, dtype=np.int32)
        # the rows of P A in new order, their columns renumbered, carry the
        # CSR position of every entry as data; SciPy's compiled transpose
        # then sorts them by new column, and each column by new row
        rows = sp.csr_matrix(
            (np.arange(pattern.indices.size, dtype=np.int32),
             pattern.indices, pattern.indptr), shape=self.shape)[order]
        rows.indices = rank[rows.indices]
        rows.has_sorted_indices = False
        Pc = rows.tocsc()
        self.indptr = Pc.indptr.astype(np.int32, copy=False)
        self.indices = Pc.indices.astype(np.int32, copy=False)
        self._source = Pc.data
        self._unit = np.empty(0, dtype=np.int32)

    @property
    def nnz(self):
        return self.indices.size

    def after(self, dest, source):
        """This reordering of the matrices whose CSR data on the pattern
        are one except at positions ``dest``, which take ``data[source]``
        of the data on another pattern: the two gathers composed into one,
        as a new object."""
        composed = np.full(self.nnz, -1, dtype=np.int32)
        composed[dest] = source
        composed = composed[self._source]
        out = copy.copy(self)
        out._unit = np.flatnonzero(composed < 0).astype(np.int32)
        composed[out._unit] = 0
        out._source = composed
        return out

    def matrix(self, data):
        """P A P^T in CSC form, for the matrix A with ``data``."""
        out = data[self._source]
        out[self._unit] = 1.0
        A = sp.csc_matrix((out, self.indices, self.indptr), shape=self.shape)
        A.has_canonical_format = True
        return A


class Factorization:
    """SuperLU factors of P A P^T, given in CSC form with the ``order`` of
    :class:`Reordering`, reusable for several right-hand sides of A x = b.
    The last reference to it must be dropped on the thread that made it."""

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


def factorize(A, order):
    """Factorize the square SciPy matrix A once, eliminating its unknowns
    in ``order``; returns an object with .solve(b).  For set-up matrices:
    a matrix re-factored on a fixed pattern keeps its :class:`Reordering`."""
    A = sp.csr_matrix(A)
    if not A.has_canonical_format:
        A = A.copy()
        A.sum_duplicates()
    return Factorization(Reordering(A, order).matrix(A.data), order)
