"""COO-to-CSR compression for set-up-only matrices, and the direct solver.

Form assembly does not use the compressor: ``fem`` assembles on fixed
sparsity patterns.  It remains for the zero-mean augmented system, built
once per solver.

Every linear system, a SciPy sparse matrix, is solved by sparse LU (SuperLU
through scipy), with each solution's residual checked.

Every factorization uses one fixed SuperLU setting: a minimum-degree column
ordering on the pattern of A^T + A (``MMD_AT_PLUS_A``) with ``SymmetricMode``,
which prefers diagonal pivots.  The finite-element matrices of the scheme are
structurally symmetric (the matrices with Dirichlet rows and columns
eliminated are symmetric), and on them this ordering roughly halves
the L+U fill that the default COLAMD ordering gives.  The default
``diag_pivot_thresh`` is kept, so partial pivoting still takes over where a
diagonal pivot is too small, as on the zero diagonal of the zero-mean
multiplier row.
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


class Factorization:
    """Direct LU factorization reusable for several right-hand sides."""

    def __init__(self, A):
        if A.shape[0] != A.shape[1]:
            raise ValueError("direct solver needs a square matrix")
        self._As = A.tocsr()
        try:
            self._lu = spla.splu(self._As.tocsc(),
                                 permc_spec="MMD_AT_PLUS_A",
                                 options=dict(SymmetricMode=True))
        except RuntimeError as exc:  # SuperLU reports exact singularity this way
            raise SingularMatrixError(str(exc)) from exc

    def solve(self, b):
        b = np.asarray(b, dtype=np.float64)
        nb = np.linalg.norm(b)
        if nb == 0.0:
            return np.zeros_like(b), SolveReport(0.0)
        x = self._lu.solve(b)
        if not np.all(np.isfinite(x)):
            raise SingularMatrixError("direct solve produced non-finite values")
        rel = np.linalg.norm(self._As @ x - b) / nb
        if rel > 1e-10:
            raise SolverError(f"direct solve residual {rel:.3e} exceeds 1e-10")
        return x, SolveReport(float(rel))


def factorize(A):
    """Factorize A once; returns an object with .solve(b)."""
    return Factorization(A)
