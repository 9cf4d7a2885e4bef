"""Reference elements, quadrature, form assembly and constraint handling.

Assembly is vectorized over all triangles at once: basis values are tabulated
on the reference triangle, pushed to physical gradients per cell through the
(affine) Jacobian, and contracted with quadrature weights via einsum.  Each
form's CSR sparsity pattern is built once per mesh and cached with the
geometry, together with the CSR position of every local element entry; an
assembly is then one einsum and one ``bincount`` into fresh read-only data
sharing the pattern's index arrays.  The scalar P2 forms share one pattern,
so the scheme adds their matrices as data vectors.

Nonlinear coefficients are always point values at quadrature points, taken
from the finite-element expansions of their fields.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .errors import CompatibilityError
from .sparse import SparseMatrix, factorize

# Symmetric 12-point rule on the reference triangle, exact through degree 6.
# Parameters refined to machine precision against the monomial integrals
# p! q! / (p+q+2)!.
_W1, _A1 = 0.11678627572638316, 0.24928674517090793
_W2, _A2 = 0.050844906370207305, 0.06308901449150253
_W3, _A3, _B3 = 0.08285107561837142, 0.31035245103378606, 0.05314504984481544

MAX_QUAD_DEGREE = 6
COMP_RTOL = 1e-8   # allowed pairing of a zero-mean rhs with constants / sum|b|


@dataclass
class QuadRule:
    """Quadrature rule in barycentric coordinates on the reference triangle.

    Weights are scaled to the reference area, so they sum to 1/2.
    """

    degree: int
    points: np.ndarray   # (n_q, 3) barycentric
    weights: np.ndarray  # (n_q,)


def quad_rule(min_degree=6):
    """Return a symmetric rule of exactness >= ``min_degree`` (degree 6)."""
    if min_degree > MAX_QUAD_DEGREE:
        raise ValueError(f"quadrature degree {min_degree} not supported "
                         f"(max {MAX_QUAD_DEGREE})")
    pts = []
    for a in (_A1, _A2):
        c = 1.0 - 2.0 * a
        pts += [(c, a, a), (a, c, a), (a, a, c)]
    c3 = 1.0 - _A3 - _B3
    pts += [(c3, _A3, _B3), (c3, _B3, _A3), (_A3, c3, _B3),
            (_B3, c3, _A3), (_A3, _B3, c3), (_B3, _A3, c3)]
    ws = [_W1] * 3 + [_W2] * 3 + [_W3] * 6
    return QuadRule(6, np.asarray(pts), 0.5 * np.asarray(ws))


_DEFAULT_RULE = None


def default_rule():
    global _DEFAULT_RULE
    if _DEFAULT_RULE is None:
        _DEFAULT_RULE = quad_rule(6)
    return _DEFAULT_RULE


class RefElement:
    """Lagrange basis tabulated at quadrature points on the reference triangle.

    P2 local ordering: vertex functions first, then edge-midpoint functions
    for edges (v0,v1), (v1,v2), (v2,v0).
    """

    def __init__(self, order, rule=None):
        if order not in (1, 2):
            raise ValueError(f"unsupported element order {order}")
        self.order = order
        rule = rule or default_rule()
        self.rule = rule
        self.values, self.grads = self.tabulate(rule.points)

    def tabulate(self, bary):
        """Basis values (n_b, n_q) and reference gradients (n_b, n_q, 2)."""
        bary = np.asarray(bary)
        l0, l1, l2 = bary[:, 0], bary[:, 1], bary[:, 2]
        one = np.ones_like(l0)
        zero = np.zeros_like(l0)
        # gradients of barycentrics wrt reference (x, y) = (l1, l2)
        dl = np.array([[-1.0, -1.0], [1.0, 0.0], [0.0, 1.0]])
        if self.order == 1:
            vals = np.stack([l0, l1, l2])
            grads = np.stack([np.stack([dl[i, 0] * one, dl[i, 1] * one], axis=-1)
                              for i in range(3)])
            return vals, grads
        vals = np.stack([
            l0 * (2 * l0 - 1),
            l1 * (2 * l1 - 1),
            l2 * (2 * l2 - 1),
            4 * l0 * l1,
            4 * l1 * l2,
            4 * l2 * l0,
        ])
        ls = (l0, l1, l2)
        grads = []
        for i in range(3):
            g = (4 * ls[i] - 1)[:, None] * dl[i][None, :]
            grads.append(g)
        for (i, j) in ((0, 1), (1, 2), (2, 0)):
            g = 4 * (ls[j][:, None] * dl[i][None, :] + ls[i][:, None] * dl[j][None, :])
            grads.append(g)
        return vals, np.stack(grads)


class _Geometry:
    """Per-mesh assembly tables: Jacobians, physical gradients, quadrature."""

    def __init__(self, mesh, rule):
        self.mesh = mesh
        self.rule = rule
        p = mesh.nodes[mesh.triangles]           # (n_el, 3, 2)
        B = np.stack([p[:, 1] - p[:, 0], p[:, 2] - p[:, 0]], axis=-1)
        det = B[:, 0, 0] * B[:, 1, 1] - B[:, 0, 1] * B[:, 1, 0]
        if np.any(det <= 0):
            raise ValueError("mesh has non-positively-oriented triangles")
        inv = np.empty_like(B)
        inv[:, 0, 0] = B[:, 1, 1]
        inv[:, 0, 1] = -B[:, 0, 1]
        inv[:, 1, 0] = -B[:, 1, 0]
        inv[:, 1, 1] = B[:, 0, 0]
        inv /= det[:, None, None]
        self.jac = B
        self.det = det                             # = 2 * area
        self.inv = inv
        self.wdet = rule.weights[None, :] * det[:, None]   # (n_el, n_q)
        bary = rule.points
        self.qpoints = (bary[None, :, 0, None] * p[:, None, 0, :]
                        + bary[None, :, 1, None] * p[:, None, 1, :]
                        + bary[None, :, 2, None] * p[:, None, 2, :])
        self._elements = {}
        self._patterns = {}

    def pattern(self, test, trial, blocks):
        """Sparsity pattern of ``blocks`` of the (test, trial) spaces; the
        block patterns are derived from the cached scalar one."""
        key = (test.order, trial.order, blocks)
        if key not in self._patterns:
            if blocks == _SCALAR:
                self._patterns[key] = _scalar_pattern(test, trial)
            else:
                self._patterns[key] = _block_pattern(
                    self.pattern(test, trial, _SCALAR), blocks)
        return self._patterns[key]

    def element(self, order):
        if order not in self._elements:
            ref = RefElement(order, self.rule)
            # phys_grads[e, a, q, d] = sum_r ref.grads[a, q, r] * inv[e, r, d]
            phys = np.einsum("aqr,erd->eaqd", ref.grads, self.inv)
            self._elements[order] = (ref.values, phys)
        return self._elements[order]


def geometry(mesh):
    """Assembly tables for a mesh, cached on the mesh object."""
    geo = getattr(mesh, "_fem_geometry", None)
    if geo is None:
        geo = _Geometry(mesh, default_rule())
        mesh._fem_geometry = geo
    return geo


def quad_points_physical(mesh):
    """Physical coordinates of all quadrature points, (n_el, n_q, 2)."""
    return geometry(mesh).qpoints


def integrate(values, mesh):
    """Integrate per-quadrature-point values (n_el, n_q) over the mesh."""
    return float(np.sum(geometry(mesh).wdet * values))


@dataclass
class Field:
    """Finite-element coefficient field.

    ``coefficients`` is flat with one block of ``n_dofs`` entries per
    component (x block then y block for vectors).
    """

    dofmap: object
    coefficients: np.ndarray
    components: int = 1

    def __post_init__(self):
        self.coefficients = np.asarray(self.coefficients, dtype=np.float64)
        expected = self.components * self.dofmap.n_dofs
        if self.coefficients.shape != (expected,):
            raise ValueError(f"coefficient vector must have length {expected}")

    def component(self, k):
        n = self.dofmap.n_dofs
        return self.coefficients[k * n:(k + 1) * n]

    def copy(self):
        return Field(self.dofmap, self.coefficients.copy(), self.components)


def zero_field(dofmap, components=1):
    return Field(dofmap, np.zeros(components * dofmap.n_dofs), components)


def interpolate(fn, dofmap, components=1):
    """Nodal interpolation of a callable (x, y) -> value or component tuple."""
    xy = dofmap.dof_coords()
    if components == 1:
        vals = np.asarray(fn(xy[:, 0], xy[:, 1]), dtype=np.float64)
        vals = np.broadcast_to(vals, (dofmap.n_dofs,)).copy()
        return Field(dofmap, vals)
    out = fn(xy[:, 0], xy[:, 1])
    blocks = [np.broadcast_to(np.asarray(c, dtype=np.float64), (dofmap.n_dofs,))
              for c in out]
    return Field(dofmap, np.concatenate(blocks), components)


def eval_values(field, mesh):
    """Field values at quadrature points: (n_el, n_q) or (n_el, n_q, 2)."""
    geo = geometry(mesh)
    phi, _ = geo.element(field.dofmap.order)
    cells = field.dofmap.cell_to_dofs
    if field.components == 1:
        return np.einsum("ea,aq->eq", field.coefficients[cells], phi)
    comps = [np.einsum("ea,aq->eq", field.component(k)[cells], phi)
             for k in range(field.components)]
    return np.stack(comps, axis=-1)


def eval_grads(field, mesh):
    """Field gradients at quadrature points.

    Scalar fields: (n_el, n_q, 2).  Vector fields: (n_el, n_q, 2, 2) with
    [i, j] = d u_i / d x_j.
    """
    geo = geometry(mesh)
    _, gphys = geo.element(field.dofmap.order)
    cells = field.dofmap.cell_to_dofs
    if field.components == 1:
        return np.einsum("ea,eaqd->eqd", field.coefficients[cells], gphys)
    comps = [np.einsum("ea,eaqd->eqd", field.component(k)[cells], gphys)
             for k in range(field.components)]
    return np.stack(comps, axis=2)


def _coeff_array(coeff, mesh):
    """Normalize a form coefficient to a (n_el, n_q) array (or scalar 1.0)."""
    if coeff is None:
        return 1.0
    if isinstance(coeff, Field):
        return eval_values(coeff, mesh)
    if np.isscalar(coeff):
        return float(coeff)
    return np.asarray(coeff)


# Blocks of the vector-valued forms, (block row, block column), row-major;
# every other form is one scalar block.
_SCALAR = ((0, 0),)
_BLOCKS = {
    "vector_mass": ((0, 0), (1, 1)),
    "deformation": ((0, 0), (0, 1), (1, 0), (1, 1)),
    "div_coupling": ((0, 0), (1, 0)),
}

# 2 D(phi_j e_b) : D(phi_i e_a) = delta_ab grad phi_i . grad phi_j
#                                 + d_b phi_i d_a phi_j, as C[a, b, c, d]
# contracted with d_c phi_i d_d phi_j
_I2 = np.eye(2)
_DEFORMATION = (np.einsum("ab,cd->abcd", _I2, _I2)
                + np.einsum("bc,ad->abcd", _I2, _I2))


class Pattern:
    """CSR sparsity pattern of one form on one mesh, built once.

    ``slot`` maps every entry of the local element matrices, flattened in
    (block, element, test, trial) order, to its position in the CSR data,
    so assembly is a single ``bincount``.  The index arrays are read-only
    and shared by every matrix made on the pattern.  Entries whose value is
    zero stay stored.
    """

    def __init__(self, shape, indptr, indices, slot=None):
        self.shape = shape
        self.indptr = indptr
        self.indices = indices
        self.slot = slot
        for arr in (indptr, indices, slot):
            if arr is not None:
                arr.setflags(write=False)

    @property
    def nnz(self):
        return self.indices.size

    def csr(self, data):
        """CSR matrix on this pattern; ``data`` (length nnz) is made
        read-only and kept, not copied."""
        data = np.asarray(data, dtype=np.float64)
        data.setflags(write=False)
        return sp.csr_matrix((data, self.indices, self.indptr),
                             shape=self.shape)

    def assemble(self, local):
        """Sum local element matrices, laid out as ``slot``, into a matrix."""
        return self.csr(np.bincount(self.slot, weights=local.ravel(),
                                    minlength=self.nnz))

    def positions(self, A):
        """Positions in this pattern's data of the stored entries of the
        canonical CSR matrix ``A``, whose pattern this one must contain."""
        def keys(indptr, indices):
            rows = np.repeat(np.arange(self.shape[0], dtype=np.int64),
                             np.diff(indptr))
            return rows * self.shape[1] + indices
        if A.shape != self.shape:
            raise ValueError("matrix shape differs from the pattern's")
        own = keys(self.indptr, self.indices)
        theirs = keys(A.indptr, A.indices)
        pos = np.minimum(np.searchsorted(own, theirs), own.size - 1)
        if not np.array_equal(own[pos], theirs):
            raise ValueError("matrix pattern is not contained in this one")
        return pos


def _scalar_pattern(test, trial):
    """Pattern of a scalar form: one sort of the element (row, col) keys."""
    n_t, n_s = test.n_dofs, trial.n_dofs
    nb_t, nb_s = test.cell_to_dofs.shape[1], trial.cell_to_dofs.shape[1]
    rows = np.repeat(test.cell_to_dofs.astype(np.int64), nb_s, axis=1)
    cols = np.tile(trial.cell_to_dofs, (1, nb_t))
    keys, slot = np.unique((rows * n_s + cols).ravel(), return_inverse=True)
    indptr = np.zeros(n_t + 1, dtype=np.int32)
    np.cumsum(np.bincount(keys // n_s, minlength=n_t), out=indptr[1:])
    return Pattern((n_t, n_s), indptr, (keys % n_s).astype(np.int32),
                   slot.astype(np.int32))


def _block_pattern(scalar, blocks):
    """Pattern of a block matrix whose ``blocks`` each have the scalar
    pattern.  Row r of block row R holds, for each of R's blocks in column
    order, the entries of scalar row r, so every position follows from the
    scalar one arithmetically, with no second sort."""
    n_t, n_s = scalar.shape
    nnz = scalar.nnz
    start = scalar.indptr.astype(np.int64)
    length = np.diff(start)
    row = np.repeat(np.arange(n_t), length)
    first, count = start[row], length[row]
    k = np.arange(nnz)
    n_rows = 1 + max(r for r, _ in blocks)
    n_cols = 1 + max(c for _, c in blocks)
    indices = np.empty(len(blocks) * nnz, dtype=np.int32)
    indptr, slot = [], []
    offset = 0
    for r in range(n_rows):
        cols = [c for rr, c in blocks if rr == r]
        for j, c in enumerate(cols):
            pos = offset + (len(cols) - 1) * first + j * count + k
            indices[pos] = scalar.indices + c * n_s
            slot.append(pos[scalar.slot])
        indptr.append(offset + len(cols) * start[:-1])
        offset += len(cols) * nnz
    indptr = np.concatenate(indptr + [[offset]]).astype(np.int32)
    return Pattern((n_rows * n_t, n_cols * n_s), indptr, indices,
                   np.concatenate(slot).astype(np.int32))


def pattern(form, trial, test, mesh):
    """The sparsity pattern of ``form``, built once per mesh.

    Forms on the same spaces with the same blocks share one pattern, so
    their matrices add as data vectors: mass, stiffness and advection on P2
    share the scalar P2 pattern.
    """
    return geometry(mesh).pattern(test, trial, _BLOCKS.get(form, _SCALAR))


def assemble(form, trial, test, mesh, coeff=None):
    """Assemble a bilinear form into a SciPy CSR matrix (rows = test dofs).

    Supported forms
    ---------------
    mass          (w phi_trial, phi_test), optional scalar/field/array w
    stiffness     (w grad phi_trial . grad phi_test)
    advection     ((b . grad phi_trial) phi_test), b array (n_el, n_q, 2)
    grad_x/grad_y (d phi_trial, phi_test)
    vector_mass   block-diagonal mass on a 2-component space
    deformation   (2 w D(u) : D(v)) on a 2-component space
    div_coupling  ((div v) q), vector test space, scalar trial space

    Directional-gradient forms like (grad a . grad phi) psi are "advection"
    with b = grad a evaluated at quadrature points.  The matrix is laid on
    ``pattern(form, trial, test, mesh)`` with fresh, read-only data.
    """
    geo = geometry(mesh)
    phi_s, g_s = geo.element(trial.order)
    phi_t, g_t = geo.element(test.order)
    Ww = (geo.wdet if form == "advection"
          else geo.wdet * _coeff_array(coeff, mesh))

    if form == "mass":
        local = np.einsum("eq,iq,jq->eij", Ww, phi_t, phi_s, optimize=True)
    elif form == "stiffness":
        local = np.einsum("eq,eiqd,ejqd->eij", Ww, g_t, g_s, optimize=True)
    elif form == "advection":
        local = np.einsum("eq,iq,eqd,ejqd->eij", Ww, phi_t,
                          np.asarray(coeff), g_s, optimize=True)
    elif form in ("grad_x", "grad_y"):
        d = 0 if form == "grad_x" else 1
        local = np.einsum("eq,iq,ejq->eij", Ww, phi_t, g_s[..., d],
                          optimize=True)
    elif form == "vector_mass":
        local = np.einsum("eq,iq,jq->eij", Ww, phi_t, phi_s, optimize=True)
        local = np.stack([local, local])
    elif form == "deformation":
        local = np.einsum("eq,abcd,eiqc,ejqd->abeij", Ww, _DEFORMATION,
                          g_t, g_s, optimize=True)
    elif form == "div_coupling":
        local = np.einsum("eq,eiqa,jq->aeij", Ww, g_t, phi_s, optimize=True)
    else:
        raise ValueError(f"unknown form {form!r}")
    return pattern(form, trial, test, mesh).assemble(local)


def _functional_array(coeff, mesh, vector=False):
    if callable(coeff):
        xy = quad_points_physical(mesh)
        out = coeff(xy[..., 0], xy[..., 1])
        if vector:
            return np.stack([np.broadcast_to(np.asarray(c, dtype=np.float64),
                                             xy.shape[:2]) for c in out], axis=-1)
        return np.broadcast_to(np.asarray(out, dtype=np.float64), xy.shape[:2])
    if isinstance(coeff, Field):
        return eval_values(coeff, mesh)
    if np.isscalar(coeff):
        shape = geometry(mesh).wdet.shape
        return np.full(shape + ((2,) if vector else ()), float(coeff))
    return np.asarray(coeff)


def _scatter_vector(local, cells, n_dofs):
    return np.bincount(cells.ravel(), weights=local.ravel(), minlength=n_dofs)


def assemble_vector(functional, test, mesh, coeff):
    """Assemble a linear functional into a dense vector.

    Supported functionals
    ---------------------
    source        (f, psi) with f a callable, Field, scalar or quad array
    vecflux       (b . grad psi) with b a quad array (n_el, n_q, 2)
    vector_source (f . v) on a 2-component test space
    """
    geo = geometry(mesh)
    phi, gphys = geo.element(test.order)
    W = geo.wdet

    if functional == "source":
        f = _functional_array(coeff, mesh)
        local = np.einsum("eq,iq->ei", W * f, phi)
        return _scatter_vector(local, test.cell_to_dofs, test.n_dofs)
    if functional == "vecflux":
        b = np.asarray(coeff)
        local = np.einsum("eq,eqd,eiqd->ei", W, b, gphys)
        return _scatter_vector(local, test.cell_to_dofs, test.n_dofs)
    if functional == "vector_source":
        f = _functional_array(coeff, mesh, vector=True)
        out = np.zeros(2 * test.n_dofs)
        for k in range(2):
            local = np.einsum("eq,iq->ei", W * f[..., k], phi)
            out[k * test.n_dofs:(k + 1) * test.n_dofs] = \
                _scatter_vector(local, test.cell_to_dofs, test.n_dofs)
        return out
    raise ValueError(f"unknown functional {functional!r}")


def apply_dirichlet(A, b, dofs, values):
    """Impose Dirichlet values on a SciPy CSR matrix by row replacement.

    Rows listed in ``dofs`` become identity rows and the matching entries of
    ``b`` are set to ``values``.
    """
    dofs = np.asarray(dofs, dtype=np.int64)
    b = np.asarray(b, dtype=np.float64).copy()
    if dofs.size == 0:
        return A, b
    values = np.broadcast_to(np.asarray(values, dtype=np.float64), dofs.shape)
    m = A.tocsr(copy=True)
    row_mask = np.zeros(m.shape[0], dtype=bool)
    row_mask[dofs] = True
    nnz_rows = np.repeat(row_mask, np.diff(m.indptr))
    m.data[nnz_rows] = 0.0
    m.eliminate_zeros()
    eye = sp.coo_matrix((np.ones(dofs.size), (dofs, dofs)), shape=m.shape)
    m = (m + eye.tocsr()).tocsr()
    m.sort_indices()
    b[dofs] = values
    return m, b


class DirichletElimination:
    """Zero Dirichlet values on a fixed pattern, by eliminating the rows and
    the columns of ``dofs``.

    Each constrained row keeps only a unit diagonal, so a symmetric matrix
    stays symmetric.  As the data are zero, the free rows of a right-hand
    side are unchanged; its constrained rows must be set to zero.  The
    reduced pattern and the gather onto it are computed here, once, with
    no sort; :meth:`matrix` then costs one gather per matrix.
    """

    def __init__(self, pattern, dofs):
        n = pattern.shape[0]
        if pattern.shape != (n, n):
            raise ValueError("Dirichlet elimination needs a square pattern")
        fixed = np.zeros(n, dtype=bool)
        fixed[dofs] = True
        dofs = np.flatnonzero(fixed)
        row = np.repeat(np.arange(n), np.diff(pattern.indptr))
        keep = ~fixed[row] & ~fixed[pattern.indices]
        indptr = np.zeros(n + 1, dtype=np.int32)
        np.cumsum(np.bincount(row[keep], minlength=n) + fixed,
                  out=indptr[1:])
        kept = np.ones(indptr[-1], dtype=bool)
        kept[indptr[dofs]] = False          # the constrained rows' diagonals
        indices = np.empty(indptr[-1], dtype=np.int32)
        indices[kept] = pattern.indices[keep]
        indices[~kept] = dofs
        self.pattern = Pattern((n, n), indptr, indices)
        self._dest = np.flatnonzero(kept)
        self._source = np.flatnonzero(keep)

    def matrix(self, data):
        """The constrained CSR matrix of the matrix with ``data`` on the
        original pattern."""
        out = np.ones(self.pattern.nnz)
        out[self._dest] = data[self._source]
        return self.pattern.csr(out)


def zero_mean_system(A, weight):
    """Augment a singular Neumann system with one Lagrange multiplier row.

    ``weight`` is the vector of basis-function integrals, so the constraint
    enforces a zero quadrature mean exactly.
    """
    n = A.shape[0]
    s = A.tocoo()
    rows = np.concatenate([s.row, np.full(n, n), np.arange(n)])
    cols = np.concatenate([s.col, np.arange(n), np.full(n, n)])
    vals = np.concatenate([s.data, weight, weight])
    return SparseMatrix.from_coo(n + 1, n + 1, rows, cols, vals).to_scipy()


class ZeroMeanSolver:
    """Pure-Neumann solver under a zero-mean constraint, factored once.

    Factors ``zero_mean_system(A, weight)``; the layout of the augmented
    vectors (the multiplier as last entry) is known only here.
    """

    def __init__(self, A, weight):
        self._lu = factorize(zero_mean_system(A, weight))

    def solve(self, b, subtract_mean=False):
        """Solve for right-hand side ``b``; returns (x, multiplier, report).

        The compatibility pairing of ``b`` with the constant function is
        ``sum(b)``; when it exceeds ``COMP_RTOL * sum(|b|)`` and
        ``subtract_mean`` is False a CompatibilityError is raised (for the
        potential equation this signals a net-charge imbalance).  With
        ``subtract_mean=True`` the multiplier absorbs the imbalance.  The
        scale ``sum(|b|)`` bounds the quadrature error of a pairing that is
        zero analytically and, unlike ``||b||``, does not shrink with h.
        """
        b = np.asarray(b, dtype=np.float64)
        imbalance = float(np.sum(b))
        tol = COMP_RTOL * np.sum(np.abs(b))
        if not subtract_mean and abs(imbalance) > tol:
            raise CompatibilityError(
                f"right-hand side pairing with constants is {imbalance:.3e} "
                f"(tolerance {tol:.3e}); net-charge imbalance")
        sol, report = self._lu.solve(np.append(b, 0.0))
        return sol[:-1], float(sol[-1]), report


def error_norm_l2(field, exact, mesh):
    """L2 norm of (field - exact) by quadrature.

    ``exact`` is a callable of (x, y); for vector fields it returns one array
    per component.
    """
    xy = quad_points_physical(mesh)
    vals = eval_values(field, mesh)
    if field.components == 1:
        diff = vals - exact(xy[..., 0], xy[..., 1])
        return float(np.sqrt(integrate(diff * diff, mesh)))
    ex = exact(xy[..., 0], xy[..., 1])
    total = 0.0
    for k in range(field.components):
        diff = vals[..., k] - ex[k]
        total += integrate(diff * diff, mesh)
    return float(np.sqrt(total))


def mean_value(field, mesh):
    """Quadrature mean of a scalar field."""
    return integrate(eval_values(field, mesh), mesh) / mesh.area


def basis_integrals(dofmap, mesh):
    """Integral of every basis function, used as the zero-mean weight."""
    return assemble_vector("source", dofmap, mesh, 1.0)
