"""Reference elements, quadrature, form assembly and the zero-mean solver.

Assembly is vectorized over all triangles at once.  On the affine elements
every quadrature contraction factors into a reference tensor, tabulated
once per pair of elements, and a per-cell geometric factor built from the
inverse Jacobian: a form is one matmul of the quadrature-weighted
coefficient with the reference tensor, then one batched per-cell product
with the geometric factor; a field is evaluated by one matmul of its cell
coefficients with the tabulated basis.  Each form's CSR sparsity pattern is
built once per mesh and cached with the geometry, together with the CSR
position of every local element entry; an assembly then ends in one
``bincount`` into fresh read-only data sharing the pattern's index arrays.
The scalar P2 forms share one pattern, so the scheme adds their matrices as
data vectors.  No vector mass is stored: M2 applies to each velocity
component, and its data enter the two diagonal blocks of the deformation
form's pattern (:func:`diagonal_blocks`).  One gradient form couples
velocity and pressure.  Dirichlet data and the zero-mean solver's pin are
eliminated by :class:`~spnpflow.sparse.System` on the same patterns.

Nonlinear coefficients are always point values at quadrature points, taken
from the finite-element expansions of their fields.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .sparse import System

# Symmetric 12-point rule on the reference triangle, exact through degree 6.
# Parameters refined to machine precision against the monomial integrals
# p! q! / (p+q+2)!.
_W1, _A1 = 0.11678627572638316, 0.24928674517090793
_W2, _A2 = 0.050844906370207305, 0.06308901449150253
_W3, _A3, _B3 = 0.08285107561837142, 0.31035245103378606, 0.05314504984481544


@dataclass
class QuadRule:
    """Quadrature rule in barycentric coordinates on the reference triangle.

    Weights are scaled to the reference area, so they sum to 1/2.
    """

    points: np.ndarray   # (n_q, 3) barycentric
    weights: np.ndarray  # (n_q,)


def quad_rule():
    """The symmetric 12-point rule, exact through degree 6."""
    pts = []
    for a in (_A1, _A2):
        c = 1.0 - 2.0 * a
        pts += [(c, a, a), (a, c, a), (a, a, c)]
    c3 = 1.0 - _A3 - _B3
    pts += [(c3, _A3, _B3), (c3, _B3, _A3), (_A3, c3, _B3),
            (_B3, c3, _A3), (_A3, _B3, c3), (_B3, _A3, c3)]
    ws = [_W1] * 3 + [_W2] * 3 + [_W3] * 6
    return QuadRule(np.asarray(pts), 0.5 * np.asarray(ws))


class RefElement:
    """Lagrange basis tabulated at quadrature points on the reference triangle.

    P2 local ordering: vertex functions first, then edge-midpoint functions
    for edges (v0,v1), (v1,v2), (v2,v0).
    """

    def __init__(self, order):
        if order not in (1, 2):
            raise ValueError(f"unsupported element order {order}")
        self.order = order
        # basis values (n_b, n_q) and reference gradients (n_b, n_q, 2)
        bary = quad_rule().points
        l0, l1, l2 = bary[:, 0], bary[:, 1], bary[:, 2]
        one = np.ones_like(l0)
        # gradients of barycentrics wrt reference (x, y) = (l1, l2)
        dl = np.array([[-1.0, -1.0], [1.0, 0.0], [0.0, 1.0]])
        if order == 1:
            self.values = np.stack([l0, l1, l2])
            self.grads = np.stack([np.stack([dl[i, 0] * one, dl[i, 1] * one],
                                            axis=-1) for i in range(3)])
            return
        self.values = np.stack([
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
        self.grads = np.stack(grads)


@functools.cache
def ref_element(order):
    """The reference element of ``order``, built once per process."""
    return RefElement(order)


@functools.cache
def eval_tables(order, components):
    """Basis values (n_b k, n_q k) and reference gradients (n_b k, n_q k 2)
    of ``order`` for ``k = components``, block-diagonal in the component,
    so that coefficients gathered per cell, component fastest, give values
    (n_el, n_q, k) and reference gradients (n_el, n_q, k, 2) in one matmul
    each; built once per process."""
    ref, eye = ref_element(order), np.eye(components)
    n_b = ref.values.shape[0]
    return (np.einsum("aq,kl->akql", ref.values, eye).reshape(
                n_b * components, -1),
            np.einsum("aqr,kl->akqlr", ref.grads, eye).reshape(
                n_b * components, -1))


# 2 D(phi_j e_b) : D(phi_i e_a) = delta_ab grad phi_i . grad phi_j
#                                 + d_b phi_i d_a phi_j, as C[a, b, c, d]
# contracted with d_c phi_i d_d phi_j
_I2 = np.eye(2)
_DEFORMATION = (np.einsum("ab,cd->abcd", _I2, _I2)
                + np.einsum("bc,ad->abcd", _I2, _I2))


class _Geometry:
    """Per-mesh assembly tables: Jacobian determinants, quadrature and the
    per-cell geometric factors of the affine map.

    A physical gradient is a reference gradient times ``inv``, so each
    quadrature contraction of a form factors into a reference tensor, the
    same on every cell, and a per-cell product with ``inv``, ``metric`` or
    ``strain`` (the tensor representation of Kirby & Logg, ACM TOMS 32,
    2006).  No per-cell table of physical gradients is kept.  ``metric``
    keeps the (0,0), (0,1) and (1,1) entries of the symmetric metric.
    """

    def __init__(self, mesh):
        rule = quad_rule()
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
        self.det = det                             # = 2 * area
        self.inv = inv                             # [e, r, d] = d xi_r / d x_d
        self.inv_t = np.ascontiguousarray(inv.transpose(0, 2, 1))
        # metric[e, r s] = sum_d inv[e, r, d] inv[e, s, d], r <= s
        self.metric = (inv @ self.inv_t).reshape(-1, 4)[:, [0, 1, 3], None]
        # strain[e, r s, a b] = sum_cd C[a, b, c, d] inv[e, r, c] inv[e, s, d]
        self.strain = np.einsum("abcd,erc,esd->ersab", _DEFORMATION, inv, inv,
                                optimize=True).reshape(-1, 4, 4)
        self.wdet = rule.weights[None, :] * det[:, None]   # (n_el, n_q)
        bary = rule.points
        self.qpoints = (bary[None, :, 0, None] * p[:, None, 0, :]
                        + bary[None, :, 1, None] * p[:, None, 1, :]
                        + bary[None, :, 2, None] * p[:, None, 2, :])
        # read-only: every caller shares these points
        self.qpoints.setflags(write=False)
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
                    self.pattern(test, trial, _SCALAR), blocks,
                    self.det.size)
        return self._patterns[key]


class _RefPair:
    """Reference tensors of a (test, trial) pair of elements, laid out so
    that a quadrature-weighted coefficient (n_el, n_q) meets each in one
    matmul.  phi and G are the basis values and reference gradients; i, j
    index test and trial functions, q quadrature points, r and s reference
    directions.

    mass[q, i j]          = phi_i(q) phi_j(q)
    value_grad[q, i j r]  = phi_i(q) G_j,q,r
    advection[q r, i j]   = phi_i(q) G_j,q,r

    The symmetric forms, on one element, are contracted on the pairs
    p = (i, j) with i <= j only, and ``mirror`` copies the result of pair
    p(min(i, j), max(i, j)) to (i, j), so entries (i, j) and (j, i) are the
    same number:

    grad_grad[q, p r s]   = G_i,q,r G_j,q,s
    stiffness[q, p k]     = G_i,q,0 G_j,q,0, G_i,q,0 G_j,q,1 + G_i,q,1 G_j,q,0,
                            G_i,q,1 G_j,q,1 for the metric's k = 00, 01, 11
    """

    def __init__(self, test, trial):
        phi_t, g_t = test.values, test.grads
        phi_s, g_s = trial.values, trial.grads
        n_q = phi_t.shape[1]
        self.mass = np.einsum("iq,jq->qij", phi_t, phi_s).reshape(n_q, -1)
        self.value_grad = np.einsum("iq,jqr->qijr", phi_t, g_s).reshape(n_q, -1)
        self.advection = np.einsum("iq,jqr->qrij", phi_t, g_s).reshape(
            2 * n_q, -1)
        if test.order != trial.order:
            return
        n_b = phi_t.shape[0]
        i, j = np.triu_indices(n_b)
        g_i, g_j = g_t[i].transpose(1, 0, 2), g_t[j].transpose(1, 0, 2)
        gg = g_i[..., :, None] * g_j[..., None, :]          # (q, p, r, s)
        self.grad_grad = gg.reshape(n_q, -1)
        self.stiffness = np.stack(
            [gg[..., 0, 0], gg[..., 0, 1] + gg[..., 1, 0], gg[..., 1, 1]],
            axis=-1).reshape(n_q, -1)
        pair = np.empty((n_b, n_b), dtype=np.intp)
        pair[i, j] = pair[j, i] = np.arange(i.size)
        self.mirror = pair.ravel()
        # deformation: the product with ``strain`` gives, per pair p and
        # block ab, the entry (a i, b j); block (0,1) takes its entries
        # below the diagonal from (1,0) of the transposed pair, and block
        # (1,0) mirrors (0,1)
        lower = np.tri(n_b, k=-1, dtype=bool)
        b01 = np.where(lower, 4 * pair + 2, 4 * pair + 1)
        self.deformation = np.concatenate(
            [4 * pair, b01, b01.T, 4 * pair + 3], axis=None)


@functools.cache
def ref_pair(test_order, trial_order):
    """Reference tensors of a (test, trial) pair of elements, built once
    per process."""
    return _RefPair(ref_element(test_order), ref_element(trial_order))


def geometry(mesh):
    """Assembly tables for a mesh, cached on the mesh object."""
    geo = getattr(mesh, "_fem_geometry", None)
    if geo is None:
        geo = _Geometry(mesh)
        mesh._fem_geometry = geo
    return geo


def quad_points_physical(mesh):
    """Physical coordinates of all quadrature points, (n_el, n_q, 2),
    read-only."""
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


def _cell_coefficients(field):
    """Coefficients gathered per cell, (n_el, n_b * components), with the
    component index fastest."""
    cells = field.dofmap.cell_to_dofs
    c = field.coefficients.reshape(field.components, -1).T[cells]
    return c.reshape(cells.shape[0], -1)


def eval_values(field, mesh):
    """Field values at quadrature points: (n_el, n_q) or (n_el, n_q, 2)."""
    geo = geometry(mesh)
    k = field.components
    values, _ = eval_tables(field.dofmap.order, k)
    vals = _cell_coefficients(field) @ values
    return vals if k == 1 else vals.reshape(geo.wdet.shape + (k,))


def eval_grads(field, mesh):
    """Field gradients at quadrature points.

    Scalar fields: (n_el, n_q, 2).  Vector fields: (n_el, n_q, 2, 2) with
    [i, j] = d u_i / d x_j.
    """
    geo = geometry(mesh)
    k = field.components
    _, grads = eval_tables(field.dofmap.order, k)
    n_el, n_q = geo.wdet.shape
    g = (_cell_coefficients(field) @ grads).reshape(n_el, n_q * k, 2) @ geo.inv
    return g.reshape((n_el, n_q, 2) if k == 1 else (n_el, n_q, k, 2))


def _quad_values(coeff, mesh, vector=False):
    """A form or functional coefficient at the quadrature points, as values
    that broadcast to (n_el, n_q), with a trailing axis of 2 for a
    ``vector`` callable.  Takes a callable of (x, y) (returning one value
    per component for ``vector``), a scalar, an array or None (1).
    """
    if coeff is None:
        return 1.0
    if callable(coeff):
        xy = quad_points_physical(mesh)
        out = coeff(xy[..., 0], xy[..., 1])
        if vector:
            return np.stack(np.broadcast_arrays(*out), axis=-1)
        return np.asarray(out, dtype=np.float64)
    if np.isscalar(coeff):
        return float(coeff)
    return np.asarray(coeff)


# Elements per block of the deformation form's contraction
_ELEMENT_BLOCK = 1024

# Blocks of the vector-valued forms, (block row, block column), row-major;
# every other form is one scalar block.
_SCALAR = ((0, 0),)
_VELOCITY = ((0, 0), (0, 1), (1, 0), (1, 1))
_BLOCKS = {
    "deformation": _VELOCITY,
    "gradient": ((0, 0), (1, 0)),
}

class Pattern:
    """CSR sparsity pattern of one form on one mesh, built once.

    ``slot`` maps every entry of the local element matrices, flattened in
    (element, block, test, trial) order, to its position in the CSR data,
    so assembly is a single ``bincount``.  The index arrays are read-only
    and shared by every matrix made on the pattern.  Entries whose value is
    zero stay stored.
    """

    def __init__(self, shape, indptr, indices, slot):
        self.shape = shape
        self.indptr = indptr
        self.indices = indices
        self.slot = slot
        for arr in (indptr, indices, slot):
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


def _block_pattern(scalar, blocks, n_el):
    """Pattern of a block matrix whose ``blocks`` each have the scalar
    pattern, on ``n_el`` elements.  Row r of block row R holds, for each of
    R's blocks in column order, the entries of scalar row r, so every
    position follows from the scalar one arithmetically, with no second
    sort."""
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
            slot.append(pos[scalar.slot].reshape(n_el, -1))
        indptr.append(offset + len(cols) * start[:-1])
        offset += len(cols) * nnz
    indptr = np.concatenate(indptr + [[offset]]).astype(np.int32)
    return Pattern((n_rows * n_t, n_cols * n_s), indptr, indices,
                   np.stack(slot, axis=1).ravel().astype(np.int32))


def pattern(form, trial, test, mesh):
    """The sparsity pattern of ``form``, built once per mesh.

    Forms on the same spaces with the same blocks share one pattern, so
    their matrices add as data vectors: mass, stiffness and advection on P2
    share the scalar P2 pattern.
    """
    return geometry(mesh).pattern(test, trial, _BLOCKS.get(form, _SCALAR))


def diagonal_blocks(trial, test, mesh):
    """Positions in the data of the 2x2 velocity pattern of the entries of
    its two diagonal blocks, in the order of the scalar pattern's data:
    (2, nnz) int32, the (0,0) block first.  A scalar matrix scattered there
    is the block-diagonal matrix with it in both blocks."""
    scalar = pattern("mass", trial, test, mesh)
    slot = pattern("deformation", trial, test, mesh).slot.reshape(
        geometry(mesh).det.size, len(_VELOCITY), -1)
    out = np.empty((2, scalar.nnz), dtype=np.int32)
    out[0, scalar.slot] = slot[:, 0].ravel()
    out[1, scalar.slot] = slot[:, 3].ravel()
    return out


def assemble(form, trial, test, mesh, coeff=None):
    """Assemble a bilinear form into a SciPy CSR matrix (rows = test dofs).

    Supported forms
    ---------------
    mass          (w phi_trial, phi_test), optional scalar/array w
    stiffness     (w grad phi_trial . grad phi_test)
    advection     ((b . grad phi_trial) phi_test), b array (n_el, n_q, 2)
    deformation   (2 w D(u) : D(v)) on a 2-component space
    gradient      (grad q, v), vector test space, scalar trial space

    Directional-gradient forms like (grad a . grad phi) psi are "advection"
    with b = grad a evaluated at quadrature points.  The matrix is laid on
    ``pattern(form, trial, test, mesh)`` with fresh, read-only data.
    """
    geo = geometry(mesh)
    ref = ref_pair(test.order, trial.order)
    n_el = geo.det.size
    Ww = (geo.wdet if form == "advection"
          else geo.wdet * _quad_values(coeff, mesh))

    # local is laid out (element, block, test, trial), as Pattern.slot
    if form == "mass":
        local = Ww @ ref.mass
    elif form in ("stiffness", "deformation"):
        if test.order != trial.order:
            raise ValueError(f"{form} needs one test and trial space")
        # exactly symmetric: each pair (i <= j) is contracted once
        # np.take keeps the gathered pairs C-ordered, so ``slot`` order
        # costs no transposing copy
        if form == "stiffness":
            local = np.take(((Ww @ ref.stiffness).reshape(n_el, -1, 3)
                             @ geo.metric)[..., 0], ref.mirror, axis=1)
        else:
            S = (Ww @ ref.grad_grad).reshape(n_el, -1, 4)
            # contracted a block of elements at a time into the one local
            # array, so the (n_el, pairs, 4) product is never whole
            local = np.empty((n_el, ref.deformation.size))
            for b in range(0, n_el, _ELEMENT_BLOCK):
                e = slice(b, b + _ELEMENT_BLOCK)
                block = S[e] @ geo.strain[e]
                np.take(block.reshape(block.shape[0], -1), ref.deformation,
                        axis=1, out=local[e], mode="clip")
    elif form == "advection":
        beta = Ww[..., None] * (np.asarray(coeff) @ geo.inv_t)
        local = beta.reshape(n_el, -1) @ ref.advection
    elif form == "gradient":
        # (X inv)^T as inv^T X^T, formed directly in (element, block) order
        local = geo.inv_t @ (Ww @ ref.value_grad).reshape(
            n_el, -1, 2).transpose(0, 2, 1)
    else:
        raise ValueError(f"unknown form {form!r}")
    return pattern(form, trial, test, mesh).assemble(local)


def _scatter_vector(local, cells, n_dofs):
    return np.bincount(cells.ravel(), weights=local.ravel(), minlength=n_dofs)


def assemble_vector(functional, test, mesh, coeff):
    """Assemble a linear functional into a dense vector.

    Supported functionals
    ---------------------
    source        (f, psi) with f a callable, scalar or quad array
    vecflux       (b . grad psi) with b a quad array (n_el, n_q, 2)
    vector_source (f . v) on a 2-component test space
    """
    geo = geometry(mesh)
    ref = ref_element(test.order)
    W = geo.wdet

    if functional == "source":
        local = (W * _quad_values(coeff, mesh)) @ ref.values.T
        return _scatter_vector(local, test.cell_to_dofs, test.n_dofs)
    if functional == "vecflux":
        beta = W[..., None] * (np.asarray(coeff) @ geo.inv_t)
        grads = ref.grads.reshape(ref.grads.shape[0], -1)   # [i, q r]
        local = beta.reshape(W.shape[0], -1) @ grads.T
        return _scatter_vector(local, test.cell_to_dofs, test.n_dofs)
    if functional == "vector_source":
        f = np.broadcast_to(_quad_values(coeff, mesh, vector=True),
                            W.shape + (2,))
        local = (W * np.moveaxis(f, -1, 0)) @ ref.values.T
        return np.concatenate([
            _scatter_vector(local[k], test.cell_to_dofs, test.n_dofs)
            for k in range(2)])
    raise ValueError(f"unknown functional {functional!r}")


def apply_dirichlet(A, b, dofs, values):
    """Impose Dirichlet ``values``, in the order of ``dofs``, on a square
    CSR matrix and its right-hand side in one shot: the CSR matrix with the
    rows and columns of ``dofs`` eliminated by
    :class:`~spnpflow.sparse.System`, symmetric for a symmetric ``A``, and
    the lifted right-hand side."""
    g = np.zeros(A.shape[0])
    g[dofs] = values
    bc = System(A, np.arange(A.shape[0]), dofs)
    return bc.matrix(A.data).tocsr(), bc.rhs(b, bc.lift(A, g))


def vector_ordering(dofmap):
    """The dof map's elimination order for a 2-component field, node-blocked:
    the x and y unknowns of each dof are adjacent."""
    order = dofmap.ordering
    return np.stack([order, order + dofmap.n_dofs], axis=1).ravel()


class ZeroMeanSolver:
    """Pure-Neumann solver under a zero-mean constraint, factored once.

    Solves the bordered system A x + mult w = b, w.x = 0, for a symmetric
    CSR matrix A whose rows sum to zero (1^T A = 0, as for a stiffness
    matrix) and the basis-function integrals ``weight``, so that the
    constraint enforces a zero quadrature mean exactly.  Summing the rows
    gives the multiplier in closed form, mult = sum(b) / sum(w).  A is
    factored with one unknown pinned to zero, the last one in ``order``,
    eliminated by :class:`~spnpflow.sparse.System`: the pinned system solves
    A y = b - mult w, which is compatible, and x is y less its w-weighted
    mean.
    """

    def __init__(self, A, weight, order):
        self._weight = np.asarray(weight, dtype=np.float64)
        self._area = float(np.sum(self._weight))
        self._pin = System(A, order, fixed=order[-1:])
        self._lu = self._pin.factor(A.data)

    def solve(self, b):
        """Solve for right-hand side ``b``; returns (x, multiplier, report).

        The multiplier absorbs the pairing ``sum(b)`` of ``b`` with the
        constant function, so every right-hand side has a solution; a
        caller for which that pairing must vanish checks the multiplier.
        """
        b = np.asarray(b, dtype=np.float64)
        multiplier = float(np.sum(b)) / self._area
        y, report = self._lu.solve(self._pin.rhs(b - multiplier * self._weight))
        return y - (self._weight @ y) / self._area, multiplier, report


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


def basis_integrals(dofmap, mesh):
    """Integral of every basis function, used as the zero-mean weight."""
    return assemble_vector("source", dofmap, mesh, 1.0)
