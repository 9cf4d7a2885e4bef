"""Independent brute-force oracles used to cross-check the assembly kernels,
the Dirichlet elimination, the zero-mean Neumann solver and the
manufactured sources.

Nothing here shares code with the production path: basis functions are
monomial polynomials obtained by inverting a Vandermonde system at the
physical element nodes, and integration uses tensor Gauss-Legendre points
collapsed onto each triangle (exact for polynomial integrands well past
anything the forms produce).  The snapshot writer is checked against a
value-by-value loop writer.  The manufactured sources are checked against
per-term closed forms from the exact fields' derivatives
(:class:`ExactDerivatives`, which extends the fields of
``manufactured.ExactSolution``) and by applying fourth-order finite
differences to the exact fields.
"""

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from spnpflow.manufactured import PI, ExactSolution
from spnpflow.scheme import SourcePack

P1_MONOMIALS = ((0, 0), (1, 0), (0, 1))
P2_MONOMIALS = ((0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2))


def gauss01(n):
    x, w = np.polynomial.legendre.leggauss(n)
    return 0.5 * (x + 1.0), 0.5 * w


def triangle_quad(verts, n=8):
    """Collapsed-square Gauss points and weights on one physical triangle."""
    u, wu = gauss01(n)
    v, wv = gauss01(n)
    U, V = np.meshgrid(u, v, indexing="ij")
    WU, WV = np.meshgrid(wu, wv, indexing="ij")
    l1 = U * (1.0 - V)
    l2 = U * V
    l0 = 1.0 - l1 - l2
    pts = (l0[..., None] * verts[0] + l1[..., None] * verts[1]
           + l2[..., None] * verts[2])
    d1 = verts[1] - verts[0]
    d2 = verts[2] - verts[0]
    area2 = abs(d1[0] * d2[1] - d1[1] * d2[0])
    w = (WU * WV * U).ravel() * area2
    return pts.reshape(-1, 2), w


class PolyBasis:
    """Monomial representation of the Lagrange basis on one triangle."""

    def __init__(self, nodes, monomials):
        self.monomials = monomials
        V = np.array([[x ** p * y ** q for (p, q) in monomials]
                      for (x, y) in nodes])
        self.coeffs = np.linalg.inv(V)   # column a: monomial coeffs of phi_a

    @property
    def n_basis(self):
        return len(self.monomials)

    def values(self, x, y):
        """(n_basis, n_points) basis values."""
        mono = np.array([x ** p * y ** q for (p, q) in self.monomials])
        return self.coeffs.T @ mono

    def grads(self, x, y):
        """(n_basis, n_points, 2) basis gradients."""
        gx = np.array([p * x ** max(p - 1, 0) * y ** q
                       for (p, q) in self.monomials])
        gy = np.array([q * x ** p * y ** max(q - 1, 0)
                       for (p, q) in self.monomials])
        return np.stack([self.coeffs.T @ gx, self.coeffs.T @ gy], axis=-1)


def _basis_for(dofmap, tri):
    mono = P1_MONOMIALS if dofmap.order == 1 else P2_MONOMIALS
    nodes = dofmap.dof_coords()[dofmap.cell_to_dofs[tri]]
    return PolyBasis(nodes, mono)


def field_value(dofmap, coeffs, tri, x, y):
    """Exact polynomial evaluation of a scalar FE field on one element."""
    pb = _basis_for(dofmap, tri)
    return pb.values(x, y).T @ coeffs[dofmap.cell_to_dofs[tri]]


def field_grad(dofmap, coeffs, tri, x, y):
    pb = _basis_for(dofmap, tri)
    return np.einsum("a,apd->pd", coeffs[dofmap.cell_to_dofs[tri]],
                     pb.grads(x, y))


def _dense_loop(mesh, trial, test, cell_kernel):
    A = np.zeros((test.n_dofs, trial.n_dofs))
    for tri in range(mesh.n_triangles):
        verts = mesh.nodes[mesh.triangles[tri]]
        pts, w = triangle_quad(verts)
        pb_t = _basis_for(test, tri)
        pb_s = _basis_for(trial, tri)
        local = cell_kernel(tri, pb_t, pb_s, pts[:, 0], pts[:, 1], w)
        rows = test.cell_to_dofs[tri]
        cols = trial.cell_to_dofs[tri]
        A[np.ix_(rows, cols)] += local
    return A


def dense_mass(mesh, trial, test, coeff=None):
    coeff = coeff or (lambda x, y: np.ones_like(x))

    def kernel(tri, pb_t, pb_s, x, y, w):
        return np.einsum("p,ip,jp->ij", w * coeff(x, y),
                         pb_t.values(x, y), pb_s.values(x, y))
    return _dense_loop(mesh, trial, test, kernel)


def dense_stiffness(mesh, trial, test, coeff=None):
    coeff = coeff or (lambda x, y: np.ones_like(x))

    def kernel(tri, pb_t, pb_s, x, y, w):
        return np.einsum("p,ipd,jpd->ij", w * coeff(x, y),
                         pb_t.grads(x, y), pb_s.grads(x, y))
    return _dense_loop(mesh, trial, test, kernel)


def dense_advection(mesh, trial, test, b_fn):
    """(b . grad phi_trial, phi_test) with b a callable -> (bx, by)."""

    def kernel(tri, pb_t, pb_s, x, y, w):
        bx, by = b_fn(tri, x, y)
        g = pb_s.grads(x, y)
        bdotg = bx * g[..., 0] + by * g[..., 1]
        return np.einsum("p,ip,jp->ij", w, pb_t.values(x, y), bdotg)
    return _dense_loop(mesh, trial, test, kernel)


def dense_grad(mesh, trial, test, axis):
    def kernel(tri, pb_t, pb_s, x, y, w):
        return np.einsum("p,ip,jp->ij", w, pb_t.values(x, y),
                         pb_s.grads(x, y)[..., axis])
    return _dense_loop(mesh, trial, test, kernel)


def dense_deformation(mesh, trial, test, mu_fn):
    """(2 mu D(u):D(v)) on the 2-component space, block layout [x; y]."""
    n_t, n_s = test.n_dofs, trial.n_dofs
    A = np.zeros((2 * n_t, 2 * n_s))
    for tri in range(mesh.n_triangles):
        verts = mesh.nodes[mesh.triangles[tri]]
        pts, w = triangle_quad(verts)
        x, y = pts[:, 0], pts[:, 1]
        mu = mu_fn(x, y)
        g_t = _basis_for(test, tri).grads(x, y)
        g_s = _basis_for(trial, tri).grads(x, y)
        gx_t, gy_t = g_t[..., 0], g_t[..., 1]
        gx_s, gy_s = g_s[..., 0], g_s[..., 1]
        wmu = w * mu
        a00 = np.einsum("p,ip,jp->ij", 2 * wmu, gx_t, gx_s) \
            + np.einsum("p,ip,jp->ij", wmu, gy_t, gy_s)
        a11 = np.einsum("p,ip,jp->ij", 2 * wmu, gy_t, gy_s) \
            + np.einsum("p,ip,jp->ij", wmu, gx_t, gx_s)
        a01 = np.einsum("p,ip,jp->ij", wmu, gy_t, gx_s)
        a10 = np.einsum("p,ip,jp->ij", wmu, gx_t, gy_s)
        rows = test.cell_to_dofs[tri]
        cols = trial.cell_to_dofs[tri]
        A[np.ix_(rows, cols)] += a00
        A[np.ix_(rows, cols + n_s)] += a01
        A[np.ix_(rows + n_t, cols)] += a10
        A[np.ix_(rows + n_t, cols + n_s)] += a11
    return A


def dense_div_coupling(mesh, trial, test):
    """((div v) q): vector test rows [x; y], scalar trial columns."""
    n_t, n_s = test.n_dofs, trial.n_dofs
    A = np.zeros((2 * n_t, n_s))
    for tri in range(mesh.n_triangles):
        verts = mesh.nodes[mesh.triangles[tri]]
        pts, w = triangle_quad(verts)
        x, y = pts[:, 0], pts[:, 1]
        g_t = _basis_for(test, tri).grads(x, y)
        vals_s = _basis_for(trial, tri).values(x, y)
        bx = np.einsum("p,ip,jp->ij", w, g_t[..., 0], vals_s)
        by = np.einsum("p,ip,jp->ij", w, g_t[..., 1], vals_s)
        rows = test.cell_to_dofs[tri]
        cols = trial.cell_to_dofs[tri]
        A[np.ix_(rows, cols)] += bx
        A[np.ix_(rows + n_t, cols)] += by
    return A


def dense_source(mesh, test, f_fn):
    out = np.zeros(test.n_dofs)
    for tri in range(mesh.n_triangles):
        verts = mesh.nodes[mesh.triangles[tri]]
        pts, w = triangle_quad(verts)
        x, y = pts[:, 0], pts[:, 1]
        vals = _basis_for(test, tri).values(x, y)
        out[test.cell_to_dofs[tri]] += np.einsum("p,ip->i", w * f_fn(x, y),
                                                 vals)
    return out


def dense_vecflux(mesh, test, b_fn):
    out = np.zeros(test.n_dofs)
    for tri in range(mesh.n_triangles):
        verts = mesh.nodes[mesh.triangles[tri]]
        pts, w = triangle_quad(verts)
        x, y = pts[:, 0], pts[:, 1]
        bx, by = b_fn(tri, x, y)
        g = _basis_for(test, tri).grads(x, y)
        out[test.cell_to_dofs[tri]] += np.einsum(
            "p,ip->i", w, bx * g[..., 0] + by * g[..., 1])
    return out


def row_replacement(A, b, dofs, values):
    """Dirichlet data by row replacement, the reference for the symmetric
    elimination: the rows of ``dofs`` become identity rows and ``b`` takes
    ``values`` there; the columns stay, so the matrix is not symmetric."""
    fixed = np.zeros(A.shape[0])
    fixed[dofs] = 1.0
    b = np.array(b, dtype=np.float64)
    b[dofs] = values
    return (sp.diags(1.0 - fixed) @ A + sp.diags(fixed)).tocsr(), b


def zero_mean_system(A, weight):
    """The singular Neumann matrix A bordered by one Lagrange multiplier
    row and column, ``weight`` (the basis-function integrals), so that the
    constraint enforces a zero quadrature mean exactly."""
    w = sp.csr_matrix(np.asarray(weight, dtype=np.float64))
    return sp.bmat([[A, w.T], [w, None]], format="csr")


def zero_mean_solve(A, weight, b):
    """(x, multiplier) of the bordered zero-mean system, the reference of
    the pinned solver, by one direct solve."""
    sol = spla.spsolve(zero_mean_system(A, weight).tocsc(),
                       np.append(b, 0.0))
    return sol[:-1], sol[-1]


def boundary_sides_by_coords(dofmap):
    """Side name -> sorted boundary dofs, classified by coordinates: the
    reference of ``DofMap.boundary_dofs_by_side``.  An edge met by one
    triangle is on a side when its midpoint lies on that side's line to
    within 1e-12 of the larger extent; a side holds the vertices of its
    edges and, for P2, their midpoint dofs."""
    mesh = dofmap.mesh
    xmin, xmax, ymin, ymax = mesh.extents
    tol = 1e-12 * max(xmax - xmin, ymax - ymin)
    counts = np.bincount(mesh.tri_edges.ravel(), minlength=mesh.n_edges)
    on_boundary = np.flatnonzero(counts == 1)
    ends = mesh.edges[on_boundary]
    mids = 0.5 * (mesh.nodes[ends[:, 0]] + mesh.nodes[ends[:, 1]])
    lines = {"left": (0, xmin), "right": (0, xmax),
             "bottom": (1, ymin), "top": (1, ymax)}
    sides = {}
    for side, (axis, value) in lines.items():
        eids = on_boundary[np.abs(mids[:, axis] - value) < tol]
        dofs = [mesh.edges[eids].ravel()]
        if dofmap.order == 2:
            dofs.append(mesh.n_nodes + eids)
        sides[side] = np.unique(np.concatenate(dofs))
    return sides


def interior_extrema_loop(vals, mesh, rel_floor=1e-6):
    """Strict interior local extrema of a vertex field, vertex by vertex
    over neighbour lists: the reference of the vectorised count."""
    scale = np.abs(vals).max()
    if scale == 0.0:
        return 0
    neighbors = [[] for _ in range(mesh.n_nodes)]
    for a, b in mesh.edges:
        neighbors[a].append(b)
        neighbors[b].append(a)
    # the edges met by one triangle only are the boundary edges
    counts = np.bincount(mesh.tri_edges.ravel(), minlength=mesh.n_edges)
    boundary = set(mesh.edges[counts == 1].ravel())
    count = 0
    for v in range(mesh.n_nodes):
        if v in boundary or abs(vals[v]) < rel_floor * scale:
            continue
        nb = vals[neighbors[v]]
        if np.all(vals[v] > nb) or np.all(vals[v] < nb):
            count += 1
    return count


def write_snapshot_loop(state, mesh, path):
    """The legacy-VTK snapshot of ``io_cli.write_snapshot`` written value by
    value: the reference of the array writer.  Each triangle (a, b, c) with
    edge midpoints (m01, m12, m20) splits into (a, m01, m20), (b, m12,
    m01), (c, m20, m12) and (m01, m12, m20)."""
    fmt = "%.17g"
    coords = state.vbar.dofmap.dof_coords()
    cells = []
    for (a, b, c), mids in zip(mesh.triangles, mesh.n_nodes + mesh.tri_edges):
        m01, m12, m20 = mids
        cells += [(a, m01, m20), (b, m12, m01), (c, m20, m12), (m01, m12, m20)]
    p = state.p.coefficients
    p_vals = list(p) + [0.5 * (p[i] + p[j]) for i, j in mesh.edges]
    scalars = [("c_p", state.c[0].coefficients),
               ("c_n", state.c[1].coefficients),
               ("V", state.v.coefficients), ("p", p_vals)]
    with open(path, "w") as fh:
        fh.write("# vtk DataFile Version 3.0\n")
        fh.write(fmt % state.t + " snapshot\n")
        fh.write("ASCII\nDATASET UNSTRUCTURED_GRID\n")
        fh.write(f"POINTS {len(coords)} double\n")
        for x, y in coords:
            fh.write(f"{fmt % x} {fmt % y} 0\n")
        fh.write(f"CELLS {len(cells)} {4 * len(cells)}\n")
        for a, b, c in cells:
            fh.write(f"3 {a} {b} {c}\n")
        fh.write(f"CELL_TYPES {len(cells)}\n")
        for _ in cells:
            fh.write("5\n")
        fh.write(f"POINT_DATA {len(coords)}\n")
        for name, vals in scalars:
            fh.write(f"SCALARS {name} double 1\nLOOKUP_TABLE default\n")
            for v in vals:
                fh.write(fmt % v + "\n")
        fh.write("VECTORS u double\n")
        for vx, vy in zip(state.u.component(0), state.u.component(1)):
            fh.write(f"{fmt % vx} {fmt % vy} 0\n")


# ----------------------------------------------------------------------
# per-term closed forms of the manufactured sources
# ----------------------------------------------------------------------

class ExactDerivatives(ExactSolution):
    """The exact fields of ``manufactured.ExactSolution`` with their space
    and time derivatives in closed form, vectorized over (x, y) with a
    scalar time."""

    def cp_x(self, x, y, t):
        return -PI * np.sin(PI * x) * np.cos(PI * y) * np.exp(-t)

    def cp_y(self, x, y, t):
        return -PI * np.cos(PI * x) * np.sin(PI * y) * np.exp(-t)

    def cp_lap(self, x, y, t):
        return -2 * PI ** 2 * np.cos(PI * x) * np.cos(PI * y) * np.exp(-t)

    def cp_t(self, x, y, t):
        return -np.cos(PI * x) * np.cos(PI * y) * np.exp(-t)

    def cn_x(self, x, y, t):
        return -self.cp_x(x, y, t)

    def cn_y(self, x, y, t):
        return -self.cp_y(x, y, t)

    def cn_lap(self, x, y, t):
        return -self.cp_lap(x, y, t)

    def cn_t(self, x, y, t):
        return -self.cp_t(x, y, t)

    def v_x(self, x, y, t):
        return -np.sin(PI * x) * np.cos(PI * y) * np.exp(-t) / PI

    def v_y(self, x, y, t):
        return -np.cos(PI * x) * np.sin(PI * y) * np.exp(-t) / PI

    def v_lap(self, x, y, t):
        return -2 * np.cos(PI * x) * np.cos(PI * y) * np.exp(-t)

    def u1_x(self, x, y, t):
        return PI ** 2 * np.sin(2 * PI * x) * np.sin(2 * PI * y) * np.exp(-t)

    def u1_y(self, x, y, t):
        return 2 * PI ** 2 * np.sin(PI * x) ** 2 * np.cos(2 * PI * y) * np.exp(-t)

    def u1_xx(self, x, y, t):
        return 2 * PI ** 3 * np.cos(2 * PI * x) * np.sin(2 * PI * y) * np.exp(-t)

    def u1_xy(self, x, y, t):
        return 2 * PI ** 3 * np.sin(2 * PI * x) * np.cos(2 * PI * y) * np.exp(-t)

    def u1_yy(self, x, y, t):
        return -4 * PI ** 3 * np.sin(PI * x) ** 2 * np.sin(2 * PI * y) * np.exp(-t)

    def u2_x(self, x, y, t):
        return -2 * PI ** 2 * np.cos(2 * PI * x) * np.sin(PI * y) ** 2 * np.exp(-t)

    def u2_y(self, x, y, t):
        return -PI ** 2 * np.sin(2 * PI * x) * np.sin(2 * PI * y) * np.exp(-t)

    def u2_xx(self, x, y, t):
        return 4 * PI ** 3 * np.sin(2 * PI * x) * np.sin(PI * y) ** 2 * np.exp(-t)

    def u2_xy(self, x, y, t):
        return -2 * PI ** 3 * np.cos(2 * PI * x) * np.sin(2 * PI * y) * np.exp(-t)

    def u2_yy(self, x, y, t):
        return -2 * PI ** 3 * np.sin(2 * PI * x) * np.cos(2 * PI * y) * np.exp(-t)

    def p_x(self, x, y, t):
        return -PI * np.sin(PI * x) * np.cos(PI * y) * np.exp(-t)

    def p_y(self, x, y, t):
        return -PI * np.cos(PI * x) * np.sin(PI * y) * np.exp(-t)

    def divergence_u(self, x, y, t):
        return self.u1_x(x, y, t) + self.u2_y(x, y, t)


def _carreau(s, params):
    return params.mu_inf + (params.mu0 - params.mu_inf) \
        * (1.0 + params.lambda1 ** 2 * s) ** (0.5 * (params.k - 1.0))


def _shear_and_grad(ex, x, y, t):
    """s = 2 D(u):D(u) and its spatial gradient in closed form."""
    d11 = ex.u1_x(x, y, t)
    d22 = ex.u2_y(x, y, t)
    mix = ex.u1_y(x, y, t) + ex.u2_x(x, y, t)
    s = 2.0 * (d11 ** 2 + d22 ** 2) + mix ** 2
    mix_x = ex.u1_xy(x, y, t) + ex.u2_xx(x, y, t)
    mix_y = ex.u1_yy(x, y, t) + ex.u2_xy(x, y, t)
    s_x = 4 * d11 * ex.u1_xx(x, y, t) + 4 * d22 * ex.u2_xy(x, y, t) \
        + 2 * mix * mix_x
    s_y = 4 * d11 * ex.u1_xy(x, y, t) + 4 * d22 * ex.u2_yy(x, y, t) \
        + 2 * mix * mix_y
    return s, s_x, s_y, d11, d22, mix


def _stress_divergence(ex, params, x, y, t):
    """div(2 mu D(u)) = mu lap(u) + 2 D(u) grad(mu) for divergence-free u."""
    s, s_x, s_y, d11, d22, mix = _shear_and_grad(ex, x, y, t)
    mu = _carreau(s, params)
    if params.k == 1.0:
        mu_x = np.zeros_like(s)
        mu_y = np.zeros_like(s)
    else:
        dmu = (params.mu0 - params.mu_inf) * 0.5 * (params.k - 1.0) \
            * params.lambda1 ** 2 \
            * np.power(1.0 + params.lambda1 ** 2 * s, 0.5 * (params.k - 3.0))
        mu_x = dmu * s_x
        mu_y = dmu * s_y
    lap1 = ex.u1_xx(x, y, t) + ex.u1_yy(x, y, t)
    lap2 = ex.u2_xx(x, y, t) + ex.u2_yy(x, y, t)
    div1 = mu * lap1 + 2.0 * d11 * mu_x + mix * mu_y
    div2 = mu * lap2 + mix * mu_x + 2.0 * d22 * mu_y
    return div1, div2


def _transport_divergence(ex, params, species, x, y, t):
    """div(c_i grad g_i) in closed form for the exact fields."""
    if species == 0:
        c, cx, cy, clap = (ex.cp(x, y, t), ex.cp_x(x, y, t),
                           ex.cp_y(x, y, t), ex.cp_lap(x, y, t))
    else:
        c, cx, cy, clap = (ex.cn(x, y, t), ex.cn_x(x, y, t),
                           ex.cn_y(x, y, t), ex.cn_lap(x, y, t))
    zi = params.z[species]
    w = params.w_steric
    others = [
        (ex.cp_x(x, y, t), ex.cp_y(x, y, t), ex.cp_lap(x, y, t)),
        (ex.cn_x(x, y, t), ex.cn_y(x, y, t), ex.cn_lap(x, y, t)),
    ]
    gx = cx / c + zi * ex.v_x(x, y, t)
    gy = cy / c + zi * ex.v_y(x, y, t)
    glap = clap / c - (cx ** 2 + cy ** 2) / c ** 2 + zi * ex.v_lap(x, y, t)
    for j in range(2):
        ojx, ojy, ojlap = others[j]
        gx = gx + w[species, j] * ojx
        gy = gy + w[species, j] * ojy
        glap = glap + w[species, j] * ojlap
    return cx * gx + cy * gy + c * glap


def source_terms_reference(exact, params):
    """The manufactured sources with every field and derivative taken from
    its own method of ``exact`` (an :class:`ExactDerivatives`): the
    reference of ``manufactured.source_terms``."""
    ex = exact
    z0, z1 = params.z

    def charge(x, y, t):
        return ex.cp(x, y, t) * z0 + ex.cn(x, y, t) * z1

    def f_u(x, y, t):
        div1, div2 = _stress_divergence(ex, params, x, y, t)
        adv1 = ex.u1(x, y, t) * ex.u1_x(x, y, t) \
            + ex.u2(x, y, t) * ex.u1_y(x, y, t)
        adv2 = ex.u1(x, y, t) * ex.u2_x(x, y, t) \
            + ex.u2(x, y, t) * ex.u2_y(x, y, t)
        rho = charge(x, y, t)
        f1 = -ex.u1(x, y, t) + adv1 - div1 / params.re + ex.p_x(x, y, t) \
            + params.co * rho * ex.v_x(x, y, t)
        f2 = -ex.u2(x, y, t) + adv2 - div2 / params.re + ex.p_y(x, y, t) \
            + params.co * rho * ex.v_y(x, y, t)
        return f1, f2

    def f_cp(x, y, t):
        adv = ex.u1(x, y, t) * ex.cp_x(x, y, t) \
            + ex.u2(x, y, t) * ex.cp_y(x, y, t)
        return ex.cp_t(x, y, t) + adv \
            - _transport_divergence(ex, params, 0, x, y, t) / params.pe

    def f_cn(x, y, t):
        adv = ex.u1(x, y, t) * ex.cn_x(x, y, t) \
            + ex.u2(x, y, t) * ex.cn_y(x, y, t)
        return ex.cn_t(x, y, t) + adv \
            - _transport_divergence(ex, params, 1, x, y, t) / params.pe

    def f_v(x, y, t):
        return -params.lam * ex.v_lap(x, y, t) - charge(x, y, t)

    def dfv_dt(x, y, t):
        # lap V and the charge's varying part decay as exp(-t)
        return params.lam * ex.v_lap(x, y, t) \
            - z0 * ex.cp_t(x, y, t) - z1 * ex.cn_t(x, y, t)

    return SourcePack(
        f_u=f_u, f_c=[f_cp, f_cn], f_v=f_v, dfv_dt=dfv_dt,
        f_sigma=[lambda x, y, t: f_cp(x, y, t) / ex.cp(x, y, t),
                 lambda x, y, t: f_cn(x, y, t) / ex.cn(x, y, t)])


# ----------------------------------------------------------------------
# finite-difference validation of the manufactured sources
# ----------------------------------------------------------------------

def fd1(fn, x, h):
    return (-fn(x + 2 * h) + 8 * fn(x + h) - 8 * fn(x - h) + fn(x - 2 * h)) \
        / (12 * h)


def fd2(fn, x, h):
    return (-fn(x + 2 * h) + 16 * fn(x + h) - 30 * fn(x) + 16 * fn(x - h)
            - fn(x - 2 * h)) / (12 * h ** 2)


def stress_tensor(ex, params, x, y, t):
    """2 mu_p(s) D(u) entrywise, from the exact velocity gradient."""
    d11 = ex.u1_x(x, y, t)
    d22 = ex.u2_y(x, y, t)
    mix = ex.u1_y(x, y, t) + ex.u2_x(x, y, t)
    mu = _carreau(2.0 * (d11 ** 2 + d22 ** 2) + mix ** 2, params)
    return 2.0 * mu * d11, mu * mix, 2.0 * mu * d22


def validate_sources(exact, sources, params, n_points=100, seed=7, h=5e-4):
    """Max residual of the sourced PDEs under finite-difference operators.

    Each equation is re-assembled with fourth-order finite differences
    applied to the exact fields (and to the closed-form stress and flux
    tensors for the divergence terms); the analytic sources must cancel the
    residual at every sampled point.  ``dfv_dt`` is compared with a finite
    difference of ``f_v`` in time.
    """
    rng = np.random.default_rng(seed)
    x = rng.uniform(0.1, 0.9, n_points)
    y = rng.uniform(0.1, 0.9, n_points)
    t = rng.uniform(0.05, 1.0, n_points)
    ex = exact
    worst = 0.0

    # momentum: d_t u + (u.grad)u - div(T)/Re + grad p + Co rho grad V = f_u
    t11 = lambda a, b: stress_tensor(ex, params, a, b, t)[0]
    t12 = lambda a, b: stress_tensor(ex, params, a, b, t)[1]
    t22 = lambda a, b: stress_tensor(ex, params, a, b, t)[2]
    div1 = fd1(lambda a: t11(a, y), x, h) + fd1(lambda b: t12(x, b), y, h)
    div2 = fd1(lambda a: t12(a, y), x, h) + fd1(lambda b: t22(x, b), y, h)
    charge = params.z[0] * ex.cp(x, y, t) + params.z[1] * ex.cn(x, y, t)
    for comp, u_fn, div in ((0, ex.u1, div1), (1, ex.u2, div2)):
        dt_u = fd1(lambda s: u_fn(x, y, s), t, h)
        ux = fd1(lambda a: u_fn(a, y, t), x, h)
        uy = fd1(lambda b: u_fn(x, b, t), y, h)
        adv = ex.u1(x, y, t) * ux + ex.u2(x, y, t) * uy
        grad_p = fd1(lambda a: ex.p(a, y, t), x, h) if comp == 0 \
            else fd1(lambda b: ex.p(x, b, t), y, h)
        grad_v = fd1(lambda a: ex.v(a, y, t), x, h) if comp == 0 \
            else fd1(lambda b: ex.v(x, b, t), y, h)
        fu = sources.f_u(x, y, t)[comp]
        resid = dt_u + adv - div / params.re + grad_p \
            + params.co * charge * grad_v - fu
        worst = max(worst, float(np.max(np.abs(resid))))

    # transport: d_t c + u.grad c - div(c grad g)/Pe = f_c
    for species, (c_fn, f_fn) in enumerate(zip((ex.cp, ex.cn),
                                               sources.f_c)):
        def flux(a, b, axis):
            if species == 0:
                c, cx, cy = ex.cp(a, b, t), ex.cp_x(a, b, t), ex.cp_y(a, b, t)
            else:
                c, cx, cy = ex.cn(a, b, t), ex.cn_x(a, b, t), ex.cn_y(a, b, t)
            zi = params.z[species]
            w = params.w_steric
            gx = cx / c + zi * ex.v_x(a, b, t) \
                + w[species, 0] * ex.cp_x(a, b, t) \
                + w[species, 1] * ex.cn_x(a, b, t)
            gy = cy / c + zi * ex.v_y(a, b, t) \
                + w[species, 0] * ex.cp_y(a, b, t) \
                + w[species, 1] * ex.cn_y(a, b, t)
            return c * (gx if axis == 0 else gy)
        div_flux = fd1(lambda a: flux(a, y, 0), x, h) \
            + fd1(lambda b: flux(x, b, 1), y, h)
        dt_c = fd1(lambda s: c_fn(x, y, s), t, h)
        cx = fd1(lambda a: c_fn(a, y, t), x, h)
        cy = fd1(lambda b: c_fn(x, b, t), y, h)
        adv = ex.u1(x, y, t) * cx + ex.u2(x, y, t) * cy
        resid = dt_c + adv - div_flux / params.pe - f_fn(x, y, t)
        worst = max(worst, float(np.max(np.abs(resid))))

    # Poisson: -lam lap V - rho = f_v
    lap_v = fd2(lambda a: ex.v(a, y, t), x, h) \
        + fd2(lambda b: ex.v(x, b, t), y, h)
    resid = -params.lam * lap_v - charge - sources.f_v(x, y, t)
    worst = max(worst, float(np.max(np.abs(resid))))

    # the Poisson source's time derivative
    resid = fd1(lambda s: sources.f_v(x, y, s), t, h) - sources.dfv_dt(x, y, t)
    worst = max(worst, float(np.max(np.abs(resid))))
    return worst

