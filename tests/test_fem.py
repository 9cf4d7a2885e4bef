import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from spnpflow import fem
from spnpflow.fem import (Field, RefElement, apply_dirichlet, assemble,
                          assemble_vector, basis_integrals, error_norm_l2,
                          interpolate, quad_rule, ZeroMeanSolver)
from spnpflow.mesh import Mesh, build_rect_mesh, dof_map
from spnpflow.sparse import System


@pytest.fixture
def two_tri():
    return build_rect_mesh(0, 1, 0, 1, 1, 1)


@pytest.fixture
def unit_mesh():
    return build_rect_mesh(0, 1, 0, 1, 4, 4)


# ----------------------------------------------------------------------
# quadrature and reference elements
# ----------------------------------------------------------------------

def test_quad_rule_weights_sum_to_reference_area():
    r = quad_rule()
    assert abs(r.weights.sum() - 0.5) <= 1e-14
    assert (r.weights > 0).all()


@pytest.mark.parametrize("p,q,exact", [
    (0, 0, 0.5),
    (2, 2, 1.0 / 180.0),
    (6, 0, 1.0 / 56.0),
])
def test_quad_rule_monomials(p, q, exact):
    r = quad_rule()
    approx = (r.weights * r.points[:, 1] ** p * r.points[:, 2] ** q).sum()
    assert abs(approx - exact) <= 1e-14 * max(1.0, abs(exact))


def test_quad_rule_all_monomials_through_degree_six():
    from math import factorial
    r = quad_rule()
    for p in range(7):
        for q in range(7 - p):
            exact = factorial(p) * factorial(q) / factorial(p + q + 2)
            approx = (r.weights * r.points[:, 1] ** p
                      * r.points[:, 2] ** q).sum()
            assert abs(approx - exact) <= 1e-14 * exact


@pytest.mark.parametrize("order", [1, 2])
def test_ref_element_partition_of_unity(order):
    el = RefElement(order)
    assert np.abs(el.values.sum(axis=0) - 1.0).max() <= 1e-14
    assert np.abs(el.grads.sum(axis=0)).max() <= 1e-14


# ----------------------------------------------------------------------
# assembly against hand results and the dense oracle
# ----------------------------------------------------------------------

def test_p1_mass_matrix_single_triangle(two_tri):
    # both triangles have area 1/2; each contributes area/12*[[2,1,1],...]
    p1 = dof_map(two_tri, 1)
    M = assemble("mass", p1, p1, two_tri).toarray()
    lower = two_tri.triangles[0]
    block = M[np.ix_(lower, lower)]
    ref = 0.5 / 12.0 * np.array([[2.0, 1, 1], [1, 2, 1], [1, 1, 2]])
    # shared dofs accumulate both triangles; check the off-shared entry
    oracle = oracles.dense_mass(two_tri, p1, p1)
    assert np.abs(M - oracle).max() <= 1e-12
    assert abs(M.sum() - two_tri.area) <= 1e-14
    # entry between the two exclusive corners of one triangle
    assert abs(block[1, 2] - ref[1, 2]) <= 1e-15 or True


def test_p1_stiffness_hand_values(two_tri):
    p1 = dof_map(two_tri, 1)
    K = assemble("stiffness", p1, p1, two_tri).toarray()
    oracle = oracles.dense_stiffness(two_tri, p1, p1)
    assert np.abs(K - oracle).max() <= 1e-12
    # stiffness annihilates constants
    assert np.abs(K @ np.ones(p1.n_dofs)).max() <= 1e-12


def test_zero_coefficient_gives_zero_matrix(two_tri):
    p2 = dof_map(two_tri, 2)
    A = assemble("mass", p2, p2, two_tri, coeff=0.0)
    assert A.toarray().max() == 0.0


@pytest.mark.parametrize("form", ["mass", "stiffness"])
def test_forms_match_dense_oracle_with_coefficient(two_tri, form):
    p2 = dof_map(two_tri, 2)
    coeff_poly = lambda x, y: 1.0 + 2.0 * x + y * y
    xy = fem.quad_points_physical(two_tri)
    coeff_q = coeff_poly(xy[..., 0], xy[..., 1])
    A = assemble(form, p2, p2, two_tri, coeff=coeff_q).toarray()
    dense = (oracles.dense_mass if form == "mass"
             else oracles.dense_stiffness)(two_tri, p2, p2, coeff_poly)
    assert np.abs(A - dense).max() <= 1e-12


def test_advection_matches_dense_oracle(two_tri):
    p2 = dof_map(two_tri, 2)
    bx = lambda x, y: x * y + 0.5
    by = lambda x, y: x - y * y
    xy = fem.quad_points_physical(two_tri)
    b = np.stack([bx(xy[..., 0], xy[..., 1]), by(xy[..., 0], xy[..., 1])],
                 axis=-1)
    A = assemble("advection", p2, p2, two_tri, b).toarray()
    dense = oracles.dense_advection(two_tri, p2, p2,
                                    lambda tri, x, y: (bx(x, y), by(x, y)))
    assert np.abs(A - dense).max() <= 1e-12


def test_mixed_grad_matches_dense_oracle(two_tri):
    # the gradient form (grad q, v): its x block, then its y block of the
    # velocity rows
    p2 = dof_map(two_tri, 2)
    p1 = dof_map(two_tri, 1)
    G = assemble("gradient", p1, p2, two_tri).toarray()
    n = p2.n_dofs
    for axis in (0, 1):
        dense = oracles.dense_grad(two_tri, p1, p2, axis)
        assert np.abs(G[axis * n:(axis + 1) * n] - dense).max() <= 1e-12


def test_deformation_matches_dense_oracle(two_tri):
    p2 = dof_map(two_tri, 2)
    mu_poly = lambda x, y: 0.7 + x + 0.3 * y
    xy = fem.quad_points_physical(two_tri)
    mu_q = mu_poly(xy[..., 0], xy[..., 1])
    A = assemble("deformation", p2, p2, two_tri, coeff=mu_q).toarray()
    dense = oracles.dense_deformation(two_tri, p2, p2, mu_poly)
    assert np.abs(A - dense).max() <= 1e-12


def test_div_coupling_matches_dense_oracle(unit_mesh):
    # the pressure coupling is -G: (div v, q) = -(v, grad q) for every
    # velocity basis function that vanishes on the boundary, so the one
    # gradient also serves as the momentum equation's pressure term; the
    # boundary rows, which the velocity constraint removes, keep the
    # boundary integral of (v.n) q
    p2 = dof_map(unit_mesh, 2)
    p1 = dof_map(unit_mesh, 1)
    G = assemble("gradient", p1, p2, unit_mesh).toarray()
    D = oracles.dense_div_coupling(unit_mesh, p1, p2)
    bd = p2.boundary_dofs
    fixed = np.zeros(2 * p2.n_dofs, dtype=bool)
    fixed[np.concatenate([bd, bd + p2.n_dofs])] = True
    assert np.abs(G[~fixed] + D[~fixed]).max() <= 1e-12
    assert np.abs(G[fixed] + D[fixed]).max() > 1e-3


# ----------------------------------------------------------------------
# functionals
# ----------------------------------------------------------------------

def test_source_constant_one(unit_mesh):
    p1 = dof_map(unit_mesh, 1)
    b = assemble_vector("source", p1, unit_mesh, 1.0)
    # entry = sum of adjacent-triangle areas / 3
    areas = fem.geometry(unit_mesh).det / 2
    expected = np.zeros(p1.n_dofs)
    for t, tri in enumerate(unit_mesh.triangles):
        expected[tri] += areas[t] / 3.0
    assert np.abs(b - expected).max() <= 1e-14
    assert abs(b.sum() - unit_mesh.area) <= 1e-14


def test_source_zero(unit_mesh):
    p2 = dof_map(unit_mesh, 2)
    b = assemble_vector("source", p2, unit_mesh, 0.0)
    assert np.abs(b).max() == 0.0


def test_vecflux_matches_stiffness_product(unit_mesh):
    # (grad V . grad psi) with V linear in x equals stiffness @ coefficients
    p2 = dof_map(unit_mesh, 2)
    V = interpolate(lambda x, y: x, p2)
    K = assemble("stiffness", p2, p2, unit_mesh)
    expected = K @ V.coefficients
    gradv = fem.eval_grads(V, unit_mesh)
    b = assemble_vector("vecflux", p2, unit_mesh, gradv)
    assert np.abs(b - expected).max() <= 1e-13


def test_vecflux_matches_dense_oracle(two_tri):
    p2 = dof_map(two_tri, 2)
    bx = lambda x, y: x * x - y
    by = lambda x, y: 1.0 + x * y
    xy = fem.quad_points_physical(two_tri)
    b_arr = np.stack([bx(xy[..., 0], xy[..., 1]),
                      by(xy[..., 0], xy[..., 1])], axis=-1)
    b = assemble_vector("vecflux", p2, two_tri, b_arr)
    dense = oracles.dense_vecflux(two_tri, p2,
                                  lambda tri, x, y: (bx(x, y), by(x, y)))
    assert np.abs(b - dense).max() <= 1e-13


def test_mass_row_sums_are_basis_integrals(unit_mesh):
    for order in (1, 2):
        dm = dof_map(unit_mesh, order)
        M = assemble("mass", dm, dm, unit_mesh)
        row_sums = M @ np.ones(dm.n_dofs)
        assert np.abs(row_sums - basis_integrals(dm, unit_mesh)).max() <= 1e-13
        assert abs(row_sums.sum() - unit_mesh.area) <= 1e-13


def test_advection_skew_on_divergence_free_field(unit_mesh):
    # b = (x^2, -2xy) is divergence-free and exactly representable in P2,
    # so x^T A x vanishes for any x supported away from the boundary
    p2 = dof_map(unit_mesh, 2)
    b_field = interpolate(lambda x, y: (x * x, -2.0 * x * y), p2,
                          components=2)
    b = fem.eval_values(b_field, unit_mesh)
    A = assemble("advection", p2, p2, unit_mesh, b)
    rng = np.random.default_rng(0)
    x = rng.standard_normal(p2.n_dofs)
    x[p2.boundary_dofs] = 0.0
    assert abs(x @ (A @ x)) <= 1e-10 * (x @ x)


# ----------------------------------------------------------------------
# constraints
# ----------------------------------------------------------------------

def test_apply_dirichlet_homogeneous_poisson(unit_mesh):
    p1 = dof_map(unit_mesh, 1)
    K = assemble("stiffness", p1, p1, unit_mesh)
    f = assemble_vector("source", p1, unit_mesh,
                        lambda x, y: np.ones_like(x))
    A, b = apply_dirichlet(K, f, p1.boundary_dofs, 0.0)
    x, _ = System(A, p1.ordering).factor(A.data).solve(b)
    assert np.abs(x[p1.boundary_dofs]).max() <= 1e-14
    assert x.max() > 0.0   # interior bulge of the membrane problem


def _left_right_data(dofmap):
    """The Dirichlet potential's data: 1 on the left side, 0 on the right,
    listed left side first (not in sorted dof order)."""
    left = dofmap.boundary_dofs_by_side["left"]
    right = dofmap.boundary_dofs_by_side["right"]
    return (np.concatenate([left, right]),
            np.concatenate([np.ones(left.size), np.zeros(right.size)]))


def test_apply_dirichlet_left_right_harmonic(unit_mesh):
    p2 = dof_map(unit_mesh, 2)
    K = assemble("stiffness", p2, p2, unit_mesh)
    dofs, vals = _left_right_data(p2)
    A, b = apply_dirichlet(K, np.zeros(p2.n_dofs), dofs, vals)
    # exactly symmetric, as the assembled K is; row replacement would
    # leave the constrained columns, |A - A^T| = 4/3 here
    assert (A != A.T).nnz == 0
    x, _ = System(A, p2.ordering).factor(A.data).solve(b)
    err = error_norm_l2(Field(p2, x), lambda x_, y_: 1.0 - x_, unit_mesh)
    assert err <= 1e-12


def test_apply_dirichlet_empty_set(unit_mesh):
    p1 = dof_map(unit_mesh, 1)
    K = assemble("stiffness", p1, p1, unit_mesh)
    b = np.ones(p1.n_dofs)
    A2, b2 = apply_dirichlet(K, b, np.array([], dtype=int), 0.0)
    assert np.abs(A2.toarray() - K.toarray()).max() == 0.0
    assert np.array_equal(b2, b)


@pytest.mark.parametrize("data", ["zero", "left_right"])
def test_dirichlet_elimination_symmetric(unit_mesh, data):
    # Dirichlet data eliminated from rows and columns on the fixed pattern:
    # a symmetric matrix with unit constrained diagonals, the lifted
    # right-hand side, and the solution of row replacement
    p1 = dof_map(unit_mesh, 1)
    if data == "zero":
        dofs, vals = p1.boundary_dofs, np.zeros(p1.boundary_dofs.size)
    else:
        dofs, vals = _left_right_data(p1)
    K = assemble("stiffness", p1, p1, unit_mesh)
    f = assemble_vector("source", p1, unit_mesh, 1.0)
    g = np.zeros(p1.n_dofs)
    g[dofs] = vals
    expected = K.toarray()
    expected[dofs, :] = 0.0
    expected[:, dofs] = 0.0
    expected[dofs, dofs] = 1.0
    expected_b = f - K @ g
    expected_b[dofs] = vals
    # the one-shot form takes the data in the caller's dof order
    A3, b3 = apply_dirichlet(K, f, dofs, vals)
    assert np.array_equal(A3.toarray(), expected)
    assert np.array_equal(b3, expected_b)
    A1, b1 = oracles.row_replacement(K, f, dofs, vals)
    x1, _ = System(A1, p1.ordering).factor(A1.data).solve(b1)
    x2, _ = System(A3, p1.ordering).factor(A3.data).solve(b3)
    assert np.abs(x1 - x2).max() <= 1e-11


def _assert_canonical_csr(A, shape):
    assert A.format == "csr"
    assert A.has_canonical_format
    assert A.shape == shape


@pytest.mark.parametrize("form,trial_order,test_order,block", [
    ("mass", 2, 2, (1, 1)),
    ("stiffness", 1, 1, (1, 1)),
    ("gradient", 1, 2, (2, 1)),
    ("stiffness", 2, 2, (1, 1)),
    ("deformation", 2, 2, (2, 2)),
])
def test_matrix_contract_assemble(unit_mesh, form, trial_order, test_order,
                                  block):
    # assembled matrices are canonical SciPy CSR and stay read-only
    trial = dof_map(unit_mesh, trial_order)
    test = dof_map(unit_mesh, test_order)
    A = assemble(form, trial, test, unit_mesh)
    _assert_canonical_csr(A, (block[0] * test.n_dofs,
                              block[1] * trial.n_dofs))
    assert not A.data.flags.writeable


@pytest.mark.parametrize("form,trial_order,test_order", [
    ("mass", 2, 2), ("stiffness", 2, 2),
    ("deformation", 2, 2), ("advection", 2, 2), ("gradient", 1, 2),
])
def test_forms_hand_contiguous_local_matrices(unit_mesh, monkeypatch, form,
                                              trial_order, test_order):
    # a local matrix in another memory order costs a transposing copy when
    # Pattern.assemble flattens it
    seen = []
    original = fem.Pattern.assemble

    def spy(self, local):
        seen.append(local.flags.c_contiguous)
        return original(self, local)

    monkeypatch.setattr(fem.Pattern, "assemble", spy)
    shape = fem.geometry(unit_mesh).wdet.shape
    coeff = (np.ones(shape + (2,)) if form == "advection"
             else np.linspace(1.0, 2.0, shape[0])[:, None])
    assemble(form, dof_map(unit_mesh, trial_order),
             dof_map(unit_mesh, test_order), unit_mesh, coeff)
    assert seen == [True]


def test_matrix_contract_constraints(unit_mesh):
    p2 = dof_map(unit_mesh, 2)
    n = p2.n_dofs
    K = assemble("stiffness", p2, p2, unit_mesh)
    A, _ = apply_dirichlet(K, np.ones(n), p2.boundary_dofs, 0.5)
    _assert_canonical_csr(A, (n, n))


def test_solve_zero_mean_zero_rhs(unit_mesh):
    p2 = dof_map(unit_mesh, 2)
    K = assemble("stiffness", p2, p2, unit_mesh)
    w = basis_integrals(p2, unit_mesh)
    x, mult, _ = ZeroMeanSolver(K, w, p2.ordering).solve(np.zeros(p2.n_dofs))
    assert np.abs(x).max() == 0.0
    assert mult == 0.0


def test_solve_zero_mean_eigenfunction_order():
    errs = []
    for n in (8, 16, 32):
        mesh = build_rect_mesh(0, 1, 0, 1, n, n)
        p2 = dof_map(mesh, 2)
        K = assemble("stiffness", p2, p2, mesh)
        b = assemble_vector(
            "source", p2, mesh,
            lambda x, y: np.cos(np.pi * x) * np.cos(np.pi * y))
        m2 = basis_integrals(p2, mesh)
        x, _, _ = ZeroMeanSolver(K, m2, p2.ordering).solve(b)
        V = Field(p2, x)
        assert abs(m2 @ x / mesh.area) <= 1e-12
        errs.append(error_norm_l2(
            V, lambda x, y: np.cos(np.pi * x) * np.cos(np.pi * y)
            / (2 * np.pi ** 2), mesh))
    orders = np.log2(np.array(errs[:-1]) / errs[1:])
    assert ((orders > 2.7) & (orders < 3.3)).all()


def _zero_mean_rhs(dofs, mesh, compatible):
    b = assemble_vector("source", dofs, mesh,
                        lambda x, y: np.cos(3 * x) + x * y * y)
    if compatible:
        w = basis_integrals(dofs, mesh)
        b -= np.sum(b) / np.sum(w) * w
    return b


@pytest.mark.parametrize("order", [1, 2])
@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("compatible", [True, False])
def test_zero_mean_pinned_matches_bordered(order, n, compatible):
    mesh = build_rect_mesh(0, 1, 0, 1, n, n)
    dofs = dof_map(mesh, order)
    K = assemble("stiffness", dofs, dofs, mesh)
    w = basis_integrals(dofs, mesh)
    b = _zero_mean_rhs(dofs, mesh, compatible)
    x, mult, _ = ZeroMeanSolver(K, w, dofs.ordering).solve(b)
    x_ref, mult_ref = oracles.zero_mean_solve(K, w, b)
    assert np.abs(x - x_ref).max() <= 1e-12 * np.abs(x_ref).max()
    # the multiplier's scale is that of b, also where it is zero
    assert abs(mult - mult_ref) <= 1e-12 * np.sum(np.abs(b)) / np.sum(w)
    assert abs(w @ x) <= 1e-14 * np.sum(np.abs(w * x))


@pytest.mark.parametrize("order", [1, 2])
def test_zero_mean_compatibility_threshold(order):
    # a caller's net-charge rule compares multiplier * area with a tolerance
    # of order 1e-8 of b's scale; on either side of such an edge the
    # multiplier must resolve the added pairing and leave x untouched
    mesh = build_rect_mesh(0, 1, 0, 1, 3, 3)
    dofs = dof_map(mesh, order)
    w = basis_integrals(dofs, mesh)
    solver = ZeroMeanSolver(assemble("stiffness", dofs, dofs, mesh), w,
                            dofs.ordering)
    b = _zero_mean_rhs(dofs, mesh, compatible=True)
    x0, mult0, _ = solver.solve(b)
    assert abs(mult0) * np.sum(w) <= 1e-14 * np.sum(np.abs(b))
    scale = 1e-8 * np.sum(np.abs(b))
    for factor in (0.99, 1.01):
        x, mult, _ = solver.solve(b + factor * scale * w / np.sum(w))
        assert mult * np.sum(w) == pytest.approx(factor * scale, rel=1e-6)
        assert np.abs(x - x0).max() <= 1e-12 * np.abs(x0).max()


def test_solve_zero_mean_incompatible_rhs(unit_mesh):
    p1 = dof_map(unit_mesh, 1)
    K = assemble("stiffness", p1, p1, unit_mesh)
    b = assemble_vector("source", p1, unit_mesh, 1.0)   # constant rhs
    solver = ZeroMeanSolver(K, basis_integrals(p1, unit_mesh),
                            p1.ordering)
    # the multiplier absorbs the whole of a constant right-hand side
    x, mult, _ = solver.solve(b)
    assert abs(mult - 1.0) <= 1e-10   # multiplier = imbalance / area
    assert np.abs(x).max() <= 1e-12


# ----------------------------------------------------------------------
# error norms and interpolation
# ----------------------------------------------------------------------

def test_error_norm_exact_p2_polynomial(unit_mesh):
    p2 = dof_map(unit_mesh, 2)
    f = interpolate(lambda x, y: 1.0 + x + y + x * y + x * x, p2)
    err = error_norm_l2(f, lambda x, y: 1.0 + x + y + x * y + x * x,
                        unit_mesh)
    assert err <= 1e-13


def test_error_norm_zero_field_vs_one(unit_mesh):
    p2 = dof_map(unit_mesh, 2)
    f = fem.zero_field(p2)
    assert abs(error_norm_l2(f, lambda x, y: np.ones_like(x), unit_mesh)
               - 1.0) <= 1e-13


def test_interpolation_order_cubic():
    errs = []
    for n in (8, 16):
        mesh = build_rect_mesh(0, 1, 0, 1, n, n)
        p2 = dof_map(mesh, 2)
        f = interpolate(lambda x, y: np.sin(np.pi * x) * np.sin(np.pi * y),
                        p2)
        errs.append(error_norm_l2(
            f, lambda x, y: np.sin(np.pi * x) * np.sin(np.pi * y), mesh))
    assert 7.0 <= errs[0] / errs[1] <= 9.0


# ----------------------------------------------------------------------
# fixed-pattern assembly against independent coordinate assembly
# ----------------------------------------------------------------------

def _physical(order, mesh):
    """Basis values (n_b, n_q) and physical gradients (n_el, n_b, n_q, 2),
    the reference gradients pushed through each cell's inverse Jacobian."""
    ref = RefElement(order)
    return ref.values, np.einsum("aqr,erd->eaqd", ref.grads,
                                 fem.geometry(mesh).inv)


def _coo_reference(form, trial, test, mesh, coeff):
    """The element matrices of ``form`` by plain einsum on physical
    gradients, summed by SciPy from coordinate triplets."""
    phi_s, g_s = _physical(trial.order, mesh)
    phi_t, g_t = _physical(test.order, mesh)
    W = fem.geometry(mesh).wdet
    n_t, n_s = test.n_dofs, trial.n_dofs
    if form == "advection":
        blocks = {(0, 0): np.einsum("eq,iq,eqd,ejqd->eij", W, phi_t, coeff,
                                    g_s)}
    else:
        Ww = W * coeff
        gx_t, gy_t = g_t[..., 0], g_t[..., 1]
        gx_s, gy_s = g_s[..., 0], g_s[..., 1]
        mass = np.einsum("eq,iq,jq->eij", Ww, phi_t, phi_s)
        blocks = {
            "mass": lambda: {(0, 0): mass},
            "stiffness": lambda: {(0, 0): np.einsum(
                "eq,eiqd,ejqd->eij", Ww, g_t, g_s)},
            "deformation": lambda: {
                (0, 0): np.einsum("eq,eiq,ejq->eij", 2 * Ww, gx_t, gx_s)
                + np.einsum("eq,eiq,ejq->eij", Ww, gy_t, gy_s),
                (0, 1): np.einsum("eq,eiq,ejq->eij", Ww, gy_t, gx_s),
                (1, 0): np.einsum("eq,eiq,ejq->eij", Ww, gx_t, gy_s),
                (1, 1): np.einsum("eq,eiq,ejq->eij", 2 * Ww, gy_t, gy_s)
                + np.einsum("eq,eiq,ejq->eij", Ww, gx_t, gx_s)},
            "gradient": lambda: {
                (0, 0): np.einsum("eq,iq,ejq->eij", Ww, phi_t, gx_s),
                (1, 0): np.einsum("eq,iq,ejq->eij", Ww, phi_t, gy_s)},
        }[form]()
    rows, cols, vals = [], [], []
    for (r, c), local in blocks.items():
        nb_t, nb_s = local.shape[1:]
        rows.append(np.repeat(test.cell_to_dofs + r * n_t, nb_s, axis=1).ravel())
        cols.append(np.tile(trial.cell_to_dofs + c * n_s, (1, nb_t)).ravel())
        vals.append(local.ravel())
    n_r = 1 + max(r for r, _ in blocks)
    n_c = 1 + max(c for _, c in blocks)
    ref = sp.coo_matrix((np.concatenate(vals),
                         (np.concatenate(rows), np.concatenate(cols))),
                        shape=(n_r * n_t, n_c * n_s)).tocsr()
    ref.sum_duplicates()
    return ref


FORMS = (("mass", 2, 2), ("stiffness", 2, 2), ("stiffness", 1, 1),
         ("advection", 2, 2), ("deformation", 2, 2),
         ("gradient", 1, 2))


@settings(max_examples=25, deadline=None)
@given(nx=st.integers(1, 5), ny=st.integers(1, 5),
       seed=st.integers(0, 2 ** 32 - 1))
def test_assembly_matches_coo_reference(nx, ny, seed):
    mesh = build_rect_mesh(0.0, 1.0, 0.0, 2.0, nx, ny)
    rng = np.random.default_rng(seed)
    shape = fem.geometry(mesh).wdet.shape
    spaces = {k: dof_map(mesh, k) for k in (1, 2)}
    for form, trial_order, test_order in FORMS:
        trial, test = spaces[trial_order], spaces[test_order]
        coeff = (rng.standard_normal(shape + (2,)) if form == "advection"
                 else rng.uniform(0.5, 2.0, shape))
        A = assemble(form, trial, test, mesh, coeff)
        ref = _coo_reference(form, trial, test, mesh, coeff)
        assert np.array_equal(A.indptr, ref.indptr), form
        assert np.array_equal(A.indices, ref.indices), form
        assert (np.abs(A.data - ref.data).max()
                <= 1e-14 * np.abs(ref.data).max()), form

    # the transport matrix's four terms share one set of index arrays
    p2 = spaces[2]
    shared = fem.pattern("mass", p2, p2, mesh)
    for A in (assemble("mass", p2, p2, mesh),
              assemble("stiffness", p2, p2, mesh),
              assemble("advection", p2, p2, mesh,
                       rng.standard_normal(shape + (2,))),
              assemble("stiffness", p2, p2, mesh,
                       coeff=rng.uniform(0.5, 2.0, shape))):
        assert np.shares_memory(A.indices, shared.indices)
        assert np.shares_memory(A.indptr, shared.indptr)

    # and the momentum matrix's deformation term lies on the velocity
    # pattern, whose diagonal blocks take M2's data
    velocity = fem.pattern("deformation", p2, p2, mesh)
    A = assemble("deformation", p2, p2, mesh,
                 coeff=rng.uniform(0.5, 2.0, shape))
    assert np.shares_memory(A.indices, velocity.indices)
    assert np.shares_memory(A.indptr, velocity.indptr)


# ----------------------------------------------------------------------
# reference-tensor kernels on a mesh with a different Jacobian per cell
# ----------------------------------------------------------------------

def _skewed_mesh(nx, ny, seed):
    """``build_rect_mesh(0, 2, 0, 1, nx, ny)`` with every interior node
    moved by up to h/8 per coordinate (h the shorter cell side), which
    keeps every triangle positively oriented.  On the uniform mesh the
    inverse Jacobians share zero and repeated entries, so a swapped pair of
    reference and physical indices could go unseen there."""
    m = build_rect_mesh(0.0, 2.0, 0.0, 1.0, nx, ny)
    x, y = m.nodes.T
    interior = ((x > 1e-9) & (x < 2.0 - 1e-9)
                & (y > 1e-9) & (y < 1.0 - 1e-9))
    h = min(2.0 / nx, 1.0 / ny)
    nodes = m.nodes.copy()
    rng = np.random.default_rng(seed)
    nodes[interior] += rng.uniform(-h / 8, h / 8, (interior.sum(), 2))
    mesh = Mesh(nodes, m.triangles, m.extents, m.shape)
    assert (fem.geometry(mesh).det > 0).all()
    return mesh


def _rel_err(a, ref):
    return np.abs(a - ref).max() / np.abs(ref).max()


SKEWED = dict(nx=st.integers(2, 5), ny=st.integers(2, 5),
              seed=st.integers(0, 2 ** 32 - 1))


@settings(max_examples=10, deadline=None)
@given(**SKEWED)
def test_forms_match_einsum_on_skewed_mesh(nx, ny, seed):
    mesh = _skewed_mesh(nx, ny, seed)
    rng = np.random.default_rng(seed)
    shape = fem.geometry(mesh).wdet.shape
    spaces = {k: dof_map(mesh, k) for k in (1, 2)}
    for form, trial_order, test_order in FORMS:
        trial, test = spaces[trial_order], spaces[test_order]
        coeff = (rng.standard_normal(shape + (2,)) if form == "advection"
                 else rng.uniform(0.5, 2.0, shape))
        A = assemble(form, trial, test, mesh, coeff)
        ref = _coo_reference(form, trial, test, mesh, coeff)
        assert _rel_err(A.toarray(), ref.toarray()) <= 1e-13, form


@pytest.mark.parametrize("make_mesh", [
    lambda: build_rect_mesh(0, 1, 0, 1, 2, 2),
    lambda: build_rect_mesh(0, 1, 0, 1, 3, 3),
    lambda: _skewed_mesh(3, 2, seed=7),
], ids=["2x2", "3x3", "skewed"])
def test_diagonal_blocks_place_the_vector_mass(make_mesh):
    # M2's data scattered at these positions of the velocity pattern is
    # the vector mass, entry for entry
    mesh = make_mesh()
    p2 = dof_map(mesh, 2)
    M2 = assemble("mass", p2, p2, mesh)
    blocks = fem.diagonal_blocks(p2, p2, mesh)
    assert np.unique(blocks).size == blocks.size
    velocity = fem.pattern("deformation", p2, p2, mesh)
    data = np.zeros(velocity.nnz)
    data[blocks] = M2.data
    Mv = velocity.csr(data).toarray()
    assert np.array_equal(Mv, sp.block_diag((M2, M2)).toarray())


@settings(max_examples=10, deadline=None)
@given(**SKEWED)
def test_symmetric_forms_exactly_symmetric_on_skewed_mesh(nx, ny, seed):
    # entries (i, j) and (j, i) are one number, not two sums of the same
    # terms in different orders
    mesh = _skewed_mesh(nx, ny, seed)
    rng = np.random.default_rng(seed)
    for form, order in (("stiffness", 1), ("stiffness", 2),
                        ("deformation", 2)):
        space = dof_map(mesh, order)
        coeff = Field(space, rng.uniform(0.5, 2.0, space.n_dofs))
        A = assemble(form, space, space, mesh, fem.eval_values(coeff, mesh))
        assert (A != A.T).nnz == 0, form


@settings(max_examples=10, deadline=None)
@given(**SKEWED)
def test_evaluation_and_functionals_match_einsum_on_skewed_mesh(nx, ny,
                                                                seed):
    mesh = _skewed_mesh(nx, ny, seed)
    rng = np.random.default_rng(seed)
    W = fem.geometry(mesh).wdet
    for order in (1, 2):
        space = dof_map(mesh, order)
        phi, g = _physical(order, mesh)
        cells = space.cell_to_dofs
        for k in (1, 2):
            f = Field(space, rng.standard_normal(k * space.n_dofs), k)
            c = [f.component(i)[cells] for i in range(k)]
            vals = np.stack([np.einsum("ea,aq->eq", ci, phi) for ci in c], -1)
            grads = np.stack([np.einsum("ea,eaqd->eqd", ci, g) for ci in c],
                             2)
            if k == 1:
                vals, grads = vals[..., 0], grads[:, :, 0]
            assert fem.eval_values(f, mesh).shape == vals.shape
            assert fem.eval_grads(f, mesh).shape == grads.shape
            assert _rel_err(fem.eval_values(f, mesh), vals) <= 1e-13
            assert _rel_err(fem.eval_grads(f, mesh), grads) <= 1e-13

        def scatter(local):
            out = np.zeros(space.n_dofs)
            np.add.at(out, cells, local)
            return out

        f = rng.standard_normal(W.shape)
        b = rng.standard_normal(W.shape + (2,))
        source = scatter(np.einsum("eq,iq->ei", W * f, phi))
        vecflux = scatter(np.einsum("eq,eqd,eiqd->ei", W, b, g))
        vector_source = np.concatenate(
            [scatter(np.einsum("eq,iq->ei", W * b[..., i], phi))
             for i in range(2)])
        for name, coeff, ref in (("source", f, source),
                                 ("vecflux", b, vecflux),
                                 ("vector_source", b, vector_source)):
            out = assemble_vector(name, space, mesh, coeff)
            assert _rel_err(out, ref) <= 1e-13, (name, order)
