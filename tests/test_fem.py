import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from spnpflow import fem
from spnpflow.errors import CompatibilityError
from spnpflow.fem import (Field, RefElement, apply_dirichlet, assemble,
                          assemble_vector, basis_integrals, error_norm_l2,
                          interpolate, quad_rule, ZeroMeanSolver)
from spnpflow.mesh import build_rect_mesh, dof_map
from spnpflow.sparse import factorize


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
    r = quad_rule(6)
    assert abs(r.weights.sum() - 0.5) <= 1e-14
    assert (r.weights > 0).all()


@pytest.mark.parametrize("p,q,exact", [
    (0, 0, 0.5),
    (2, 2, 1.0 / 180.0),
    (6, 0, 1.0 / 56.0),
])
def test_quad_rule_monomials(p, q, exact):
    r = quad_rule(6)
    approx = (r.weights * r.points[:, 1] ** p * r.points[:, 2] ** q).sum()
    assert abs(approx - exact) <= 1e-14 * max(1.0, abs(exact))


def test_quad_rule_all_monomials_through_degree_six():
    from math import factorial
    r = quad_rule(6)
    for p in range(7):
        for q in range(7 - p):
            exact = factorial(p) * factorial(q) / factorial(p + q + 2)
            approx = (r.weights * r.points[:, 1] ** p
                      * r.points[:, 2] ** q).sum()
            assert abs(approx - exact) <= 1e-14 * exact


def test_quad_rule_unsupported_degree():
    with pytest.raises(ValueError):
        quad_rule(7)


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
    p2 = dof_map(two_tri, 2)
    p1 = dof_map(two_tri, 1)
    for form, axis in (("grad_x", 0), ("grad_y", 1)):
        A = assemble(form, p1, p2, two_tri).toarray()
        dense = oracles.dense_grad(two_tri, p1, p2, axis)
        assert np.abs(A - dense).max() <= 1e-12


def test_deformation_matches_dense_oracle(two_tri):
    p2 = dof_map(two_tri, 2)
    mu_poly = lambda x, y: 0.7 + x + 0.3 * y
    xy = fem.quad_points_physical(two_tri)
    mu_q = mu_poly(xy[..., 0], xy[..., 1])
    A = assemble("deformation", p2, p2, two_tri, coeff=mu_q).toarray()
    dense = oracles.dense_deformation(two_tri, p2, p2, mu_poly)
    assert np.abs(A - dense).max() <= 1e-12


def test_div_coupling_matches_dense_oracle(two_tri):
    p2 = dof_map(two_tri, 2)
    p1 = dof_map(two_tri, 1)
    A = assemble("div_coupling", p1, p2, two_tri).toarray()
    dense = oracles.dense_div_coupling(two_tri, p1, p2)
    assert np.abs(A - dense).max() <= 1e-12


def test_vector_mass_block_structure(two_tri):
    p2 = dof_map(two_tri, 2)
    M = assemble("mass", p2, p2, two_tri).toarray()
    Mv = assemble("vector_mass", p2, p2, two_tri).toarray()
    n = p2.n_dofs
    assert np.abs(Mv[:n, :n] - M).max() == 0.0
    assert np.abs(Mv[n:, n:] - M).max() == 0.0
    assert np.abs(Mv[:n, n:]).max() == 0.0


# ----------------------------------------------------------------------
# functionals
# ----------------------------------------------------------------------

def test_source_constant_one(unit_mesh):
    p1 = dof_map(unit_mesh, 1)
    b = assemble_vector("source", p1, unit_mesh, 1.0)
    # entry = sum of adjacent-triangle areas / 3
    areas = unit_mesh.signed_areas()
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
    x, _ = factorize(A).solve(b)
    assert np.abs(x[p1.boundary_dofs]).max() <= 1e-14
    assert x.max() > 0.0   # interior bulge of the membrane problem


def test_apply_dirichlet_left_right_harmonic(unit_mesh):
    p2 = dof_map(unit_mesh, 2)
    K = assemble("stiffness", p2, p2, unit_mesh)
    left = p2.boundary_dofs_by_side["left"]
    right = p2.boundary_dofs_by_side["right"]
    dofs = np.concatenate([left, right])
    vals = np.concatenate([np.ones(left.size), np.zeros(right.size)])
    A, b = apply_dirichlet(K, np.zeros(p2.n_dofs), dofs, vals)
    x, _ = factorize(A).solve(b)
    err = error_norm_l2(Field(p2, x), lambda x_, y_: 1.0 - x_, unit_mesh)
    assert err <= 1e-12


def test_apply_dirichlet_empty_set(unit_mesh):
    p1 = dof_map(unit_mesh, 1)
    K = assemble("stiffness", p1, p1, unit_mesh)
    b = np.ones(p1.n_dofs)
    A2, b2 = apply_dirichlet(K, b, np.array([], dtype=int), 0.0)
    assert np.abs(A2.toarray() - K.toarray()).max() == 0.0
    assert np.array_equal(b2, b)


def test_dirichlet_elimination_symmetric(unit_mesh):
    # zero data eliminated from rows and columns on the fixed pattern: a
    # symmetric matrix with unit constrained diagonals, and the solution of
    # row replacement
    p1 = dof_map(unit_mesh, 1)
    dofs = p1.boundary_dofs
    K = assemble("stiffness", p1, p1, unit_mesh)
    f = assemble_vector("source", p1, unit_mesh, 1.0)
    bc = fem.DirichletElimination(fem.pattern("stiffness", p1, p1, unit_mesh),
                                  dofs)
    A2 = bc.matrix(K.data)
    b2 = f.copy()
    b2[dofs] = 0.0
    expected = K.toarray()
    expected[dofs, :] = 0.0
    expected[:, dofs] = 0.0
    expected[dofs, dofs] = 1.0
    assert np.array_equal(A2.toarray(), expected)
    A1, b1 = apply_dirichlet(K, f, dofs, 0.0)
    x1, _ = factorize(A1).solve(b1)
    x2, _ = factorize(A2).solve(b2)
    assert np.abs(x1 - x2).max() <= 1e-11


def _assert_canonical_csr(A, shape):
    assert A.format == "csr"
    assert A.has_canonical_format
    assert A.shape == shape


@pytest.mark.parametrize("form,trial_order,test_order,block", [
    ("mass", 2, 2, (1, 1)),
    ("stiffness", 1, 1, (1, 1)),
    ("grad_x", 1, 2, (1, 1)),
    ("vector_mass", 2, 2, (2, 2)),
    ("deformation", 2, 2, (2, 2)),
    ("div_coupling", 1, 2, (2, 1)),
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


def test_matrix_contract_constraints(unit_mesh):
    p2 = dof_map(unit_mesh, 2)
    n = p2.n_dofs
    K = assemble("stiffness", p2, p2, unit_mesh)
    A, _ = apply_dirichlet(K, np.ones(n), p2.boundary_dofs, 0.5)
    _assert_canonical_csr(A, (n, n))
    # the precomputed velocity constraint of the momentum matrix
    bd = p2.boundary_dofs
    bc = fem.DirichletElimination(
        fem.pattern("deformation", p2, p2, unit_mesh),
        np.concatenate([bd, bd + n]))
    A = bc.matrix(assemble("deformation", p2, p2, unit_mesh).data)
    _assert_canonical_csr(A, (2 * n, 2 * n))
    assert not A.data.flags.writeable
    Z = fem.zero_mean_system(K, basis_integrals(p2, unit_mesh))
    _assert_canonical_csr(Z, (n + 1, n + 1))
    assert np.array_equal(Z[:n, :n].toarray(), K.toarray())


def test_pattern_positions_place_a_contained_matrix(unit_mesh):
    # the vector mass placed on the deformation pattern, as the momentum
    # matrix needs it; a matrix outside the pattern is refused
    p2 = dof_map(unit_mesh, 2)
    n = p2.n_dofs
    mom = fem.pattern("deformation", p2, p2, unit_mesh)
    Mv = assemble("vector_mass", p2, p2, unit_mesh)
    data = np.zeros(mom.nnz)
    data[mom.positions(Mv)] = Mv.data
    assert np.array_equal(mom.csr(data).toarray(), Mv.toarray())
    with pytest.raises(ValueError):
        fem.pattern("mass", p2, p2, unit_mesh).positions(Mv)
    far = sp.csr_matrix(([1.0], ([0], [2 * n - 1])), shape=(2 * n, 2 * n))
    with pytest.raises(ValueError):
        mom.positions(far)


def test_solve_zero_mean_zero_rhs(unit_mesh):
    p2 = dof_map(unit_mesh, 2)
    K = assemble("stiffness", p2, p2, unit_mesh)
    w = basis_integrals(p2, unit_mesh)
    x, mult, _ = ZeroMeanSolver(K, w).solve(np.zeros(p2.n_dofs))
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
        x, _, _ = ZeroMeanSolver(K, basis_integrals(p2, mesh)).solve(b)
        V = Field(p2, x)
        assert abs(fem.mean_value(V, mesh)) <= 1e-12
        errs.append(error_norm_l2(
            V, lambda x, y: np.cos(np.pi * x) * np.cos(np.pi * y)
            / (2 * np.pi ** 2), mesh))
    orders = np.log2(np.array(errs[:-1]) / errs[1:])
    assert ((orders > 2.7) & (orders < 3.3)).all()


def test_solve_zero_mean_incompatible_rhs(unit_mesh):
    p1 = dof_map(unit_mesh, 1)
    K = assemble("stiffness", p1, p1, unit_mesh)
    b = assemble_vector("source", p1, unit_mesh, 1.0)   # constant rhs
    solver = ZeroMeanSolver(K, basis_integrals(p1, unit_mesh))
    with pytest.raises(CompatibilityError):
        solver.solve(b)
    # mean subtraction absorbs the imbalance into the multiplier
    x, mult, _ = solver.solve(b, subtract_mean=True)
    assert abs(mult - 1.0) <= 1e-10   # multiplier = imbalance / area


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

def _coo_reference(form, trial, test, mesh, coeff):
    """The element matrices of ``form`` by plain einsum, summed by SciPy
    from coordinate triplets."""
    geo = fem.geometry(mesh)
    phi_s, g_s = geo.element(trial.order)
    phi_t, g_t = geo.element(test.order)
    W = geo.wdet
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
            "grad_x": lambda: {(0, 0): np.einsum(
                "eq,iq,ejq->eij", Ww, phi_t, gx_s)},
            "grad_y": lambda: {(0, 0): np.einsum(
                "eq,iq,ejq->eij", Ww, phi_t, gy_s)},
            "vector_mass": lambda: {(0, 0): mass, (1, 1): mass},
            "deformation": lambda: {
                (0, 0): np.einsum("eq,eiq,ejq->eij", 2 * Ww, gx_t, gx_s)
                + np.einsum("eq,eiq,ejq->eij", Ww, gy_t, gy_s),
                (0, 1): np.einsum("eq,eiq,ejq->eij", Ww, gy_t, gx_s),
                (1, 0): np.einsum("eq,eiq,ejq->eij", Ww, gx_t, gy_s),
                (1, 1): np.einsum("eq,eiq,ejq->eij", 2 * Ww, gy_t, gy_s)
                + np.einsum("eq,eiq,ejq->eij", Ww, gx_t, gx_s)},
            "div_coupling": lambda: {
                (0, 0): np.einsum("eq,eiq,jq->eij", Ww, gx_t, phi_s),
                (1, 0): np.einsum("eq,eiq,jq->eij", Ww, gy_t, phi_s)},
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
         ("advection", 2, 2), ("grad_x", 1, 2), ("grad_y", 1, 2),
         ("vector_mass", 2, 2), ("deformation", 2, 2),
         ("div_coupling", 1, 2))


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
