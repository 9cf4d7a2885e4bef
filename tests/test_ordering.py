"""The nested-dissection elimination order and its use by the direct solver."""

import numpy as np
import pytest
import scipy.sparse.linalg as spla

import oracles
from spnpflow import fem
from spnpflow.mesh import bisection_paths, build_rect_mesh, dof_map
from spnpflow.sparse import System

SHAPES = [(1, 1), (1, 3), (5, 2), (12, 7), (20, 20)]


@pytest.mark.parametrize("nx,ny", SHAPES)
@pytest.mark.parametrize("order", [1, 2])
def test_ordering_is_a_permutation(nx, ny, order):
    space = dof_map(build_rect_mesh(0.0, 1.0, 0.0, 1.0, nx, ny), order)
    assert np.array_equal(np.sort(space.ordering), np.arange(space.n_dofs))
    velocity = fem.vector_ordering(space)
    assert np.array_equal(np.sort(velocity), np.arange(2 * space.n_dofs))
    # node-blocked: the two components of a dof are adjacent
    assert np.array_equal(velocity[1::2] - velocity[0::2],
                          np.full(space.n_dofs, space.n_dofs))


def _links_across(paths, levels, rows, cols):
    """Number of (row, col) pairs that lie in the two halves of one
    bisection."""
    count = 0
    for depth in range(levels):
        scale = 3 ** (levels - 1 - depth)
        box_r, box_c = paths[rows] // (3 * scale), paths[cols] // (3 * scale)
        side_r, side_c = (paths[rows] // scale) % 3, (paths[cols] // scale) % 3
        across = ((box_r == box_c) & (side_r != side_c)
                  & (side_r < 2) & (side_c < 2))
        count += int(np.count_nonzero(across))
    return count


@pytest.mark.parametrize("nx,ny", SHAPES)
def test_separators_separate_the_p2_and_velocity_patterns(nx, ny):
    mesh = build_rect_mesh(0.0, 1.0, 0.0, 1.0, nx, ny)
    p2 = dof_map(mesh, 2)
    paths, levels = bisection_paths(p2.grid_indices(), mesh.shape)
    assert levels >= 1
    for form in ("mass", "deformation"):
        pat = fem.pattern(form, p2, p2, mesh)
        rows = np.repeat(np.arange(pat.shape[0]), np.diff(pat.indptr))
        # a velocity unknown's dof is its index modulo n2, whatever block
        dofs_r, dofs_c = rows % p2.n_dofs, pat.indices % p2.n_dofs
        assert _links_across(paths, levels, dofs_r, dofs_c) == 0, form
    # the check sees a link between the first dof eliminated and one in
    # the other half of the first bisection
    first = paths // 3 ** (levels - 1)
    if (first == 1).any():
        other = np.flatnonzero(first == 1)[0]
        assert _links_across(paths, levels, p2.ordering[:1], [other]) == 1


def test_halves_come_before_their_separator():
    mesh = build_rect_mesh(0.0, 1.0, 0.0, 1.0, 2, 2)
    p1 = dof_map(mesh, 1)
    # x is bisected first: the left column, the right column, then the
    # middle column; each column is bisected in y in turn
    assert np.array_equal(p1.grid_indices()[p1.ordering],
                          [[0, 0], [0, 4], [0, 2], [4, 0], [4, 4], [4, 2],
                           [2, 0], [2, 2], [2, 4]])


def _step_factorizations(nx, monkeypatch):
    """The matrices SuperLU factors in one second-order energy-decay step,
    with the stepper: (P A P^T) by matrix size."""
    from spnpflow.scenarios import scenario_energy_decay
    real_splu = spla.splu
    seen = []

    def splu(A, *args, **kw):
        seen.append(A)
        return real_splu(A, *args, **kw)

    st = scenario_energy_decay(nx=nx).make_stepper()
    st.bootstrap_first_step()
    monkeypatch.setattr(spla, "splu", splu)
    st.step()
    monkeypatch.undo()
    return st, seen


def _lu_nnz(A, **kw):
    lu = spla.splu(A.tocsc(), options=dict(SymmetricMode=True), **kw)
    return lu.L.nnz + lu.U.nnz


# At nx = 20 the momentum factor's L+U is 249502, 0.7 % above minimum
# degree's 247678, while the transport factor's is 70656 against 75758; at
# nx = 40 both are below it by 13 % and 8 %.  So the momentum matrix is
# checked from nx = 40, where nested dissection starts to win.
@pytest.mark.parametrize("nx,systems", [(20, ("transport",)),
                                        (40, ("transport", "momentum"))])
def test_nested_dissection_fill_below_minimum_degree(nx, systems,
                                                     monkeypatch):
    st, seen = _step_factorizations(nx, monkeypatch)
    orders = {"transport": st.p2.ordering,
              "momentum": fem.vector_ordering(st.p2)}
    for name in systems:
        order = orders[name]
        PAPt = next(A for A in seen if A.shape[0] == order.size)
        # the matrix in dof numbering, as minimum degree would be given it
        rank = np.argsort(order)
        A = PAPt.tocsr()[rank][:, rank]
        nested = _lu_nnz(PAPt, permc_spec="NATURAL")
        mmd = _lu_nnz(A, permc_spec="MMD_AT_PLUS_A")
        assert nested < mmd, (name, nested, mmd)


def test_nonsymmetric_transport_matrix_solves_like_spsolve():
    mesh = build_rect_mesh(0.0, 1.0, 0.0, 1.0, 12, 9)
    p2 = dof_map(mesh, 2)
    rng = np.random.default_rng(11)
    beta = 5.0 * rng.standard_normal(fem.geometry(mesh).wdet.shape + (2,))
    M = fem.assemble("mass", p2, p2, mesh)
    C = fem.assemble("advection", p2, p2, mesh, beta)
    K = fem.assemble("stiffness", p2, p2, mesh)
    A = fem.pattern("mass", p2, p2, mesh).csr(M.data + C.data
                                               + 1e-2 * K.data)
    assert abs(A - A.T).max() > 1e-3 * abs(A).max()
    # b drawn vertex by vertex, then midpoint by midpoint of the edges in
    # oracles.edge_table order, the layout its residual bound was set on
    edges, _ = oracles.edge_table(mesh)
    ends = mesh.nodes[edges]
    drawn = oracles.dofs_at(p2, np.concatenate(
        [mesh.nodes, 0.5 * (ends[:, 0] + ends[:, 1])]))
    b = np.empty(p2.n_dofs)
    b[drawn] = rng.standard_normal(p2.n_dofs)
    lu = System(A, p2.ordering).factor(A.data)
    x, report = lu.solve(b)
    expected = spla.spsolve(A.tocsc(), b)
    assert np.abs(x - expected).max() <= 1e-12 * np.abs(expected).max()
    assert report.residual <= 1e-13
