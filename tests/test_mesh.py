import numpy as np
import pytest

from spnpflow import fem
from spnpflow.mesh import build_rect_mesh, dof_map


def test_smallest_grid():
    m = build_rect_mesh(0, 1, 0, 1, 1, 1)
    assert m.n_nodes == 4
    assert m.n_triangles == 2
    assert m.boundary_edge_ids().size == 4


def test_paper_grid_mesh_size():
    m = build_rect_mesh(0, 1, 0, 1, 40, 40)
    lengths = np.linalg.norm(m.nodes[m.edges[:, 1]] - m.nodes[m.edges[:, 0]],
                             axis=1)
    assert np.isclose(lengths.max(), np.sqrt(2) / 40)


def test_counts_3x2():
    m = build_rect_mesh(0, 1, 0, 1, 3, 2)
    assert m.n_nodes == 12
    assert m.n_triangles == 12
    # Euler: V - E + T = 1 for a disk triangulation
    assert m.n_edges == 23
    assert m.n_nodes - m.n_edges + m.n_triangles == 1


@pytest.mark.parametrize("nx,ny", [(1, 1), (2, 5), (7, 3), (10, 10)])
def test_invariants_random_grids(nx, ny):
    m = build_rect_mesh(-1.0, 2.0, 0.5, 1.25, nx, ny)
    assert m.n_nodes == (nx + 1) * (ny + 1)
    assert m.n_triangles == 2 * nx * ny
    assert m.n_nodes - m.n_edges + m.n_triangles == 1
    areas = fem.geometry(m).det / 2
    assert (areas > 0).all()
    assert abs(areas.sum() - m.area) <= 1e-14 * m.area
    # interior edges touch 2 triangles, boundary edges 1
    counts = np.bincount(m.tri_edges.ravel())
    boundary = m.boundary_edge_ids()
    assert (counts[boundary] == 1).all()
    interior = np.setdiff1d(np.arange(m.n_edges), boundary)
    assert (counts[interior] == 2).all()
    assert boundary.size == 2 * (nx + ny)


def test_bad_arguments():
    with pytest.raises(ValueError):
        build_rect_mesh(0, 1, 0, 1, 0, 3)
    with pytest.raises(ValueError):
        build_rect_mesh(1, 0, 0, 1, 2, 2)
    with pytest.raises(ValueError):
        build_rect_mesh(0, 1, 1, 1, 2, 2)


def test_dof_map_p1_unit_square():
    m = build_rect_mesh(0, 1, 0, 1, 1, 1)
    dm = dof_map(m, 1)
    assert dm.n_dofs == 4
    assert dm.boundary_dofs.size == 4


def test_dof_map_p2_unit_square():
    m = build_rect_mesh(0, 1, 0, 1, 1, 1)
    dm = dof_map(m, 2)
    # 4 vertices + 5 edges (the diagonal midpoint stays interior)
    assert dm.n_dofs == 9
    assert dm.boundary_dofs.size == 8


def test_dof_map_p2_40x40():
    # V = 41^2 = 1681, E = 2*40*41 + 40^2 = 4880 by edge-set enumeration
    m = build_rect_mesh(0, 1, 0, 1, 40, 40)
    dm = dof_map(m, 2)
    assert dm.n_dofs == m.n_nodes + m.n_edges
    assert m.n_nodes == 1681
    assert m.n_edges == 4880
    assert dm.n_dofs == 6561


@pytest.mark.parametrize("order", [1, 2])
def test_dof_map_indices_cover(order):
    m = build_rect_mesh(0, 2, 0, 1, 4, 3)
    dm = dof_map(m, order)
    cells = dm.cell_to_dofs
    assert cells.max() < dm.n_dofs
    assert np.unique(cells).size == dm.n_dofs


def test_dof_map_rejects_order():
    m = build_rect_mesh(0, 1, 0, 1, 2, 2)
    with pytest.raises(ValueError):
        dof_map(m, 3)


def test_boundary_side_tags():
    m = build_rect_mesh(0, 1, 0, 1, 3, 3)
    dm = dof_map(m, 2)
    coords = dm.dof_coords()
    for side, axis, value in (("left", 0, 0.0), ("right", 0, 1.0),
                              ("bottom", 1, 0.0), ("top", 1, 1.0)):
        dofs = dm.boundary_dofs_by_side[side]
        assert dofs.size == 7   # 4 vertices + 3 edge midpoints per side
        assert np.allclose(coords[dofs, axis], value)


def test_p2_midpoint_coords():
    m = build_rect_mesh(0, 1, 0, 1, 2, 2)
    dm = dof_map(m, 2)
    coords = dm.dof_coords()
    mids = 0.5 * (m.nodes[m.edges[:, 0]] + m.nodes[m.edges[:, 1]])
    assert np.allclose(coords[m.n_nodes:], mids)
