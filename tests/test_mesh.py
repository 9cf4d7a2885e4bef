import numpy as np
import pytest

import oracles
from spnpflow import fem
from spnpflow.mesh import Mesh, build_rect_mesh, dof_map


def _boundary_edges(m):
    """Ids in ``oracles.edge_table`` of the edges met by one triangle."""
    return np.flatnonzero(np.bincount(oracles.edge_table(m)[1].ravel()) == 1)


def test_smallest_grid():
    m = build_rect_mesh(0, 1, 0, 1, 1, 1)
    assert m.n_nodes == 4
    assert m.n_triangles == 2
    assert _boundary_edges(m).size == 4


def test_paper_grid_mesh_size():
    m = build_rect_mesh(0, 1, 0, 1, 40, 40)
    edges, _ = oracles.edge_table(m)
    lengths = np.linalg.norm(m.nodes[edges[:, 1]] - m.nodes[edges[:, 0]],
                             axis=1)
    assert np.isclose(lengths.max(), np.sqrt(2) / 40)


def test_counts_3x2():
    m = build_rect_mesh(0, 1, 0, 1, 3, 2)
    assert m.n_nodes == 12
    assert m.n_triangles == 12
    # Euler: V - E + T = 1 for a disk triangulation
    n_edges = len(oracles.edge_table(m)[0])
    assert n_edges == 23
    assert m.n_nodes - n_edges + m.n_triangles == 1


@pytest.mark.parametrize("nx,ny", [(1, 1), (2, 5), (7, 3), (10, 10)])
def test_invariants_random_grids(nx, ny):
    m = build_rect_mesh(-1.0, 2.0, 0.5, 1.25, nx, ny)
    assert m.n_nodes == (nx + 1) * (ny + 1)
    assert m.n_triangles == 2 * nx * ny
    edges, tri_edges = oracles.edge_table(m)
    assert m.n_nodes - len(edges) + m.n_triangles == 1
    areas = fem.geometry(m).det / 2
    assert (areas > 0).all()
    assert abs(areas.sum() - m.area) <= 1e-14 * m.area
    # interior edges touch 2 triangles, boundary edges 1
    counts = np.bincount(tri_edges.ravel())
    assert counts.size == len(edges)
    assert np.isin(counts, (1, 2)).all()
    boundary = _boundary_edges(m)
    assert boundary.size == 2 * (nx + ny)
    # their P2 midpoint dofs are the boundary dofs off the vertices
    dm = dof_map(m, 2)
    ends = m.nodes[edges[boundary]]
    mids = oracles.dofs_at(dm, 0.5 * (ends[:, 0] + ends[:, 1]))
    bd = dm.boundary_dofs
    off_vertex = (dm.grid_indices()[bd] % 2).any(axis=1)
    assert np.array_equal(bd[off_vertex], np.sort(mids))


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
    n_edges = len(oracles.edge_table(m)[0])
    assert dm.n_dofs == m.n_nodes + n_edges
    assert m.n_nodes == 1681
    assert n_edges == 4880
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
    edges, _ = oracles.edge_table(m)
    mids = 0.5 * (m.nodes[edges[:, 0]] + m.nodes[edges[:, 1]])
    # the dofs off the vertices sit at the edge midpoints, one each
    off_vertex = (dm.grid_indices() % 2).any(axis=1)
    assert np.array_equal(np.sort(oracles.dofs_at(dm, mids)),
                          np.flatnonzero(off_vertex))


@pytest.mark.parametrize("order", [1, 2])
@pytest.mark.parametrize("nx,ny", [(1, 1), (2, 5), (3, 2), (7, 3), (40, 40)])
def test_boundary_sides_match_coordinates(order, nx, ny):
    m = build_rect_mesh(-1.0, 2.0, 0.5, 1.25, nx, ny)
    dm = dof_map(m, order)
    ref = oracles.boundary_sides_by_coords(dm)
    assert dm.boundary_dofs_by_side.keys() == ref.keys()
    for side, dofs in ref.items():
        assert np.array_equal(dm.boundary_dofs_by_side[side], dofs), side
    assert np.array_equal(dm.boundary_dofs,
                          np.unique(np.concatenate(list(ref.values()))))
    n_side = {"left": ny, "right": ny, "bottom": nx, "top": nx}
    for side, n in n_side.items():
        assert ref[side].size == order * n + 1


def _moved(m, seed):
    """``m`` with every node moved by up to a tenth of the shorter cell
    side per coordinate, boundary nodes too."""
    xmin, xmax, ymin, ymax = m.extents
    h = min((xmax - xmin) / m.shape[0], (ymax - ymin) / m.shape[1])
    rng = np.random.default_rng(seed)
    nodes = m.nodes + rng.uniform(-h / 10, h / 10, m.nodes.shape)
    return Mesh(nodes, m.triangles, m.extents, m.shape)


@pytest.mark.parametrize("moved", [False, True])
@pytest.mark.parametrize("nx,ny", [(1, 1), (3, 2), (7, 3), (40, 40)])
def test_p2_dof_id_is_its_half_grid_point(nx, ny, moved):
    m = build_rect_mesh(-1.0, 2.0, 0.5, 1.25, nx, ny)
    if moved:
        m = _moved(m, seed=nx * 100 + ny)
    dm = dof_map(m, 2)
    assert dm.n_dofs == (2 * nx + 1) * (2 * ny + 1)
    i, j = dm.grid_indices().T
    assert np.array_equal(j * (2 * nx + 1) + i, np.arange(dm.n_dofs))
    # coordinate oracle: a cell's six dofs sit at its vertices and at the
    # midpoints of its sides (v0,v1), (v1,v2), (v2,v0)
    tri = m.triangles
    ends = m.nodes[tri], m.nodes[np.roll(tri, -1, axis=1)]
    ref = np.concatenate([ends[0], 0.5 * (ends[0] + ends[1])], axis=1)
    coords = dm.dof_coords()
    assert np.array_equal(coords[dm.cell_to_dofs], ref)
    assert np.unique(dm.cell_to_dofs).size == dm.n_dofs
    if not moved:
        # half-grid point (i, j) lies at (xmin + i hx / 2, ymin + j hy / 2)
        step = [3.0 / (2 * nx), 0.75 / (2 * ny)]
        assert np.allclose(coords, [-1.0, 0.5] + dm.grid_indices() * step,
                           rtol=0, atol=1e-14)
