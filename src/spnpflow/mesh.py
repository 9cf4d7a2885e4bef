"""Uniform rectangle triangulations, Lagrange P1/P2 degree-of-freedom maps
and the nested-dissection ordering of their unknowns."""

from __future__ import annotations

from functools import cached_property

import numpy as np

SIDES = ("left", "right", "bottom", "top")


class Mesh:
    """Triangulation of an axis-aligned rectangle.

    Every grid cell is split along the diagonal from its lower-left to its
    upper-right corner, so the triangulation is deterministic.  Vertex
    (i, j) of the cell grid is node j (nx + 1) + i.  Arrays are read-only
    after construction; derived quantities (geometry tables used by
    assembly) are cached lazily by the fem module.

    Attributes
    ----------
    nodes : (n_nodes, 2) float array
        Vertex coordinates.
    triangles : (n_tris, 3) int array
        Vertex indices, counterclockwise.
    extents : tuple
        (xmin, xmax, ymin, ymax).
    shape : tuple
        (nx, ny) cell counts.
    """

    def __init__(self, nodes, triangles, extents, shape):
        self.nodes = nodes
        self.triangles = triangles
        self.extents = extents
        self.shape = shape
        for arr in (nodes, triangles):
            arr.setflags(write=False)

    @property
    def n_nodes(self):
        return self.nodes.shape[0]

    @property
    def n_triangles(self):
        return self.triangles.shape[0]

    @property
    def area(self):
        xmin, xmax, ymin, ymax = self.extents
        return (xmax - xmin) * (ymax - ymin)


def build_rect_mesh(xmin, xmax, ymin, ymax, nx, ny):
    """Build the uniform triangulation of [xmin,xmax] x [ymin,ymax].

    Everything is index arithmetic.

    Parameters
    ----------
    xmin, xmax, ymin, ymax : float
        Rectangle extents, xmax > xmin and ymax > ymin.
    nx, ny : int
        Number of cells per direction, each >= 1.

    Returns
    -------
    Mesh
    """
    nx, ny = int(nx), int(ny)
    if nx < 1 or ny < 1:
        raise ValueError(f"cell counts must be >= 1, got nx={nx}, ny={ny}")
    if not (xmax > xmin and ymax > ymin):
        raise ValueError(f"invalid extents ({xmin},{xmax},{ymin},{ymax})")

    xs = np.linspace(xmin, xmax, nx + 1)
    ys = np.linspace(ymin, ymax, ny + 1)
    X, Y = np.meshgrid(xs, ys, indexing="xy")
    nodes = np.column_stack([X.ravel(), Y.ravel()])

    # cell (i, j), row by row, splits into (n00, n10, n11), (n00, n11, n01)
    j, i = np.divmod(np.arange(nx * ny, dtype=np.int64), nx)
    n00 = j * (nx + 1) + i
    n01 = n00 + nx + 1
    tris = np.stack([n00, n00 + 1, n01 + 1, n00, n01 + 1, n01],
                    axis=1).reshape(-1, 3)

    return Mesh(nodes, tris,
                (float(xmin), float(xmax), float(ymin), float(ymax)), (nx, ny))


class DofMap:
    """Lagrange degree-of-freedom map on a mesh.

    Every dof sits on a point of the half grid of the nx x ny cell grid,
    whose integer coordinates (i, j) run to (2 nx, 2 ny): vertex (i, j) of
    the cell grid is (2i, 2j), and the midpoint of a triangle side the sum
    of its ends' cell-grid indices.  P1 dofs are the vertices, numbered as
    the mesh numbers them.  P2 has one dof on every half-grid point (the
    vertices, the edge midpoints and the midpoint of each cell's diagonal),
    numbered j (2 nx + 1) + i.  The rest follows from (i, j) by index
    arithmetic, so it holds on a mesh whose nodes were moved.

    Attributes
    ----------
    order : int
    n_dofs : int
    cell_to_dofs : (n_tris, 3 or 6) int array
        P2 local order: vertices v0,v1,v2 then midpoints of (v0,v1), (v1,v2),
        (v2,v0).
    boundary_dofs : int array
        Sorted dof ids on the boundary.
    boundary_dofs_by_side : dict
        Side name -> sorted dof ids on that side (corners appear on both
        adjacent sides).  A dof at half-grid indices (i, j) is on the left
        side when i == 0, on the right when i == 2 nx, on the bottom when
        j == 0 and on the top when j == 2 ny, so no coordinate is compared.
    """

    def __init__(self, mesh, order):
        if order not in (1, 2):
            raise ValueError(f"unsupported element order {order}")
        self.mesh = mesh
        self.order = order
        nx, ny = mesh.shape
        self.n_dofs = (order * nx + 1) * (order * ny + 1)
        if order == 1:
            self.cell_to_dofs = mesh.triangles
        else:
            # the id is linear in (i, j), so a side's midpoint has the mean
            # of its ends' ids
            j, i = np.divmod(mesh.triangles, nx + 1)
            v = 2 * (j * (2 * nx + 1) + i)
            self.cell_to_dofs = np.column_stack(
                [v, (v + np.roll(v, -1, axis=1)) // 2])
            self.cell_to_dofs.setflags(write=False)

        i, j = self.grid_indices().T
        on_side = (i == 0, i == 2 * nx, j == 0, j == 2 * ny)
        self.boundary_dofs_by_side = {
            side: np.flatnonzero(on) for side, on in zip(SIDES, on_side)}
        self.boundary_dofs = np.flatnonzero(np.logical_or.reduce(on_side))

    def grid_indices(self):
        """Integer coordinates of all dofs on the half grid, (n_dofs, 2)."""
        width = self.order * self.mesh.shape[0] + 1
        j, i = np.divmod(np.arange(self.n_dofs), width)
        return (2 // self.order) * np.column_stack([i, j])

    @cached_property
    def ordering(self):
        """The nested-dissection order of the dofs, read-only: entry k is
        the dof eliminated k-th (see :func:`nested_dissection`)."""
        order = nested_dissection(self.grid_indices(), self.mesh.shape)
        order.setflags(write=False)
        return order

    def vertex_mean(self, values):
        """Vertex ``values`` (n_nodes, ...) carried to the dofs: the mean
        over each dof's two nearest vertices, lo = (i // 2, j // 2) and
        hi = ((i + 1) // 2, (j + 1) // 2) for half-grid indices (i, j).  A
        vertex (lo = hi) gets its own value exactly, a side's midpoint the
        mean of its ends, so on P2 this interpolates a P1 field."""
        g = self.grid_indices()
        lo, hi = g // 2, (g + 1) // 2
        width = self.mesh.shape[0] + 1
        return 0.5 * (values[lo[:, 1] * width + lo[:, 0]]
                      + values[hi[:, 1] * width + hi[:, 0]])

    def dof_coords(self):
        """Coordinates of all dofs, (n_dofs, 2)."""
        return self.vertex_mean(self.mesh.nodes)


def dof_map(mesh, order):
    """Build the P1 or P2 dof map for a mesh."""
    return DofMap(mesh, order)


def bisection_paths(grid, shape):
    """The bisection tree of points on the half grid of an nx x ny cell
    grid, as one base-3 path per point; returns ``(paths, levels)``.

    A box of cells is bisected across its longer side (x on a tie) at its
    middle vertex grid line, and the two halves are bisected in turn until
    a box is one cell wide.  Digit d of a path, most significant first,
    says where the point went at depth d: 0 into the lower half, 1 into
    the upper half, 2 onto the separator line.  A path ends at the point's
    separator or leaf box and is padded with zeros to ``levels`` digits,
    so comparing paths as integers orders the halves before their
    separator.  Every level is vectorised over all of its boxes.
    """
    grid = np.asarray(grid, dtype=np.int64)
    n = grid.shape[0]
    lo = np.zeros((1, 2), dtype=np.int64)          # box corners, in cells
    hi = np.array([shape], dtype=np.int64)
    box = np.zeros(n, dtype=np.int64)              # -1 once a point is placed
    paths = np.zeros(n, dtype=np.int64)
    levels = 0
    while (box >= 0).any():
        size = hi - lo
        axis = (size[:, 1] > size[:, 0]).astype(np.int64)
        cut = np.arange(len(size))
        length = size[cut, axis]
        mid = lo[cut, axis] + length // 2
        split = length >= 2
        # points of the boxes that split get a digit; the rest, in leaf
        # boxes, are placed
        live = np.flatnonzero(box >= 0)
        b = box[live]
        leaf = ~split[b]
        box[live[leaf]] = -1
        live, b = live[~leaf], b[~leaf]
        c = grid[live, axis[b]]
        digit = np.where(c == 2 * mid[b], 2, (c > 2 * mid[b]).astype(np.int64))
        paths *= 3
        paths[live] += digit
        levels += 1
        # the two halves of every splitting box, numbered in split order
        parent = np.flatnonzero(split)
        child = np.full(len(size), -1, dtype=np.int64)
        child[parent] = 2 * np.arange(parent.size)
        box[live] = np.where(digit == 2, -1, child[b] + digit)
        k, a = np.arange(parent.size), axis[parent]
        lo = np.repeat(lo[parent], 2, axis=0)
        hi = np.repeat(hi[parent], 2, axis=0)
        hi[2 * k, a] = mid[parent]
        lo[2 * k + 1, a] = mid[parent]
    return paths, levels


def nested_dissection(grid, shape):
    """George's nested-dissection order (SIAM J. Numer. Anal. 10, 1973) of
    points on the half grid of an nx x ny cell grid, by
    :func:`bisection_paths`: each box's two halves come first and its
    separator last, and the points of a leaf box or of a separator line are
    in natural, row-major, order.  ``grid`` holds integer half-grid
    coordinates, so one ordering serves P1 and P2 dofs; entry k of the
    result is the index of the point eliminated k-th."""
    grid = np.asarray(grid, dtype=np.int64)
    paths, _ = bisection_paths(grid, shape)
    natural = grid[:, 1] * (2 * shape[0] + 1) + grid[:, 0]
    return np.lexsort((natural, paths))
