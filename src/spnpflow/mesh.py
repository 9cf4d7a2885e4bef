"""Uniform rectangle triangulations, Lagrange P1/P2 degree-of-freedom maps
and the nested-dissection ordering of their unknowns."""

from __future__ import annotations

from functools import cached_property

import numpy as np

SIDES = ("left", "right", "bottom", "top")


class Mesh:
    """Triangulation of an axis-aligned rectangle.

    Every grid cell is split along the diagonal from its lower-left to its
    upper-right corner, so the triangulation is deterministic.  Arrays are
    read-only after construction; derived quantities (geometry tables used by
    assembly) are cached lazily by the fem module.

    Attributes
    ----------
    nodes : (n_nodes, 2) float array
        Vertex coordinates.
    triangles : (n_tris, 3) int array
        Vertex indices, counterclockwise.
    edges : (n_edges, 2) int array
        Unique edges as sorted vertex pairs, in lexicographic order.
    tri_edges : (n_tris, 3) int array
        Edge ids of each triangle in local order (v0,v1), (v1,v2), (v2,v0).
    boundary_edges : dict
        Side name ("left", "right", "bottom", "top") -> array of edge ids.
    extents : tuple
        (xmin, xmax, ymin, ymax).
    shape : tuple
        (nx, ny) cell counts.
    """

    def __init__(self, nodes, triangles, edges, tri_edges, boundary_edges,
                 extents, shape):
        self.nodes = nodes
        self.triangles = triangles
        self.edges = edges
        self.tri_edges = tri_edges
        self.boundary_edges = boundary_edges
        self.extents = extents
        self.shape = shape
        for arr in (nodes, triangles, edges, tri_edges):
            arr.setflags(write=False)
        for arr in boundary_edges.values():
            arr.setflags(write=False)

    @property
    def n_nodes(self):
        return self.nodes.shape[0]

    @property
    def n_triangles(self):
        return self.triangles.shape[0]

    @property
    def n_edges(self):
        return self.edges.shape[0]

    @property
    def area(self):
        xmin, xmax, ymin, ymax = self.extents
        return (xmax - xmin) * (ymax - ymin)

    def boundary_edge_ids(self):
        """All boundary edge ids, sorted ascending."""
        ids = np.concatenate([self.boundary_edges[s] for s in SIDES])
        return np.unique(ids)


def build_rect_mesh(xmin, xmax, ymin, ymax, nx, ny):
    """Build the uniform triangulation of [xmin,xmax] x [ymin,ymax].

    Everything is index arithmetic and one sort of the edge keys; an edge
    met by one triangle only lies on the boundary.

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

    # unique edges by the key a * n_nodes + b of the sorted pair (a, b);
    # tri_edges keeps the local order (v0,v1),(v1,v2),(v2,v0)
    n_nodes = nodes.shape[0]
    a, b = tris, np.roll(tris, -1, axis=1)
    keys, inverse, counts = np.unique(
        np.minimum(a, b) * n_nodes + np.maximum(a, b),
        return_inverse=True, return_counts=True)
    edges = np.column_stack([keys // n_nodes, keys % n_nodes])
    tri_edges = inverse.reshape(tris.shape)

    tol = 1e-12 * max(xmax - xmin, ymax - ymin)
    on_boundary = np.flatnonzero(counts == 1)
    mids = 0.5 * (nodes[edges[on_boundary, 0]] + nodes[edges[on_boundary, 1]])
    boundary_edges = {
        "left": on_boundary[np.abs(mids[:, 0] - xmin) < tol],
        "right": on_boundary[np.abs(mids[:, 0] - xmax) < tol],
        "bottom": on_boundary[np.abs(mids[:, 1] - ymin) < tol],
        "top": on_boundary[np.abs(mids[:, 1] - ymax) < tol],
    }

    return Mesh(nodes, tris, edges, tri_edges, boundary_edges,
                (float(xmin), float(xmax), float(ymin), float(ymax)), (nx, ny))


class DofMap:
    """Lagrange degree-of-freedom map on a mesh.

    P1 dofs are the mesh vertices.  P2 dofs are the vertices followed by one
    dof per edge midpoint; midpoint coordinates are derived on demand rather
    than stored.

    Attributes
    ----------
    order : int
    n_dofs : int
    cell_to_dofs : (n_tris, 3 or 6) int array
        P2 local order: vertices v0,v1,v2 then midpoints of (v0,v1), (v1,v2),
        (v2,v0).
    boundary_dofs : int array
        Sorted dof ids geometrically on the boundary.
    boundary_dofs_by_side : dict
        Side name -> sorted dof ids on that side (corners appear on both
        adjacent sides).
    """

    def __init__(self, mesh, order):
        if order not in (1, 2):
            raise ValueError(f"unsupported element order {order}")
        self.mesh = mesh
        self.order = order
        nv = mesh.n_nodes
        if order == 1:
            self.n_dofs = nv
            self.cell_to_dofs = mesh.triangles
        else:
            self.n_dofs = nv + mesh.n_edges
            self.cell_to_dofs = np.column_stack([mesh.triangles,
                                                 nv + mesh.tri_edges])
            self.cell_to_dofs.setflags(write=False)

        by_side = {}
        for side in SIDES:
            eids = mesh.boundary_edges[side]
            verts = np.unique(mesh.edges[eids].ravel())
            if order == 1:
                by_side[side] = verts
            else:
                by_side[side] = np.unique(np.concatenate([verts, nv + eids]))
        self.boundary_dofs_by_side = by_side
        self.boundary_dofs = np.unique(np.concatenate(list(by_side.values())))

    def grid_indices(self):
        """Integer coordinates of all dofs on the half grid, (n_dofs, 2):
        vertex (i, j) of the cell grid is (2i, 2j) and an edge midpoint
        the sum of its ends' grid indices.  They follow from the vertex
        numbering of :func:`build_rect_mesh`, so they hold on a mesh whose
        nodes were moved."""
        mesh = self.mesh
        j, i = np.divmod(np.arange(mesh.n_nodes), mesh.shape[0] + 1)
        ij = np.column_stack([i, j])
        if self.order == 1:
            return 2 * ij
        return np.vstack([2 * ij, ij[mesh.edges[:, 0]] + ij[mesh.edges[:, 1]]])

    @cached_property
    def ordering(self):
        """The nested-dissection order of the dofs, read-only: entry k is
        the dof eliminated k-th (see :func:`nested_dissection`)."""
        order = nested_dissection(self.grid_indices(), self.mesh.shape)
        order.setflags(write=False)
        return order

    def dof_coords(self):
        """Coordinates of all dofs, (n_dofs, 2)."""
        mesh = self.mesh
        if self.order == 1:
            return mesh.nodes.copy()
        mids = 0.5 * (mesh.nodes[mesh.edges[:, 0]] + mesh.nodes[mesh.edges[:, 1]])
        return np.vstack([mesh.nodes, mids])


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
