"""Uniform rectangle triangulations and Lagrange P1/P2 degree-of-freedom maps."""

from __future__ import annotations

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

    def signed_areas(self):
        """Signed area of every triangle (positive for counterclockwise)."""
        p = self.nodes[self.triangles]
        d1 = p[:, 1] - p[:, 0]
        d2 = p[:, 2] - p[:, 0]
        return 0.5 * (d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0])


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
