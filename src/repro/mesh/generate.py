"""Mesh generators: structured grids, pseudo-random Delaunay, 3-D bricks.

The paper evaluates on CFD meshes we do not have; these generators produce
unstructured meshes with the same structural properties (irregular node
degrees for Delaunay, controlled sizes for grids) — see DESIGN.md's
substitution table.
"""

from __future__ import annotations

import numpy as np

from ..errors import MeshError
from .mesh2d import TriMesh
from .mesh3d import TetMesh

#: Kuhn decomposition of the unit cube into six tetrahedra (vertex numbers
#: of the cube corners in binary-coordinate order)
_CUBE_TETS = (
    (0, 1, 3, 7), (0, 1, 5, 7), (0, 2, 3, 7),
    (0, 2, 6, 7), (0, 4, 5, 7), (0, 4, 6, 7),
)


def structured_tri_mesh(nx: int, ny: int) -> TriMesh:
    """A (nx × ny)-cell unit-square grid, each cell split into 2 triangles."""
    if nx < 1 or ny < 1:
        raise MeshError("grid must have at least one cell per direction")
    xs = np.linspace(0.0, 1.0, nx + 1)
    ys = np.linspace(0.0, 1.0, ny + 1)
    gx, gy = np.meshgrid(xs, ys, indexing="ij")
    points = np.column_stack([gx.ravel(), gy.ravel()])

    def nid(i: int, j: int) -> int:
        return i * (ny + 1) + j

    tris = []
    for i in range(nx):
        for j in range(ny):
            a, b = nid(i, j), nid(i + 1, j)
            c, d = nid(i + 1, j + 1), nid(i, j + 1)
            # alternate diagonals for a less regular dual graph
            if (i + j) % 2 == 0:
                tris.append((a, b, c))
                tris.append((a, c, d))
            else:
                tris.append((a, b, d))
                tris.append((b, c, d))
    return TriMesh(points=points, triangles=np.array(tris))


def random_delaunay_mesh(n_nodes: int, seed: int = 0,
                         jitter: float = 0.45) -> TriMesh:
    """Delaunay triangulation of jittered grid points (irregular degrees).

    Points sit on a perturbed lattice so the triangulation has no slivers
    yet node degrees vary like a real unstructured CFD mesh.  scipy is
    imported on call, so importing the package needs numpy alone.
    """
    from scipy.spatial import Delaunay

    if n_nodes < 4:
        raise MeshError("need at least 4 nodes")
    rng = np.random.default_rng(seed)
    side = int(np.ceil(np.sqrt(n_nodes)))
    xs = np.linspace(0.0, 1.0, side)
    gx, gy = np.meshgrid(xs, xs, indexing="ij")
    pts = np.column_stack([gx.ravel(), gy.ravel()])[:n_nodes]
    h = 1.0 / max(side - 1, 1)
    pts = pts + rng.uniform(-jitter * h, jitter * h, size=pts.shape)
    tri = Delaunay(pts)
    return TriMesh(points=pts, triangles=tri.simplices.astype(np.int64))


def structured_tet_mesh(nx: int, ny: int, nz: int) -> TetMesh:
    """A unit-cube brick of (nx × ny × nz) cells, six tetrahedra per cell."""
    if min(nx, ny, nz) < 1:
        raise MeshError("grid must have at least one cell per direction")
    xs = np.linspace(0.0, 1.0, nx + 1)
    ys = np.linspace(0.0, 1.0, ny + 1)
    zs = np.linspace(0.0, 1.0, nz + 1)
    gx, gy, gz = np.meshgrid(xs, ys, zs, indexing="ij")
    points = np.column_stack([gx.ravel(), gy.ravel(), gz.ravel()])

    def nid(i: int, j: int, k: int) -> int:
        return (i * (ny + 1) + j) * (nz + 1) + k

    tets = []
    for i in range(nx):
        for j in range(ny):
            for k in range(nz):
                corner = [nid(i + a, j + b, k + c)
                          for a in (0, 1) for b in (0, 1) for c in (0, 1)]
                for t in _CUBE_TETS:
                    tets.append(tuple(corner[v] for v in t))
    return TetMesh(points=points, tets=np.array(tets))


def two_triangle_mesh() -> TriMesh:
    """The minimal shared-edge mesh used throughout the unit tests."""
    points = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    triangles = np.array([[0, 1, 2], [1, 3, 2]])
    return TriMesh(points=points, triangles=triangles)
