"""Unstructured 3-D tetrahedral meshes (paper figure 8's setting)."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from ..errors import MeshError
from .mesh2d import group_by_key

#: the six edges of a tetrahedron, as local vertex index pairs
_TET_EDGES = ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))
#: the four triangular faces
_TET_FACES = ((0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3))


@dataclass
class TetMesh:
    """An unstructured tetrahedral mesh."""

    points: np.ndarray   # (n_nodes, 3)
    tets: np.ndarray     # (m, 4) int, 0-based node ids

    def __post_init__(self) -> None:
        self.points = np.asarray(self.points, dtype=np.float64)
        self.tets = np.asarray(self.tets, dtype=np.int64)
        if self.points.ndim != 2 or self.points.shape[1] != 3:
            raise MeshError("points must be (n, 3)")
        if self.tets.ndim != 2 or self.tets.shape[1] != 4:
            raise MeshError("tets must be (m, 4)")
        if len(self.tets) and (self.tets.min() < 0
                               or self.tets.max() >= len(self.points)):
            raise MeshError("tetrahedron refers to nonexistent node")
        for i in range(4):
            for j in range(i + 1, 4):
                if (self.tets[:, i] == self.tets[:, j]).any():
                    raise MeshError("degenerate tetrahedron present")

    @property
    def n_nodes(self) -> int:
        return len(self.points)

    @property
    def n_tets(self) -> int:
        return len(self.tets)

    @property
    def n_edges(self) -> int:
        return len(self.edges)

    @property
    def dim(self) -> int:
        return 3

    @property
    def element_name(self) -> str:
        return "tetra"

    @property
    def elements(self) -> np.ndarray:
        return self.tets

    def entity_count(self, entity: str) -> int:
        # by name, so counting nodes derives neither edges nor faces
        table = {"node": "points", "edge": "edges", "triangle": "faces",
                 "tetra": "tets"}[entity]
        return len(getattr(self, table))

    @cached_property
    def edges(self) -> np.ndarray:
        """Unique undirected edges (k, 2), sorted endpoints."""
        pairs = np.concatenate([self.tets[:, list(pair)]
                                for pair in _TET_EDGES])
        pairs.sort(axis=1)
        return np.unique(pairs, axis=0)

    @cached_property
    def faces(self) -> np.ndarray:
        """Unique triangular faces (k, 3), sorted vertices."""
        tris = np.concatenate([self.tets[:, list(face)]
                               for face in _TET_FACES])
        tris.sort(axis=1)
        return np.unique(tris, axis=0)

    @cached_property
    def node_incidence(self) -> tuple[np.ndarray, np.ndarray]:
        """Node → incident tetrahedra as CSR ``(elems, offsets)``:
        ``elems[offsets[n]:offsets[n + 1]]`` touch node ``n``, ascending."""
        order, offsets = group_by_key(self.tets.ravel(), self.n_nodes)
        return order // 4, offsets

    @cached_property
    def tet_volumes(self) -> np.ndarray:
        p = self.points
        a = p[self.tets[:, 0]]
        d1 = p[self.tets[:, 1]] - a
        d2 = p[self.tets[:, 2]] - a
        d3 = p[self.tets[:, 3]] - a
        det = np.einsum("ij,ij->i", d1, np.cross(d2, d3))
        return np.abs(det) / 6.0

    @cached_property
    def tet_centroids(self) -> np.ndarray:
        return self.points[self.tets].mean(axis=1)

    @cached_property
    def edge_lengths(self) -> np.ndarray:
        e = self.edges
        d = self.points[e[:, 0]] - self.points[e[:, 1]]
        return np.sqrt((d * d).sum(axis=1))

    def validate(self) -> None:
        used = np.zeros(self.n_nodes, dtype=bool)
        used[self.tets.ravel()] = True
        if not used.all():
            orphan = int(np.nonzero(~used)[0][0])
            raise MeshError(f"node {orphan} belongs to no tetrahedron")
        if (self.tet_volumes <= 0).any():
            raise MeshError("zero-volume tetrahedron present")
