"""Unstructured 2-D triangular meshes.

The geometric substrate of the paper's figures 1/2: nodes, edges and
triangles ("mesh entities"), with the derived quantities the corpus
programs consume (triangle areas ``AIRETRI``, assembled node areas
``AIRESOM``) and the adjacency needed by partitioners and overlap
construction.  All connectivity is 0-based internally; conversion to the
FORTRAN side's 1-based arrays happens when environments are built
(:mod:`repro.driver.pipeline`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from ..errors import MeshError


def group_by_key(keys: np.ndarray,
                 n_keys: int) -> tuple[np.ndarray, np.ndarray]:
    """Positions of ``keys`` grouped by value, CSR-shaped.

    Returns ``(order, offsets)``: ``order[offsets[k]:offsets[k + 1]]`` are
    the positions holding key ``k``, ascending.
    """
    offsets = np.zeros(n_keys + 1, dtype=np.int64)
    np.cumsum(np.bincount(keys, minlength=n_keys), out=offsets[1:])
    return np.argsort(keys, kind="stable"), offsets


@dataclass
class TriMesh:
    """An unstructured triangular mesh."""

    points: np.ndarray      # (n_nodes, 2) float
    triangles: np.ndarray   # (n_triangles, 3) int, 0-based node ids

    def __post_init__(self) -> None:
        self.points = np.asarray(self.points, dtype=np.float64)
        self.triangles = np.asarray(self.triangles, dtype=np.int64)
        if self.points.ndim != 2 or self.points.shape[1] != 2:
            raise MeshError("points must be (n, 2)")
        if self.triangles.ndim != 2 or self.triangles.shape[1] != 3:
            raise MeshError("triangles must be (m, 3)")
        if len(self.triangles) and (self.triangles.min() < 0
                                    or self.triangles.max() >= len(self.points)):
            raise MeshError("triangle refers to nonexistent node")
        degenerate = np.nonzero(
            (self.triangles[:, 0] == self.triangles[:, 1])
            | (self.triangles[:, 1] == self.triangles[:, 2])
            | (self.triangles[:, 0] == self.triangles[:, 2]))[0]
        if degenerate.size:
            raise MeshError(f"degenerate triangle(s): {degenerate[:5].tolist()}")

    # -- sizes -------------------------------------------------------------

    @property
    def n_nodes(self) -> int:
        return len(self.points)

    @property
    def n_triangles(self) -> int:
        return len(self.triangles)

    @property
    def n_edges(self) -> int:
        return len(self.edges)

    @property
    def dim(self) -> int:
        return 2

    @property
    def element_name(self) -> str:
        return "triangle"

    @property
    def elements(self) -> np.ndarray:
        return self.triangles

    def entity_count(self, entity: str) -> int:
        # by name, so counting nodes does not derive the edge table
        return getattr(self, {"node": "n_nodes", "edge": "n_edges",
                              "triangle": "n_triangles"}[entity])

    # -- derived connectivity ------------------------------------------------

    @cached_property
    def edges(self) -> np.ndarray:
        """Unique undirected edges (k, 2), endpoints sorted, lexicographic."""
        sides = np.concatenate([self.triangles[:, [0, 1]],
                                self.triangles[:, [1, 2]],
                                self.triangles[:, [2, 0]]])
        sides.sort(axis=1)
        return np.unique(sides, axis=0)

    @cached_property
    def node_incidence(self) -> tuple[np.ndarray, np.ndarray]:
        """Node → incident triangles as CSR ``(elems, offsets)``:
        ``elems[offsets[n]:offsets[n + 1]]`` touch node ``n``, ascending."""
        order, offsets = group_by_key(self.triangles.ravel(), self.n_nodes)
        return order // 3, offsets

    @cached_property
    def boundary_edges(self) -> np.ndarray:
        """Edges belonging to exactly one triangle."""
        sides = np.concatenate([self.triangles[:, [0, 1]],
                                self.triangles[:, [1, 2]],
                                self.triangles[:, [2, 0]]])
        sides.sort(axis=1)
        uniq, counts = np.unique(sides, axis=0, return_counts=True)
        return uniq[counts == 1]

    # -- geometry ------------------------------------------------------------

    @cached_property
    def triangle_areas(self) -> np.ndarray:
        """Signed-area magnitude of each triangle (the TESTIV ``AIRETRI``)."""
        p = self.points
        a = p[self.triangles[:, 0]]
        b = p[self.triangles[:, 1]]
        c = p[self.triangles[:, 2]]
        cross = ((b[:, 0] - a[:, 0]) * (c[:, 1] - a[:, 1])
                 - (b[:, 1] - a[:, 1]) * (c[:, 0] - a[:, 0]))
        return 0.5 * np.abs(cross)

    @cached_property
    def node_areas(self) -> np.ndarray:
        """Lumped node areas: a third of each adjacent triangle (``AIRESOM``)."""
        areas = np.zeros(self.n_nodes)
        contrib = np.repeat(self.triangle_areas / 3.0, 3)
        np.add.at(areas, self.triangles.ravel(), contrib)
        return areas

    @cached_property
    def triangle_centroids(self) -> np.ndarray:
        return self.points[self.triangles].mean(axis=1)

    @cached_property
    def edge_lengths(self) -> np.ndarray:
        e = self.edges
        d = self.points[e[:, 0]] - self.points[e[:, 1]]
        return np.hypot(d[:, 0], d[:, 1])

    def validate(self) -> None:
        """Structural checks beyond the constructor (used by property tests)."""
        used = np.zeros(self.n_nodes, dtype=bool)
        used[self.triangles.ravel()] = True
        if not used.all():
            orphan = int(np.nonzero(~used)[0][0])
            raise MeshError(f"node {orphan} belongs to no triangle")
        if (self.triangle_areas <= 0).any():
            raise MeshError("zero-area triangle present")
