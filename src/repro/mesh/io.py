"""Mesh file I/O.

Two formats:

* the classic **Triangle** format (Shewchuk's ``.node``/``.ele`` pair),
  so real 2-D meshes from the usual generators can be fed in;
* a self-describing one-file text format (``.mesh``) for both 2-D
  triangle and 3-D tetrahedral meshes::

      mesh 2d|3d
      nodes <n>
      x y [z]          (n lines)
      elements <m> <k>
      v1 … vk          (m lines, 1-based)
"""

from __future__ import annotations

import pathlib
from typing import Union

import numpy as np

from ..errors import MeshError
from .mesh2d import TriMesh
from .mesh3d import TetMesh

Mesh = Union[TriMesh, TetMesh]
PathLike = Union[str, pathlib.Path]


# --------------------------------------------------------------------------
# Triangle (.node / .ele)
# --------------------------------------------------------------------------


def read_triangle(basepath: PathLike) -> TriMesh:
    """Read a ``.node``/``.ele`` pair written by Triangle-style tools."""
    base = pathlib.Path(basepath)
    node_lines = _data_lines(f"{base}.node")
    header = node_lines[0].split()
    n_nodes, dim = int(header[0]), int(header[1])
    if dim != 2:
        raise MeshError(f"{base}.node: expected 2-D nodes, found {dim}-D")
    points = np.zeros((n_nodes, 2))
    index_base = None
    for line in node_lines[1:n_nodes + 1]:
        parts = line.split()
        idx = int(parts[0])
        if index_base is None:
            index_base = idx  # Triangle allows 0- or 1-based files
        points[idx - index_base] = (float(parts[1]), float(parts[2]))

    ele_lines = _data_lines(f"{base}.ele")
    n_elems, per = int(ele_lines[0].split()[0]), int(ele_lines[0].split()[1])
    if per != 3:
        raise MeshError(f"{base}.ele: expected 3 nodes per triangle, "
                        f"found {per}")
    tris = np.zeros((n_elems, 3), dtype=np.int64)
    for line in ele_lines[1:n_elems + 1]:
        parts = line.split()
        idx = int(parts[0]) - index_base
        tris[idx] = [int(p) - index_base for p in parts[1:4]]
    return TriMesh(points=points, triangles=tris)


def _data_lines(path: PathLike) -> list[str]:
    try:
        with open(path) as fh:
            return [ln for ln in (l.split("#", 1)[0].strip()
                                  for l in fh)
                    if ln]
    except OSError as exc:
        raise MeshError(f"cannot read mesh file {path}: {exc}") from None


# --------------------------------------------------------------------------
# generic .mesh text format
# --------------------------------------------------------------------------


def write_mesh(mesh: Mesh, path: PathLike) -> None:
    """Write the one-file text format (2-D triangles or 3-D tetrahedra)."""
    dim = mesh.dim
    with open(path, "w") as fh:
        fh.write(f"mesh {dim}d\n")
        fh.write(f"nodes {mesh.entity_count('node')}\n")
        for p in mesh.points:
            fh.write(" ".join(repr(float(c)) for c in p) + "\n")
        elems = mesh.elements
        fh.write(f"elements {len(elems)} {elems.shape[1]}\n")
        for e in elems + 1:
            fh.write(" ".join(str(int(v)) for v in e) + "\n")


def read_mesh(path: PathLike) -> Mesh:
    """Read the one-file text format back into a TriMesh/TetMesh."""
    lines = _data_lines(path)
    if not lines or not lines[0].startswith("mesh"):
        raise MeshError(f"{path}: not a mesh file")
    dim = {"2d": 2, "3d": 3}.get(lines[0].split()[1])
    if dim is None:
        raise MeshError(f"{path}: unknown dimension {lines[0]!r}")
    cursor = 1
    key, count = lines[cursor].split()
    if key != "nodes":
        raise MeshError(f"{path}: expected 'nodes', found {key!r}")
    n_nodes = int(count)
    cursor += 1
    points = np.array([[float(c) for c in lines[cursor + i].split()]
                       for i in range(n_nodes)])
    if points.shape != (n_nodes, dim):
        raise MeshError(f"{path}: node coordinates are not {dim}-D")
    cursor += n_nodes
    key, count, per = lines[cursor].split()
    if key != "elements":
        raise MeshError(f"{path}: expected 'elements', found {key!r}")
    n_elems, per = int(count), int(per)
    cursor += 1
    conn = np.array([[int(v) - 1 for v in lines[cursor + i].split()]
                     for i in range(n_elems)], dtype=np.int64)
    if conn.shape != (n_elems, per):
        raise MeshError(f"{path}: bad element connectivity")
    if dim == 2:
        if per != 3:
            raise MeshError(f"{path}: 2-D meshes need 3 nodes per element")
        return TriMesh(points=points, triangles=conn)
    if per != 4:
        raise MeshError(f"{path}: 3-D meshes need 4 nodes per element")
    return TetMesh(points=points, tets=conn)
