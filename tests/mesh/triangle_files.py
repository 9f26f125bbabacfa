"""Write Triangle ``.node``/``.ele`` pairs, for tests of the reader."""

import pathlib

from repro.mesh import TriMesh


def write_triangle(mesh: TriMesh, basepath) -> None:
    """Write ``<base>.node`` and ``<base>.ele`` (1-based, no attributes)."""
    base = pathlib.Path(basepath)
    with open(f"{base}.node", "w") as fh:
        fh.write(f"{mesh.n_nodes} 2 0 0\n")
        for i, (x, y) in enumerate(mesh.points, start=1):
            fh.write(f"{i} {float(x)!r} {float(y)!r}\n")
    with open(f"{base}.ele", "w") as fh:
        fh.write(f"{mesh.n_triangles} 3 0\n")
        for i, (a, b, c) in enumerate(mesh.triangles + 1, start=1):
            fh.write(f"{i} {a} {b} {c}\n")
