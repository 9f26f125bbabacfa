"""Unit tests for mesh file I/O."""

import numpy as np
import pytest

from repro.errors import MeshError
from repro.mesh import (
    partition_elements,
    random_delaunay_mesh,
    read_mesh,
    read_triangle,
    structured_tet_mesh,
    structured_tri_mesh,
    write_mesh,
)
from tests.mesh.triangle_files import write_triangle


class TestTriangleFormat:
    def test_roundtrip(self, tmp_path):
        mesh = random_delaunay_mesh(60, seed=2)
        write_triangle(mesh, tmp_path / "m")
        again = read_triangle(tmp_path / "m")
        np.testing.assert_array_equal(again.points, mesh.points)
        np.testing.assert_array_equal(again.triangles, mesh.triangles)

    def test_zero_based_files_accepted(self, tmp_path):
        (tmp_path / "z.node").write_text(
            "3 2 0 0\n0 0.0 0.0\n1 1.0 0.0\n2 0.0 1.0\n")
        (tmp_path / "z.ele").write_text("1 3 0\n0 0 1 2\n")
        mesh = read_triangle(tmp_path / "z")
        assert mesh.n_nodes == 3 and mesh.n_triangles == 1

    def test_comments_skipped(self, tmp_path):
        mesh = structured_tri_mesh(2, 2)
        write_triangle(mesh, tmp_path / "c")
        text = (tmp_path / "c.node").read_text()
        (tmp_path / "c.node").write_text("# generated\n" + text)
        again = read_triangle(tmp_path / "c")
        assert again.n_nodes == mesh.n_nodes

    def test_missing_file_raises(self, tmp_path):
        with pytest.raises(MeshError, match="cannot read"):
            read_triangle(tmp_path / "nothing")

    def test_3d_node_file_rejected(self, tmp_path):
        (tmp_path / "x.node").write_text("1 3 0 0\n1 0.0 0.0 0.0\n")
        (tmp_path / "x.ele").write_text("0 3 0\n")
        with pytest.raises(MeshError, match="2-D"):
            read_triangle(tmp_path / "x")


class TestGenericFormat:
    def test_2d_roundtrip(self, tmp_path):
        mesh = random_delaunay_mesh(50, seed=9)
        write_mesh(mesh, tmp_path / "a.mesh")
        again = read_mesh(tmp_path / "a.mesh")
        np.testing.assert_array_equal(again.points, mesh.points)
        np.testing.assert_array_equal(again.triangles, mesh.triangles)

    def test_3d_roundtrip(self, tmp_path):
        mesh = structured_tet_mesh(2, 2, 1)
        write_mesh(mesh, tmp_path / "b.mesh")
        again = read_mesh(tmp_path / "b.mesh")
        np.testing.assert_array_equal(again.points, mesh.points)
        np.testing.assert_array_equal(again.tets, mesh.tets)

    def test_bad_header_rejected(self, tmp_path):
        (tmp_path / "bad.mesh").write_text("lattice 2d\n")
        with pytest.raises(MeshError, match="not a mesh"):
            read_mesh(tmp_path / "bad.mesh")

    def test_bad_dimension_rejected(self, tmp_path):
        (tmp_path / "bad.mesh").write_text("mesh 4d\nnodes 0\nelements 0 3\n")
        with pytest.raises(MeshError, match="dimension"):
            read_mesh(tmp_path / "bad.mesh")

    def test_loaded_mesh_partitions(self, tmp_path):
        mesh = structured_tri_mesh(4, 4)
        write_mesh(mesh, tmp_path / "p.mesh")
        loaded = read_mesh(tmp_path / "p.mesh")
        ranks = partition_elements(loaded, 4)
        assert len(ranks) == loaded.n_triangles


class TestPartitionFiles:
    def test_external_partition_drives_pipeline(self):
        """An element→rank array from elsewhere plugs straight into the
        overlap."""
        from repro.mesh import build_partition

        mesh = structured_tri_mesh(6, 6)
        ranks = partition_elements(mesh, 3, method="greedy")
        part = build_partition(mesh, 3, "overlap-elements-2d",
                               elem_ranks=ranks)
        part.check_invariants()
