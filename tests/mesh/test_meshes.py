"""Unit tests for mesh structures and generators."""

import numpy as np
import pytest

from repro.errors import MeshError
from repro.mesh import (
    TetMesh,
    TriMesh,
    element_dual_edges,
    random_delaunay_mesh,
    structured_tet_mesh,
    structured_tri_mesh,
    two_triangle_mesh,
)


class TestTriMesh:
    def test_two_triangle_counts(self):
        m = two_triangle_mesh()
        assert m.n_nodes == 4 and m.n_triangles == 2 and m.n_edges == 5

    def test_areas(self):
        m = two_triangle_mesh()
        np.testing.assert_allclose(m.triangle_areas, [0.5, 0.5])
        np.testing.assert_allclose(m.node_areas.sum(), 1.0)

    def test_node_areas_assembly(self):
        m = two_triangle_mesh()
        # corner nodes touch one triangle, diagonal nodes touch two
        np.testing.assert_allclose(sorted(m.node_areas),
                                   [1 / 6, 1 / 6, 1 / 3, 1 / 3])

    def test_edges_sorted_unique(self):
        m = structured_tri_mesh(3, 3)
        e = m.edges
        assert (e[:, 0] < e[:, 1]).all()
        assert len(np.unique(e, axis=0)) == len(e)

    def test_euler_formula(self):
        # V - E + F = 1 for a triangulated disk (without outer face)
        m = structured_tri_mesh(5, 4)
        assert m.n_nodes - m.n_edges + m.n_triangles == 1

    def test_node_to_triangles(self):
        elems, offsets = two_triangle_mesh().node_incidence
        assert elems[offsets[1]:offsets[2]].tolist() == [0, 1]
        assert elems[offsets[0]:offsets[1]].tolist() == [0]

    def test_node_incidence_is_the_transposed_connectivity(self):
        for m in (structured_tri_mesh(5, 4), structured_tet_mesh(2, 3, 2)):
            elems, offsets = m.node_incidence
            assert offsets[0] == 0 and offsets[-1] == m.elements.size
            for n in range(m.n_nodes):
                want = np.flatnonzero((m.elements == n).any(axis=1))
                np.testing.assert_array_equal(
                    elems[offsets[n]:offsets[n + 1]], want)

    def test_counting_nodes_derives_no_edge_table(self):
        # entity_count used to evaluate every count to return one: the
        # first node count of a 2-D run paid for np.unique over all sides
        tri, tet = structured_tri_mesh(3, 3), structured_tet_mesh(2, 2, 2)
        assert tri.entity_count("node") == 16
        assert tet.entity_count("node") == 27 and tet.entity_count("tetra") == 48
        assert "edges" not in vars(tri)
        assert "edges" not in vars(tet) and "faces" not in vars(tet)
        assert tri.entity_count("edge") == tri.n_edges == 33
        assert tet.entity_count("triangle") == len(tet.faces)
        with pytest.raises(KeyError):
            tri.entity_count("tetra")

    def test_triangle_adjacency(self):
        assert element_dual_edges(two_triangle_mesh()).tolist() == [[0, 1]]

    def test_boundary_edges(self):
        m = two_triangle_mesh()
        assert len(m.boundary_edges) == 4

    def test_validation_rejects_bad_index(self):
        with pytest.raises(MeshError, match="nonexistent"):
            TriMesh(points=np.zeros((3, 2)),
                    triangles=np.array([[0, 1, 5]]))

    def test_validation_rejects_degenerate(self):
        with pytest.raises(MeshError, match="degenerate"):
            TriMesh(points=np.zeros((3, 2)),
                    triangles=np.array([[0, 1, 1]]))

    def test_validate_rejects_orphan_node(self):
        m = TriMesh(points=np.array([[0., 0.], [1., 0.], [0., 1.], [5., 5.]]),
                    triangles=np.array([[0, 1, 2]]))
        with pytest.raises(MeshError, match="no triangle"):
            m.validate()


class TestGenerators:
    def test_structured_sizes(self):
        m = structured_tri_mesh(4, 3)
        assert m.n_nodes == 5 * 4
        assert m.n_triangles == 2 * 4 * 3
        m.validate()

    def test_structured_total_area(self):
        m = structured_tri_mesh(6, 6)
        np.testing.assert_allclose(m.triangle_areas.sum(), 1.0)

    def test_delaunay_mesh_valid(self):
        m = random_delaunay_mesh(100, seed=3)
        assert m.n_nodes == 100
        m.validate()

    def test_delaunay_deterministic(self):
        a = random_delaunay_mesh(50, seed=7)
        b = random_delaunay_mesh(50, seed=7)
        np.testing.assert_array_equal(a.triangles, b.triangles)

    def test_delaunay_irregular_degrees(self):
        m = random_delaunay_mesh(200, seed=1)
        degrees = np.bincount(m.triangles.ravel())
        assert degrees.max() > degrees.min()

    def test_bad_grid_rejected(self):
        with pytest.raises(MeshError):
            structured_tri_mesh(0, 3)


class TestTetMesh:
    def test_structured_tet_counts(self):
        m = structured_tet_mesh(2, 2, 2)
        assert m.n_nodes == 27
        assert m.n_tets == 6 * 8
        m.validate()

    def test_volumes_fill_cube(self):
        m = structured_tet_mesh(3, 2, 2)
        np.testing.assert_allclose(m.tet_volumes.sum(), 1.0)

    def test_edges_and_faces_unique(self):
        m = structured_tet_mesh(2, 1, 1)
        assert len(np.unique(m.edges, axis=0)) == m.n_edges
        assert len(np.unique(m.faces, axis=0)) == len(m.faces)

    def test_node_to_tets(self):
        elems, offsets = structured_tet_mesh(1, 1, 1).node_incidence
        # corner 0 of the Kuhn decomposition belongs to all six tets
        assert elems[offsets[0]:offsets[1]].tolist() == [0, 1, 2, 3, 4, 5]

    def test_degenerate_rejected(self):
        with pytest.raises(MeshError, match="degenerate"):
            TetMesh(points=np.zeros((4, 3)),
                    tets=np.array([[0, 1, 2, 2]]))

    def test_edge_lengths_positive(self):
        m = structured_tet_mesh(2, 2, 1)
        assert (m.edge_lengths > 0).all()
