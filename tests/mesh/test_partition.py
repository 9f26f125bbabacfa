"""Unit tests for partitioners, overlap construction and schedules."""

import hashlib
import json
import re
from contextlib import nullcontext
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import MeshError
from repro.mesh import (
    RebalancePolicy,
    TriMesh,
    build_combine_schedule,
    build_halo_schedule,
    build_overlap_schedule,
    build_partition,
    measure_partition,
    partition_elements,
    refine_partition,
    random_delaunay_mesh,
    structured_tet_mesh,
    structured_tri_mesh,
    two_triangle_mesh,
)
from repro.mesh.overlap import _node_owners
from repro.runtime import SimComm, combine_update, overlap_update
from tests.halo_views import plans


@pytest.fixture(scope="module")
def mesh():
    return structured_tri_mesh(8, 8)


@pytest.fixture(scope="module")
def rmesh():
    return random_delaunay_mesh(150, seed=11)


class TestPartitioners:
    @pytest.mark.parametrize("method", ["rcb", "greedy", "spectral"])
    @pytest.mark.parametrize("nparts", [2, 3, 4, 7])
    def test_balanced_cover(self, mesh, method, nparts):
        ranks = partition_elements(mesh, nparts, method=method)
        assert len(ranks) == mesh.n_triangles
        sizes = np.bincount(ranks, minlength=nparts)
        assert sizes.sum() == mesh.n_triangles
        assert sizes.min() >= 1
        assert sizes.max() - sizes.min() <= max(2, 0.25 * sizes.mean())

    def test_single_part(self, mesh):
        ranks = partition_elements(mesh, 1)
        assert (ranks == 0).all()

    def test_too_many_parts_rejected(self):
        with pytest.raises(MeshError):
            partition_elements(two_triangle_mesh(), 3)

    def test_unknown_method_rejected(self, mesh):
        with pytest.raises(MeshError, match="unknown"):
            partition_elements(mesh, 2, method="magic")

    def test_rcb_deterministic(self, rmesh):
        a = partition_elements(rmesh, 4, method="rcb")
        b = partition_elements(rmesh, 4, method="rcb")
        np.testing.assert_array_equal(a, b)

    def test_refinement_reduces_cut(self, rmesh):
        ranks = partition_elements(rmesh, 4, method="rcb")
        before = measure_partition(rmesh, ranks).edge_cut
        refined = refine_partition(rmesh, ranks)
        after = measure_partition(rmesh, refined).edge_cut
        assert after <= before
        sizes = np.bincount(refined, minlength=4)
        assert sizes.min() >= 1

    def test_quality_metrics(self, mesh):
        q = measure_partition(mesh, partition_elements(mesh, 4))
        assert q.nparts == 4
        assert q.edge_cut > 0
        assert q.interface_nodes > 0
        assert "P=4" in q.summary()

    def test_spectral_on_larger_mesh(self, rmesh):
        ranks = partition_elements(rmesh, 2, method="spectral")
        q = measure_partition(rmesh, ranks)
        # spectral bisection should find a reasonable cut on a disk-like mesh
        assert q.edge_cut < rmesh.n_triangles / 3


class TestOverlapFig1:
    """Duplicated-elements pattern (paper figure 1)."""

    @pytest.fixture(scope="class")
    def part(self, ):
        mesh = structured_tri_mesh(8, 8)
        return build_partition(mesh, 4, "overlap-elements-2d")

    def test_invariants(self, part):
        part.check_invariants()

    def test_kernel_first_numbering(self, part):
        for sub in part.subs:
            kern, total = sub.counts("node")
            owners = part.owners["node"][sub.l2g["node"]]
            assert (owners[:kern] == sub.rank).all()
            assert (owners[kern:] != sub.rank).all()

    def test_overlap_nonempty(self, part):
        # plurality node ownership does not promise every rank a frontier
        # node, so a rank may duplicate no triangle; but every rank sees
        # copies of foreign nodes, and duplication happens somewhere
        assert all(s > 0 for s in part.overlap_sizes("node"))
        assert sum(part.overlap_sizes("triangle")) > 0

    def test_elements_of_kernel_nodes_local(self, part):
        elems, offsets = part.mesh.node_incidence
        for sub in part.subs:
            local = set(int(g) for g in sub.l2g["triangle"])
            kern = sub.kernel_count["node"]
            for g in sub.l2g["node"][:kern]:
                for t in elems[offsets[g]:offsets[g + 1]]:
                    assert int(t) in local

    def test_localize_roundtrip(self, part):
        mesh = part.mesh
        values = np.arange(mesh.n_nodes, dtype=float) * 1.5
        for sub in part.subs:
            local = sub.localize("node", values)
            np.testing.assert_array_equal(local, values[sub.l2g["node"]])

    def test_two_layer_pattern_is_wider(self):
        mesh = structured_tri_mesh(10, 10)
        one = build_partition(mesh, 4, "overlap-elements-2d")
        two = build_partition(mesh, 4, "overlap-elements-2d-2layers")
        assert sum(two.overlap_sizes("triangle")) \
            > sum(one.overlap_sizes("triangle"))
        two.check_invariants()

    def test_holders(self, part):
        n_holders = np.array([len(h) for h in _holders(part, "node")])
        assert (n_holders >= 1).all() and (n_holders > 1).any()


class TestOverlapFig2:
    """Shared-nodes pattern (paper figure 2)."""

    @pytest.fixture(scope="class")
    def part(self):
        mesh = structured_tri_mesh(8, 8)
        return build_partition(mesh, 4, "shared-nodes-2d")

    def test_invariants(self, part):
        part.check_invariants()

    def test_no_duplicated_triangles(self, part):
        total = sum(len(s.l2g["triangle"]) for s in part.subs)
        assert total == part.mesh.n_triangles
        for sub in part.subs:
            kern, tot = sub.counts("triangle")
            assert kern == tot

    def test_shared_nodes_exist(self, part):
        # a rank may own its whole frontier (plurality ownership, ties
        # rotating by node id), so only the *sum* of shared copies is
        # guaranteed positive
        sizes = part.overlap_sizes("node")
        assert sum(sizes) > 0
        assert any(s > 0 for s in sizes[1:])


class TestOverlap3D:
    @pytest.fixture(scope="class")
    def part(self):
        mesh = structured_tet_mesh(3, 3, 2)
        return build_partition(mesh, 3, "overlap-elements-3d")

    def test_invariants(self, part):
        part.check_invariants()

    def test_edges_present_and_kernel_first(self, part):
        for sub in part.subs:
            assert sub.edges is not None
            kern, total = sub.counts("edge")
            assert 0 < kern <= total
            owners = part.owners["edge"][sub.l2g["edge"]]
            assert (owners[:kern] == sub.rank).all()

    def test_edge_kernels_cover(self, part):
        seen = []
        for sub in part.subs:
            kern = sub.kernel_count["edge"]
            seen.extend(int(g) for g in sub.l2g["edge"][:kern])
        assert sorted(seen) == list(range(part.mesh.n_edges))

    def test_edges_of_kernel_nodes_local(self, part):
        mesh = part.mesh
        edge_ids = {(int(a), int(b)): i for i, (a, b) in enumerate(mesh.edges)}
        for sub in part.subs:
            local_edges = set(int(g) for g in sub.l2g["edge"])
            kern = sub.kernel_count["node"]
            kernel_nodes = set(int(g) for g in sub.l2g["node"][:kern])
            for (a, b), i in edge_ids.items():
                if a in kernel_nodes or b in kernel_nodes:
                    assert i in local_edges

    def test_pattern_mesh_mismatch_rejected(self):
        with pytest.raises(MeshError, match="expects"):
            build_partition(structured_tri_mesh(3, 3), 2,
                            "overlap-elements-3d")


def _holders_reference(part, entity):
    """The pre-vectorization holder loop, kept verbatim as an oracle."""
    holders = [[] for _ in range(part.mesh.entity_count(entity))]
    for sub in part.subs:
        for g in sub.l2g[entity]:
            holders[int(g)].append(sub.rank)
    return [sorted(h) for h in holders]


def _holders(part, entity):
    """Holder ranks per global id, ascending: every rank whose ``l2g``
    lists the id."""
    held = [set(sub.l2g[entity].tolist()) for sub in part.subs]
    return [[sub.rank for sub, ids in zip(part.subs, held) if g in ids]
            for g in range(part.mesh.entity_count(entity))]


def _overlap_sizes_reference(part, entity):
    return [len(s.l2g[entity]) - s.kernel_count[entity] for s in part.subs]


class TestVectorizedHolderQueries:
    """Holders read off ``l2g`` and the overlap sizes pin the per-entity
    reference loops."""

    @pytest.fixture(scope="class", params=[
        ("overlap-elements-2d", "rcb"),
        ("overlap-elements-2d-2layers", "greedy"),
        ("shared-nodes-2d", "rcb"),
    ])
    def part(self, request):
        pattern, method = request.param
        mesh = structured_tri_mesh(7, 7)
        return build_partition(mesh, 4, pattern, method=method)

    def test_holders_match_reference_loop(self, part):
        for entity in part.subs[0].l2g:
            assert _holders(part, entity) == _holders_reference(part, entity)

    def test_overlap_sizes_match_reference_loop(self, part):
        for entity in part.subs[0].l2g:
            assert part.overlap_sizes(entity) \
                == _overlap_sizes_reference(part, entity)

    def test_holder_csr_segments_sorted_by_rank(self, part):
        for seg in _holders(part, "node"):
            assert seg == sorted(seg) and len(seg) >= 1

    def test_holders_3d_with_edges(self):
        part = build_partition(structured_tet_mesh(3, 3, 2), 3,
                               "overlap-elements-3d")
        for entity in ("node", "edge", "tetra"):
            assert _holders(part, entity) == _holders_reference(part, entity)
            assert part.overlap_sizes(entity) \
                == _overlap_sizes_reference(part, entity)


class TestG2LCacheInvalidation:
    """``SubMesh.packed_ids`` must track ``l2g`` replacement.

    Any pass that rewrites ``l2g`` (migration relabeling does) must get
    packed ids of the new numbering: they are computed from the ``l2g``
    array of the moment, nothing is cached on the sub-mesh.
    """

    def test_packed_ids_refresh_after_l2g_rewrite(self):
        part = build_partition(structured_tri_mesh(6, 6), 3,
                               "overlap-elements-2d")
        sub, packing = part.subs[1], part.packing("node")
        first = sub.packed_ids("node", packing)
        sub.l2g["node"] = sub.l2g["node"][::-1].copy()
        np.testing.assert_array_equal(
            sub.packed_ids("node", packing), first[::-1])
        assert not hasattr(sub, "_packed")


class TestSchedules:
    @pytest.fixture(scope="class")
    def part(self):
        return build_partition(structured_tri_mesh(8, 8), 4,
                               "overlap-elements-2d")

    def test_overlap_schedule_consistent(self, part):
        sched = build_overlap_schedule(part, "node")
        recvs = plans(sched.recv)
        for r, plan in enumerate(plans(sched.send)):
            for dest, idx in plan.items():
                recv_idx = recvs[dest][r]
                assert len(idx) == len(recv_idx)
                send_g = part.subs[r].l2g["node"][idx]
                recv_g = part.subs[dest].l2g["node"][recv_idx]
                np.testing.assert_array_equal(send_g, recv_g)

    def test_overlap_schedule_covers_overlap(self, part):
        sched = build_overlap_schedule(part, "node")
        for sub in part.subs:
            kern, total = sub.counts("node")
            received = sorted(sched.recv.idx[sub.rank].tolist())
            assert received == list(range(kern, total))

    def test_overlap_update_effect(self, part):
        """After applying the schedule, overlap copies equal owner values."""
        rng = np.random.default_rng(5)
        glob = rng.standard_normal(part.mesh.n_nodes)
        # ranks start with garbage on the overlap
        local = [sub.localize("node", glob).copy() for sub in part.subs]
        for sub, arr in zip(part.subs, local):
            arr[sub.kernel_count["node"]:] = -999.0
        sched = build_overlap_schedule(part, "node")
        sends = plans(sched.send)
        for r, plan in enumerate(plans(sched.recv)):
            for src, ridx in plan.items():
                local[r][ridx] = local[src][sends[src][r]]
        for sub, arr in zip(part.subs, local):
            np.testing.assert_array_equal(arr, glob[sub.l2g["node"]])

    def test_combine_schedule_effect(self):
        """Gather+return reassembles exactly the global contribution sums."""
        part = build_partition(structured_tri_mesh(6, 6), 3,
                               "shared-nodes-2d")
        rng = np.random.default_rng(9)
        # each rank contributes 1.0 per adjacent local triangle
        local = []
        for sub in part.subs:
            acc = np.zeros(len(sub.l2g["node"]))
            np.add.at(acc, sub.elements.ravel(), 1.0)
            local.append(acc)
        sched = build_combine_schedule(part, "node")
        # phase 1: owners accumulate partials
        gather_sends = plans(sched.gather_send)
        for o, plan in enumerate(plans(sched.gather_recv)):
            for src, oidx in plan.items():
                local[o][oidx] += local[src][gather_sends[src][o]]
        # phase 2: totals go back
        return_recvs = plans(sched.recv)
        for o, plan in enumerate(plans(sched.send)):
            for dest, oidx in plan.items():
                local[dest][return_recvs[dest][o]] = local[o][oidx]
        degree = np.zeros(part.mesh.n_nodes)
        np.add.at(degree, part.mesh.triangles.ravel(), 1.0)
        for sub, arr in zip(part.subs, local):
            np.testing.assert_array_equal(arr, degree[sub.l2g["node"]])

    def test_message_stats(self, part):
        sched = build_overlap_schedule(part, "node")
        assert sched.message_count() > 0
        assert sched.volume() >= sched.message_count()


def _freeze_reference(plans):
    return [{peer: np.array(idx, dtype=np.int64)
             for peer, idx in sorted(p.items())} for p in plans]


def _g2l(part, entity):
    """Per rank ``{global id: local index}``, straight from ``l2g``."""
    return [{int(g): l for l, g in enumerate(sub.l2g[entity])}
            for sub in part.subs]


def _reference_overlap(part, entity):
    """The pre-packed dict construction, kept verbatim as an oracle."""
    sends = [dict() for _ in range(part.nparts)]
    recvs = [dict() for _ in range(part.nparts)]
    owners = part.owners[entity]
    g2l = _g2l(part, entity)
    for sub in part.subs:
        kern, total = sub.counts(entity)
        for local in range(kern, total):
            g = int(sub.l2g[entity][local])
            owner = int(owners[g])
            sends[owner].setdefault(sub.rank, []).append(g2l[owner][g])
            recvs[sub.rank].setdefault(owner, []).append(local)
    return _freeze_reference(sends), _freeze_reference(recvs)


def _reference_combine(part, entity):
    gather_sends = [dict() for _ in range(part.nparts)]
    gather_recvs = [dict() for _ in range(part.nparts)]
    owners = part.owners[entity]
    g2l = _g2l(part, entity)
    for sub in part.subs:
        kern, total = sub.counts(entity)
        for local in range(kern, total):
            g = int(sub.l2g[entity][local])
            owner = int(owners[g])
            gather_sends[sub.rank].setdefault(owner, []).append(local)
            gather_recvs[owner].setdefault(sub.rank, []).append(g2l[owner][g])
    return_sends = [dict(p) for p in gather_recvs]
    return_recvs = [dict(p) for p in gather_sends]
    return tuple(_freeze_reference(p) for p in
                 (gather_sends, gather_recvs, return_sends, return_recvs))


def _assert_plans_equal(got, want, where):
    assert len(got) == len(want), where
    for r, (gp, wp) in enumerate(zip(got, want)):
        assert list(gp) == list(wp), f"{where}: rank {r} peers differ"
        for peer in wp:
            np.testing.assert_array_equal(gp[peer], wp[peer],
                                          err_msg=f"{where}: {r}->{peer}")


class TestPackedScheduleOracle:
    """Packed-id schedule construction versus the dict-based reference.

    The builder derives every message from ``rank << SHIFT | local``
    arithmetic and one argsort; the reference here re-runs the historical
    per-entity dict walk over ``g2l`` and owners.  *One* built schedule
    per entity must agree exactly — peers, ordering, and index values —
    with both the overlap and the combine oracle, on every pattern,
    method, and entity kind, and that same object must drive both
    collectives to the oracle's values.
    """

    @pytest.fixture(scope="class", params=[
        ("overlap-elements-2d", "rcb", 4, "2d"),
        ("overlap-elements-2d-2layers", "greedy", 3, "2d"),
        ("shared-nodes-2d", "rcb", 4, "2d"),
        ("overlap-elements-3d", "rcb", 3, "3d"),
    ])
    def part(self, request):
        pattern, method, nparts, dim = request.param
        mesh = structured_tri_mesh(7, 7) if dim == "2d" \
            else structured_tet_mesh(3, 3, 2)
        return build_partition(mesh, nparts, pattern, method=method)

    @pytest.fixture(scope="class")
    def scheds(self, part):
        """The one schedule per entity every test of this class reads."""
        return {entity: build_halo_schedule(part, entity)
                for entity in part.subs[0].l2g}

    def test_overlap_schedule_matches_dict_oracle(self, part, scheds):
        for entity, sched in scheds.items():
            sends, recvs = _reference_overlap(part, entity)
            _assert_plans_equal(plans(sched.send), sends, f"{entity} sends")
            _assert_plans_equal(plans(sched.recv), recvs, f"{entity} recvs")

    def test_combine_schedule_matches_dict_oracle(self, part, scheds):
        for entity, sched in scheds.items():
            gs, gr, rs, rr = _reference_combine(part, entity)
            _assert_plans_equal(plans(sched.gather_send), gs,
                                f"{entity} gsend")
            _assert_plans_equal(plans(sched.gather_recv), gr,
                                f"{entity} grecv")
            _assert_plans_equal(plans(sched.send), rs, f"{entity} rsend")
            _assert_plans_equal(plans(sched.recv), rr, f"{entity} rrecv")

    @staticmethod
    def _oracle_values(part, entity, start):
        """What the dict oracle says each collective leaves behind."""
        sends, recvs = _reference_overlap(part, entity)
        pushed = [v.copy() for v in start]
        for r, plan in enumerate(recvs):
            for src, ridx in plan.items():
                pushed[r][ridx] = start[src][sends[src][r]]
        gs, gr, rs, rr = _reference_combine(part, entity)
        summed = [v.copy() for v in start]
        for o, plan in enumerate(gr):
            for src, oidx in plan.items():
                summed[o][oidx] = summed[o][oidx] + summed[src][gs[src][o]]
        for o, plan in enumerate(rs):
            for dest, oidx in plan.items():
                summed[dest][rr[dest][o]] = summed[o][oidx]
        return pushed, summed

    @pytest.mark.parametrize("make", [
        lambda rng, n: rng.standard_normal(n),
        lambda rng, n: rng.integers(-50, 50, size=n),
        lambda rng, n: rng.standard_normal((n, 2)),
    ], ids=["float64", "int64", "2-D"])
    def test_one_schedule_drives_both_updates(self, part, scheds, make,
                                              reference_halos):
        """The very object compared against the oracles moves the data:
        float64 on the block wire and per-message, int64/2-D (which only
        the per-message body carries) on a *built* schedule."""
        for entity, sched in scheds.items():
            rng = np.random.default_rng(17)
            start = [make(rng, len(sub.l2g[entity])) for sub in part.subs]
            pushed, summed = self._oracle_values(part, entity, start)
            block = start[0].dtype == np.float64 and start[0].ndim == 1
            for path in ([nullcontext, reference_halos] if block
                         else [nullcontext]):
                for update, want in ((overlap_update, pushed),
                                     (combine_update, summed)):
                    envs = [{"v": v.copy()} for v in start]
                    comm = SimComm(part.nparts)
                    with path():
                        update(comm, envs, "v", sched)
                    comm.assert_drained()
                    for env, expect in zip(envs, want):
                        np.testing.assert_array_equal(env["v"], expect)
                        assert env["v"].dtype == expect.dtype


# --------------------------------------------------------------------------
# mesh set-up as array programs: the loops they replaced, and goldens
# --------------------------------------------------------------------------


def _node_owners_reference(mesh, elem_ranks):
    """The pre-vectorization ``_node_owners`` loop, kept verbatim."""
    n_nodes = mesh.entity_count("node")
    nodes = mesh.elements.ravel()
    ranks = np.repeat(elem_ranks, mesh.elements.shape[1])
    order = np.lexsort((ranks, nodes))
    nodes, ranks = nodes[order], ranks[order]
    owners = np.zeros(n_nodes, dtype=np.int64)
    i, total = 0, len(nodes)
    while i < total:
        node = nodes[i]
        j = i
        best: list[int] = []
        best_count = 0
        while j < total and nodes[j] == node:
            k = j
            while k < total and nodes[k] == node and ranks[k] == ranks[j]:
                k += 1
            count = k - j
            if count > best_count:
                best, best_count = [int(ranks[j])], count
            elif count == best_count:
                best.append(int(ranks[j]))
            j = k
        owners[node] = best[int(node) % len(best)]
        i = j
    return owners


def _interface_nodes_reference(mesh, ranks):
    """The pre-vectorization ``measure_partition`` loop, kept verbatim."""
    n_nodes = mesh.entity_count("node")
    first = np.full(n_nodes, -1, dtype=np.int64)
    multi = np.zeros(n_nodes, dtype=bool)
    for e, elem in enumerate(mesh.elements):
        r = ranks[e]
        for n in elem:
            if first[n] < 0:
                first[n] = r
            elif first[n] != r:
                multi[n] = True
    return int(multi.sum())


_MESH_MAKERS = {
    "delaunay": lambda size, seed: random_delaunay_mesh(20 + 9 * size,
                                                        seed=seed),
    "structured-2d": lambda size, seed: structured_tri_mesh(2 + size % 5,
                                                            1 + size // 3),
    "structured-3d": lambda size, seed: structured_tet_mesh(
        1 + size % 3, 1 + size % 2, 1 + size // 6),
    # node 3 of every triangle list is in no element
    "orphan-node": lambda size, seed: TriMesh(
        points=np.array([[0., 0.], [1., 0.], [0., 1.], [5., 5.], [1., 1.]]),
        triangles=np.array([[0, 1, 2], [1, 4, 2]])),
}


def _elem_ranks(mesh, how, nparts, seed):
    nparts = min(nparts, len(mesh.elements))
    if how == "random":     # ties at most nodes
        return np.random.default_rng(seed).integers(
            0, nparts, size=len(mesh.elements))
    ranks = partition_elements(mesh, nparts, method="rcb")
    if how == "empty-rank":
        ranks = ranks + (ranks >= nparts // 2)   # nobody holds nparts // 2
    return ranks


class TestNodeOwners:
    @settings(max_examples=60, deadline=None)
    @given(kind=st.sampled_from(sorted(_MESH_MAKERS)),
           size=st.integers(0, 12), seed=st.integers(0, 2 ** 16),
           how=st.sampled_from(["rcb", "random", "empty-rank"]),
           nparts=st.integers(1, 9))
    def test_equals_reference_loop(self, kind, size, seed, how, nparts):
        mesh = _MESH_MAKERS[kind](size, seed)
        ranks = _elem_ranks(mesh, how, nparts, seed)
        np.testing.assert_array_equal(
            _node_owners(mesh, ranks), _node_owners_reference(mesh, ranks))

    def test_orphan_node_keeps_owner_zero(self):
        mesh = _MESH_MAKERS["orphan-node"](0, 0)
        assert _node_owners(mesh, np.array([1, 1]))[3] == 0

    def test_interface_nodes_equal_reference_loop_on_a3_mesh(self):
        mesh = random_delaunay_mesh(2000, seed=77)
        for method, want in (("rcb", 231), ("greedy", None)):
            ranks = partition_elements(mesh, 8, method=method)
            got = measure_partition(mesh, ranks).interface_nodes
            assert got == _interface_nodes_reference(mesh, ranks)
            assert want is None or got == want   # EXPERIMENTS.md, A3


def _digest(*arrays):
    h = hashlib.sha256()
    for a in arrays:
        a = np.ascontiguousarray(a)
        h.update(f"{a.dtype.str}{a.shape}".encode())
        h.update(a.tobytes())
    return h.hexdigest()


def _partition_digest(part):
    arrays = [part.owners[e] for e in sorted(part.owners)]
    for sub in part.subs:
        for entity in sorted(sub.l2g):
            arrays += [sub.l2g[entity], np.int64(sub.kernel_count[entity])]
        arrays.append(sub.elements)
        if sub.edges is not None:
            arrays.append(sub.edges)
    return _digest(*arrays)


_GOLDEN = json.loads(
    (Path(__file__).parent / "golden_partitions.json").read_text())
_GOLDEN_MESHES = {
    "structured-2d": lambda: structured_tri_mesh(12, 12),
    "delaunay-2d": lambda: random_delaunay_mesh(600, seed=5),
    "structured-3d": lambda: structured_tet_mesh(4, 4, 3),
}


class TestGoldenPartitions:
    """Byte-equality with the partitions of the commit before the loops
    of mesh set-up became array programs (``golden_partitions.json``)."""

    @pytest.fixture(scope="class", params=sorted(_GOLDEN_MESHES))
    def named_mesh(self, request):
        return request.param, _GOLDEN_MESHES[request.param]()

    def test_rcb_ranks(self, named_mesh):
        name, mesh = named_mesh
        for nparts in (3, 7, 32):
            ranks = partition_elements(mesh, nparts, method="rcb")
            assert _digest(ranks) == _GOLDEN["rcb"][f"{name}/{nparts}"]

    def test_both_rcb_sort_paths_are_taken(self, named_mesh):
        # tied centroid coordinates force the stable sort; distinct ones
        # never do — the goldens above cover one path each
        name, mesh = named_mesh
        cent = mesh.points[mesh.elements].mean(axis=1)
        tied = len(np.unique(cent[:, 0])) < len(cent)
        assert tied == name.startswith("structured")

    def test_partitions(self, named_mesh):
        name, mesh = named_mesh
        keys = [k for k in _GOLDEN["partition"] if k.startswith(name + "/")]
        assert len(keys) == (3 if name.endswith("3d") else 9)
        for key in keys:
            _name, pattern, nparts = key.split("/")
            part = build_partition(mesh, int(nparts), pattern)
            part.check_invariants()
            assert _partition_digest(part) == _GOLDEN["partition"][key], key

    def test_1024_ranks_of_the_40000_node_mesh(self):
        part = build_partition(random_delaunay_mesh(40000, seed=1), 1024,
                               "overlap-elements-2d")
        part.check_invariants()
        assert part.kernel_sizes("node").sum() == 40000


class TestInvariantViolations:
    """One hand-made violation per ``check_invariants`` clause."""

    @staticmethod
    def _part(pattern="overlap-elements-2d"):
        part = build_partition(structured_tri_mesh(6, 6), 4, pattern)
        part.check_invariants()
        return part

    def test_kernel_node_claimed_twice(self):
        part = self._part()
        a, b = part.subs[0], part.subs[1]
        b.l2g["node"][0] = a.l2g["node"][0]
        with pytest.raises(MeshError,
                           match="kernels do not partition 'node's"):
            part.check_invariants()

    @pytest.mark.parametrize("bad", [-1, 10 ** 6])
    def test_kernel_id_out_of_range(self, bad):
        part = self._part()
        part.subs[2].l2g["triangle"][0] = bad
        with pytest.raises(MeshError,
                           match="kernels do not partition 'triangle's"):
            part.check_invariants()

    def test_overlap_element_dropped(self):
        part = self._part()
        sub = part.subs[1]
        assert len(sub.l2g["triangle"]) > sub.kernel_count["triangle"]
        dropped = int(sub.l2g["triangle"][-1])
        sub.l2g["triangle"] = sub.l2g["triangle"][:-1]
        sub.elements = sub.elements[:-1]
        with pytest.raises(MeshError, match="is not local") as err:
            part.check_invariants()
        # the message names a true violation: a kernel node of that rank
        # on the dropped element
        rank, e, node = map(int, re.findall(r"\d+", str(err.value)))
        assert (rank, e) == (sub.rank, dropped)
        assert node in part.mesh.elements[e]
        assert node in sub.l2g["node"][:sub.kernel_count["node"]]

    def test_shared_node_pattern_has_no_scatter_clause(self):
        # every shared-node partition has what clause 2 forbids — kernel
        # nodes with an element held elsewhere — and passes: it relies on
        # the combine communication instead
        part = self._part("shared-nodes-2d")
        sub = part.subs[0]
        kernel = sub.l2g["node"][:sub.kernel_count["node"]]
        touching = np.isin(part.mesh.elements, kernel).any(axis=1)
        assert (part.elem_ranks[touching] != sub.rank).any()
        part.check_invariants()

    def test_swapped_connectivity_entry(self):
        part = self._part()
        row = part.subs[3].elements[0]
        spare = next(n for n in range(len(part.subs[3].l2g["node"]))
                     if n not in row)
        row[1] = spare
        with pytest.raises(MeshError,
                           match="rank 3: local connectivity broken"):
            part.check_invariants()


class TestHostileElemRanks:
    """``elem_ranks`` that cannot be placed end in ``MeshError`` — directly
    and through ``RebalancePolicy(plans=...)`` — not in a partition that
    silently drops elements."""

    MESH = structured_tri_mesh(6, 6)

    @staticmethod
    def _hostile(kind, mesh):
        ranks = partition_elements(mesh, 4)
        if kind == "too-large":
            ranks[5] = 7
            return ranks, 4, r"elem_ranks\[5\] = 7"
        if kind == "negative":
            ranks[11] = -1
            return ranks, 4, r"elem_ranks\[11\] = -1"
        if kind == "made-for-more-parts":
            first = int(np.flatnonzero(ranks >= 2)[0])
            return ranks, 2, rf"elem_ranks\[{first}\] = {ranks[first]}"
        assert kind == "fractional"
        return ranks + 0.5, 4, r"elem_ranks\[0\] = 0\.5"

    KINDS = ["too-large", "negative", "made-for-more-parts", "fractional"]

    @pytest.mark.parametrize("kind", KINDS)
    def test_build_partition_rejects(self, kind):
        ranks, nparts, message = self._hostile(kind, self.MESH)
        with pytest.raises(MeshError, match=message):
            build_partition(self.MESH, nparts, "overlap-elements-2d",
                            elem_ranks=ranks)

    @pytest.mark.parametrize("kind", KINDS)
    def test_rebalance_plan_rejects(self, kind):
        ranks, nparts, message = self._hostile(kind, self.MESH)
        part = build_partition(self.MESH, nparts, "overlap-elements-2d")
        policy = RebalancePolicy(rebalance_at=(3,), plans={3: ranks})
        with pytest.raises(MeshError, match=message):
            policy.target(part, event=3)

    def test_integral_floats_and_an_empty_rank_stay_legal(self):
        ranks = partition_elements(self.MESH, 4)
        ranks[ranks == 2] = 3
        part = build_partition(self.MESH, 4, "overlap-elements-2d",
                               elem_ranks=ranks.astype(np.float64))
        part.check_invariants()
        assert part.elem_ranks.dtype == np.int64
        assert part.kernel_sizes().tolist()[2] == 0
