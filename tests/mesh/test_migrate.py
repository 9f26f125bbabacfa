"""Unit tests for data migration between partitions (paper section 5.3)."""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.errors import MeshError
from repro.lang.vectorize import Slab
from repro.mesh import (
    HaloSchedule,
    Migration,
    build_halo_schedule,
    build_partition,
    moved_entity_gids,
    random_delaunay_mesh,
    repartition,
    schedule_dirty_ranks,
    structured_tri_mesh,
)
from repro.runtime import SimComm
from repro.spec import spec_for_testiv
from tests.halo_views import plans
from tests.mesh import reference_migrate


@pytest.fixture(scope="module")
def mesh():
    return random_delaunay_mesh(200, seed=6)


@pytest.fixture(scope="module")
def partitions(mesh):
    old = build_partition(mesh, 4, "overlap-elements-2d", method="rcb")
    new = build_partition(mesh, 4, "overlap-elements-2d", method="greedy")
    return old, new


def _slab(values, rows=None):
    """An all-ranks slab holding each rank's values, zero padded to
    ``rows[r]`` rows (default: no padding)."""
    rows = rows or [len(v) for v in values]
    slab = Slab.zeros(rows, values[0].shape[1:], values[0].dtype)
    for view, vals in zip(slab.views, values):
        view[:len(vals)] = vals
    return slab


def _migrate(values, old, new, entity):
    """A :class:`Migration` of the ranks' values over a fresh communicator,
    checked drained; returns the new slab's per-rank views."""
    comm = SimComm(old.nparts)
    out = Migration(old, new, entity).move(_slab(values), comm)
    comm.assert_drained()
    return list(out.views)


class TestSchedule:
    def test_send_recv_symmetric(self, partitions):
        old, new = partitions
        sched = Migration(old, new, "node").schedule
        sends, recvs = plans(sched.send), plans(sched.recv)
        for r, plan in enumerate(sends):
            for dest, idx in plan.items():
                assert len(idx) == len(recvs[dest][r])

    def test_moves_exist_between_different_partitions(self, partitions):
        old, new = partitions
        sched = Migration(old, new, "node").schedule
        assert sched.message_count() > 0
        assert sched.volume() > 0

    def test_identity_migration_is_free(self, mesh):
        part = build_partition(mesh, 3, "overlap-elements-2d")
        sched = Migration(part, part, "node").schedule
        # owners never ship to themselves; only overlap copies move
        assert (sched.send.srcs != sched.send.dsts).all()
        # ... which makes it the overlap update's schedule, table for table
        halo = build_halo_schedule(part, "node")
        for mig_side, halo_side in ((sched.owner, halo.owner),
                                    (sched.holder, halo.holder)):
            for col in ("rank", "peer", "words", "starts", "counts"):
                np.testing.assert_array_equal(getattr(mig_side, col),
                                              getattr(halo_side, col))
            for a, b in zip(mig_side.idx, halo_side.idx):
                np.testing.assert_array_equal(a, b)

    def test_rank_count_change_rejected(self, mesh):
        a = build_partition(mesh, 3, "overlap-elements-2d")
        b = build_partition(mesh, 4, "overlap-elements-2d")
        with pytest.raises(MeshError, match="rank count"):
            Migration(a, b, "node")


class TestSameMeshCheck:
    """Regression: migration accepts any two partitions of the same mesh.

    The old ``_check_same_mesh`` compared mesh object identity plus one
    entity count, which rejected a structurally identical mesh rebuilt
    by online repartitioning and silently accepted genuinely different
    meshes with coincidentally equal counts.  These pin the fixed
    behavior and the exact diagnostics.
    """

    def test_structurally_identical_mesh_objects_accepted(self):
        # two independent builds of the same structured mesh: distinct
        # objects, identical connectivity — must migrate cleanly
        a = build_partition(structured_tri_mesh(5, 4),
                            3, "overlap-elements-2d", method="rcb")
        b = build_partition(structured_tri_mesh(5, 4),
                            3, "overlap-elements-2d", method="greedy")
        assert a.mesh is not b.mesh
        sched = Migration(a, b, "node").schedule
        assert isinstance(sched, HaloSchedule)

    def test_rank_count_change_message_is_exact(self):
        mesh = structured_tri_mesh(4, 4)
        a = build_partition(mesh, 3, "overlap-elements-2d")
        b = build_partition(mesh, 4, "overlap-elements-2d")
        with pytest.raises(MeshError) as err:
            Migration(a, b, "node")
        assert str(err.value) == ("rank count changed (3 -> 4); "
                                  "migration requires a fixed communicator")

    def test_entity_count_mismatch_message_is_exact(self):
        a = build_partition(structured_tri_mesh(3, 3),
                            2, "overlap-elements-2d")
        b = build_partition(structured_tri_mesh(4, 4),
                            2, "overlap-elements-2d")
        with pytest.raises(MeshError) as err:
            Migration(a, b, "node")
        assert str(err.value) == ("partitions describe different meshes: "
                                  "16 vs 25 node(s)")

    def test_connectivity_mismatch_message_is_exact(self):
        # same node and triangle counts, different element connectivity
        ma, mb = structured_tri_mesh(3, 2), structured_tri_mesh(2, 3)
        assert ma.n_nodes == mb.n_nodes
        assert ma.n_triangles == mb.n_triangles
        assert not np.array_equal(ma.elements, mb.elements)
        a = build_partition(ma, 2, "overlap-elements-2d")
        b = build_partition(mb, 2, "overlap-elements-2d")
        with pytest.raises(MeshError) as err:
            Migration(a, b, "node")
        assert str(err.value) == ("partitions describe different meshes: "
                                  "element connectivity differs")


class TestMigrate:
    def test_values_land_authoritatively(self, mesh, partitions):
        old, new = partitions
        rng = np.random.default_rng(8)
        glob = rng.standard_normal(mesh.n_nodes)
        values = [sub.localize("node", glob).astype(float)
                  for sub in old.subs]
        moved = _migrate(values, old, new, "node")
        for sub, arr in zip(new.subs, moved):
            np.testing.assert_array_equal(arr, glob[sub.l2g["node"]])

    def test_overlap_copies_fresh_after_migration(self, mesh, partitions):
        """Migration ships owner values, so new overlaps need no halo pass."""
        old, new = partitions
        glob = np.arange(mesh.n_nodes, dtype=float)
        values = [sub.localize("node", glob).astype(float)
                  for sub in old.subs]
        # corrupt the OLD overlap copies: they must not leak through
        for sub, arr in zip(old.subs, values):
            arr[sub.kernel_count["node"]:] = -1e9
        moved = _migrate(values, old, new, "node")
        for sub, arr in zip(new.subs, moved):
            np.testing.assert_array_equal(arr, glob[sub.l2g["node"]])

    def test_through_simmpi_with_accounting(self, mesh, partitions):
        old, new = partitions
        glob = np.linspace(0, 1, mesh.n_nodes)
        values = [sub.localize("node", glob).astype(float)
                  for sub in old.subs]
        comm = SimComm(old.nparts)
        moved = Migration(old, new, "node").move(_slab(values), comm).views
        comm.assert_drained()
        assert comm.stats.total_messages() > 0
        for sub, arr in zip(new.subs, moved):
            np.testing.assert_array_equal(arr, glob[sub.l2g["node"]])

    def test_element_values_migrate_too(self, mesh, partitions):
        old, new = partitions
        glob = np.arange(mesh.n_triangles, dtype=float) * 0.5
        values = [sub.localize("triangle", glob).astype(float)
                  for sub in old.subs]
        moved = _migrate(values, old, new, "triangle")
        for sub, arr in zip(new.subs, moved):
            np.testing.assert_array_equal(arr, glob[sub.l2g["triangle"]])

    def test_2d_payloads(self, mesh, partitions):
        old, new = partitions
        glob = np.stack([np.arange(mesh.n_nodes, dtype=float),
                         np.arange(mesh.n_nodes, dtype=float) ** 2], axis=1)
        values = [glob[sub.l2g["node"]].copy() for sub in old.subs]
        moved = _migrate(values, old, new, "node")
        for sub, arr in zip(new.subs, moved):
            np.testing.assert_array_equal(arr, glob[sub.l2g["node"]])

    @pytest.mark.parametrize("kind", ["float", "int", "2d"])
    def test_one_wave_carries_the_schedule(self, partitions, kind):
        """The wire sees exactly the schedule's messages, and the values
        land where a direct owner-slot copy puts them."""
        old, new = partitions
        rng = np.random.default_rng(3)
        n = old.mesh.n_nodes
        glob = {"float": rng.standard_normal(n),
                "int": rng.integers(-50, 50, n),
                "2d": rng.standard_normal((n, 3))}[kind]
        # old overlap copies hold junk: only kernel slots are read
        values = []
        for sub in old.subs:
            arr = glob[sub.l2g["node"]].copy()
            arr[sub.kernel_count["node"]:] = -7
            values.append(arr)
        move = Migration(old, new, "node")
        sched = move.schedule
        comm = SimComm(old.nparts)
        moved = move.move(_slab(values), comm).views
        comm.assert_drained()
        # a fabric word is one array element: a 2-D row is ``width`` words
        width = glob[0].size
        assert comm.stats.total_messages() == sched.message_count()
        assert comm.stats.total_words() == sched.volume() * width
        packing = old.packing("node")
        for sub, arr in zip(new.subs, moved):
            owner, slot = packing.space.unpack(packing.pack(sub.l2g["node"]))
            direct = np.array([values[o][s] for o, s in
                               zip(owner.tolist(), slot.tolist())])
            assert arr.dtype == values[sub.rank].dtype
            np.testing.assert_array_equal(arr, direct.reshape(arr.shape))


class TestResume:
    def test_solver_resumes_after_rebalancing(self):
        """Phase 1 on partition A, migrate, phase 2 on partition B: the
        combined run equals one sequential run — and the *placement* used
        in phase 2 is the same object as in phase 1 (paper §5.3: "the
        placement of synchronizations needs not change")."""
        from repro.corpus import HEAT_SOURCE
        from repro.driver import build_global_env, run_sequential
        from repro.placement import enumerate_placements
        from repro.runtime import SPMDExecutor
        from repro.spec import PartitionSpec

        mesh = structured_tri_mesh(8, 8)
        spec = PartitionSpec.parse(
            "pattern overlap-elements-2d\nextent node nsom\n"
            "extent triangle ntri\nindexmap som triangle node\n"
            "array u0 node\narray u1 node\narray u node\narray rhs node\n"
            "array mass node\narray area triangle\n")
        placements = enumerate_placements(HEAT_SOURCE, spec)
        placement = placements.best().placement
        rng = np.random.default_rng(10)
        u0 = rng.standard_normal(mesh.n_nodes)
        fields = {"u0": u0, "area": mesh.triangle_areas,
                  "mass": mesh.node_areas}

        part_a = build_partition(mesh, 4, spec.pattern, method="rcb")
        part_b = build_partition(mesh, 4, spec.pattern, method="greedy")

        # phase 1: 3 steps on partition A
        ex_a = SPMDExecutor(placements.sub, spec, placement, part_a)
        res_a = ex_a.run({**fields, "dt": 0.05, "nstep": 3})
        # migrate the state (gathered kernel values live in u1)
        u_mid = [env["u1"][:len(sub.l2g["node"])]
                 for env, sub in zip(res_a.envs, part_a.subs)]
        moved = _migrate(u_mid, part_a, part_b, "node")
        # phase 2: 3 more steps on partition B, same placement object
        u_mid_global = np.zeros(mesh.n_nodes)
        for sub, arr in zip(part_b.subs, moved):
            kern = sub.kernel_count["node"]
            u_mid_global[sub.l2g["node"][:kern]] = arr[:kern]
        ex_b = SPMDExecutor(placements.sub, spec, placement, part_b)
        res_b = ex_b.run({"u0": u_mid_global, "area": mesh.triangle_areas,
                          "mass": mesh.node_areas, "dt": 0.05, "nstep": 3})

        # one sequential run of 6 steps
        env = build_global_env(placements.sub, spec, mesh, fields,
                               {"dt": 0.05, "nstep": 6})
        run_sequential(placements.sub, env)
        np.testing.assert_allclose(res_b.gather("u1"),
                                   env["u1"][:mesh.n_nodes],
                                   rtol=1e-9, atol=1e-11)


# -- which ranks a migration disturbs ---------------------------------------

_pattern = spec_for_testiv().pattern


def _perturbed_ranks(partition, seed, frac):
    """Reassign a random ``frac`` of elements to random ranks.

    Keeps every rank non-empty (migration requires a fixed
    communicator), so the result is always a legal repartition target.
    """
    rng = np.random.default_rng(seed)
    er = partition.elem_ranks.copy()
    k = max(1, int(len(er) * frac))
    picks = rng.choice(len(er), size=min(k, len(er)), replace=False)
    er[picks] = rng.integers(0, partition.nparts, size=len(picks))
    counts = np.bincount(er, minlength=partition.nparts)
    for r in np.flatnonzero(counts == 0):
        donor = int(np.argmax(np.bincount(er,
                                          minlength=partition.nparts)))
        er[np.flatnonzero(er == donor)[0]] = r
    return er


@settings(max_examples=15, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.tuples(st.integers(3, 7), st.integers(3, 7)), st.integers(2, 6),
       st.sampled_from(["node", "triangle"]),
       st.integers(0, 2 ** 31 - 1),
       st.sampled_from([0.05, 0.2, 0.6]))
def test_clean_ranks_have_identical_profiles(dims, nparts, entity, seed,
                                             frac):
    """Ranks outside the dirty set really are untouched: their holder
    rows and index block are bit-equal in fresh builds of the old and
    the new partition's schedules."""
    mesh = structured_tri_mesh(*dims)
    old = build_partition(mesh, min(nparts, mesh.n_triangles), _pattern,
                          method="rcb")
    new = repartition(old, _perturbed_ranks(old, seed, frac))
    moved = moved_entity_gids(old, new, entity)
    dirty = set(schedule_dirty_ranks(old, new, entity, moved).tolist())
    before = build_halo_schedule(old, entity).holder
    after = build_halo_schedule(new, entity).holder
    for rank in set(range(old.nparts)) - dirty:
        rows_b, rows_a = before.for_rank(rank), after.for_rank(rank)
        for col in ("rank", "peer", "words", "counts"):
            np.testing.assert_array_equal(getattr(rows_b, col),
                                          getattr(rows_a, col))
        np.testing.assert_array_equal(before.idx[rank], after.idx[rank])


@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.tuples(st.integers(3, 7), st.integers(3, 7)), st.integers(2, 5),
       st.sampled_from(["node", "triangle"]),
       st.sampled_from(["float", "int", "2d"]),
       st.integers(0, 2 ** 31 - 1), st.integers(0, 3), st.integers(0, 40))
def test_slab_migration_equals_the_per_rank_reference(dims, nparts, entity,
                                                      kind, seed, pad,
                                                      extent):
    """Slab to slab, on a random repartition, with padded rows on both
    sides: the rows the reference fills are bit-equal, the padding is
    zero, and the wire carries the same messages and words."""
    mesh = structured_tri_mesh(*dims)
    old = build_partition(mesh, min(nparts, mesh.n_triangles), _pattern,
                          method="rcb")
    new = repartition(old, _perturbed_ranks(old, seed, 0.3))
    rng = np.random.default_rng(seed)
    n = mesh.entity_count(entity)
    glob = {"float": rng.standard_normal(n),
            "int": rng.integers(-50, 50, n),
            "2d": rng.standard_normal((n, 2))}[kind]
    values = []
    for sub in old.subs:
        arr = glob[sub.l2g[entity]].copy()
        arr[sub.kernel_count[entity]:] = -7   # stale overlap copies
        values.append(arr)
    old_rows = [len(v) + pad for v in values]
    new_rows = [max(extent, len(sub.l2g[entity])) for sub in new.subs]
    comm, ref_comm = SimComm(old.nparts), SimComm(old.nparts)
    out = Migration(old, new, entity).move(_slab(values, old_rows), comm,
                                           extent=extent)
    want = reference_migrate.migrate(values, old, new, entity, ref_comm)
    comm.assert_drained()
    assert out.rows == tuple(new_rows) and out.flat.dtype == glob.dtype
    for view, ref in zip(out.views, want):
        assert view[:len(ref)].tobytes() == ref.tobytes()
        assert not view[len(ref):].any()
    assert comm.stats.total_messages() == ref_comm.stats.total_messages()
    assert comm.stats.total_words() == ref_comm.stats.total_words()
