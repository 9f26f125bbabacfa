"""Unit tests for the SPMD executor."""

import numpy as np
import pytest

from repro.corpus import TESTIV_SOURCE
from repro.errors import RuntimeFault
from repro.lang import parse_subroutine
from repro.mesh import build_partition, structured_tri_mesh
from repro.placement import enumerate_placements
from repro.placement.comms import CommOp, K_COMBINE, K_OVERLAP
from repro.runtime import SPMDExecutor
from repro.spec import spec_for_testiv


@pytest.fixture(scope="module")
def setup():
    mesh = structured_tri_mesh(6, 6)
    spec = spec_for_testiv()
    placements = enumerate_placements(TESTIV_SOURCE, spec)
    partition = build_partition(mesh, 3, spec.pattern)
    return mesh, spec, placements, partition


def inputs_for(mesh, seed=0):
    rng = np.random.default_rng(seed)
    return {
        "init": rng.standard_normal(mesh.n_nodes),
        "airetri": mesh.triangle_areas,
        "airesom": mesh.node_areas,
        "epsilon": 1e-8,
        "maxloop": 5,
    }


class TestEnvConstruction:
    def test_extent_vars_are_local(self, setup):
        mesh, spec, placements, partition = setup
        ex = SPMDExecutor(placements.sub, spec,
                          placements.best().placement, partition)
        env = ex._rank_envs(inputs_for(mesh))[0][0]
        kern, total = partition.subs[0].counts("node")
        assert env["nsom"] == total
        assert env["ntri"] == len(partition.subs[0].l2g["triangle"])

    def test_index_map_localized_one_based(self, setup):
        mesh, spec, placements, partition = setup
        ex = SPMDExecutor(placements.sub, spec,
                          placements.best().placement, partition)
        sub0 = partition.subs[0]
        env = ex._rank_envs(inputs_for(mesh))[0][0]
        som = env["som"]
        n_loc = len(sub0.l2g["triangle"])
        assert som[:n_loc].min() >= 1
        assert som[:n_loc].max() <= len(sub0.l2g["node"])
        # local connectivity maps back to the global triangles
        back = sub0.l2g["node"][som[:n_loc] - 1]
        glob = mesh.triangles[sub0.l2g["triangle"]]
        assert (np.sort(back, axis=1) == np.sort(glob, axis=1)).all()

    def test_index_maps_of_all_ranks_share_one_zero_padded_buffer(
            self, setup):
        mesh, spec, placements, partition = setup
        ex = SPMDExecutor(placements.sub, spec,
                          placements.best().placement, partition)
        res = ex.run(inputs_for(mesh))
        soms = [env["som"] for env in res.envs]
        declared = placements.sub.decls["som"].dims
        for som, sub in zip(soms, partition.subs):
            n_loc = len(sub.l2g["triangle"])
            assert som.shape == (max(declared[0], n_loc), declared[1])
            assert som.dtype == np.int64 and som.flags.writeable
            assert not som[n_loc:].any()          # padding reads as zeros
            np.testing.assert_array_equal(som[:n_loc], sub.elements + 1)
        # consecutive rank segments of one buffer, as every array's
        for a, b in zip(soms, soms[1:]):
            assert a.base is b.base
            assert (b.__array_interface__["data"][0]
                    - a.__array_interface__["data"][0]) == a.nbytes
        # a copy (what a checkpoint takes) is an ordinary array
        assert soms[0].copy().flags.owndata

    def test_field_localization(self, setup):
        mesh, spec, placements, partition = setup
        ex = SPMDExecutor(placements.sub, spec,
                          placements.best().placement, partition)
        vals = inputs_for(mesh)
        env = ex._rank_envs(vals)[0][1]
        sub1 = partition.subs[1]
        n_loc = len(sub1.l2g["node"])
        np.testing.assert_array_equal(env["init"][:n_loc],
                                      vals["init"][sub1.l2g["node"]])

    def test_scalars_copied(self, setup):
        mesh, spec, placements, partition = setup
        ex = SPMDExecutor(placements.sub, spec,
                          placements.best().placement, partition)
        env = ex._rank_envs(inputs_for(mesh))[0][0]
        assert env["epsilon"] == 1e-8 and env["maxloop"] == 5

    def test_pattern_mismatch_rejected(self, setup):
        mesh, spec, placements, partition = setup
        other = build_partition(mesh, 3, "shared-nodes-2d")
        with pytest.raises(RuntimeFault, match="pattern"):
            SPMDExecutor(placements.sub, spec,
                         placements.best().placement, other)


class TestScheduleCache:
    def test_one_schedule_per_entity_for_both_kinds(self, setup):
        """An overlap and a combine on one entity share one cached
        schedule, and a recovering rank's rows share its index arrays."""
        _mesh, spec, placements, partition = setup
        ex = SPMDExecutor(placements.sub, spec,
                          placements.best().placement, partition)
        overlap = CommOp(0, 0, K_OVERLAP, "old", "overlap-som",
                         entity="node")
        combine = CommOp(0, 0, K_COMBINE, "new", "combine-som",
                         entity="node", op="+")
        sched = ex._schedule(overlap)
        assert ex._schedule(combine) is sched
        assert list(ex._scheds) == ["node"]
        for r in range(partition.nparts):
            rows = ex._schedule(combine, rank=r)
            assert rows.holder.idx[r] is sched.holder.idx[r]
            assert rows.owner.idx[r] is sched.owner.idx[r]
            assert set(rows.holder.rank.tolist()) <= {r}
            assert set(rows.owner.rank.tolist()) <= {r}
        assert ex._schedule(overlap) is sched  # for_rank did not evict it


class TestExecution:
    def test_runs_and_gathers(self, setup):
        mesh, spec, placements, partition = setup
        ex = SPMDExecutor(placements.sub, spec,
                          placements.best().placement, partition)
        res = ex.run(inputs_for(mesh))
        out = res.gather("result")
        assert out.shape == (mesh.n_nodes,)
        assert np.isfinite(out).all()

    def test_all_ranks_agree_on_loop_count(self, setup):
        mesh, spec, placements, partition = setup
        ex = SPMDExecutor(placements.sub, spec,
                          placements.best().placement, partition)
        res = ex.run(inputs_for(mesh))
        loops = {env["loop"] for env in res.envs}
        assert len(loops) == 1  # replicated control flow

    def test_scalar_gather(self, setup):
        mesh, spec, placements, partition = setup
        ex = SPMDExecutor(placements.sub, spec,
                          placements.best().placement, partition)
        res = ex.run(inputs_for(mesh))
        assert res.gather("sqrdiff") == res.envs[0]["sqrdiff"]

    def test_traffic_recorded(self, setup):
        mesh, spec, placements, partition = setup
        ex = SPMDExecutor(placements.sub, spec,
                          placements.best().placement, partition)
        res = ex.run(inputs_for(mesh))
        assert res.stats.total_messages() > 0
        assert res.stats.collectives

    def test_single_rank_run(self, setup):
        mesh, spec, placements, _ = setup
        part1 = build_partition(mesh, 1, spec.pattern)
        ex = SPMDExecutor(placements.sub, spec,
                          placements.best().placement, part1)
        res = ex.run(inputs_for(mesh))
        assert res.stats.total_messages() == 0
        assert np.isfinite(res.gather("result")).all()

    def test_more_ranks(self, setup):
        mesh, spec, placements, _ = setup
        part8 = build_partition(mesh, 8, spec.pattern)
        ex = SPMDExecutor(placements.sub, spec,
                          placements.best().placement, part8)
        res = ex.run(inputs_for(mesh))
        assert len(res.envs) == 8
