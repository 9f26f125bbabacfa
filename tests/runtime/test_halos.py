"""Unit tests for halo collectives and the performance model."""

import numpy as np
import pytest

from repro.errors import RuntimeFault
from repro.mesh import (
    build_combine_schedule,
    build_overlap_schedule,
    build_partition,
    structured_tri_mesh,
)
from repro.runtime import (
    MachineModel,
    SimComm,
    allreduce_scalar,
    combine_complete,
    combine_post,
    combine_update,
    overlap_complete,
    overlap_post,
    overlap_update,
    parallel_time,
    sequential_time,
)
from tests.halo_views import halo_schedule


@pytest.fixture(scope="module")
def fig1_part():
    return build_partition(structured_tri_mesh(6, 6), 3,
                           "overlap-elements-2d")


@pytest.fixture(scope="module")
def fig2_part():
    return build_partition(structured_tri_mesh(6, 6), 3, "shared-nodes-2d")


class TestOverlapUpdate:
    def test_repairs_stale_overlap(self, fig1_part):
        part = fig1_part
        glob = np.linspace(0.0, 1.0, part.mesh.n_nodes)
        envs = []
        for sub in part.subs:
            arr = sub.localize("node", glob).astype(float).copy()
            arr[sub.kernel_count["node"]:] = np.nan
            envs.append({"v": arr})
        comm = SimComm(part.nparts)
        overlap_update(comm, envs, "v",
                       build_overlap_schedule(part, "node"))
        comm.assert_drained()
        for sub, env in zip(part.subs, envs):
            np.testing.assert_array_equal(env["v"], glob[sub.l2g["node"]])

    def test_idempotent(self, fig1_part):
        part = fig1_part
        glob = np.arange(part.mesh.n_nodes, dtype=float)
        envs = [{"v": sub.localize("node", glob).astype(float).copy()}
                for sub in part.subs]
        sched = build_overlap_schedule(part, "node")
        comm = SimComm(part.nparts)
        overlap_update(comm, envs, "v", sched)
        snapshot = [env["v"].copy() for env in envs]
        overlap_update(comm, envs, "v", sched)
        for env, snap in zip(envs, snapshot):
            np.testing.assert_array_equal(env["v"], snap)

    def test_collective_logged(self, fig1_part):
        part = fig1_part
        envs = [{"v": np.zeros(len(sub.l2g["node"]))} for sub in part.subs]
        comm = SimComm(part.nparts)
        overlap_update(comm, envs, "v",
                       build_overlap_schedule(part, "node"), label="v")
        assert len(comm.stats.collectives) == 1
        label, msgs, words = comm.stats.collectives[0]
        assert label == "overlap:v"
        assert sum(msgs) > 0 and sum(words) > 0


class TestCombineUpdate:
    def test_assembles_partials(self, fig2_part):
        part = fig2_part
        envs = []
        for sub in part.subs:
            acc = np.zeros(len(sub.l2g["node"]))
            np.add.at(acc, sub.elements.ravel(), 1.0)
            envs.append({"v": acc})
        comm = SimComm(part.nparts)
        combine_update(comm, envs, "v",
                       build_combine_schedule(part, "node"))
        comm.assert_drained()
        degree = np.zeros(part.mesh.n_nodes)
        np.add.at(degree, part.mesh.triangles.ravel(), 1.0)
        for sub, env in zip(part.subs, envs):
            np.testing.assert_array_equal(env["v"], degree[sub.l2g["node"]])

    def test_unknown_op_rejected(self, fig2_part):
        comm = SimComm(fig2_part.nparts)
        with pytest.raises(RuntimeFault, match="unknown combine"):
            combine_update(comm, [], "v",
                           build_combine_schedule(fig2_part, "node"),
                           op="xor")


class TestAllreduce:
    def test_sum(self):
        comm = SimComm(4)
        envs = [{"s": float(r + 1)} for r in range(4)]
        allreduce_scalar(comm, envs, "s", op="+")
        assert all(env["s"] == 10.0 for env in envs)
        comm.assert_drained()

    def test_max_and_min(self):
        for op, expect in (("max", 7.0), ("min", -2.0)):
            comm = SimComm(3)
            envs = [{"s": v} for v in (3.0, 7.0, -2.0)]
            allreduce_scalar(comm, envs, "s", op=op)
            assert all(env["s"] == expect for env in envs)

    def test_product(self):
        comm = SimComm(3)
        envs = [{"s": v} for v in (2.0, 3.0, 4.0)]
        allreduce_scalar(comm, envs, "s", op="*")
        assert all(env["s"] == 24.0 for env in envs)

    def test_deterministic_tree_order(self):
        # binomial tree on 3 ranks combines as (a + b) + c exactly
        vals = (0.1, 0.2, 0.3)
        comm = SimComm(3)
        envs = [{"s": v} for v in vals]
        allreduce_scalar(comm, envs, "s", op="+")
        assert envs[0]["s"] == (vals[0] + vals[1]) + vals[2]
        # and identically on a repeat run
        comm2 = SimComm(3)
        envs2 = [{"s": v} for v in vals]
        allreduce_scalar(comm2, envs2, "s", op="+")
        assert envs2[0]["s"] == envs[0]["s"]

    def test_log_p_message_scaling(self):
        # the busiest rank exchanges O(log2 P) messages, not O(P)
        comm = SimComm(32)
        envs = [{"s": 1.0} for _ in range(32)]
        allreduce_scalar(comm, envs, "s", op="+")
        _label, msgs, _words = comm.stats.collectives[0]
        assert max(msgs) <= 2 * 5 + 2  # ~2 log2(32)
        assert all(env["s"] == 32.0 for env in envs)

    def test_single_rank(self):
        comm = SimComm(1)
        envs = [{"s": 5.0}]
        allreduce_scalar(comm, envs, "s", op="+")
        assert envs[0]["s"] == 5.0

    def test_unknown_op_rejected(self):
        with pytest.raises(RuntimeFault, match="unknown reduction"):
            allreduce_scalar(SimComm(2), [{"s": 1}, {"s": 2}], "s", op="avg")


class TestPerfModel:
    def test_sequential_time(self):
        m = MachineModel(t_step=1e-6)
        assert sequential_time(1000, m) == pytest.approx(1e-3)

    def test_parallel_time_components(self):
        comm = SimComm(2)
        envs = [{"s": 1.0}, {"s": 2.0}]
        allreduce_scalar(comm, envs, "s")
        m = MachineModel(t_step=1e-6, alpha=1e-4, beta=1e-5)
        t = parallel_time([500, 400], comm.stats, m)
        assert t.compute == pytest.approx(500e-6)
        assert t.comm_latency > 0
        assert t.total == pytest.approx(
            t.compute + t.comm_latency + t.comm_volume)

    def test_speedup(self):
        m = MachineModel()
        comm = SimComm(4)
        t = parallel_time([100, 100, 100, 100], comm.stats, m)
        assert t.speedup_over(sequential_time(400, m)) == pytest.approx(4.0)


class TestZeroOverlapRanks:
    """Degenerate schedules: ranks that share nothing must still complete.

    A partition can produce ranks with no overlap at all (disconnected
    pieces) or peer plans whose index arrays are empty; the collectives
    must neither deadlock nor mis-count traffic on them.
    """

    EMPTY = np.array([], dtype=np.int64)

    def _no_peer_overlap(self):
        return halo_schedule(holder=[{}, {}], owner=[{}, {}])

    def _empty_payload_overlap(self):
        return halo_schedule(holder=[{}, {0: self.EMPTY}],
                             owner=[{1: self.EMPTY}, {}])

    _empty_payload_combine = _empty_payload_overlap

    def _envs(self):
        return [{"v": np.arange(4.0)}, {"v": np.arange(4.0) * 10}]

    def test_overlap_without_peers_completes(self):
        comm = SimComm(2)
        envs = self._envs()
        overlap_update(comm, envs, "v", self._no_peer_overlap())
        comm.assert_drained()
        assert comm.stats.total_messages() == 0
        _label, msgs, words = comm.stats.collectives[0]
        assert sum(msgs) == 0 and sum(words) == 0
        np.testing.assert_array_equal(envs[0]["v"], np.arange(4.0))

    def test_overlap_with_empty_payload_counts_zero_words(self):
        comm = SimComm(2)
        envs = self._envs()
        overlap_update(comm, envs, "v", self._empty_payload_overlap())
        comm.assert_drained()
        # the empty message is still a message (latency), but carries
        # nothing (volume)
        assert comm.stats.total_messages() == 1
        assert comm.stats.total_words() == 0
        np.testing.assert_array_equal(envs[1]["v"], np.arange(4.0) * 10)

    def test_split_overlap_with_empty_payload(self):
        comm = SimComm(2)
        envs = self._envs()
        pending = overlap_post(comm, envs, "v",
                               self._empty_payload_overlap())
        overlap_complete(pending, overlap_steps=3)
        comm.assert_drained()
        posted, waited = comm.stats.collectives
        assert posted.window == "posted" and waited.window == "waited"
        assert sum(posted.words) == 0 and sum(waited.words) == 0

    def test_combine_with_empty_payload_completes(self):
        comm = SimComm(2)
        envs = self._envs()
        combine_update(comm, envs, "v", self._empty_payload_combine())
        comm.assert_drained()
        # one empty gather message and one empty return message
        assert comm.stats.total_messages() == 2
        assert comm.stats.total_words() == 0
        np.testing.assert_array_equal(envs[0]["v"], np.arange(4.0))
        np.testing.assert_array_equal(envs[1]["v"], np.arange(4.0) * 10)

    def test_split_combine_with_empty_payload(self):
        comm = SimComm(2)
        envs = self._envs()
        pending = combine_post(comm, envs, "v",
                               self._empty_payload_combine())
        combine_complete(pending, overlap_steps=2)
        comm.assert_drained()
        posted, waited = comm.stats.collectives
        assert posted.window == "posted" and waited.window == "waited"
        assert sum(posted.msgs) > 0  # the gather-round empty message
        assert sum(posted.words) == 0 and sum(waited.words) == 0
