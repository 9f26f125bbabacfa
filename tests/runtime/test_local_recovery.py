"""Differential oracle for localized restart (``recovery="local"``).

Global rollback is the reference recovery implementation; localized
restart — restore only the dead rank, re-drive it against the
sender-side message log while the survivors wait — is the scale
implementation.  These tests require *bit identity* between the two
modes and the fault-free run: final environments, step counts, the event
log, and (for local mode) the untouched traffic ledger.  A corpus slice
runs in tier 1.  The full 16-placement kill sweep on the production wire
is ``tests/runtime/test_fault_sweeps.py``; on the reference wire it
rides the scheduled soak job.
"""

import numpy as np
import pytest

from repro.corpus import TESTIV_SOURCE
from repro.errors import RuntimeFault
from repro.mesh import build_partition, random_delaunay_mesh, \
    structured_tri_mesh
from repro.placement import enumerate_placements, widen_placement
from repro.runtime import (
    RECOVERY_LOCAL,
    RECOVERY_MODES,
    CheckpointManager,
    FaultPlan,
    SPMDExecutor,
    SimComm,
)
from repro.lang.interp import MachineState
from repro.spec import spec_for_testiv
from tests.oracles import envs_bit_identical


@pytest.fixture(scope="module")
def setup():
    mesh = structured_tri_mesh(6, 6)
    spec = spec_for_testiv()
    placements = enumerate_placements(TESTIV_SOURCE, spec)
    partition = build_partition(mesh, 3, spec.pattern)
    rng = np.random.default_rng(0)
    values = {
        "init": rng.standard_normal(mesh.n_nodes),
        "airetri": mesh.triangle_areas,
        "airesom": mesh.node_areas,
        "epsilon": 1e-8,
        "maxloop": 3,
    }
    return placements, spec, partition, values


def _run(setup, index=0, split=False, plan_text=None, timeout=0,
         backend="interp", **kw):
    placements, spec, partition, values = setup
    placement = placements.ranked[index].placement
    if split:
        placement = widen_placement(placements.vfg, placement)
    plan = FaultPlan.parse(plan_text) if plan_text else None
    ex = SPMDExecutor(placements.sub, spec, placement, partition,
                      backend=backend)
    return ex.run(dict(values), faults=plan, comm_timeout=timeout, **kw)


def _counts(recovery):
    """A run's recovery accounting, minus the one wall-clock entry."""
    return {k: v for k, v in recovery.items() if k != "restore_seconds"}


def _record_stream(stats):
    return [(r.label, r.msgs, r.words, r.window, r.overlap_steps)
            for r in stats.collectives]


class TestCorpusLocalDifferential:
    """local ≡ global ≡ fault-free, bit for bit."""

    def test_corpus_slice_both_phases(self, setup):
        for index in (0, 7, 15):
            for split in (False, True):
                base = _run(setup, index, split)
                where = f"placement #{index} split={split}"
                plan = "kill rank=1 event=3"
                for mode in RECOVERY_MODES:
                    res = _run(setup, index, split, plan_text=plan,
                               recovery=mode, checkpoint_every=2)
                    diff = envs_bit_identical(base.envs, res.envs)
                    assert diff is None, f"{where} {mode}: {diff}"
                    assert res.rank_steps == base.rank_steps, where
                    assert [e[0] for e in res.timeline.events] \
                        == [e[0] for e in base.timeline.events], where

    def test_local_mode_never_touches_the_ledger(self, setup):
        # global rollback rewinds the stats with the transport; localized
        # restart suppresses replay re-sends *before* accounting, so its
        # final ledger must be exactly the fault-free one
        base = _run(setup)
        res = _run(setup, plan_text="kill rank=1 event=4",
                   recovery=RECOVERY_LOCAL, checkpoint_every=2)
        assert _record_stream(res.stats) == _record_stream(base.stats)
        assert res.stats.total_messages() == base.stats.total_messages()
        assert res.stats.total_words() == base.stats.total_words()

    def test_kill_every_event_every_rank(self, setup):
        base = _run(setup, split=True)
        nevents = len(base.timeline.events)
        for event in range(1, nevents):
            for rank in (0, 2):
                res = _run(setup, split=True,
                           plan_text=f"kill rank={rank} event={event}",
                           recovery=RECOVERY_LOCAL, checkpoint_every=3)
                diff = envs_bit_identical(base.envs, res.envs)
                assert diff is None, f"rank {rank} event {event}: {diff}"

    @pytest.mark.soak
    @pytest.mark.parametrize("index", range(16))
    def test_full_corpus_cross(self, setup, reference_wire, index):
        # the production wire's sweep is test_fault_sweeps.py::test_kill;
        # this is the same kill grid on the reference wire
        base = _run(setup, index, checkpoint_every=3)
        nevents = len(base.timeline.events)
        for event in sorted({min(e, max(1, nevents - 1)) for e in (1, 3)}):
            for rank in (0, 1, 2):
                for mode in RECOVERY_MODES:
                    with reference_wire():
                        res = _run(setup, index,
                                   plan_text=f"kill rank={rank} event={event}",
                                   recovery=mode, checkpoint_every=3)
                    diff = envs_bit_identical(base.envs, res.envs)
                    assert diff is None, f"rank {rank} event {event} " \
                        f"{mode}: {diff}"


class TestLocalizedRestart:
    def test_recovery_is_recorded_out_of_band(self, setup):
        base = _run(setup)
        res = _run(setup, plan_text="kill rank=1 event=3",
                   recovery=RECOVERY_LOCAL, checkpoint_every=2)
        # the event log matches the fault-free one; the restart is a note
        assert [e[0] for e in res.timeline.events] \
            == [e[0] for e in base.timeline.events]
        assert len(res.timeline.faults) == 1
        note = res.timeline.faults[0]
        assert "localized restart" in note and "rank 1" in note

    def test_recovery_dict_reports_the_restart(self, setup):
        res = _run(setup, plan_text="kill rank=1 event=5",
                   recovery=RECOVERY_LOCAL, checkpoint_every=2)
        info = res.recovery
        assert info["mode"] == RECOVERY_LOCAL
        assert info["rank_restores"] == 1 and info["restores"] == 0
        assert info["replayed_events"] >= 1
        assert info["restored_words"] > 0
        assert info["log_entries"] > 0

    def test_sparse_cadence_replays_logged_messages(self, setup):
        base = _run(setup)
        res = _run(setup, plan_text="kill rank=1 event=6",
                   recovery=RECOVERY_LOCAL, checkpoint_every=4)
        assert envs_bit_identical(base.envs, res.envs) is None
        info = res.recovery
        assert info["replayed_events"] >= 2
        assert info["replayed_messages"] > 0
        assert info["suppressed_sends"] > 0

    def test_kill_inside_open_split_window(self, setup):
        # split placements keep messages on the wire across the kill
        # boundary: the wire-residue skip must leave them for the
        # restored rank's own waits
        base = _run(setup, split=True)
        nevents = len(base.timeline.events)
        for event in range(2, nevents, 2):
            res = _run(setup, split=True,
                       plan_text=f"kill rank=1 event={event}",
                       recovery=RECOVERY_LOCAL, checkpoint_every=4)
            diff = envs_bit_identical(base.envs, res.envs)
            assert diff is None, f"event {event}: {diff}"

    def test_multiple_kills_survived(self, setup):
        base = _run(setup)
        res = _run(setup,
                   plan_text="kill rank=0 event=2; kill rank=2 event=5",
                   recovery=RECOVERY_LOCAL, checkpoint_every=2)
        assert envs_bit_identical(base.envs, res.envs) is None
        assert res.recovery["rank_restores"] == 2
        assert len(res.timeline.faults) == 2

    def test_two_ranks_killed_at_the_same_event(self, setup):
        base = _run(setup)
        res = _run(setup,
                   plan_text="kill rank=0 event=3; kill rank=2 event=3",
                   recovery=RECOVERY_LOCAL, checkpoint_every=2)
        assert envs_bit_identical(base.envs, res.envs) is None
        assert res.recovery["rank_restores"] == 2

    def test_local_composes_with_wire_faults(self, setup):
        base = _run(setup)
        for plan in ("kill rank=1 event=4; reorder; seed=6",
                     "kill rank=1 event=4; delay count=2 steps=2; seed=9"):
            res = _run(setup, plan_text=plan, recovery=RECOVERY_LOCAL,
                       checkpoint_every=2, timeout=16)
            diff = envs_bit_identical(base.envs, res.envs)
            assert diff is None, f"{plan}: {diff}"

    def test_per_message_wave_recovers_too(self, setup, reference_halos):
        with reference_halos():
            base = _run(setup)
            res = _run(setup, plan_text="kill rank=1 event=4",
                       recovery=RECOVERY_LOCAL, checkpoint_every=3)
        assert envs_bit_identical(base.envs, res.envs) is None

    def test_per_message_split_windows_every_rank_every_event(
            self, setup, reference_halos):
        # a window still open at the kill boundary is re-posted by the
        # replay, its sends suppressed message by message; the live WAIT
        # must then receive the original wave still on the wire
        with reference_halos():
            base = _run(setup, split=True)
            nevents = len(base.timeline.events)
            for event in range(1, nevents):
                for rank in range(3):
                    res = _run(setup, split=True,
                               plan_text=f"kill rank={rank} event={event}",
                               recovery=RECOVERY_LOCAL, checkpoint_every=3)
                    diff = envs_bit_identical(base.envs, res.envs)
                    assert diff is None, f"rank {rank} event {event}: {diff}"

    def test_replayed_reduction_on_a_non_power_of_two_tree(self, setup):
        # 5 ranks: the binomial tree has an unpaired rank at the first
        # level; every rank's slice of it (sender, receiver, both,
        # neither per level) is re-driven through allreduce_scalar
        placements, spec, partition, values = setup
        five = (placements, spec,
                build_partition(partition.mesh, 5, spec.pattern), values)
        base = _run(five)
        labels = [e[0] for e in base.timeline.events]
        assert labels[4:6] == ["overlap:old", "reduce:sqrdiff"]
        for rank in range(5):
            res = _run(five, plan_text=f"kill rank={rank} event=6",
                       recovery=RECOVERY_LOCAL, checkpoint_every=4)
            assert res.recovery["replayed_events"] == 2  # events 4 and 5
            diff = envs_bit_identical(base.envs, res.envs)
            assert diff is None, f"rank {rank}: {diff}"
            assert _record_stream(res.stats) == _record_stream(base.stats)
            assert res.stats.messages == base.stats.messages
            assert res.stats.words == base.stats.words

    def test_restored_words_local_is_one_rank_global_is_all(self, setup):
        plan = "kill rank=1 event=4"
        local = _run(setup, plan_text=plan, recovery=RECOVERY_LOCAL,
                     checkpoint_every=2)
        glob = _run(setup, plan_text=plan, recovery="global",
                    checkpoint_every=2)
        # the recovery-cost claim of the PR: local restores one rank's
        # words, global restores every rank's (≈ P× more at P=3)
        assert 0 < local.recovery["restored_words"] \
            < glob.recovery["restored_words"]
        assert glob.recovery["restored_words"] \
            >= 2 * local.recovery["restored_words"]
        # weak scaling (mesh grown with P, vector backend): the global
        # bill grows with P, the local one tracks one rank's footprint
        placements, spec = setup[0], setup[1]
        ratio = {}
        for nparts in (4, 16):
            mesh = random_delaunay_mesh(60 * nparts, seed=nparts)
            values = {"init": np.random.default_rng(nparts).standard_normal(
                          mesh.n_nodes),
                      "airetri": mesh.triangle_areas,
                      "airesom": mesh.node_areas,
                      "epsilon": 1e-30, "maxloop": 2}
            ex = SPMDExecutor(placements.sub, spec,
                              placements.best().placement,
                              build_partition(mesh, nparts, spec.pattern,
                                              method="greedy"),
                              backend="vector")
            base = ex.run(values)
            # event 3 sits between two cadence-2 checkpoints, so local
            # restart replays a logged segment, not an empty window
            kill = FaultPlan.parse(f"kill rank={nparts // 2} event=3")
            words = {}
            for mode in RECOVERY_MODES:
                res = ex.run(values, faults=kill, recovery=mode,
                             checkpoint_every=2)
                assert envs_bit_identical(base.envs, res.envs) is None
                words[mode] = res.recovery["restored_words"]
            assert 0 < words["local"] < words["global"]
            ratio[nparts] = words["global"] / words["local"]
        assert ratio[4] >= 2 and ratio[16] >= 8, ratio    # ≈ P×
        assert ratio[16] > ratio[4], ratio

    def test_unknown_recovery_mode_rejected(self, setup):
        with pytest.raises(RuntimeFault, match="unknown recovery mode"):
            _run(setup, recovery="optimistic")


class TestVectorBackend:
    """Kills on the rank-fused compute path.

    The undisturbed run executes every loop once for all ranks; a global
    rollback replays fused, a localized restart re-drives the dead rank's
    loops *alone* — so bit identity here is batch-of-P ≡ batch-of-one
    across a recovery.  The accounting must not know the backend.
    """

    @pytest.mark.parametrize("split", [False, True])
    @pytest.mark.parametrize("mode", RECOVERY_MODES)
    def test_kill_mid_sweep(self, setup, split, mode):
        spec = setup[1]
        base = _run(setup, split=split, backend="vector")
        for event in (2, 5):
            kw = dict(split=split, plan_text=f"kill rank=1 event={event}",
                      recovery=mode, checkpoint_every=3)
            res = _run(setup, backend="vector", **kw)
            where = f"split={split} {mode} event={event}"
            diff = envs_bit_identical(base.envs, res.envs)
            assert diff is None, f"{where}: {diff}"
            for var in sorted(base.envs[0]):
                if spec.entity_of_array(var) is not None:
                    assert np.array_equal(base.gather(var),
                                          res.gather(var)), where
            assert res.rank_steps == base.rank_steps, where
            assert res.timeline.events == base.timeline.events, where
            assert len(res.timeline.faults) == 1, where
            ref = _run(setup, backend="interp", **kw)
            assert _counts(res.recovery) == _counts(ref.recovery), where

    def test_every_rank_every_event_local(self, setup):
        base = _run(setup, split=True, backend="vector")
        for event in range(1, len(base.timeline.events)):
            for rank in range(3):
                res = _run(setup, split=True, backend="vector",
                           plan_text=f"kill rank={rank} event={event}",
                           recovery=RECOVERY_LOCAL, checkpoint_every=3)
                diff = envs_bit_identical(base.envs, res.envs)
                assert diff is None, f"rank {rank} event {event}: {diff}"


class TestRetentionPolicy:
    def _world(self, nranks=2, words=16):
        comm = SimComm(nranks)
        envs = [{"a": np.arange(float(words)), "k": r}
                for r in range(nranks)]
        states = [MachineState(pc=r) for r in range(nranks)]
        return comm, envs, states

    def test_restore_rewinds_to_newest_retained(self):
        comm, envs, states = self._world()
        mgr = CheckpointManager()
        for ev in range(4):
            states[0].pc = ev
            mgr.take(comm, envs, states, ev, 0)
        states[0].pc = 99
        cp = mgr.restore(comm, envs, states)
        assert cp.event_count == 3 and states[0].pc == 3

    def test_restore_rank_touches_one_rank_only(self):
        comm, envs, states = self._world(nranks=3)
        mgr = CheckpointManager()
        mgr.take(comm, envs, states, 2, 0)
        for env in envs:
            env["a"][:] = -7.0
        cp = mgr.restore_rank(1, envs, states)
        assert cp.event_count == 2
        np.testing.assert_array_equal(envs[1]["a"], np.arange(16.0))
        assert envs[0]["a"][0] == -7.0 and envs[2]["a"][0] == -7.0
        assert mgr.rank_restores == 1 and mgr.restores == 0
        assert mgr.restored_words == 16

    def test_restore_rank_range_checked(self):
        comm, envs, states = self._world()
        mgr = CheckpointManager()
        mgr.take(comm, envs, states, 0, 0)
        with pytest.raises(RuntimeFault, match="out of range"):
            mgr.restore_rank(5, envs, states)

    def test_cc104_diagnostic_is_structured(self):
        comm, envs, states = self._world()
        comm.view(0).send(1.0, dest=1)
        mgr = CheckpointManager()
        with pytest.raises(RuntimeFault, match="CC104") as err:
            mgr.take(comm, envs, states, 3, 0)
        diag = err.value.diagnostic
        assert diag.code == "CC104"
        assert diag.name == "nonquiescent-checkpoint"
        assert diag.data["messages"] == 1 and diag.data["event"] == 3
        assert diag.data["channels"]
        comm.view(1).recv(0)


class TestZeroOverheadDefault:
    def test_no_logging_unless_local_mode(self, setup):
        # default (global) recovery must not arm the message log
        res = _run(setup, checkpoint=True, checkpoint_every=2)
        assert res.recovery["mode"] == "global"
        assert res.recovery["log_entries"] == 0

    def test_no_recovery_info_without_checkpointing(self, setup):
        res = _run(setup, checkpoint=False)
        assert res.recovery is None

    def test_local_without_faults_is_bit_identical(self, setup):
        base = _run(setup)
        res = _run(setup, checkpoint=True, recovery=RECOVERY_LOCAL,
                   checkpoint_every=2)
        assert envs_bit_identical(base.envs, res.envs) is None
        assert res.rank_steps == base.rank_steps
        assert res.recovery["rank_restores"] == 0
        assert res.recovery["suppressed_sends"] == 0
        # the log held every delivery, but nothing ever replayed it
        assert res.recovery["log_entries"] > 0
