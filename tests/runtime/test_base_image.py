"""The checkpoint's base image: the arrays nothing writes, copied once per
epoch.

A checkpoint holds a full image of every slab, but the arrays no
statement, CALL or halo collective writes (``unwritten_arrays``) are
copied only by the first take of an epoch — at run start and right after
each migration epoch — into read-only copies that every later take of
the epoch holds by reference.  These tests pin the derivation, the
invariants of the held copies over a run with kills and a migration
epoch, and the gate: a killed rank whose never-written rows are garbage
by the time of the restore still recovers bit for bit, because restore
copies the base rows back too.
"""

from dataclasses import replace

import numpy as np
import pytest

from repro.corpus import TESTIV_SOURCE
from repro.lang import parse_subroutine
from repro.lang.cfg import EXIT
from repro.mesh import (
    RebalancePolicy,
    build_partition,
    repartition,
    structured_tri_mesh,
)
from repro.placement import enumerate_placements
from repro.placement.comms import K_OVERLAP, CommOp
from repro.runtime import RECOVERY_MODES, CheckpointManager, FaultPlan, \
    SPMDExecutor
from repro.runtime.executor import unwritten_arrays
from repro.spec import PartitionSpec, spec_for_testiv
from tests.oracles import envs_bit_identical

#: TESTIV's arrays no statement or communication writes
_BASE = {"som", "init", "airesom", "airetri"}


@pytest.fixture(scope="module")
def setup():
    mesh = structured_tri_mesh(6, 6)
    spec = spec_for_testiv()
    placements = enumerate_placements(TESTIV_SOURCE, spec)
    partition = build_partition(mesh, 4, spec.pattern)
    values = {"init": np.random.default_rng(0).standard_normal(mesh.n_nodes),
              "airetri": mesh.triangle_areas,
              "airesom": mesh.node_areas,
              "epsilon": 1e-8, "maxloop": 3}
    # a load shift at event 2: three of rank 0's elements go to rank 1,
    # so the post-migration layout differs from the first epoch's
    er = partition.elem_ranks.copy()
    er[np.flatnonzero(er == 0)[:3]] = 1
    policy = RebalancePolicy(rebalance_at=(2,),
                             plans={2: repartition(partition, er)})
    return placements, spec, partition, values, policy


def _executor(setup, backend="interp"):
    placements, spec, partition, _values, _policy = setup
    return SPMDExecutor(placements.sub, spec, placements.ranked[0].placement,
                        partition, backend=backend)


class TestWrittenSet:
    def test_testiv_writes_old_new_result(self, setup):
        placements, spec = setup[0], setup[1]
        arrays = {name for name, decl in placements.sub.decls.items()
                  if decl.is_array}
        for ranked in placements.ranked:
            unwritten = unwritten_arrays(placements.sub, spec,
                                         ranked.placement.comms)
            assert arrays - unwritten == {"old", "new", "result"}
            assert unwritten == _BASE
        assert _executor(setup).unwritten == _BASE

    def test_call_argument_counts_as_written(self):
        sub = parse_subroutine("""\
      subroutine s(n, a, b, c)
      integer n
      real a(8), b(8), c(8)
      call f(a, n)
      c(1) = b(1)
      end
""")
        spec = PartitionSpec.parse("pattern overlap-elements-2d\n"
                                   "extent node n\narray a node\n"
                                   "array b node\narray c node\n")
        assert unwritten_arrays(sub, spec, []) == {"b"}

    def test_communicated_var_counts_as_written(self, setup):
        placements, spec = setup[0], setup[1]
        placement = placements.ranked[0].placement
        halo = CommOp(post_anchor=EXIT, wait_anchor=EXIT, kind=K_OVERLAP,
                      var="airesom", method="overlap-som", entity="node")
        comms = placement.comms + [halo]
        assert unwritten_arrays(placements.sub, spec, comms) \
            == _BASE - {"airesom"}
        ex = SPMDExecutor(placements.sub, spec,
                          replace(placement, comms=comms), setup[2])
        assert ex.unwritten == _BASE - {"airesom"}


def _spy_takes(monkeypatch):
    """Record, at every take: the live envs' arrays, the checkpoint, and
    whether every base copy was bit-equal to its live rows right then."""
    seen = []
    take = CheckpointManager.take

    def spy(mgr, comm, envs, *args, **kw):
        cp = take(mgr, comm, envs, *args, **kw)
        equal = all(snap.env[name].tobytes() == env[name].tobytes()
                    for env, snap in zip(envs, cp.ranks) for name in _BASE)
        seen.append(([dict(env) for env in envs], cp, equal))
        return cp

    monkeypatch.setattr(CheckpointManager, "take", spy)
    return seen


class TestBaseImageInvariants:
    @pytest.mark.parametrize("mode", RECOVERY_MODES)
    def test_base_copies_over_a_kill_and_rebalance_run(self, setup, mode,
                                                       monkeypatch):
        values, policy = setup[3], setup[4]
        base = _executor(setup).run(dict(values), rebalance=policy)
        seen = _spy_takes(monkeypatch)
        event = len(base.timeline.events) - 2
        res = _executor(setup).run(
            dict(values), recovery=mode, checkpoint_every=2,
            rebalance=policy,
            faults=FaultPlan.parse(f"kill rank=2 event={event}"))
        assert envs_bit_identical(base.envs, res.envs) is None
        assert res.migration["epochs"] == 1
        assert all(equal for _live, _cp, equal in seen)
        for _live, cp, _equal in seen:
            for snap in cp.ranks:
                for name in _BASE:
                    assert not snap.env[name].flags.writeable, name
                for name in ("old", "new", "result"):
                    assert snap.env[name].flags.writeable, name
        # one base copy per epoch: the same object at every take until a
        # migration epoch binds new live slabs
        epochs = 1
        for (live, cp, _eq), (prev_live, prev, _peq) in zip(seen[1:], seen):
            for rank, env in enumerate(live):
                for name in _BASE:
                    same_epoch = env[name] is prev_live[rank][name]
                    assert (cp.ranks[rank].env[name]
                            is prev.ranks[rank].env[name]) == same_epoch
            epochs += live[0]["som"] is not prev_live[0]["som"]
        assert epochs == 2 and len(seen) > 4
        # the image is still full: every rank's rows of every slab
        last = seen[-1][1]
        assert res.recovery["checkpoint_words"] == last.words \
            == sum(snap.words for snap in last.ranks)


class TestCorruptedBaseRows:
    """The gate of the base image: garbage in the never-written rows of
    the ranks a restore rewinds is repaired by the restore itself."""

    @staticmethod
    def _garbage(view, rng):
        if view.dtype.kind == "f":
            view[...] = rng.standard_normal(view.shape) * 1e6
        else:
            view[...] = rng.integers(-10 ** 6, 10 ** 6, view.shape)

    @pytest.mark.parametrize("mode", RECOVERY_MODES)
    @pytest.mark.parametrize("late", [False, True])
    def test_garbage_base_rows_recover_bit_equal(self, setup, mode, late,
                                                 monkeypatch):
        values, policy = setup[3], setup[4]
        base = _executor(setup, "vector").run(dict(values), rebalance=policy)
        rng = np.random.default_rng(5)
        corrupted = []
        restore = CheckpointManager.restore
        restore_rank = CheckpointManager.restore_rank

        def spoil_all(mgr, comm, envs, states):
            for rank, env in enumerate(envs):
                for name in sorted(mgr.unwritten):
                    self._garbage(env[name], rng)
                corrupted.append(rank)
            return restore(mgr, comm, envs, states)

        def spoil_one(mgr, rank, envs, states):
            for name in sorted(mgr.unwritten):
                self._garbage(envs[rank][name], rng)
            corrupted.append(rank)
            return restore_rank(mgr, rank, envs, states)

        monkeypatch.setattr(CheckpointManager, "restore", spoil_all)
        monkeypatch.setattr(CheckpointManager, "restore_rank", spoil_one)
        event = len(base.timeline.events) - 2 if late else 4
        res = _executor(setup, "vector").run(
            dict(values), recovery=mode, checkpoint_every=3,
            rebalance=policy,
            faults=FaultPlan.parse(f"kill rank=1 event={event}"))
        assert res.migration["epochs"] == 1
        assert res.recovery["restores"] + res.recovery["rank_restores"] == 1
        assert corrupted == ([1] if mode == "local" else [0, 1, 2, 3])
        assert envs_bit_identical(base.envs, res.envs) is None
        assert res.rank_steps == base.rank_steps
