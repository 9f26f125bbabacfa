"""Tests for MachineState snapshot/resume and the CheckpointManager."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.corpus import TESTIV_SOURCE
from repro.errors import RuntimeFault
from repro.lang import parse_subroutine
from repro.lang.ast import Assign
from repro.lang.interp import (
    CollectiveAction,
    Interpreter,
    MachineState,
    make_env,
)
from repro.lang.lower import lower_subroutine
from repro.lang.vectorize import Slab
from repro.mesh import build_partition, structured_tri_mesh
from repro.placement import enumerate_placements
from repro.runtime import (
    RECOVERY_LOCAL,
    RECOVERY_MODES,
    CheckpointManager,
    FaultPlan,
    MessageLog,
    SimComm,
    SPMDExecutor,
    snapshot_digest,
)
from repro.runtime.checkpoint import _env_words
from repro.runtime.faults import rebalance_policy
from repro.spec import spec_for_testiv
from tests.oracles import envs_bit_identical
from tests.runtime.reference_checkpoint import copy_env

SOURCE = """\
      subroutine s(n, a, total)
      integer n, i
      real a(8), total
      do i = 1,n
         a(i) = a(i) + 1.0
      end do
      total = 0.0
      do i = 1,n
         total = total + a(i)
      end do
      end
"""


def drive(gen):
    """Exhaust a run_gen generator; returns (yielded actions, RunResult)."""
    out = []
    while True:
        try:
            out.append(next(gen))
        except StopIteration as stop:
            return out, stop.value


def body_sid(sub):
    return next(s for s in sub.walk() if isinstance(s, Assign)).sid


class TestMachineStateResume:
    def test_fresh_generator_resumes_a_suspended_run(self):
        sub = parse_subroutine(SOURCE)
        interp = Interpreter(lower_subroutine(sub), pre_actions={
            body_sid(sub): [CollectiveAction("tick")]})
        env = make_env(sub, n=4)
        st = MachineState()
        gen = interp.run_gen(env, st)
        next(gen)
        next(gen)  # suspended at the 2nd of 4 collective yields
        snap_env, snap_st = copy_env(env), st.copy()
        rest, expected = drive(gen)
        assert len(rest) == 2

        resumed = interp.run_gen(snap_env, snap_st)
        rest2, result = drive(resumed)
        # the collective the snapshot was suspended at is not re-yielded
        assert len(rest2) == 2
        assert result.steps == expected.steps
        np.testing.assert_array_equal(snap_env["a"], env["a"])
        assert snap_env["total"] == env["total"]

    def test_resume_does_not_rerun_earlier_pre_actions(self):
        sub = parse_subroutine(SOURCE)
        sid = body_sid(sub)
        interp = Interpreter(lower_subroutine(sub), pre_actions={
            sid: [CollectiveAction("first"), CollectiveAction("second")]})
        env = make_env(sub, n=2)
        st = MachineState()
        gen = interp.run_gen(env, st)
        assert next(gen).payload == "first"
        snap_env, snap_st = copy_env(env), st.copy()
        _rest, expected = drive(gen)

        resumed = interp.run_gen(snap_env, snap_st)
        payloads = [a.payload for a in drive(resumed)[0]]
        # resumes directly at the *second* action of the same statement
        assert payloads == ["second", "first", "second"]
        assert drive(interp.run_gen(copy_env(snap_env), snap_st.copy()))[1] \
            .steps == expected.steps

    def test_resume_inside_on_return_actions(self):
        sub = parse_subroutine(SOURCE)
        interp = Interpreter(lower_subroutine(sub), on_return=[
            CollectiveAction("flush"), CollectiveAction("last")])
        env = make_env(sub, n=3)
        st = MachineState()
        gen = interp.run_gen(env, st)
        assert next(gen).payload == "flush"
        snap_env, snap_st = copy_env(env), st.copy()
        _rest, expected = drive(gen)

        resumed = interp.run_gen(snap_env, snap_st)
        rest2, result = drive(resumed)
        assert [a.payload for a in rest2] == ["last"]
        assert result.steps == expected.steps

    def test_state_copy_is_independent(self):
        st = MachineState(pc=7, steps=42, remaining={1: 3})
        cp = st.copy()
        st.remaining[1] = 0
        st.pc = 99
        assert cp.pc == 7 and cp.remaining == {1: 3}


class TestCopyEnv:
    def test_arrays_copied_scalars_shared(self):
        env = {"a": np.arange(3.0), "k": 5}
        cp = copy_env(env)
        cp["a"][0] = -1.0
        assert env["a"][0] == 0.0
        assert cp["k"] == 5


class TestCheckpointManager:
    def _world(self):
        """Two ranks whose array ``a`` is a view of one all-ranks slab."""
        comm = SimComm(2)
        slab = Slab.zeros((3, 3), (), np.float64)
        slab.views[0][...] = np.arange(3.0)
        slab.views[1][...] = np.arange(3.0) * 2
        envs = [{"a": slab.views[0], "k": 1},
                {"a": slab.views[1], "k": 2}]
        states = [MachineState(pc=3, steps=10),
                  MachineState(pc=3, steps=12)]
        return comm, envs, states, {"a": slab}

    def test_take_restore_round_trip(self):
        comm, envs, states, slabs = self._world()
        mgr = CheckpointManager()
        cp = mgr.take(comm, envs, states, event_count=4, span_count=1,
                      slabs=slabs)
        envs[0]["a"][:] = -9.0
        envs[1]["k"] = 99
        states[0].pc = 77
        states[1].remaining[5] = 8

        mgr.restore(comm, envs, states)
        np.testing.assert_array_equal(envs[0]["a"], np.arange(3.0))
        assert envs[0]["a"] is slabs["a"].views[0]
        assert envs[1]["k"] == 2
        # the *same* state objects are rewound in place — the executor
        # hands them to fresh generators
        assert states[0].pc == 3 and states[1].remaining == {}
        assert cp.event_count == 4 and cp.span_count == 1
        assert mgr.taken == 1 and mgr.restores == 1

    def test_envs_without_arrays_round_trip(self):
        comm = SimComm(2)
        envs = [{"k": 1}, {"k": 2}]
        states = [MachineState(pc=3), MachineState(pc=4)]
        mgr = CheckpointManager()
        cp = mgr.take(comm, envs, states, 0, 0, slabs={})
        assert len(cp.ranks) == 2 and cp.words == 0
        envs[1]["k"] = 99
        states[0].pc = 77
        mgr.restore(comm, envs, states)
        assert envs == [{"k": 1}, {"k": 2}] and states[0].pc == 3

    def test_restore_is_repeatable(self):
        comm, envs, states, slabs = self._world()
        mgr = CheckpointManager()
        mgr.take(comm, envs, states, 0, 0, slabs=slabs)
        for _ in range(2):
            envs[0]["a"][:] = 5.0
            mgr.restore(comm, envs, states)
            assert envs[0]["a"][0] == 0.0

    def test_non_quiescent_take_rejected(self):
        comm, envs, states, slabs = self._world()
        mgr = CheckpointManager()
        comm.view(0).send(1.0, dest=1)
        with pytest.raises(RuntimeFault, match="non-quiescent") as exc:
            mgr.take(comm, envs, states, 0, 0, slabs=slabs)
        assert exc.value.diagnostic.data["messages"] == 1
        comm.view(1).recv(0)
        mgr.take(comm, envs, states, 0, 0, slabs=slabs)
        assert mgr.taken == 1

    def test_cadence(self):
        comm, envs, states, slabs = self._world()
        mgr = CheckpointManager(every=3)
        assert mgr.due(0)
        mgr.take(comm, envs, states, 0, 0, slabs=slabs)
        assert not mgr.due(2)
        assert mgr.due(3)

    def test_bad_cadence_rejected(self):
        for every in (0, "auto"):  # the cadence is an integer, nothing else
            with pytest.raises(RuntimeFault, match="cadence must be >= 1"):
                CheckpointManager(every=every)

    def test_restore_without_checkpoint_rejected(self):
        comm, envs, states, _slabs = self._world()
        with pytest.raises(RuntimeFault, match="no checkpoint"):
            CheckpointManager().restore(comm, envs, states)

    def test_restore_rewinds_to_newest_take_after_poison(self):
        # one checkpoint is held: whatever came before, and however the
        # live state was clobbered since, restore lands on the last take
        comm, envs, states, slabs = self._world()
        mgr = CheckpointManager()
        for ev in range(5):
            states[0].pc = ev
            envs[0]["a"][:] = float(ev)
            cp = mgr.take(comm, envs, states, ev, 0, log_mark=ev,
                          slabs=slabs)
            assert mgr.last is cp
        states[0].pc = 1 << 30
        envs[0]["a"][:] = -1.0
        envs[1]["k"] = "poison"
        cp = mgr.restore(comm, envs, states)
        assert cp.event_count == 4 and cp.log_mark == 4
        assert states[0].pc == 4 and envs[1]["k"] == 2
        np.testing.assert_array_equal(envs[0]["a"], np.full(3, 4.0))
        assert mgr.taken == 5 and mgr.restores == 1

    def test_reset_epoch_leaves_nothing_to_restore(self):
        comm, envs, states, slabs = self._world()
        mgr = CheckpointManager(every=3)
        mgr.take(comm, envs, states, 0, 0, slabs=slabs)
        mgr.reset_epoch()
        assert mgr.last is None and mgr.due(1)
        with pytest.raises(RuntimeFault, match="no checkpoint"):
            mgr.restore(comm, envs, states)
        with pytest.raises(RuntimeFault, match="no checkpoint"):
            mgr.restore_rank(0, envs, states)
        assert mgr.taken == 1  # the counters survive the epoch

    def test_digest_names_event_and_ranks(self):
        comm, envs, states, slabs = self._world()
        cp = CheckpointManager().take(comm, envs, states, 7, 2, slabs=slabs)
        text = snapshot_digest(cp)
        assert "event 7" in text and "2 rank(s)" in text


_SCALARS = st.one_of(
    st.integers(-5, 5), st.floats(-1e3, 1e3), st.booleans(),
    st.integers(-5, 5).map(np.int64), st.floats(-1e3, 1e3).map(np.float64),
    st.just(None), st.text(max_size=3))


@st.composite
def slab_worlds(draw):
    """Rank envs whose arrays are what the executor binds — every array a
    view of its rows of one all-ranks slab: 1-D real, 2-D real and integer
    entity arrays, an index map and a replicated array (one full copy per
    rank) — plus scalars of every type, with the slabs and, when one
    rank's view was rebound to a copy, that ``(rank, name)``."""
    nranks = draw(st.integers(1, 4))
    rows = [draw(st.integers(1, 6)) for _ in range(nranks)]
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    envs = [{f"s{k}": draw(_SCALARS) for k in range(3)} for _ in rows]
    arrays = {"v": (rows, (), np.float64), "w": (rows, (), np.float64),
              "xy": (rows, (2,), np.float64), "ids": (rows, (), np.int64),
              "som": (rows, (3,), np.int64),
              "rep": ([3] * nranks, (), np.float64)}
    slabs = {}
    for name, (counts, shape, dtype) in arrays.items():
        slab = slabs[name] = Slab.zeros(counts, shape, dtype)
        slab.flat[...] = rng.integers(-9, 9, slab.flat.shape)
        for env, view in zip(envs, slab.views):
            env[name] = view
    rebound = None
    if draw(st.booleans()):
        rebound = (draw(st.integers(0, nranks - 1)),
                   draw(st.sampled_from(["v", "xy", "som"])))
        r, var = rebound
        envs[r][var] = envs[r][var].copy()   # rebound: no longer a view
    return envs, slabs, rebound


def _installed(envs, slabs):
    """The slabs every rank env still binds its view of."""
    return {name for name, slab in slabs.items()
            if all(env.get(name) is view
                   for env, view in zip(envs, slab.views))}


def _env_bytes(env):
    return sum(v.nbytes for v in env.values() if isinstance(v, np.ndarray))


def _clobber(envs):
    for env in envs:
        for key, val in list(env.items()):
            if isinstance(val, np.ndarray):
                val[...] = 7
            else:
                env[key] = "clobbered"
        env["extra"] = 1.5


def _same_env(live, ref):
    assert live.keys() == ref.keys()
    for key, want in ref.items():
        got = live[key]
        assert type(got) is type(want), key
        if isinstance(want, np.ndarray):
            assert (got.dtype, got.shape) == (want.dtype, want.shape), key
            assert got.tobytes() == want.tobytes(), key
        else:
            assert got == want or (got != got and want != want), key


class TestBufferLevelTake:
    """A take copies each all-ranks buffer once and hands the ranks views
    of it; that must be indistinguishable from copying every rank's
    arrays one by one (``copy_env``).  An env array that is not its
    slab's view is a fault that names it."""

    @settings(max_examples=60, deadline=None)
    @given(slab_worlds())
    def test_take_restores_what_per_rank_copies_would(self, world):
        envs, slabs, rebound = world
        states = [MachineState(pc=r) for r in range(len(envs))]
        comm = SimComm(len(envs))
        mgr = CheckpointManager()
        if rebound is not None:
            rank, var = rebound
            with pytest.raises(RuntimeFault,
                               match=f"array '{var}' of rank {rank} "):
                mgr.take(comm, envs, states, 0, 0, slabs=slabs)
            assert mgr.last is None and mgr.taken == 0
            return
        ref = [copy_env(env) for env in envs]
        cp = mgr.take(comm, envs, states, 0, 0, slabs=slabs)
        assert cp.words == sum(_env_words(env) for env in ref)
        assert cp.nbytes == sum(_env_bytes(env) for env in ref)
        for name in slabs:
            # a buffer is copied once, the ranks view that copy
            bases = {id(snap.env[name].base) for snap in cp.ranks}
            assert len(bases) == 1 and cp.ranks[0].env[name].base \
                is not None
        # a second take replaces the first
        _clobber(envs)
        ref = [copy_env(env) for env in envs]
        cp = mgr.take(comm, envs, states, 1, 0, slabs=slabs)
        assert cp.words == sum(_env_words(env) for env in ref)
        ids = [{k: id(v) for k, v in env.items()
                if isinstance(v, np.ndarray)} for env in envs]
        installed = _installed(envs, slabs)

        for _ in range(2):   # restores are repeatable
            for env in envs:
                for val in env.values():
                    if isinstance(val, np.ndarray):
                        val[...] = -3
            mgr.restore(comm, envs, states)
            for env, want, before in zip(envs, ref, ids):
                _same_env(env, want)
                # arrays restored in place: every view still aliases
                assert {k: id(env[k]) for k in before} == before
            assert _installed(envs, slabs) == installed
        assert mgr.restored_words == 2 * cp.words

        rank = len(envs) - 1
        _clobber(envs)
        clobbered = [copy_env(env) for env in envs]
        mgr.restore_rank(rank, envs, states)
        _same_env(envs[rank], ref[rank])
        for env, want in zip(envs[:rank], clobbered):
            _same_env(env, want)
        assert mgr.restored_words == 2 * cp.words + _env_words(ref[rank])

    def test_rebound_view_is_a_fault_naming_the_array(self):
        slab = Slab.zeros((3, 2), (), np.float64)
        envs = [{"v": view} for view in slab.views]
        envs[0]["v"][...] = np.arange(3.0)
        envs[1]["v"][...] = np.arange(2.0)
        envs[1]["v"] = np.full(4, 5.0)       # rebound, and resized
        mgr = CheckpointManager()
        with pytest.raises(RuntimeFault, match="array 'v' of rank 1 is "
                                               "not a view of its slab"):
            mgr.take(SimComm(2), envs, [MachineState()] * 2, 0, 0,
                     slabs={"v": slab})
        assert mgr.last is None and mgr.taken == 0
        # an unbound view, and an array with no slab, fault the same way
        del envs[1]["v"]
        with pytest.raises(RuntimeFault, match="array 'v' of rank 1 "):
            mgr.take(SimComm(2), envs, [MachineState()] * 2, 0, 0,
                     slabs={"v": slab})
        envs[1]["v"] = slab.views[1]
        envs[0]["w"] = np.zeros(3)
        with pytest.raises(RuntimeFault, match="array 'w' of rank 0 is "
                                               "not a view of its slab"):
            mgr.take(SimComm(2), envs, [MachineState()] * 2, 0, 0,
                     slabs={"v": slab})


class TestHeldBuffers:
    """A take copies each slab into the buffer the held checkpoint
    already has for it; only a new epoch or a new geometry allocates."""

    @staticmethod
    def _take(mgr, slab, event):
        envs = [{"v": view} for view in slab.views]
        states = [MachineState() for _ in envs]
        return mgr.take(SimComm(len(envs)), envs, states, event, 0,
                        slabs={"v": slab}), envs, states

    def test_consecutive_takes_share_one_buffer(self):
        slab = Slab.zeros((3, 2), (2,), np.float64)
        slab.flat[...] = np.arange(10.0).reshape(5, 2)
        mgr = CheckpointManager()
        first, envs, states = self._take(mgr, slab, 0)
        slab.flat[...] += 100.0
        second, _envs, _states = self._take(mgr, slab, 1)
        for old, new in zip(first.ranks, second.ranks):
            assert np.shares_memory(old.env["v"], new.env["v"])
        assert second.words == first.words == 10
        want = slab.flat.copy()
        slab.flat[...] = 0.0
        mgr.restore(SimComm(2), envs, states)
        assert slab.flat.tobytes() == want.tobytes()
        assert envs[0]["v"] is slab.views[0]

    @pytest.mark.parametrize("changed", [
        Slab.zeros((2, 3), (2,), np.float64),        # rows per rank
        Slab.zeros((3, 2), (1,), np.float64),        # trailing shape
        Slab.zeros((3, 2), (2,), np.int64)],         # dtype
        ids=["rows", "trailing", "dtype"])
    def test_new_geometry_or_epoch_allocates(self, changed):
        slab = Slab.zeros((3, 2), (2,), np.float64)
        mgr = CheckpointManager()
        held, _envs, _states = self._take(mgr, slab, 0)
        changed.flat[...] = 4
        cp, _envs, _states = self._take(mgr, changed, 1)
        assert not np.shares_memory(cp.ranks[0].env["v"],
                                    held.ranks[0].env["v"])
        assert cp.ranks[0].env["v"].tobytes() == changed.views[0].tobytes()
        mgr.reset_epoch()
        fresh, _envs, _states = self._take(mgr, changed, 2)
        assert not np.shares_memory(fresh.ranks[0].env["v"],
                                    cp.ranks[0].env["v"])

    @pytest.mark.parametrize("mode", RECOVERY_MODES)
    def test_kill_restored_from_a_reused_buffer(self, monkeypatch, mode):
        """A take at every event, a kill late in the run: the restore
        reads a buffer earlier takes wrote, and the run stays bit-equal
        to the undisturbed one."""
        mesh = structured_tri_mesh(6, 6)
        spec = spec_for_testiv()
        placements = enumerate_placements(TESTIV_SOURCE, spec)
        partition = build_partition(mesh, 3, spec.pattern)
        values = {"init": np.random.default_rng(0)
                  .standard_normal(mesh.n_nodes),
                  "airetri": mesh.triangle_areas,
                  "airesom": mesh.node_areas,
                  "epsilon": 1e-8, "maxloop": 3}
        ex = SPMDExecutor(placements.sub, spec,
                          placements.ranked[0].placement, partition)
        base = ex.run(dict(values))
        taken = []
        take = CheckpointManager.take

        def spy(mgr, *args, **kw):
            taken.append(take(mgr, *args, **kw))
            return taken[-1]

        monkeypatch.setattr(CheckpointManager, "take", spy)
        event = len(base.timeline.events) - 2
        res = ex.run(dict(values), recovery=mode, checkpoint_every=1,
                     faults=FaultPlan.parse(f"kill rank=1 event={event}"))
        assert len(taken) > 3
        assert res.recovery["restores"] + res.recovery["rank_restores"] == 1
        for old, new in zip(taken, taken[1:]):
            assert np.shares_memory(old.ranks[0].env["result"],
                                    new.ranks[0].env["result"])
        assert envs_bit_identical(base.envs, res.envs) is None
        assert res.rank_steps == base.rank_steps


class TestLogFloor:
    """The executor truncates the message log at the mark of the
    checkpoint it just took; a floor that moved backwards would mean a
    replay window already discarded."""

    def test_floor_never_moves_backwards_over_a_run(self, monkeypatch):
        mesh = structured_tri_mesh(6, 6)
        spec = spec_for_testiv()
        placements = enumerate_placements(TESTIV_SOURCE, spec)
        partition = build_partition(mesh, 3, spec.pattern)
        values = {"init": np.random.default_rng(0)
                  .standard_normal(mesh.n_nodes),
                  "airetri": mesh.triangle_areas,
                  "airesom": mesh.node_areas,
                  "epsilon": 1e-8, "maxloop": 3}
        floors = []
        truncate = MessageLog.truncate_before

        def spy(log, mark):
            floors.append(mark)
            return truncate(log, mark)

        monkeypatch.setattr(MessageLog, "truncate_before", spy)
        ex = SPMDExecutor(placements.sub, spec,
                          placements.ranked[0].placement, partition)
        res = ex.run(values, recovery=RECOVERY_LOCAL, checkpoint_every=2,
                     faults=FaultPlan.parse("kill rank=1 event=5"),
                     rebalance=rebalance_policy(partition, (3,)))
        # one truncation per take, migration epoch's fresh take included
        assert res.migration["epochs"] == 1
        assert len(floors) == res.recovery["checkpoints_taken"] >= 3
        assert floors == sorted(floors) and floors[-1] > floors[0]
        assert res.recovery["rank_restores"] == 1
