"""Property-based tests (hypothesis) on materialized wave index arrays.

A :class:`~repro.mesh.schedule.WaveSide` is a flattened re-expression of
one ``PeerPlan`` list; these properties pin the equivalence on random
meshes and partitions:

* ``plans()`` round-trips a side back to the exact per-peer index
  dictionaries it was built from;
* the wave's message columns reproduce ``message_count()``/``volume()``;
* a gather → scatter through the wave equals the per-message exchange.
"""

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.mesh import (
    build_combine_schedule,
    build_overlap_schedule,
    build_partition,
    structured_tri_mesh,
)
from repro.spec import spec_for_testiv

_mesh_params = st.tuples(st.integers(3, 7), st.integers(3, 7))
_pattern = spec_for_testiv().pattern


def _partition(dims, nparts, method):
    mesh = structured_tri_mesh(*dims)
    nparts = min(nparts, mesh.n_triangles)
    return build_partition(mesh, nparts, _pattern, method=method)


def _plans_equal(a, b):
    assert len(a) == len(b)
    for pa, pb in zip(a, b):
        assert sorted(pa) == sorted(pb)
        for peer in pa:
            np.testing.assert_array_equal(pa[peer], pb[peer])


@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(_mesh_params, st.integers(2, 6),
       st.sampled_from(["rcb", "greedy"]), st.sampled_from(["node",
                                                           "triangle"]))
def test_overlap_wave_roundtrips_and_counts(dims, nparts, method, entity):
    partition = _partition(dims, nparts, method)
    sched = build_overlap_schedule(partition, entity)
    w = sched.wave()
    _plans_equal(w.send.plans(partition.nparts), sched.sends)
    _plans_equal(w.recv.plans(partition.nparts), sched.recvs)
    assert len(w.send.srcs) == sched.message_count()
    assert len(w.recv.srcs) == sched.message_count()
    assert int(w.send.words.sum()) == sched.volume()
    np.testing.assert_array_equal(np.sort(w.send.words),
                                  np.sort(w.recv.words))
    # a send side's per-rank segments tile the block exactly
    assert int(w.send.counts.sum()) == sched.volume()
    np.testing.assert_array_equal(
        w.send.starts, np.concatenate([[0], np.cumsum(w.send.counts)[:-1]]))


@settings(max_examples=15, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(_mesh_params, st.integers(2, 5), st.sampled_from(["node",
                                                         "triangle"]))
def test_combine_wave_roundtrips_and_counts(dims, nparts, entity):
    partition = _partition(dims, nparts, "rcb")
    sched = build_combine_schedule(partition, entity)
    w = sched.wave()
    _plans_equal(w.gather_send.plans(partition.nparts), sched.gather_sends)
    _plans_equal(w.gather_recv.plans(partition.nparts), sched.gather_recvs)
    _plans_equal(w.return_send.plans(partition.nparts), sched.return_sends)
    _plans_equal(w.return_recv.plans(partition.nparts), sched.return_recvs)
    assert (len(w.gather_send.srcs) + len(w.return_send.srcs)
            == sched.message_count())
    assert (int(w.gather_send.words.sum()) + int(w.return_send.words.sum())
            == sched.volume())


@settings(max_examples=20, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(_mesh_params, st.integers(2, 6), st.integers(0, 2 ** 31 - 1))
def test_gather_scatter_equals_per_message_exchange(dims, nparts, seed):
    partition = _partition(dims, nparts, "rcb")
    sched = build_overlap_schedule(partition, "node")
    rng = np.random.default_rng(seed)
    values = [rng.standard_normal(len(sub.l2g["node"]))
              for sub in partition.subs]
    # reference: the per-message copy loop
    expect = [v.copy() for v in values]
    for r, plan in enumerate(sched.recvs):
        for src, idx in plan.items():
            expect[r][idx] = values[src][sched.sends[src][r]]
    # wave: one gather into a block, one scatter out of it, emulating the
    # wire's per-(src, dst) channel matching between the two orders
    w = sched.wave()
    block = w.send.gather(values)
    assert block.dtype == np.float64 and block.ndim == 1
    offs = np.concatenate([[0], np.cumsum(w.send.words)])
    channel = {(int(s), int(d)): block[offs[i]:offs[i + 1]]
               for i, (s, d) in enumerate(zip(w.send.srcs, w.send.dsts))}
    pieces = [channel[(int(s), int(d))]
              for s, d in zip(w.recv.srcs, w.recv.dsts)]
    rblock = np.concatenate(pieces) if pieces else block
    got = [v.copy() for v in values]
    w.recv.scatter(got, rblock)
    for a, b in zip(got, expect):
        np.testing.assert_array_equal(a, b)


def _columns(side):
    return np.stack([side.srcs, side.dsts, side.words])


@settings(max_examples=15, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(_mesh_params, st.integers(2, 6), st.sampled_from(["rcb", "greedy"]),
       st.integers(0, 2 ** 31 - 1))
def test_for_rank_partitions_the_schedule_and_writes_one_rank(
        dims, nparts, method, seed):
    from repro.runtime import (MessageLog, ReplayFilter, SimComm,
                               combine_update, overlap_update)

    partition = _partition(dims, nparts, method)
    nranks = partition.nparts
    rng = np.random.default_rng(seed)
    start = [rng.standard_normal(len(sub.l2g["node"]))
             for sub in partition.subs]
    for build, update, sides in (
            (build_overlap_schedule, overlap_update, ("send", "recv")),
            (build_combine_schedule, combine_update,
             ("gather_send", "gather_recv", "return_send", "return_recv"))):
        sched = build(partition, "node")
        slices = [sched.for_rank(r) for r in range(nranks)]
        # the rank slices partition the messages of every wave side
        # exactly: rank-ascending concatenation is the full side
        for name in sides:
            np.testing.assert_array_equal(
                np.concatenate([_columns(getattr(s.wave(), name))
                                for s in slices], axis=1),
                _columns(getattr(sched.wave(), name)))
        # the full collective, logged at the sender side of the wire
        comm = SimComm(nranks)
        comm.msglog = MessageLog()
        full = [{"u": v.copy()} for v in start]
        update(comm, full, "u", sched)
        sent = comm.stats.total_messages()
        # one rank's slice re-driven against that log: its own array ends
        # where the full collective left it, nobody else's is touched
        for r in range(nranks):
            envs = [{"u": start[q].copy() if q == r
                     else np.full(len(start[q]), -7.0)}
                    for q in range(nranks)]
            comm.msglog.replay_onto(comm, r, 0)
            comm.begin_replay(ReplayFilter(comm.msglog, r, 0),
                              SimComm.FRESH_TAG_BASE)
            update(comm, envs, "u", slices[r])
            comm.end_replay()
            comm.assert_drained()
            for q in range(nranks):
                expect = full[q]["u"] if q == r else -7.0
                np.testing.assert_array_equal(envs[q]["u"], expect)
        assert comm.stats.total_messages() == sent  # re-sends suppressed
