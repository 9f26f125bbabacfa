"""Property-based tests (hypothesis) on the halo message tables.

A :class:`~repro.mesh.schedule.HaloSchedule` is two
:class:`~repro.mesh.schedule.WaveSide` tables read four ways; these
properties pin the readings on random meshes and partitions:

* :func:`~tests.halo_views.messages` walks a table back out row by row: the segments tile
  each rank's index block and carry the table's word counts;
* the message columns reproduce ``message_count()``/``volume()`` (one
  wave — a combine moves two);
* a gather → scatter through the tables equals the per-message exchange.
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
from tests.halo_views import messages, plans

_mesh_params = st.tuples(st.integers(3, 7), st.integers(3, 7))
_pattern = spec_for_testiv().pattern


def _partition(dims, nparts, method):
    mesh = structured_tri_mesh(*dims)
    nparts = min(nparts, mesh.n_triangles)
    return build_partition(mesh, nparts, _pattern, method=method)


def _columns(side):
    return np.stack([side.srcs, side.dsts, side.words])


def _messages_tile_the_table(side):
    rows = list(messages(side))
    np.testing.assert_array_equal([r for r, _p, _i in rows], side.rank)
    np.testing.assert_array_equal([p for _r, p, _i in rows], side.peer)
    np.testing.assert_array_equal([len(i) for _r, _p, i in rows],
                                  side.words)
    for r, block in enumerate(side.idx):
        segs = [i for q, _p, i in rows if q == r]
        np.testing.assert_array_equal(
            np.concatenate(segs) if segs else np.zeros(0, np.int64), block)


@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(_mesh_params, st.integers(2, 6),
       st.sampled_from(["rcb", "greedy"]), st.sampled_from(["node",
                                                           "triangle"]))
def test_overlap_wave_roundtrips_and_counts(dims, nparts, method, entity):
    partition = _partition(dims, nparts, method)
    sched = build_overlap_schedule(partition, entity)
    _messages_tile_the_table(sched.send)
    _messages_tile_the_table(sched.recv)
    # the two tables are one relation: the owner table's (src, dst, words)
    # rows are the holder table's, in the other grouping
    np.testing.assert_array_equal(
        np.unique(_columns(sched.send), axis=1),
        np.unique(_columns(sched.recv), axis=1))
    assert len(sched.send.srcs) == sched.message_count()
    assert len(sched.recv.srcs) == sched.message_count()
    assert int(sched.send.words.sum()) == sched.volume()
    np.testing.assert_array_equal(np.sort(sched.send.words),
                                  np.sort(sched.recv.words))
    # a send side's per-rank segments tile the block exactly
    assert int(sched.send.counts.sum()) == sched.volume()
    np.testing.assert_array_equal(
        sched.send.starts,
        np.concatenate([[0], np.cumsum(sched.send.counts)[:-1]]))


@settings(max_examples=15, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(_mesh_params, st.integers(2, 5), st.sampled_from(["node",
                                                         "triangle"]))
def test_combine_wave_roundtrips_and_counts(dims, nparts, entity):
    partition = _partition(dims, nparts, "rcb")
    sched = build_combine_schedule(partition, entity)
    _messages_tile_the_table(sched.gather_send)
    _messages_tile_the_table(sched.gather_recv)
    # the gather round is the return round with every message reversed:
    # same tables, same index arrays, the other end sending
    for gather, back in ((sched.gather_send, sched.recv),
                         (sched.gather_recv, sched.send)):
        np.testing.assert_array_equal(gather.srcs, back.dsts)
        np.testing.assert_array_equal(gather.dsts, back.srcs)
        assert gather.words is back.words and gather.idx is back.idx
    # a combine moves two waves of message_count()/volume() each
    assert (len(sched.gather_send.srcs) + len(sched.send.srcs)
            == 2 * sched.message_count())
    assert (int(sched.gather_send.words.sum()) + int(sched.send.words.sum())
            == 2 * sched.volume())


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
    sends = plans(sched.send)
    for r, plan in enumerate(plans(sched.recv)):
        for src, idx in plan.items():
            expect[r][idx] = values[src][sends[src][r]]
    # wave: one gather into a block, one scatter out of it, emulating the
    # wire's per-(src, dst) channel matching between the two orders
    block = sched.send.gather(values)
    assert block.dtype == np.float64 and block.ndim == 1
    offs = np.concatenate([[0], np.cumsum(sched.send.words)])
    channel = {(int(s), int(d)): block[offs[i]:offs[i + 1]]
               for i, (s, d) in enumerate(zip(sched.send.srcs,
                                              sched.send.dsts))}
    pieces = [channel[(int(s), int(d))]
              for s, d in zip(sched.recv.srcs, sched.recv.dsts)]
    rblock = np.concatenate(pieces) if pieces else block
    got = [v.copy() for v in values]
    sched.recv.scatter(got, rblock)
    for a, b in zip(got, expect):
        np.testing.assert_array_equal(a, b)


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
             ("gather_send", "gather_recv", "send", "recv"))):
        sched = build(partition, "node")
        slices = [sched.for_rank(r) for r in range(nranks)]
        # the rank slices partition the messages of every wave side
        # exactly: rank-ascending concatenation is the full side
        for name in sides:
            np.testing.assert_array_equal(
                np.concatenate([_columns(getattr(s, name))
                                for s in slices], axis=1),
                _columns(getattr(sched, name)))
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
