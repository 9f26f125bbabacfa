"""Property-based tests (hypothesis) for incremental schedule repair.

Online repartitioning repairs existing halo schedules instead of
rebuilding them; these properties pin the repair path to a fresh build
on random meshes, partitions, and moved-entity sets:

* :func:`~repro.mesh.schedule.repair_halo_schedule` produces the same
  two message tables, column for column (``rank``/``peer``/``words``/
  ``starts``/``counts`` and every per-rank ``idx`` block), as
  :func:`~repro.mesh.schedule.build_halo_schedule` on the new
  partition, and clean ranks' ``idx`` blocks are the old arrays;
* :func:`~repro.mesh.packedid.rewrite_packing` is a bijection on packed
  ids that preserves owner/local decode — including the widen-SHIFT
  fallback when a kernel outgrows the low field.
"""

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.mesh import (
    build_halo_schedule,
    build_partition,
    moved_entity_gids,
    repair_halo_schedule,
    repartition,
    rewrite_packing,
    schedule_dirty_ranks,
    structured_tri_mesh,
)
from repro.mesh.packedid import build_entity_packing
from repro.spec import spec_for_testiv

_mesh_params = st.tuples(st.integers(3, 7), st.integers(3, 7))
_pattern = spec_for_testiv().pattern


def _partition(dims, nparts, method):
    mesh = structured_tri_mesh(*dims)
    nparts = min(nparts, mesh.n_triangles)
    return build_partition(mesh, nparts, _pattern, method=method)


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


def _sides_equal(a, b):
    assert a.sends == b.sends
    np.testing.assert_array_equal(a.rank, b.rank)
    np.testing.assert_array_equal(a.peer, b.peer)
    np.testing.assert_array_equal(a.srcs, b.srcs)
    np.testing.assert_array_equal(a.dsts, b.dsts)
    np.testing.assert_array_equal(a.words, b.words)
    np.testing.assert_array_equal(a.starts, b.starts)
    np.testing.assert_array_equal(a.counts, b.counts)
    assert len(a.idx) == len(b.idx)
    for ia, ib in zip(a.idx, b.idx):
        np.testing.assert_array_equal(ia, ib)


@settings(max_examples=20, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(_mesh_params, st.integers(2, 6),
       st.sampled_from(["rcb", "greedy"]),
       st.sampled_from(["node", "triangle"]),
       st.integers(0, 2 ** 31 - 1),
       st.sampled_from([0.05, 0.2, 0.6]))
def test_overlap_repair_matches_full_rebuild(dims, nparts, method, entity,
                                             seed, frac):
    old = _partition(dims, nparts, method)
    new = repartition(old, _perturbed_ranks(old, seed, frac))
    old_sched = build_halo_schedule(old, entity)
    full = build_halo_schedule(new, entity)
    inc = repair_halo_schedule(old_sched, old, new, entity)
    _sides_equal(inc.holder, full.holder)
    _sides_equal(inc.owner, full.owner)
    _sides_equal(inc.send, full.send)
    _sides_equal(inc.recv, full.recv)
    assert inc.message_count() == full.message_count()
    assert inc.volume() == full.volume()
    # a clean rank's holder block is spliced in, not recomputed (an
    # owner block also survives unless a dirty holder touches it)
    dirty = set(schedule_dirty_ranks(old, new, entity).tolist())
    for rank in set(range(old.nparts)) - dirty:
        assert inc.holder.idx[rank] is old_sched.holder.idx[rank]
    # a precomputed dirty set gives the same tables
    pre = repair_halo_schedule(
        old_sched, old, new, entity,
        dirty=np.array(sorted(dirty), dtype=np.int64))
    _sides_equal(pre.holder, full.holder)
    _sides_equal(pre.owner, full.owner)


@settings(max_examples=15, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(_mesh_params, st.integers(2, 5),
       st.sampled_from(["node", "triangle"]),
       st.integers(0, 2 ** 31 - 1),
       st.sampled_from([0.05, 0.2, 0.6]))
def test_combine_repair_matches_full_rebuild(dims, nparts, entity, seed,
                                             frac):
    old = _partition(dims, nparts, "rcb")
    new = repartition(old, _perturbed_ranks(old, seed, frac))
    old_sched = build_halo_schedule(old, entity)
    full = build_halo_schedule(new, entity)
    inc = repair_halo_schedule(old_sched, old, new, entity)
    for side in ("gather_send", "gather_recv", "send", "recv"):
        _sides_equal(getattr(inc, side), getattr(full, side))
    # the gather readings are views of the repaired tables, not copies
    assert inc.gather_send.idx is inc.holder.idx
    assert inc.gather_recv.idx is inc.owner.idx


@settings(max_examples=15, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(_mesh_params, st.integers(2, 6),
       st.sampled_from(["node", "triangle"]),
       st.integers(0, 2 ** 31 - 1),
       st.sampled_from([0.05, 0.2, 0.6]))
def test_clean_ranks_have_identical_profiles(dims, nparts, entity, seed,
                                             frac):
    """Ranks outside the dirty set really are untouched.

    The repair path reuses their wave rows by reference; this pins the
    claim that justifies it — same ``l2g``, same kernel count, and no
    local entity in the moved set.
    """
    old = _partition(dims, nparts, "rcb")
    new = repartition(old, _perturbed_ranks(old, seed, frac))
    moved = moved_entity_gids(old, new, entity)
    dirty = set(schedule_dirty_ranks(old, new, entity, moved).tolist())
    moved_mask = np.zeros(old.mesh.entity_count(entity), dtype=bool)
    moved_mask[moved] = True
    for rank in range(old.nparts):
        if rank in dirty:
            continue
        so, sn = old.subs[rank], new.subs[rank]
        np.testing.assert_array_equal(so.l2g[entity], sn.l2g[entity])
        assert so.kernel_count[entity] == sn.kernel_count[entity]
        lg = sn.l2g[entity]
        assert not (len(lg) and moved_mask[lg].any())


def _kernels(partition, entity):
    return [s.l2g[entity][:s.kernel_count[entity]] for s in partition.subs]


@settings(max_examples=20, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(_mesh_params, st.integers(2, 6),
       st.sampled_from(["node", "triangle"]),
       st.integers(0, 2 ** 31 - 1),
       st.sampled_from([0.05, 0.2, 0.6]))
def test_rewrite_packing_bijection_and_decode(dims, nparts, entity, seed,
                                              frac):
    old = _partition(dims, nparts, "rcb")
    new = repartition(old, _perturbed_ranks(old, seed, frac))
    rewritten = rewrite_packing(old.packing(entity),
                                _kernels(old, entity),
                                _kernels(new, entity))
    # bijection: every global id gets a distinct packed word
    assert len(np.unique(rewritten.g2p)) == len(rewritten.g2p)
    # owner/local decode matches a from-scratch build of the new layout
    fresh = build_entity_packing(entity, new.nparts, _kernels(new, entity),
                                 new.mesh.entity_count(entity))
    np.testing.assert_array_equal(
        rewritten.space.owner_of(rewritten.g2p),
        fresh.space.owner_of(fresh.g2p))
    np.testing.assert_array_equal(
        rewritten.space.local_of(rewritten.g2p),
        fresh.space.local_of(fresh.g2p))
    # decoded local slots stay inside the owner's kernel
    owners = rewritten.space.owner_of(rewritten.g2p)
    locals_ = rewritten.space.local_of(rewritten.g2p)
    kern = np.array([new.subs[r].kernel_count[entity]
                     for r in range(new.nparts)], dtype=np.int64)
    assert (locals_ < kern[owners]).all()
    # origin round-trip: packed -> gid -> packed is the identity
    gids = np.arange(len(rewritten.g2p), dtype=np.int64)
    np.testing.assert_array_equal(
        rewritten.origin_of(rewritten.g2p[gids]), gids)


def test_rewrite_packing_widen_shift_fallback():
    """A kernel outgrowing the low field forces a full rebuild.

    Old kernels of 5 give SHIFT=3 (span 8); concentrating 9 entities on
    one rank needs SHIFT=4, so every packed word changes — the rewrite
    must fall back to :func:`build_entity_packing` and still decode the
    new layout exactly.
    """
    n = 10
    old_k = [np.arange(5, dtype=np.int64), np.arange(5, 10, dtype=np.int64)]
    new_k = [np.arange(9, dtype=np.int64), np.array([9], dtype=np.int64)]
    old = build_entity_packing("node", 2, old_k, n)
    assert old.space.shift == 3
    rewritten = rewrite_packing(old, old_k, new_k)
    assert rewritten.space.shift == 4
    fresh = build_entity_packing("node", 2, new_k, n)
    np.testing.assert_array_equal(rewritten.g2p, fresh.g2p)
    assert rewritten.space.owner_of(rewritten.g2p[9]) == 1
    assert rewritten.space.local_of(rewritten.g2p[9]) == 0


def test_rewrite_packing_rejects_rank_count_change():
    old_k = [np.arange(3, dtype=np.int64), np.arange(3, 6, dtype=np.int64)]
    old = build_entity_packing("node", 2, old_k, 6)
    import pytest

    from repro.errors import MeshError
    with pytest.raises(MeshError, match="rank count changed"):
        rewrite_packing(old, old_k, [np.arange(6, dtype=np.int64)])
