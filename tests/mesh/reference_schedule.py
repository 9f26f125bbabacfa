"""Reference schedule builders for the differential tests: rank by rank.

These are the halo and migration builders the mesh layer shipped with
before both became one row-set builder: every rank's rows are grouped
per owner by one argsort of their own, and the two message tables are
assembled message by message from per-peer pieces.  Obviously correct,
and therefore the oracle: ``tests/mesh/test_schedule_reference.py``
holds :func:`repro.mesh.schedule.build_halo_schedule` and
:class:`repro.mesh.migrate.Migration` to them bit for bit.
"""

import numpy as np

from repro.errors import MeshError
from repro.mesh.migrate import _check_same_mesh
from repro.mesh.schedule import HaloSchedule, WaveSide, _table

#: one rank's holder-side slice of an entity's traffic: peer owner ranks
#: (ascending), per-peer message words, the rank's concatenated
#: holder-local indices, and the owner-local index segment it contributes
#: to each peer — everything :func:`_assemble_tables` needs
_HolderProfile = tuple[np.ndarray, np.ndarray, np.ndarray,
                       dict[int, np.ndarray]]


def _group_by_owner(rows: np.ndarray, pids: np.ndarray,
                    space) -> _HolderProfile:
    """One rank's local ``rows`` grouped per owner (the per-rank argsort).

    ``pids[i]`` is the packed id naming the owner of ``rows[i]``: it
    gives owner rank (``>> SHIFT``) and owner-local index (``& MASK``)
    directly, and one stable argsort by owner yields the per-peer message
    grouping with rows ascending inside each message (matching the
    historical global-id iteration order).
    """
    owner_ranks = space.owner_of(pids)
    order = np.argsort(owner_ranks, kind="stable")
    owners_sorted = owner_ranks[order]
    local_sorted = rows[order]
    owner_local_sorted = space.local_of(pids)[order]
    if len(owners_sorted):
        cut = np.flatnonzero(owners_sorted[1:] != owners_sorted[:-1]) + 1
        bounds = np.concatenate(
            [np.zeros(1, np.int64), cut,
             np.array([len(owners_sorted)], np.int64)])
        peers = owners_sorted[bounds[:-1]]
        words = bounds[1:] - bounds[:-1]
    else:
        bounds = np.zeros(1, np.int64)
        peers = np.zeros(0, np.int64)
        words = np.zeros(0, np.int64)
    pieces = {int(peers[k]):
              owner_local_sorted[int(bounds[k]):int(bounds[k + 1])]
              for k in range(len(peers))}
    return peers, words, local_sorted, pieces


def _overlap_profile(sub, entity: str, packing) -> _HolderProfile:
    """One rank's overlap rows grouped per kernel owner."""
    kern, total = sub.counts(entity)
    pids = packing.pack(sub.l2g[entity])[kern:]
    if (packing.space.owner_of(pids) == sub.rank).any():
        raise MeshError("overlap entity owned by its own rank")
    return _group_by_owner(np.arange(kern, total, dtype=np.int64), pids,
                           packing.space)


def _assemble_tables(profiles: list[_HolderProfile],
                     nranks: int) -> tuple[WaveSide, WaveSide]:
    """Assemble the holder and the owner table from per-rank profiles.

    Holder rows concatenate rank-ascending (profiles are indexed by
    rank); owner rows group each owner's pieces with holders ascending —
    exactly the historical plan order.
    """
    h_idx: list[np.ndarray] = []
    h_rank: list[int] = []
    h_peer: list[int] = []
    h_words: list[int] = []
    h_counts = np.zeros(nranks, np.int64)
    #: per owner rank: (holder rank, owner-local index block) pieces
    own_pieces: list[list[tuple[int, np.ndarray]]] = \
        [[] for _ in range(nranks)]
    for rank, (peers, words, local_sorted, pieces) in enumerate(profiles):
        h_idx.append(local_sorted)
        h_counts[rank] = len(local_sorted)
        for owner, nwords in zip(peers.tolist(), words.tolist()):
            h_rank.append(rank)
            h_peer.append(int(owner))
            h_words.append(int(nwords))
            own_pieces[int(owner)].append((rank, pieces[int(owner)]))

    o_idx: list[np.ndarray] = []
    o_rank: list[int] = []
    o_peer: list[int] = []
    o_words: list[int] = []
    o_counts = np.zeros(nranks, np.int64)
    for owner in range(nranks):
        pieces_o = own_pieces[owner]
        o_idx.append(np.concatenate([seg for _h, seg in pieces_o])
                     if pieces_o else np.zeros(0, np.int64))
        o_counts[owner] = len(o_idx[owner])
        for holder, seg in pieces_o:  # holders arrive rank-ascending
            o_rank.append(owner)
            o_peer.append(holder)
            o_words.append(len(seg))

    return (_table(h_rank, h_peer, h_words, h_idx, h_counts, sends=False),
            _table(o_rank, o_peer, o_words, o_idx, o_counts, sends=True))


def build_halo_schedule(partition, entity: str) -> HaloSchedule:
    """Plan one entity's halo traffic, both directions, rank by rank."""
    packing = partition.packing(entity)
    profiles = [_overlap_profile(sub, entity, packing)
                for sub in partition.subs]
    return HaloSchedule(entity,
                        *_assemble_tables(profiles, partition.nparts))


def build_migration(old, new, entity: str):
    """The migration schedule and the staying rows, rank by rank.

    Returns ``(schedule, stay)``: the schedule's owner table sends from
    the old kernel owners, its holder table receives into the new local
    slots; ``stay`` is the (rank, new local slot, old local slot) columns
    of the entities that stay on their rank.
    """
    _check_same_mesh(old, new, entity)
    packing = old.packing(entity)
    space = packing.space
    profiles, stays = [], []
    for sub in new.subs:
        pids = packing.pack(sub.l2g[entity])
        owner = space.owner_of(pids)
        rows = np.flatnonzero(owner != sub.rank)
        profiles.append(_group_by_owner(rows, pids[rows], space))
        stay = np.flatnonzero(owner == sub.rank)
        stays.append((np.full(len(stay), sub.rank), stay,
                      space.local_of(pids[stay])))
    schedule = HaloSchedule(entity,
                            *_assemble_tables(profiles, new.nparts))
    return schedule, tuple(np.concatenate(col) for col in zip(*stays))
