"""Halo communication schedules: who sends which entities to whom.

Built once per (partition, entity) — the static counterpart of the
inspector phase in inspector/executor systems (paper section 5.1: "in our
tool, the run-time inspector phase is replaced by an extra static analysis
done by the mesh splitter").

Figures 1, 2 and 8 are three readings of one fact — which rank holds a
copy of which owner's entity — so there is one :class:`HaloSchedule` per
entity, holding that fact as two message tables (:class:`WaveSide`):

* the **holder** table: one row per (holder, owner) pair, plan rank = the
  rank holding overlap copies, indices = the holder-local overlap slots;
* the **owner** table: the same pairs grouped by kernel owner, indices =
  the owner-local kernel slots the copies mirror.

Owners pushing authoritative values onto the copies (an overlap update,
figures 1/8, and the return round of a combine) read the owner table as
the sending side and the holder table as the receiving side; holders
sending partial contributions to the owner (the gather round of a
combine, figure 2) read the same two tables the other way round.  One
message per pair, indices sorted by global id, so exchanges are
deterministic and self-consistent.

The tables are flat numpy channel columns plus per-rank concatenated
gather/scatter index arrays, so the halo collectives move one
concatenated block per wave (``SimComm.send_block``/``recv_block``).
What ``check_schedules`` (CC008) verifies is these very tables.

Construction is dict-free: every overlap entity's owner rank and
owner-local index come from its **packed id** (``rank << SHIFT | local``,
:mod:`repro.mesh.packedid`) by shift and mask, and one stable argsort by
owner groups a rank's overlap into per-peer messages.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np

from ..errors import MeshError
from .overlap import MeshPartition

_EMPTY = np.zeros(0, np.int64)


@dataclass(frozen=True)
class WaveSide:
    """One message table of a halo schedule, flattened for block waves.

    Rows are in exactly the order the per-message collectives iterate
    them — plan rank ascending, then peer in insertion (rank-ascending)
    order — so a block built from (or scattered through) this table is
    bit-compatible with the per-neighbour loop:

    * ``rank``/``peer``/``words`` — one entry per message, wave order;
      ``sends`` says which end the plan rank is, which makes them the
      ``srcs``/``dsts`` columns handed to ``send_block``/``recv_block``.
    * ``idx[r]`` — rank ``r``'s local indices for all its messages,
      concatenated in wave order (gather indices when it sends, scatter
      indices when it receives).
    * ``starts[r]``/``counts[r]`` — rank ``r``'s word segment inside the
      concatenated block (ranks' segments are contiguous in wave order).
    """

    rank: np.ndarray
    peer: np.ndarray
    words: np.ndarray
    idx: list[np.ndarray]
    starts: np.ndarray
    counts: np.ndarray
    #: whether the plan rank is the sending end of every message
    sends: bool
    #: per-rank row counts -> rebased flat wave index (lazy; shared by
    #: both readings of one table, which index the same rows)
    _flat_cache: dict = field(default_factory=dict, repr=False,
                              compare=False)

    @property
    def srcs(self) -> np.ndarray:
        return self.rank if self.sends else self.peer

    @property
    def dsts(self) -> np.ndarray:
        return self.peer if self.sends else self.rank

    @property
    def active(self) -> np.ndarray:
        """Ranks whose block segment is non-empty, ascending."""
        return np.flatnonzero(self.counts)

    def _rows(self, rank: int) -> slice:
        """Row range of one plan rank (the rank column is ascending)."""
        return slice(np.searchsorted(self.rank, rank, side="left"),
                     np.searchsorted(self.rank, rank, side="right"))

    def for_rank(self, rank: int) -> "WaveSide":
        """The rows whose plan rank is ``rank``; its index array shared."""
        rows = self._rows(rank)
        counts = np.zeros_like(self.counts)
        counts[rank] = self.counts[rank]
        idx = [_EMPTY] * len(self.idx)
        idx[rank] = self.idx[rank]
        return _table(self.rank[rows], self.peer[rows], self.words[rows],
                      idx, counts, self.sends)

    def gather(self, arrays: list[np.ndarray]) -> np.ndarray:
        """Assemble the wave's send block from per-rank value arrays."""
        parts = [arrays[r][self.idx[r]] for r in self.active.tolist()]
        return np.concatenate(parts) if parts else np.zeros(0, np.float64)

    def scatter(self, arrays: list[np.ndarray], block: np.ndarray,
                op=None) -> None:
        """Write (or ``op.at``-accumulate) a received block in place.

        With ``op=None`` the block overwrites; otherwise ``op`` is a numpy
        ufunc applied unbuffered (``np.add.at``-style), which reproduces
        the per-message accumulation order exactly: indices repeat across
        messages only in the order the messages arrive.
        """
        for r in self.active.tolist():
            seg = block[self.starts[r]:self.starts[r] + self.counts[r]]
            if op is None:
                arrays[r][self.idx[r]] = seg
            else:
                op.at(arrays[r], self.idx[r], seg)

    # -- the all-ranks slab path --------------------------------------------

    def flat_index(self, rows: tuple) -> np.ndarray:
        """Wave indices rebased into one all-ranks buffer.

        ``rows[r]`` is rank r's row count in the buffer, whose rank
        segments are concatenated in rank order (a
        :class:`~repro.lang.vectorize.Slab`); the result indexes the
        whole wave's rows in block order, so a gather is ``flat[fidx]``
        and a scatter ``flat[fidx] = block`` — one fancy index for every
        rank at once.  Cached per row-count table.
        """
        cached = self._flat_cache.get(rows)
        if cached is None:
            starts = np.cumsum((0,) + tuple(rows[:-1]))
            parts = [self.idx[r] + starts[r] for r in self.active.tolist()]
            cached = np.concatenate(parts) if parts \
                else np.zeros(0, np.int64)
            self._flat_cache[rows] = cached
        return cached

    def flat_gather(self, slab) -> np.ndarray:
        """Assemble the send block from a slab's all-ranks buffer."""
        return slab.flat[self.flat_index(slab.rows)]

    def flat_scatter(self, slab, block: np.ndarray, op=None) -> None:
        """Scatter a received block into a slab's all-ranks buffer.

        Per-rank segments of the buffer are disjoint and the flat index
        concatenates ranks in ascending order, so ``op.at`` over it
        applies exactly the per-rank, per-message accumulation sequence
        of :meth:`scatter`.
        """
        fidx = self.flat_index(slab.rows)
        if op is None:
            slab.flat[fidx] = block
        else:
            op.at(slab.flat, fidx, block)


def _table(rank, peer, words, idx: list[np.ndarray], counts: np.ndarray,
           sends: bool) -> WaveSide:
    """A :class:`WaveSide` over message columns and per-rank index
    blocks; per-rank block segments are contiguous in wave order."""
    starts = np.zeros(len(counts), np.int64)
    np.cumsum(counts[:-1], out=starts[1:])
    return WaveSide(rank=np.asarray(rank, np.int64),
                    peer=np.asarray(peer, np.int64),
                    words=np.asarray(words, np.int64),
                    idx=idx, starts=starts, counts=counts, sends=sends)


@dataclass(frozen=True)
class HaloSchedule:
    """One entity's halo traffic: the holder table and the owner table.

    The collectives read the pair four ways, every reading a view that
    shares the two tables' arrays:

    * ``send``/``recv`` — owner → holder: an overlap update, and the
      return round of a combine (the owner table sends, the holder
      table receives);
    * ``gather_send``/``gather_recv`` — holder → owner: the gather round
      of a combine (the holder table sends, the owner table receives).
    """

    entity: str
    holder: WaveSide   # plan rank = the rank holding overlap copies
    owner: WaveSide    # plan rank = the kernel owner

    @property
    def send(self) -> WaveSide:
        return self.owner

    @property
    def recv(self) -> WaveSide:
        return self.holder

    @cached_property
    def gather_send(self) -> WaveSide:
        return replace(self.holder, sends=True)

    @cached_property
    def gather_recv(self) -> WaveSide:
        return replace(self.owner, sends=False)

    def message_count(self) -> int:
        """Messages of one wave (a combine moves two waves)."""
        return len(self.owner.words)

    def volume(self) -> int:
        """Words of one wave (a combine moves two waves)."""
        return int(self.owner.words.sum())

    def for_rank(self, rank: int) -> "HaloSchedule":
        """One rank's rows of both tables: the messages ``rank`` sends
        and the messages it receives, in either direction.

        A collective driven over the restriction moves (and writes) only
        ``rank``'s slice, on the same ``(src, dst, tag)`` channels in the
        same per-channel order — what localized restart re-drives.
        """
        return HaloSchedule(self.entity, self.holder.for_rank(rank),
                            self.owner.for_rank(rank))


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
    pids = sub.packed_ids(entity, packing)[kern:]
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


def build_halo_schedule(partition: MeshPartition,
                        entity: str) -> HaloSchedule:
    """Plan one entity's halo traffic, both directions, dict-free."""
    packing = partition.packing(entity)
    profiles = [_overlap_profile(sub, entity, packing)
                for sub in partition.subs]
    return HaloSchedule(entity,
                        *_assemble_tables(profiles, partition.nparts))


#: an overlap update and a combine run over the same schedule; the two
#: historical builder names are kept for callers that say which they mean
build_overlap_schedule = build_combine_schedule = build_halo_schedule


# -- migration-epoch accounting ----------------------------------------------
#
# A migration epoch rebuilds every cached schedule on the new partition;
# these two measure how much of the old layout the move disturbed.


def moved_entity_gids(old: MeshPartition, new: MeshPartition,
                      entity: str) -> np.ndarray:
    """Global ids whose (owner rank, owner-local index) changed.

    Compared semantically — not as raw packed words — so a SHIFT change
    (a kernel outgrowing the low field) does not flag unmoved entities.
    """
    po, pn = old.packing(entity), new.packing(entity)
    if po.space.shift == pn.space.shift:
        return np.flatnonzero(po.g2p != pn.g2p)
    r_old, l_old = po.space.unpack(po.g2p)
    r_new, l_new = pn.space.unpack(pn.g2p)
    return np.flatnonzero((r_old != r_new) | (l_old != l_new))


def schedule_dirty_ranks(old: MeshPartition, new: MeshPartition,
                         entity: str,
                         moved: np.ndarray | None = None) -> np.ndarray:
    """Ranks whose holder profile may differ between two partitions.

    A rank is *clean* when its local entity view is untouched: same
    ``l2g`` array, same kernel count, and none of its local entities is
    in the moved set (so every packed id it reads decodes unchanged).
    Clean ranks' holder rows and index arrays are provably identical in
    the old and the new partition's schedules.
    """
    if moved is None:
        moved = moved_entity_gids(old, new, entity)
    moved_mask = np.zeros(len(old.packing(entity).g2p), dtype=bool)
    moved_mask[moved] = True
    nparts = old.nparts
    kc_old = np.fromiter((s.kernel_count[entity] for s in old.subs),
                         np.int64, nparts)
    kc_new = np.fromiter((s.kernel_count[entity] for s in new.subs),
                         np.int64, nparts)
    len_old = np.fromiter((len(s.l2g[entity]) for s in old.subs),
                          np.int64, nparts)
    len_new = np.fromiter((len(s.l2g[entity]) for s in new.subs),
                          np.int64, nparts)
    dirty_mask = (kc_old != kc_new) | (len_old != len_new)
    # one concatenated pass over the equal-length ranks replaces a
    # per-rank array_equal loop: a position where the l2g differs or
    # names a moved entity dirties the rank that owns that position
    same = np.flatnonzero(~dirty_mask)
    if len(same):
        cat_old = np.concatenate([old.subs[r].l2g[entity] for r in same])
        cat_new = np.concatenate([new.subs[r].l2g[entity] for r in same])
        bad = np.flatnonzero((cat_old != cat_new) | moved_mask[cat_new])
        if len(bad):
            ends = np.cumsum(len_new[same])
            hits = np.unique(np.searchsorted(ends, bad, side="right"))
            dirty_mask[same[hits]] = True
    return np.flatnonzero(dirty_mask).astype(np.int64)
