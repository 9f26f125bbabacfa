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

Both tables come from one **row set** over all ranks (a star forest of
leaf → root rows, as in Knepley–Lange–Gorman): rank ``holder`` keeps
owner ``owner``'s row ``owner_row`` in its local ``row``.  Owner rank and
owner row are read off each row's **packed id** (``rank << SHIFT |
local``, :mod:`repro.mesh.packedid`) by shift and mask, and two stable
sorts of the row set order the two tables (:func:`row_set_schedule`) —
no dict, no Python loop per rank or per message.  A halo schedule's row
set is every rank's overlap tail; a migration's
(:class:`~repro.mesh.migrate.Migration`) is every new local row whose
old owner is another rank.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np

from ..errors import MeshError
from .overlap import MeshPartition
from .partition import run_starts

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


def local_rows(subs, entity: str, packing) -> tuple[np.ndarray, ...]:
    """Every rank's local ``entity`` rows as one all-ranks row set.

    Four columns, holder-ascending and row-ascending within a holder:
    the rank holding a copy, its local row, and — decoded from
    ``packing``'s packed id of the entity there — the owner rank and
    the owner's local row.  ``subs`` and ``packing`` may come from two
    partitions of one mesh (migration reads the new holders against the
    old owners).
    """
    l2g = [sub.l2g[entity] for sub in subs]
    sizes = np.fromiter(map(len, l2g), np.int64, len(l2g))
    holder = np.repeat(np.arange(len(l2g), dtype=np.int64), sizes)
    row = np.arange(len(holder), dtype=np.int64) \
        - np.repeat(np.cumsum(sizes) - sizes, sizes)
    owner, owner_row = packing.space.unpack(
        packing.pack(np.concatenate(l2g)))
    return holder, row, owner, owner_row


def _side(rank, peer, idx, nranks: int, sends: bool) -> WaveSide:
    """A table over rows sorted by (plan rank, peer): one message per run
    of equal pairs, each rank's index block cut at the rank counts."""
    first = run_starts(rank * nranks + peer)
    counts = np.bincount(rank, minlength=nranks)
    return _table(rank[first], peer[first], np.diff(first, append=len(rank)),
                  np.split(idx, np.cumsum(counts[:-1])), counts, sends)


def row_set_schedule(entity: str, holder, row, owner, owner_row,
                     nranks: int) -> HaloSchedule:
    """Both message tables of an all-ranks row set.

    Row *i* says that rank ``holder[i]`` keeps, in its local row
    ``row[i]``, a copy of owner rank ``owner[i]``'s row ``owner_row[i]``;
    rows arrive holder-ascending, row-ascending within a holder.  One
    stable argsort by (holder, owner) orders the holder table; that
    order stably re-sorted by owner is the owner table, holders
    ascending within each owner.  Every message keeps its rows in holder
    row order on both ends.

    The two-triangle mesh on two ranks: each rank holds the other's two
    kernel nodes in its local rows 2 and 3.

    >>> from repro.mesh import build_partition, two_triangle_mesh
    >>> part = build_partition(two_triangle_mesh(), 2, "overlap-elements-2d")
    >>> rows = local_rows(part.subs, "node", part.packing("node"))
    >>> copies = rows[0] != rows[2]          # held here, owned elsewhere
    >>> [col[copies].tolist() for col in rows]
    [[0, 0, 1, 1], [2, 3, 2, 3], [1, 1, 0, 0], [0, 1, 0, 1]]
    >>> sched = row_set_schedule("node", *(col[copies] for col in rows),
    ...                          nranks=2)
    >>> [idx.tolist() for idx in sched.owner.idx]
    [[0, 1], [0, 1]]
    >>> [idx.tolist() for idx in sched.holder.idx]
    [[2, 3], [2, 3]]
    """
    order = np.argsort(holder * nranks + owner, kind="stable")
    by_owner = order[np.argsort(owner[order], kind="stable")]
    return HaloSchedule(
        entity,
        _side(holder[order], owner[order], row[order], nranks, sends=False),
        _side(owner[by_owner], holder[by_owner], owner_row[by_owner],
              nranks, sends=True))


def build_halo_schedule(partition: MeshPartition,
                        entity: str) -> HaloSchedule:
    """Plan one entity's halo traffic, both directions: the row set is
    every rank's overlap tail."""
    holder, row, owner, owner_row = local_rows(
        partition.subs, entity, partition.packing(entity))
    tail = row >= partition.kernel_sizes(entity)[holder]
    holder, row, owner, owner_row = \
        holder[tail], row[tail], owner[tail], owner_row[tail]
    if (owner == holder).any():
        raise MeshError("overlap entity owned by its own rank")
    return row_set_schedule(entity, holder, row, owner, owner_row,
                            partition.nparts)


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
