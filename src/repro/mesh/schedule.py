"""Halo communication schedules: who sends which entities to whom.

Built once per (partition, entity) — the static counterpart of the
inspector phase in inspector/executor systems (paper section 5.1: "in our
tool, the run-time inspector phase is replaced by an extra static analysis
done by the mesh splitter").

Two schedule shapes:

* :class:`OverlapSchedule` (figures 1/8): owners push authoritative
  values onto the overlap copies of their neighbours; one message per
  (owner, holder) pair, indices sorted by global id so exchanges are
  deterministic and self-consistent.
* :class:`CombineSchedule` (figure 2): two phases — holders send their
  partial contributions to each entity's owner, the owner assembles
  (associative/commutative op) and returns the total to every holder.

Both schedules also materialize as *wave plans* (:meth:`OverlapSchedule.wave`
/ :meth:`CombineSchedule.wave`): per-peer index columns flattened into
numpy channel columns plus per-rank concatenated gather/scatter index
arrays, so the halo collectives can move one concatenated float64 block per
wave (``SimComm.send_block``/``recv_block``) instead of one Python payload
per neighbour.  A wave side is exactly the ``PeerPlan`` list re-expressed —
the property tests round-trip one into the other.

Construction is dict-free: every overlap entity's owner rank and
owner-local index come from its **packed id** (``rank << SHIFT | local``,
:mod:`repro.mesh.packedid`) by shift and mask, and one stable argsort by
owner groups a rank's overlap into per-peer messages.  The wave index
arrays are built directly from those sorted columns; the ``PeerPlan``
dictionaries the public API (and the per-message reference path) expose
are *derived* from the waves via :meth:`WaveSide.plans`, not the other
way round.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from ..errors import MeshError
from .overlap import MeshPartition

PeerPlan = dict[int, np.ndarray]  # peer rank -> local indices (ordered)


@dataclass(frozen=True)
class WaveSide:
    """One direction of a halo wave, flattened for the block-wave API.

    The messages appear in exactly the order the per-message collectives
    iterate them — plan-owner rank ascending, then peer rank ascending —
    so a block built from (or scattered through) this side is
    bit-compatible with the historical per-neighbour loop:

    * ``srcs``/``dsts``/``words`` — one entry per message, wave order;
      these are the columns handed to ``send_block``/``recv_block``.
    * ``idx[r]`` — rank ``r``'s local indices for all its messages,
      concatenated in wave order (gather indices on a send side,
      scatter indices on a receive side).
    * ``starts[r]``/``counts[r]`` — rank ``r``'s word segment inside the
      concatenated block (ranks' segments are contiguous in wave order).
    """

    srcs: np.ndarray
    dsts: np.ndarray
    words: np.ndarray
    idx: list[np.ndarray]
    starts: np.ndarray
    counts: np.ndarray

    @property
    def active(self) -> np.ndarray:
        """Ranks whose block segment is non-empty, ascending."""
        return np.flatnonzero(self.counts)

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

    # -- flat-store fast path ----------------------------------------------

    def flat_index(self, offsets: np.ndarray) -> np.ndarray:
        """Wave indices rebased into one flat all-ranks buffer.

        ``offsets[r]`` is rank r's row offset inside the flat buffer (see
        :mod:`repro.runtime.flatstore`); the result indexes the whole
        wave's words in block order, so a gather is ``flat[fidx]`` and a
        scatter ``flat[fidx] = block`` — one fancy index for every rank
        at once.  Cached per offsets table.
        """
        key = offsets.tobytes()
        cached = self._flat_cache.get(key)
        if cached is None:
            parts = [self.idx[r] + offsets[r] for r in self.active.tolist()]
            cached = np.concatenate(parts) if parts \
                else np.zeros(0, np.int64)
            self._flat_cache[key] = cached
        return cached

    def flat_gather(self, flat: np.ndarray,
                    offsets: np.ndarray) -> np.ndarray:
        """Assemble the send block from a flat all-ranks buffer."""
        return flat[self.flat_index(offsets)]

    def flat_scatter(self, flat: np.ndarray, offsets: np.ndarray,
                     block: np.ndarray, op=None) -> None:
        """Scatter a received block into a flat all-ranks buffer.

        Per-rank segments of the flat buffer are disjoint and the flat
        index concatenates ranks in ascending order, so ``op.at`` over it
        applies exactly the per-rank, per-message accumulation sequence
        of :meth:`scatter`.
        """
        fidx = self.flat_index(offsets)
        if op is None:
            flat[fidx] = block
        else:
            op.at(flat, fidx, block)

    def plans(self, nranks: int) -> list[PeerPlan]:
        """Reconstruct the ``PeerPlan`` list this side was built from."""
        out: list[PeerPlan] = [dict() for _ in range(nranks)]
        cursor = np.zeros(nranks, np.int64)
        for i in range(len(self.srcs)):
            s, d, w = int(self.srcs[i]), int(self.dsts[i]), int(self.words[i])
            r = s if self._owner_is_src else d
            peer = d if self._owner_is_src else s
            start = int(cursor[r])
            out[r][peer] = self.idx[r][start:start + w]
            cursor[r] += w
        return out

    # set by _wave_side; dataclass(frozen) forbids plain assignment
    _owner_is_src: bool = True
    #: offsets-table bytes -> rebased flat wave index (lazy)
    _flat_cache: dict = field(default_factory=dict, repr=False,
                              compare=False)


def _starts(counts: np.ndarray) -> np.ndarray:
    """Per-rank start offsets of contiguous block segments."""
    starts = np.zeros(len(counts), np.int64)
    np.cumsum(counts[:-1], out=starts[1:])
    return starts


def _wave_side(plans: list[PeerPlan], owner_is_src: bool) -> WaveSide:
    """Flatten one ``PeerPlan`` list into a :class:`WaveSide`.

    ``owner_is_src`` says which message endpoint the outer list indexes:
    True for send plans (plan owner transmits), False for receive plans.
    """
    nranks = len(plans)
    srcs: list[int] = []
    dsts: list[int] = []
    words: list[int] = []
    idx: list[np.ndarray] = []
    counts = np.zeros(nranks, np.int64)
    for r, plan in enumerate(plans):
        pieces: list[np.ndarray] = []
        for peer, ix in plan.items():  # peers are rank-ascending
            srcs.append(r if owner_is_src else peer)
            dsts.append(peer if owner_is_src else r)
            words.append(len(ix))
            pieces.append(ix)
        idx.append(np.concatenate(pieces) if pieces
                   else np.zeros(0, np.int64))
        counts[r] = len(idx[r])
    return WaveSide(srcs=np.asarray(srcs, np.int64),
                    dsts=np.asarray(dsts, np.int64),
                    words=np.asarray(words, np.int64),
                    idx=idx, starts=_starts(counts), counts=counts,
                    _owner_is_src=owner_is_src)


@dataclass(frozen=True)
class OverlapWave:
    """Block-wave form of an :class:`OverlapSchedule`: one send wave
    (owners push) and its receiving side (holders fill)."""

    send: WaveSide
    recv: WaveSide


@dataclass(frozen=True)
class CombineWave:
    """Block-wave form of a :class:`CombineSchedule`: the gather round
    (holders → owners) and the return round (owners → holders), each as
    a send side and a receive side."""

    gather_send: WaveSide
    gather_recv: WaveSide
    return_send: WaveSide
    return_recv: WaveSide


def _only(plans: list[PeerPlan], rank: int) -> list[PeerPlan]:
    """``plans`` with every rank's plan but ``rank``'s emptied."""
    return [plan if r == rank else {} for r, plan in enumerate(plans)]


@dataclass
class OverlapSchedule:
    """Owner→copy refresh plan for one entity."""

    entity: str
    sends: list[PeerPlan]   # sends[r][dest] = local indices at r to send
    recvs: list[PeerPlan]   # recvs[r][src]  = local indices at r to fill

    def message_count(self) -> int:
        return sum(len(p) for p in self.sends)

    def volume(self) -> int:
        return sum(len(idx) for p in self.sends for idx in p.values())

    @cached_property
    def _wave(self) -> OverlapWave:
        return OverlapWave(send=_wave_side(self.sends, owner_is_src=True),
                           recv=_wave_side(self.recvs, owner_is_src=False))

    def wave(self) -> OverlapWave:
        """Flat index-array form for the block-wave halo path (cached)."""
        return self._wave

    def for_rank(self, rank: int) -> "OverlapSchedule":
        """One rank's rows of this schedule: the messages ``rank`` sends
        and the messages it receives, every other rank's plan empty.

        A collective driven over the restriction moves (and writes) only
        ``rank``'s slice, on the same ``(src, dst, tag)`` channels in the
        same per-channel order — what localized restart re-drives.
        """
        return OverlapSchedule(self.entity, _only(self.sends, rank),
                               _only(self.recvs, rank))


@dataclass
class CombineSchedule:
    """Two-phase gather/assemble/return plan for one entity."""

    entity: str
    gather_sends: list[PeerPlan]   # holder -> owner (partials out)
    gather_recvs: list[PeerPlan]   # owner  <- holder
    return_sends: list[PeerPlan]   # owner -> holder (totals back)
    return_recvs: list[PeerPlan]   # holder <- owner

    def message_count(self) -> int:
        return (sum(len(p) for p in self.gather_sends)
                + sum(len(p) for p in self.return_sends))

    def volume(self) -> int:
        return (sum(len(i) for p in self.gather_sends for i in p.values())
                + sum(len(i) for p in self.return_sends for i in p.values()))

    @cached_property
    def _wave(self) -> CombineWave:
        return CombineWave(
            gather_send=_wave_side(self.gather_sends, owner_is_src=True),
            gather_recv=_wave_side(self.gather_recvs, owner_is_src=False),
            return_send=_wave_side(self.return_sends, owner_is_src=True),
            return_recv=_wave_side(self.return_recvs, owner_is_src=False))

    def wave(self) -> CombineWave:
        """Flat index-array form for the block-wave halo path (cached)."""
        return self._wave

    def for_rank(self, rank: int) -> "CombineSchedule":
        """One rank's rows of both rounds (see
        :meth:`OverlapSchedule.for_rank`)."""
        return CombineSchedule(
            self.entity,
            _only(self.gather_sends, rank), _only(self.gather_recvs, rank),
            _only(self.return_sends, rank), _only(self.return_recvs, rank))


@dataclass(frozen=True)
class _PackedTables:
    """Per-direction flat message tables over one entity's overlap.

    ``rank``/``peer``/``words`` are message columns in plan order (plan
    owner ascending, then peer ascending); ``idx[r]`` concatenates plan
    owner r's local indices in the same order.
    """

    rank: np.ndarray
    peer: np.ndarray
    words: np.ndarray
    idx: list[np.ndarray]
    starts: np.ndarray
    counts: np.ndarray

    def side(self, *, owner_is_src: bool, plan_is_src: bool) -> WaveSide:
        """Materialize a :class:`WaveSide` over these tables."""
        srcs, dsts = ((self.rank, self.peer) if plan_is_src
                      else (self.peer, self.rank))
        return WaveSide(srcs=srcs, dsts=dsts, words=self.words,
                        idx=self.idx, starts=self.starts, counts=self.counts,
                        _owner_is_src=owner_is_src)


#: one rank's holder-side slice of an entity's halo traffic: peer owner
#: ranks (ascending), per-peer message words, the rank's concatenated
#: holder-local indices, and the owner-local index segment it contributes
#: to each peer — everything :func:`_assemble_tables` needs
_HolderProfile = tuple[np.ndarray, np.ndarray, np.ndarray,
                       dict[int, np.ndarray]]


def _holder_profile(sub, entity: str, packing) -> _HolderProfile:
    """One rank's overlap grouped per owner (the per-rank argsort).

    The packed ids of the rank's overlap entities give owner rank
    (``>> SHIFT``) and owner-local index (``& MASK``) directly; one
    stable argsort by owner yields the per-peer message grouping with
    indices ascending inside each message (matching the historical
    global-id iteration order).
    """
    shift = np.int64(packing.space.shift)
    mask = np.int64(packing.space.mask)
    kern, total = sub.counts(entity)
    pids = sub.packed_ids(entity, packing)[kern:]
    owner_ranks = pids >> shift
    if (owner_ranks == sub.rank).any():
        raise MeshError("overlap entity owned by its own rank")
    order = np.argsort(owner_ranks, kind="stable")
    owners_sorted = owner_ranks[order]
    local_sorted = np.arange(kern, total, dtype=np.int64)[order]
    owner_local_sorted = (pids & mask)[order]
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


def _assemble_tables(profiles: list[_HolderProfile],
                     nranks: int) -> tuple[_PackedTables, _PackedTables]:
    """Assemble both message tables from per-rank holder profiles.

    Holder rows concatenate rank-ascending (profiles are indexed by
    rank); owner rows group each owner's pieces with holders ascending —
    exactly the historical plan order, whichever way the profiles were
    obtained (full rebuild or incremental repair).
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

    holder = _PackedTables(rank=np.asarray(h_rank, np.int64),
                           peer=np.asarray(h_peer, np.int64),
                           words=np.asarray(h_words, np.int64),
                           idx=h_idx, starts=_starts(h_counts),
                           counts=h_counts)
    owner_t = _PackedTables(rank=np.asarray(o_rank, np.int64),
                            peer=np.asarray(o_peer, np.int64),
                            words=np.asarray(o_words, np.int64),
                            idx=o_idx, starts=_starts(o_counts),
                            counts=o_counts)
    return holder, owner_t


def _packed_tables(partition: MeshPartition,
                   entity: str) -> tuple[_PackedTables, _PackedTables]:
    """Both directions of one entity's halo traffic, dict-free.

    Returns the **holder-plan** tables (plan owner = the rank holding
    overlap copies) and the **owner-plan** tables (plan owner = the
    kernel owner), which between them express all four wave sides of
    overlap and combine schedules.
    """
    packing = partition.packing(entity)
    profiles = [_holder_profile(sub, entity, packing)
                for sub in partition.subs]
    return _assemble_tables(profiles, partition.nparts)


def _table_plans(table: _PackedTables, nranks: int,
                 old_plans: Optional[list[PeerPlan]] = None,
                 rebuild: Optional[set] = None) -> list[PeerPlan]:
    """Per-rank ``PeerPlan`` dicts straight from a message table.

    Row order within a rank is peer insertion order, so the dicts come
    out identical to :meth:`WaveSide.plans` on the matching side.  With
    ``old_plans``/``rebuild``, only the ranks in ``rebuild`` are
    re-derived; every other rank reuses its old dict by reference —
    the incremental-repair fast path.
    """
    bounds = np.searchsorted(table.rank, np.arange(nranks + 1))
    ranks = range(nranks) if old_plans is None else sorted(rebuild)
    out = [None] * nranks if old_plans is None else list(old_plans)
    for r in ranks:
        block = table.idx[r]
        plan: PeerPlan = {}
        cursor = 0
        for i in range(int(bounds[r]), int(bounds[r + 1])):
            w = int(table.words[i])
            plan[int(table.peer[i])] = block[cursor:cursor + w]
            cursor += w
        out[r] = plan
    return out


def _overlap_from_tables(holder: _PackedTables, owner: _PackedTables,
                         nparts: int, entity: str,
                         reuse=None) -> OverlapSchedule:
    """``reuse=(old_sched, dirty_holders, touched_owners)`` keeps clean
    ranks' plan dicts from ``old_sched`` by reference."""
    wave = OverlapWave(
        send=owner.side(owner_is_src=True, plan_is_src=True),
        recv=holder.side(owner_is_src=False, plan_is_src=False))
    old_sends = old_recvs = dirty = touched = None
    if reuse is not None:
        old_sched, dirty, touched = reuse
        old_sends, old_recvs = old_sched.sends, old_sched.recvs
    sched = OverlapSchedule(
        entity=entity,
        sends=_table_plans(owner, nparts, old_sends, touched),
        recvs=_table_plans(holder, nparts, old_recvs, dirty))
    sched._wave = wave  # pre-seed the cached_property: waves *are* primary
    return sched


def _combine_from_tables(holder: _PackedTables, owner: _PackedTables,
                         nparts: int, entity: str,
                         reuse=None) -> CombineSchedule:
    wave = CombineWave(
        gather_send=holder.side(owner_is_src=True, plan_is_src=True),
        gather_recv=owner.side(owner_is_src=False, plan_is_src=False),
        return_send=owner.side(owner_is_src=True, plan_is_src=True),
        return_recv=holder.side(owner_is_src=False, plan_is_src=False))
    old_gs = old_gr = old_rs = old_rr = dirty = touched = None
    if reuse is not None:
        old_sched, dirty, touched = reuse
        old_gs, old_gr = old_sched.gather_sends, old_sched.gather_recvs
        old_rs, old_rr = old_sched.return_sends, old_sched.return_recvs
    sched = CombineSchedule(
        entity=entity,
        gather_sends=_table_plans(holder, nparts, old_gs, dirty),
        gather_recvs=_table_plans(owner, nparts, old_gr, touched),
        return_sends=_table_plans(owner, nparts, old_rs, touched),
        return_recvs=_table_plans(holder, nparts, old_rr, dirty))
    sched._wave = wave  # pre-seed the cached_property
    return sched


def build_overlap_schedule(partition: MeshPartition,
                           entity: str) -> OverlapSchedule:
    """Plan the owner→overlap refresh of one entity's values."""
    holder, owner = _packed_tables(partition, entity)
    return _overlap_from_tables(holder, owner, partition.nparts, entity)


def build_combine_schedule(partition: MeshPartition,
                           entity: str) -> CombineSchedule:
    """Plan the gather/assemble/return combine of one entity's values."""
    holder, owner = _packed_tables(partition, entity)
    return _combine_from_tables(holder, owner, partition.nparts, entity)


# -- incremental repair (online repartitioning) ------------------------------
#
# A migration epoch moves a (usually small) set of entities between
# kernels.  Every rank whose local entity view is untouched keeps its
# holder profile — peers, message words, gather/scatter index arrays —
# bit-for-bit, so instead of re-deriving all waves the repair path
# recomputes the per-rank argsort only over the *dirty* ranks and splices
# the surviving index blocks (by reference) into fresh tables.  The full
# rebuild stays available as the oracle; the property suite asserts
# repair ≡ rebuild on random partitions and random moved sets.


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
    Clean ranks' wave rows and index arrays are provably identical and
    the repair path reuses them by reference.
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


def _schedule_tables(sched) -> tuple[_PackedTables, _PackedTables]:
    """Recover the holder/owner message tables from a schedule's waves.

    The wave sides *are* the tables under different (src, dst) labels —
    see :func:`_overlap_from_tables` / :func:`_combine_from_tables` —
    so no recomputation happens here, only column relabeling.
    """
    def table(side: WaveSide, plan_is_src: bool) -> _PackedTables:
        rank, peer = ((side.srcs, side.dsts) if plan_is_src
                      else (side.dsts, side.srcs))
        return _PackedTables(rank=rank, peer=peer, words=side.words,
                             idx=side.idx, starts=side.starts,
                             counts=side.counts)

    w = sched.wave()
    if isinstance(sched, OverlapSchedule):
        return table(w.recv, False), table(w.send, True)
    return table(w.gather_send, True), table(w.gather_recv, False)


def _table_rows(table: _PackedTables, rank: int) -> tuple[int, int]:
    """Row range of one plan rank (the rank column is sorted ascending)."""
    lo = int(np.searchsorted(table.rank, rank, side="left"))
    hi = int(np.searchsorted(table.rank, rank, side="right"))
    return lo, hi


def _owner_segments(owner_t: _PackedTables, owner: int) -> dict[int,
                                                               np.ndarray]:
    """Per-holder owner-local index segments of one owner's old block."""
    lo, hi = _table_rows(owner_t, owner)
    segs: dict[int, np.ndarray] = {}
    cursor = 0
    block = owner_t.idx[owner]
    for i in range(lo, hi):
        nwords = int(owner_t.words[i])
        segs[int(owner_t.peer[i])] = block[cursor:cursor + nwords]
        cursor += nwords
    return segs


def _repair_tables(old_holder: _PackedTables, old_owner: _PackedTables,
                   new: MeshPartition, entity: str,
                   dirty: np.ndarray) -> tuple[_PackedTables,
                                               _PackedTables, set, set]:
    """Delta argsort: fresh profiles for dirty ranks, reuse for the rest.

    An owner's block must be reassembled iff a dirty holder contributed
    to it before or contributes now — a clean holder's contribution
    cannot have changed (any entity of its whose ownership or slot moved
    would have dirtied it).  Everything else is spliced from the old
    tables by reference.
    """
    nranks = new.nparts
    packing = new.packing(entity)
    dirty_set = set(dirty.tolist())
    fresh = {rank: _holder_profile(new.subs[rank], entity, packing)
             for rank in sorted(dirty_set)}
    h_bounds = np.searchsorted(old_holder.rank, np.arange(nranks + 1))
    touched: set[int] = set()
    for rank in dirty_set:
        lo, hi = int(h_bounds[rank]), int(h_bounds[rank + 1])
        touched.update(old_holder.peer[lo:hi].tolist())
        touched.update(fresh[rank][0].tolist())
    old_segs = {owner: _owner_segments(old_owner, owner)
                for owner in touched}

    # holder table: drop the dirty ranks' old rows, append their fresh
    # rows, and stable-sort the rank column back into place — a dirty
    # rank has no surviving old rows, so within-rank row order (peer
    # insertion order) is preserved on both sides of the merge
    dirty_sorted = sorted(dirty_set)
    keep_h = ~np.isin(old_holder.rank, dirty)
    fr_rank = [np.full(len(fresh[r][0]), r, np.int64)
               for r in dirty_sorted]
    cat_rank = np.concatenate([old_holder.rank[keep_h]] + fr_rank)
    order = np.argsort(cat_rank, kind="stable")
    h_rank = cat_rank[order]
    h_peer = np.concatenate(
        [old_holder.peer[keep_h]] + [fresh[r][0] for r in dirty_sorted]
    )[order]
    h_words = np.concatenate(
        [old_holder.words[keep_h]] + [fresh[r][1] for r in dirty_sorted]
    )[order]
    h_idx = [fresh[r][2] if r in dirty_set else old_holder.idx[r]
             for r in range(nranks)]
    h_counts = old_holder.counts.copy()
    for r in dirty_sorted:
        h_counts[r] = len(fresh[r][2])

    # owner blocks: a touched owner's pieces are the holder-ascending
    # merge of its surviving clean-holder segments (in the old block)
    # with the dirty holders' fresh contributions — cost proportional to
    # the touched traffic, not the mesh
    own_pieces: dict[int, list[tuple[int, np.ndarray]]] = {}
    for owner in touched:
        clean_it = [(h, seg) for h, seg in old_segs[owner].items()
                    if h not in dirty_set]
        fresh_it = [(h, fresh[h][3][owner]) for h in dirty_sorted
                    if owner in fresh[h][3]]
        merged: list[tuple[int, np.ndarray]] = []
        i = j = 0
        while i < len(clean_it) and j < len(fresh_it):
            if clean_it[i][0] < fresh_it[j][0]:
                merged.append(clean_it[i])
                i += 1
            else:
                merged.append(fresh_it[j])
                j += 1
        merged.extend(clean_it[i:])
        merged.extend(fresh_it[j:])
        own_pieces[owner] = merged

    # owner table: same drop-and-merge splice as the holder table
    touched_sorted = sorted(touched)
    touched_arr = np.asarray(touched_sorted, np.int64)
    keep_o = ~np.isin(old_owner.rank, touched_arr)
    to_rank = [np.full(len(own_pieces[o]), o, np.int64)
               for o in touched_sorted]
    cat_rank = np.concatenate([old_owner.rank[keep_o]] + to_rank)
    order = np.argsort(cat_rank, kind="stable")
    o_rank = cat_rank[order]
    o_peer = np.concatenate(
        [old_owner.peer[keep_o]]
        + [np.asarray([h for h, _s in own_pieces[o]], np.int64)
           for o in touched_sorted])[order]
    o_words = np.concatenate(
        [old_owner.words[keep_o]]
        + [np.asarray([len(s) for _h, s in own_pieces[o]], np.int64)
           for o in touched_sorted])[order]
    fresh_idx = {o: (np.concatenate([seg for _h, seg in own_pieces[o]])
                     if own_pieces[o] else np.zeros(0, np.int64))
                 for o in touched_sorted}
    o_idx = [fresh_idx[o] if o in touched else old_owner.idx[o]
             for o in range(nranks)]
    o_counts = old_owner.counts.copy()
    for o in touched_sorted:
        o_counts[o] = len(fresh_idx[o])

    holder = _PackedTables(rank=h_rank, peer=h_peer, words=h_words,
                           idx=h_idx, starts=_starts(h_counts),
                           counts=h_counts)
    owner_t = _PackedTables(rank=o_rank, peer=o_peer, words=o_words,
                            idx=o_idx, starts=_starts(o_counts),
                            counts=o_counts)
    return holder, owner_t, dirty_set, touched


def repair_overlap_schedule(old_sched: OverlapSchedule,
                            old: MeshPartition, new: MeshPartition,
                            entity: str,
                            moved: np.ndarray | None = None,
                            dirty: np.ndarray | None = None
                            ) -> OverlapSchedule:
    """Incrementally repair an overlap schedule after a migration.

    Equivalent to ``build_overlap_schedule(new, entity)`` — same flat
    index arrays, same ``PeerPlan`` round-trip — at a cost proportional
    to the dirty ranks, not the mesh.  ``dirty`` takes a precomputed
    :func:`schedule_dirty_ranks` result so a caller repairing several
    schedules of one entity pays for it once.
    """
    if dirty is None:
        dirty = schedule_dirty_ranks(old, new, entity, moved)
    holder, owner, dirty_set, touched = _repair_tables(
        *_schedule_tables(old_sched), new, entity, dirty)
    return _overlap_from_tables(holder, owner, new.nparts, entity,
                                reuse=(old_sched, dirty_set, touched))


def repair_combine_schedule(old_sched: CombineSchedule,
                            old: MeshPartition, new: MeshPartition,
                            entity: str,
                            moved: np.ndarray | None = None,
                            dirty: np.ndarray | None = None
                            ) -> CombineSchedule:
    """Incrementally repair a combine schedule after a migration."""
    if dirty is None:
        dirty = schedule_dirty_ranks(old, new, entity, moved)
    holder, owner, dirty_set, touched = _repair_tables(
        *_schedule_tables(old_sched), new, entity, dirty)
    return _combine_from_tables(holder, owner, new.nparts, entity,
                                reuse=(old_sched, dirty_set, touched))


def repair_wave_schedules(old_overlap: OverlapSchedule,
                          old_combine: CombineSchedule,
                          old: MeshPartition, new: MeshPartition,
                          entity: str,
                          moved: np.ndarray | None = None,
                          dirty: np.ndarray | None = None
                          ) -> tuple[OverlapSchedule, CombineSchedule]:
    """Repair both wave schedules of one entity in one table pass.

    An overlap schedule and a combine schedule are two (src, dst)
    relabelings of the *same* holder/owner message tables — see
    :func:`_schedule_tables` — so repairing them separately runs the
    identical delta-argsort twice.  The online path calls this instead
    and pays for :func:`_repair_tables` once per entity.
    """
    if dirty is None:
        dirty = schedule_dirty_ranks(old, new, entity, moved)
    nparts = new.nparts
    holder, owner, dirty_set, touched = _repair_tables(
        *_schedule_tables(old_overlap), new, entity, dirty)
    # the six plan lists of the pair are three aliases each of two
    # distinct derivations: holder-table plans (dirty ranks re-derived)
    # and owner-table plans (touched owners re-derived)
    holder_plans = _table_plans(holder, nparts, old_overlap.recvs,
                                dirty_set)
    owner_plans = _table_plans(owner, nparts, old_overlap.sends, touched)
    ov = OverlapSchedule(entity=entity, sends=owner_plans,
                         recvs=holder_plans)
    ov._wave = OverlapWave(
        send=owner.side(owner_is_src=True, plan_is_src=True),
        recv=holder.side(owner_is_src=False, plan_is_src=False))
    cb = CombineSchedule(entity=entity,
                         gather_sends=list(holder_plans),
                         gather_recvs=list(owner_plans),
                         return_sends=list(owner_plans),
                         return_recvs=list(holder_plans))
    cb._wave = CombineWave(
        gather_send=holder.side(owner_is_src=True, plan_is_src=True),
        gather_recv=owner.side(owner_is_src=False, plan_is_src=False),
        return_send=owner.side(owner_is_src=True, plan_is_src=True),
        return_recv=holder.side(owner_is_src=False, plan_is_src=False))
    return ov, cb
