"""The SimMPI wire: a numpy ring buffer of message headers over a payload slab.

A *transport* owns the wire of a :class:`~repro.runtime.simmpi.SimComm`:
messages that have been sent and not yet received.  Its specification is
the ``(src, dst, tag)`` channel semantics of the MP-net model — each
channel is a FIFO, channels are independent — which
:mod:`repro.analysis.mpnet` checks statically and the differential tests
check against a deque-per-channel reference kept in the test tree.

Everything crosses the wire as a *wave*: m messages on one tag, handed
over in one call; a single message is a wave of one.  A wave's payload
has one of two shapes (:func:`wave_of` builds it from a payload list):

* a 1-D float64 or int64 *block* whose ``words[i]`` rows are message i —
  written to the slab with one copy;
* a list of m payload objects (scalars, bool or 2-D arrays, mixed
  kinds) — kept by value in an object side table, ``words`` holding
  their accounting sizes.

:class:`RingTransport` keeps message *headers* ``(src, dst, tag, seq,
flags, payload_slot, words)`` in one preallocated numpy structured array
(:data:`HEADER_DTYPE`) and block payloads in a float64 slab (int64 rides
bit-exactly through a view).  ``push`` delivers a wave with one
vectorized header write; ``pop`` matches a wave of receives with one
sorted scan and returns ``(block, words)`` when every matched message
sits on the slab in one dtype, the payload list otherwise, or
:data:`MISSING` — consuming nothing — when some message has not arrived.
``count``/``pending_total``/``channels`` are masked scans over the header
columns, ``move_last`` is the fault fabric's reorder hook and
``clear``/``snapshot``/``restore`` serve checkpoints.  The sender-side
message log (:mod:`repro.runtime.msglog`) is a second ring whose rows
are never received.

>>> t = RingTransport()
>>> import numpy as np
>>> t.push([0, 0], [1, 2], 7, *wave_of([np.arange(3.0), np.arange(2.0)]))
>>> t.channels()
[(0, 1, 7, 1), (0, 2, 7, 1)]
>>> t.pop([0], [2], 7)
(array([0., 1.]), array([2]))
>>> t.push([1, 1], [0, 0], 8, *wave_of([2.5, np.ones((1, 2), bool)]))
>>> t.pop([1, 1], [0, 0], 8)
[2.5, array([[ True,  True]])]
>>> t.pending_total()
1
"""

from __future__ import annotations

from typing import Any

import numpy as np

from ..errors import RuntimeFault

#: sentinel returned by ``pop`` when a requested message has not arrived
#: (distinct from any payload, None included)
MISSING = object()

#: one message header; ``seq`` is the global FIFO stamp, ``flags`` is a
#: bit set (LIVE/OBJ/I8), ``payload_slot`` indexes the slab (word offset)
#: or the object side table, ``words`` is the slab length of a block row
#: and the accounting size of an object row
HEADER_DTYPE = np.dtype([
    ("src", "<i8"), ("dst", "<i8"), ("tag", "<i8"), ("seq", "<i8"),
    ("flags", "<i8"), ("payload_slot", "<i8"), ("words", "<i8"),
])

F_LIVE = 1   #: header slot holds an undelivered message
F_OBJ = 2    #: payload lives in the object side table, not the slab
F_I8 = 4     #: slab words are int64 bits (stored via a float64 view)

_F8 = np.dtype(np.float64)
_I8 = np.dtype(np.int64)

#: channel-key packing: 16-bit src and dst over a 31-bit tag, 63 bits of
#: an int64 — ``RANK_LIMIT`` ranks, tags below ``TAG_LIMIT``
_TAG_BITS = 31
_SRC_SHIFT = _TAG_BITS + 16
RANK_LIMIT = 1 << 16
TAG_LIMIT = 1 << _TAG_BITS


def _capture(payload: Any) -> Any:
    """By-value capture: arrays are copied, everything else shared."""
    return payload.copy() if isinstance(payload, np.ndarray) else payload


def _payload_words(obj: Any) -> int:
    """Accounting size of a payload in fabric words.

    >>> _payload_words(np.zeros(5))
    5
    >>> _payload_words([1, 2, (3, 4)])
    4
    """
    if isinstance(obj, np.ndarray):
        return int(obj.size)
    if isinstance(obj, (int, float, bool, np.number)):
        return 1
    if isinstance(obj, (list, tuple)):
        return sum(_payload_words(o) for o in obj)
    return 1


def on_slab(block: Any) -> bool:
    """Whether an array is a block wave: 1-D float64 or int64."""
    return (isinstance(block, np.ndarray) and block.ndim == 1
            and (block.dtype == _F8 or block.dtype == _I8))


def wave_of(payloads) -> tuple[Any, np.ndarray]:
    """The wire form ``(block, words)`` of a list of payloads.

    One concatenated block when every payload is a 1-D array of one slab
    dtype, else the list itself with each payload's accounting size.

    >>> wave_of([np.arange(2), np.arange(1)])
    (array([0, 1, 0]), array([2, 1]))
    >>> wave_of([np.arange(2.0), 7])
    ([array([0., 1.]), 7], array([2, 1]))
    """
    payloads = list(payloads)
    if payloads and all(on_slab(p) and p.dtype == payloads[0].dtype
                        for p in payloads):
        words = np.fromiter((p.size for p in payloads), np.int64,
                            len(payloads))
        block = payloads[0] if len(payloads) == 1 \
            else np.concatenate(payloads)
        return block, words
    return payloads, np.fromiter((_payload_words(p) for p in payloads),
                                 np.int64, len(payloads))


def wave_rows(block: Any, words: np.ndarray,
              idx: np.ndarray) -> tuple[Any, np.ndarray]:
    """Messages ``idx`` of a wave, as a wave of their own."""
    if isinstance(block, list):
        return [block[i] for i in idx.tolist()], words[idx]
    starts = np.cumsum(words) - words
    w = words[idx]
    gather = np.arange(int(w.sum())) \
        - np.repeat(np.cumsum(w) - w - starts[idx], w)
    return block[gather], w


def _split(block: np.ndarray, words: np.ndarray) -> list:
    """A block wave's payloads, one view per message."""
    return np.split(block, np.cumsum(words)[:-1]) if len(words) else []


def _keys(srcs: np.ndarray, dsts: np.ndarray, tag) -> np.ndarray:
    """Pack (src, dst, tag) columns into one sortable int64 key each."""
    # OR-reduced, a negative value sets the sign bit and one past its
    # field sets a bit above it
    ranks = int(np.bitwise_or.reduce(srcs | dsts))
    tags = int(np.bitwise_or.reduce(tag)) if isinstance(tag, np.ndarray) \
        else int(tag)
    if not (0 <= ranks < RANK_LIMIT and 0 <= tags < TAG_LIMIT):
        bad = next((s, d, t) for s, d, t in zip(
            srcs.tolist(), dsts.tolist(),
            np.broadcast_to(tag, srcs.shape).tolist())
            if not (0 <= s < RANK_LIMIT and 0 <= d < RANK_LIMIT
                    and 0 <= t < TAG_LIMIT))
        raise RuntimeFault(
            f"ring transport channel {bad} exceeds the packing limit "
            f"({RANK_LIMIT} ranks, tags below 2**{_TAG_BITS})")
    return (srcs << _SRC_SHIFT) | (dsts << _TAG_BITS) | tag


class RingTransport:
    """Array-based wire: header ring + payload slab, scans vectorized.

    Layout (see the worked diagram in ``docs/architecture.md``):

    * ``_h`` — the preallocated :data:`HEADER_DTYPE` ring; a header is
      *live* while its message is on the wire.  ``_live`` mirrors the
      LIVE flag as a plain bool column so masked scans skip the
      structured-dtype access, and ``_keycol`` holds each header's packed
      channel key so matching gathers one column, not three.
    * ``_slab`` — one float64 array holding every block payload
      back-to-back; ``payload_slot``/``words`` address it.  The slab is
      a bump allocator: the cursor rewinds to 0 whenever the wire fully
      drains, which in the lockstep executor is after every collective.
    * ``_objs`` — side table for object rows, cleared on the same drain.

    Capacity doubles on demand; nothing is ever shrunk.  All public
    results use Python ints so diagnostics render plain numbers, never
    numpy scalar reprs.
    """

    def __init__(self, capacity: int = 256, slab_words: int = 4096):
        self._cap = int(capacity)
        self._h = np.zeros(self._cap, HEADER_DTYPE)
        self._col = {f: self._h[f] for f in HEADER_DTYPE.names}
        self._keycol = np.zeros(self._cap, np.int64)
        self._live = np.zeros(self._cap, bool)
        # free header slots, stack-style (top = next allocated)
        self._free = np.arange(self._cap - 1, -1, -1, dtype=np.int64)
        self._nfree = self._cap
        self._slab = np.zeros(int(slab_words), _F8)
        self._cursor = 0
        self._objs: list[Any] = []
        self._seq = 0
        self._nlive = 0

    # -- capacity ------------------------------------------------------------

    def _grow_headers(self, need: int) -> None:
        ncap = self._cap
        while ncap - self._cap + self._nfree < need:
            ncap *= 2
        h2 = np.zeros(ncap, HEADER_DTYPE)
        h2[:self._cap] = self._h
        self._h = h2
        self._col = {f: self._h[f] for f in HEADER_DTYPE.names}
        key2 = np.zeros(ncap, np.int64)
        key2[:self._cap] = self._keycol
        self._keycol = key2
        live2 = np.zeros(ncap, bool)
        live2[:self._cap] = self._live
        self._live = live2
        # the stack holds every slot once all are free again: size it to
        # the new capacity, fresh slots on top
        free = np.empty(ncap, np.int64)
        free[:self._nfree] = self._free[:self._nfree]
        free[self._nfree:self._nfree + ncap - self._cap] = \
            np.arange(ncap - 1, self._cap - 1, -1)
        self._free = free
        self._nfree += ncap - self._cap
        self._cap = ncap

    def _alloc(self, n: int) -> np.ndarray:
        if self._nfree < n:
            self._grow_headers(n)
        out = self._free[self._nfree - n:self._nfree][::-1].copy()
        self._nfree -= n
        return out

    def _slab_room(self, total: int) -> int:
        while self._cursor + total > len(self._slab):
            slab2 = np.zeros(len(self._slab) * 2, _F8)
            slab2[:self._cursor] = self._slab[:self._cursor]
            self._slab = slab2
        start = self._cursor
        self._cursor += total
        return start

    # -- delivery ------------------------------------------------------------

    def push(self, srcs, dsts, tag, block, words) -> None:
        """Deliver one wave: one vectorized header write, plus one slab
        copy for a block.

        ``tag`` is the wave's tag, or a column of them (a replayed log
        window spans many collectives).  Writing a block into the slab is
        its by-value capture; object payloads are captured one by one.
        """
        words = np.ascontiguousarray(words, np.int64)
        m = len(words)
        if m == 0:
            return
        srcs = np.ascontiguousarray(srcs, np.int64)
        dsts = np.ascontiguousarray(dsts, np.int64)
        keys = _keys(srcs, dsts, tag)
        idx = self._alloc(m)
        col = self._col
        if isinstance(block, np.ndarray):
            offs = words.cumsum() - words
            total = int(offs[-1] + words[-1])
            start = self._slab_room(total)
            self._slab[start:start + total] = \
                np.ascontiguousarray(block).view(_F8)
            col["flags"][idx] = F_LIVE | (F_I8 if block.dtype == _I8 else 0)
            col["payload_slot"][idx] = offs + start
        else:
            col["flags"][idx] = F_LIVE | F_OBJ
            col["payload_slot"][idx] = np.arange(len(self._objs),
                                                 len(self._objs) + m)
            self._objs.extend(_capture(p) for p in block)
        col["src"][idx] = srcs
        col["dst"][idx] = dsts
        col["tag"][idx] = tag
        col["seq"][idx] = np.arange(self._seq, self._seq + m)
        self._seq += m
        col["words"][idx] = words
        self._keycol[idx] = keys
        self._live[idx] = True
        self._nlive += m

    # -- receive matching ----------------------------------------------------

    def _match(self, srcs, dsts, tag: int):
        """Vectorized receive matching for one wave of requests.

        Returns live header indices aligned with the requests, or None
        when some request has no message yet.  The i-th request on a
        channel gets the channel's i-th oldest message — exactly what
        sequential single receives would do.
        """
        srcs = np.ascontiguousarray(srcs, np.int64)
        dsts = np.ascontiguousarray(dsts, np.int64)
        m = len(srcs)
        if m == 0:
            return np.zeros(0, np.int64)
        kreq = _keys(srcs, dsts, tag)
        if m == 1:
            # a single receive: the channel's oldest live header
            li = np.flatnonzero(self._live & (self._keycol == kreq[0]))
            if not li.size:
                return None
            return li[np.argmin(self._col["seq"][li])][None]
        li = np.flatnonzero(self._live)
        if li.size < m:
            return None
        klive = self._keycol[li]
        seqs = self._col["seq"][li]
        if seqs.size > 1 and (seqs[1:] > seqs[:-1]).all():
            # headers already in arrival order (the usual same-wave case):
            # one stable sort by channel key keeps FIFO order within keys
            order = np.argsort(klive, kind="stable")
        else:
            order = np.lexsort((seqs, klive))
        li, klive = li[order], klive[order]
        rorder = np.argsort(kreq, kind="stable")
        kreq_sorted = kreq[rorder]
        pos = np.searchsorted(klive, kreq_sorted, side="left")
        # i-th request of a run takes the i-th message of that channel
        run_start = np.flatnonzero(
            np.concatenate(([True], kreq_sorted[1:] != kreq_sorted[:-1])))
        pos += np.arange(m) - np.repeat(
            run_start, np.diff(np.concatenate((run_start, [m]))))
        if int(pos.max()) >= len(klive) \
                or not np.array_equal(klive[pos], kreq_sorted):
            return None
        take = np.empty(m, np.int64)
        take[rorder] = li[pos]
        return take

    def _payload(self, i: int) -> Any:
        """One header's payload: a slab copy, or the object itself."""
        flags = int(self._col["flags"][i])
        slot = int(self._col["payload_slot"][i])
        if flags & F_OBJ:
            return self._objs[slot]
        block = self._slab[slot:slot + int(self._col["words"][i])].copy()
        return block.view(_I8) if flags & F_I8 else block

    def _read(self, take: np.ndarray) -> Any:
        """Headers ``take`` as one wave: ``(block, words)`` when every
        payload sits on the slab in one dtype, else the payload list."""
        col = self._col
        words = col["words"][take]
        m = len(take)
        kind = col["flags"][take] & (F_OBJ | F_I8)
        first = int(kind[0]) if m else 0
        if first & F_OBJ or (m > 1 and (kind != first).any()):
            return [self._payload(i) for i in take.tolist()]
        offs = col["payload_slot"][take]
        starts = words.cumsum() - words
        total = int(starts[-1] + words[-1]) if m else 0
        if m == 1 or m and np.array_equal(offs, starts + offs[0]):
            # payloads already back-to-back in request order (the usual
            # same-wave case): one slice instead of a fancy gather
            lo = int(offs[0])
            block = self._slab[lo:lo + total].copy()
        else:
            block = self._slab[np.arange(total)
                               - np.repeat(starts - offs, words)]
        return (block.view(_I8) if first & F_I8 else block), words

    def _free_rows(self, take: np.ndarray) -> None:
        col = self._col
        if self._objs:
            obj = take[(col["flags"][take] & F_OBJ) != 0]
            for slot in col["payload_slot"][obj].tolist():
                self._objs[slot] = None
        col["flags"][take] = 0
        self._live[take] = False
        n = len(take)
        self._free[self._nfree:self._nfree + n] = take[::-1]
        self._nfree += n
        self._nlive -= n
        if self._nlive == 0:
            self._cursor = 0
            self._objs.clear()

    def pop(self, srcs, dsts, tag: int) -> Any:
        """Receive one wave: ``(block, words)``, the payload list, or
        :data:`MISSING` (nothing consumed) if any message is absent."""
        take = self._match(srcs, dsts, tag)
        if take is None:
            return MISSING
        wave = self._read(take)
        self._free_rows(take)
        return wave

    # -- scans ---------------------------------------------------------------

    def count(self, src: int, dst: int, tag: int) -> int:
        if not self._nlive:
            return 0
        key = (src << _SRC_SHIFT) | (dst << _TAG_BITS) | tag
        return int(np.count_nonzero(self._live & (self._keycol == key)))

    def pending_total(self) -> int:
        return self._nlive

    def channels(self) -> list[tuple[int, int, int, int]]:
        """Non-empty channels as sorted (src, dst, tag, count) tuples —
        one grouped scan over the live headers."""
        li = np.flatnonzero(self._live)
        if not li.size:
            return []
        uniq, counts = np.unique(self._keycol[li], return_counts=True)
        srcs = (uniq >> _SRC_SHIFT).tolist()
        dsts = ((uniq >> _TAG_BITS) & (RANK_LIMIT - 1)).tolist()
        tags = (uniq & (TAG_LIMIT - 1)).tolist()
        return list(zip(srcs, dsts, tags, counts.tolist()))

    # -- fault-fabric hooks --------------------------------------------------

    def move_last(self, src: int, dst: int, tag: int, pos: int) -> None:
        """Reorder rule: move a channel's newest message to FIFO position
        ``pos`` (0 = front), implemented by permuting ``seq`` stamps.

        ``seq`` order is the single source of truth for every consumer —
        receive matching and ``snapshot`` — so the reorder is expressed
        there: the channel's newest header takes the seq stamp of FIFO
        position ``pos`` and the displaced headers shift up, exactly
        ``fifo.insert(pos, fifo.pop())``.
        """
        key = (src << _SRC_SHIFT) | (dst << _TAG_BITS) | tag
        li = np.flatnonzero(self._live & (self._keycol == key))
        if li.size == 0:
            raise KeyError((src, dst, tag))
        seqs = self._col["seq"][li]
        order = np.argsort(seqs, kind="stable")
        fifo = li[order].tolist()  # channel headers, oldest first
        fifo.insert(pos, fifo.pop())
        self._col["seq"][np.asarray(fifo, np.int64)] = np.sort(seqs)

    # -- lifecycle / snapshots -----------------------------------------------

    def clear(self) -> None:
        self._h["flags"] = 0
        self._live[:] = False
        self._free = np.arange(self._cap - 1, -1, -1, dtype=np.int64)
        self._nfree = self._cap
        self._nlive = 0
        self._seq = 0
        self._cursor = 0
        self._objs.clear()

    def snapshot(self) -> dict:
        """Freeze the wire: the live header rows in ``seq`` order and
        their payloads as one wave, by value.

        At the quiescent points where checkpoints are taken the wire is
        empty, but the round trip is exact for any wire state (the fault
        fabric snapshots mid-flight delay ledgers through the same
        mechanism).
        """
        if not self._nlive:
            return {"headers": self._h[:0].copy(),
                    "wave": (self._slab[:0].copy(), np.zeros(0, np.int64)),
                    "seq": self._seq}
        li = np.flatnonzero(self._live)
        li = li[np.argsort(self._col["seq"][li], kind="stable")]
        wave = self._read(li)
        if isinstance(wave, list):
            wave = [_capture(p) for p in wave]
        return {"headers": self._h[li].copy(), "wave": wave,
                "seq": self._seq}

    def restore(self, snap: dict) -> None:
        self.clear()
        rows, wave = snap["headers"], snap["wave"]
        self.push(rows["src"], rows["dst"], rows["tag"],
                  wave[0] if isinstance(wave, tuple) else wave,
                  rows["words"])
        self._seq = int(snap["seq"])
