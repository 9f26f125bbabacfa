"""The SimMPI wire: a numpy ring buffer of message headers over a payload slab.

A *transport* owns the wire of a :class:`~repro.runtime.simmpi.SimComm`:
messages that have been sent and not yet received.  Its specification is
the ``(src, dst, tag)`` channel semantics of the MP-net model — each
channel is a FIFO, channels are independent — which
:mod:`repro.analysis.mpnet` checks statically and the differential tests
check against a deque-per-channel reference kept in the test tree.

:class:`RingTransport` keeps message *headers* ``(src, dst, tag, seq,
flags, payload_slot, words)`` in one preallocated numpy structured array
(:data:`HEADER_DTYPE`); numeric *payloads* live in a float64 slab
addressed by ``payload_slot``/``words`` (a bump allocator that resets
whenever the wire drains — the free list is the suffix above the
cursor); payloads the slab cannot hold bit-exactly (scalars, lists, bool
or 2-D arrays) fall back to an object side table.  Every whole-fabric
question — pending counts, per-channel tallies, batched receive
matching, drain checks — becomes a masked scan over the header columns
instead of a Python loop over channels, which is what lets
``bench_halo_waves`` push one wave through 4096 ranks.

The interface is small: ``push``/``push_batch``/``push_block`` deliver,
``pop``/``pop_batch``/``pop_block`` match receives (returning
:data:`MISSING` when a requested message has not arrived),
``count``/``pending_total``/``channels`` scan, ``move_last`` is the
fault fabric's reorder hook and ``clear``/``snapshot``/``restore``
serve checkpoints.  The by-value capture contract is split: ``push``
receives an already-captured payload (the communicator copied it), while
``push_batch``/``push_block`` capture in-place — the ring writes arrays
straight into its slab, which *is* the copy.

The throughput path is the *block* pair ``push_block``/``pop_block``: the
caller hands one concatenated float64 block plus a words column, so the
cost per wave is one slab copy, one vectorized header write and one
sorted match — no Python object is touched per message.

>>> t = RingTransport()
>>> import numpy as np
>>> t.push_batch([0, 0], [1, 2], 7, [np.arange(3.0), np.arange(2.0)])
>>> t.channels()
[(0, 1, 7, 1), (0, 2, 7, 1)]
>>> t.pop(0, 2, 7)
array([0., 1.])
>>> t.pending_total()
1
"""

from __future__ import annotations

from collections import deque
from typing import Any, Optional

import numpy as np

from ..errors import RuntimeFault

#: sentinel returned by ``pop``/``pop_batch``/``pop_block`` when the
#: requested message has not arrived (distinct from any payload, None
#: included)
MISSING = object()

#: one message header; ``seq`` is the global FIFO stamp, ``flags`` is a
#: bit set (LIVE/OBJ/I8), ``payload_slot`` indexes the slab (word offset)
#: or the object side table, ``words`` is the payload length in slab words
HEADER_DTYPE = np.dtype([
    ("src", "<i8"), ("dst", "<i8"), ("tag", "<i8"), ("seq", "<i8"),
    ("flags", "<i8"), ("payload_slot", "<i8"), ("words", "<i8"),
])

F_LIVE = 1   #: header slot holds an undelivered message
F_OBJ = 2    #: payload lives in the object side table, not the slab
F_I8 = 4     #: slab words are int64 bits (stored via a float64 view)

_F8 = np.dtype(np.float64)
_I8 = np.dtype(np.int64)

#: channel-key packing width: src/dst/tag each get 21 bits of an int64
_KEY_BITS = 21
_KEY_LIMIT = 1 << _KEY_BITS


def _capture(payload: Any) -> Any:
    """By-value capture: arrays are copied, everything else shared."""
    return payload.copy() if isinstance(payload, np.ndarray) else payload


def _encode_keys(src, dst, tag):
    """Pack (src, dst, tag) columns into one sortable int64 key each."""
    return (np.asarray(src, np.int64) << (2 * _KEY_BITS)) \
        | (np.asarray(dst, np.int64) << _KEY_BITS) | np.asarray(tag, np.int64)


class RingTransport:
    """Array-based wire: header ring + payload slab, scans vectorized.

    Layout (see the worked diagram in ``docs/architecture.md``):

    * ``_h`` — the preallocated :data:`HEADER_DTYPE` ring; a header is
      *live* while its message is on the wire.  ``_live`` mirrors the
      LIVE flag as a plain bool column so masked scans skip the
      structured-dtype access.
    * ``_slab`` — one float64 array holding every numeric payload
      back-to-back; ``payload_slot``/``words`` address it.  int64
      payloads are stored bit-preserving through a float64 view (flag
      ``F_I8``).  The slab is a bump allocator: the cursor rewinds to 0
      whenever the wire fully drains, which in the lockstep executor is
      after every collective.
    * ``_objs`` — side table for payloads the slab cannot hold
      bit-exactly (Python scalars, lists, bool/2-D/0-stride arrays).
    * ``_chan`` — lazily built per-channel FIFO index (header positions
      in ``seq`` order).  Bulk operations invalidate it; the first
      per-message ``pop`` afterwards rebuilds it with one grouped sort
      over the live headers instead of per-channel scans.

    Capacity doubles on demand; nothing is ever shrunk.  All public
    results use Python ints so diagnostics render plain numbers, never
    numpy scalar reprs.
    """

    def __init__(self, capacity: int = 256, slab_words: int = 4096):
        self._cap = int(capacity)
        self._h = np.zeros(self._cap, HEADER_DTYPE)
        self._col = {f: self._h[f] for f in HEADER_DTYPE.names}
        # packed (src, dst, tag) channel key per header, kept alongside the
        # structured array so matching scans gather one column, not three
        self._keycol = np.zeros(self._cap, np.int64)
        self._live = np.zeros(self._cap, bool)
        # free header slots, stack-style (top = next allocated)
        self._free = np.arange(self._cap - 1, -1, -1, dtype=np.int64)
        self._nfree = self._cap
        self._slab = np.zeros(int(slab_words), _F8)
        self._cursor = 0
        self._objs: list[Any] = []
        self._obj_free: list[int] = []
        self._seq = 0
        self._nlive = 0
        self._chan: Optional[dict[tuple[int, int, int], deque]] = None

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
        fresh = np.arange(ncap - 1, self._cap - 1, -1, dtype=np.int64)
        self._free = np.concatenate((self._free[:self._nfree], fresh))
        self._nfree += ncap - self._cap
        self._cap = ncap

    def _alloc(self, n: int) -> np.ndarray:
        if self._nfree < n:
            self._grow_headers(n)
        out = self._free[self._nfree - n:self._nfree][::-1].copy()
        self._nfree -= n
        return out

    def _release(self, idx: np.ndarray) -> None:
        n = len(idx)
        self._free[self._nfree:self._nfree + n] = idx[::-1]
        self._nfree += n

    def _slab_room(self, total: int) -> int:
        while self._cursor + total > len(self._slab):
            slab2 = np.zeros(len(self._slab) * 2, _F8)
            slab2[:self._cursor] = self._slab[:self._cursor]
            self._slab = slab2
        start = self._cursor
        self._cursor += total
        return start

    @staticmethod
    def _slab_eligible(p: Any) -> bool:
        return (isinstance(p, np.ndarray) and p.ndim == 1
                and (p.dtype == _F8 or p.dtype == _I8)
                and p.flags.c_contiguous)

    def _check_key(self, src: int, dst: int, tag: int) -> None:
        if not (0 <= src < _KEY_LIMIT and 0 <= dst < _KEY_LIMIT
                and 0 <= tag < _KEY_LIMIT):
            raise RuntimeFault(
                f"ring transport channel ({src}, {dst}, {tag}) exceeds the "
                f"{_KEY_BITS}-bit packing limit")

    # -- delivery ------------------------------------------------------------

    def _write_header(self, i: int, src: int, dst: int, tag: int,
                      flags: int, slot: int, words: int) -> None:
        col = self._col
        col["src"][i] = src
        col["dst"][i] = dst
        col["tag"][i] = tag
        col["seq"][i] = self._seq
        self._seq += 1
        col["flags"][i] = flags
        col["payload_slot"][i] = slot
        col["words"][i] = words
        self._keycol[i] = (src << (2 * _KEY_BITS)) | (dst << _KEY_BITS) | tag
        self._live[i] = True
        self._nlive += 1

    def _store_obj(self, payload: Any) -> int:
        if self._obj_free:
            slot = self._obj_free.pop()
            self._objs[slot] = payload
            return slot
        self._objs.append(payload)
        return len(self._objs) - 1

    def push(self, src: int, dst: int, tag: int, payload: Any) -> None:
        """Append one already-captured message (per-message slow path)."""
        self._check_key(src, dst, tag)
        i = int(self._alloc(1)[0])
        if self._slab_eligible(payload):
            n = payload.size
            start = self._slab_room(n)
            flags = F_LIVE | (F_I8 if payload.dtype == _I8 else 0)
            self._slab[start:start + n] = payload.view(_F8)
            self._write_header(i, src, dst, tag, flags, start, n)
        else:
            slot = self._store_obj(payload)
            self._write_header(i, src, dst, tag, F_LIVE | F_OBJ, slot, 0)
        if self._chan is not None:
            self._chan.setdefault((src, dst, tag), deque()).append(i)

    def push_batch(self, srcs, dsts, tag: int, payloads) -> None:
        """Deliver a wave: one vectorized header write + one slab copy.

        Capture happens here — writing the payload rows into the slab is
        the by-value copy, so no per-message ``ndarray.copy()`` is paid.
        Waves that mix slab-eligible and object payloads (or dtypes) fall
        back to the per-message path, preserving order.
        """
        m = len(payloads)
        if m == 0:
            return
        srcs = np.ascontiguousarray(srcs, np.int64)
        dsts = np.ascontiguousarray(dsts, np.int64)
        lo = min(int(srcs.min()), int(dsts.min()))
        hi = max(int(srcs.max()), int(dsts.max()))
        self._check_key(lo, hi, tag)
        dt = payloads[0].dtype if isinstance(payloads[0], np.ndarray) \
            else None
        if dt is None or not all(self._slab_eligible(p) and p.dtype == dt
                                 for p in payloads):
            for s, d, p in zip(srcs.tolist(), dsts.tolist(), payloads):
                self.push(s, d, tag, _capture(p))
            return
        words = np.fromiter((p.size for p in payloads), np.int64, m)
        block = np.concatenate(payloads) if m > 1 else payloads[0]
        if dt == _I8:
            block = np.ascontiguousarray(block).view(_F8)
        self._push_wave(srcs, dsts, tag, block, words,
                        F_LIVE | (F_I8 if dt == _I8 else 0))

    def push_block(self, srcs, dsts, tag: int, block, words) -> None:
        """Deliver a concatenated float64 wave: the fastest send path.

        ``block`` holds every payload back-to-back (``words[i]`` float64
        words for message i); writing it into the slab is the by-value
        capture.  One slab copy plus one vectorized header write — no
        per-message Python at all.
        """
        srcs = np.ascontiguousarray(srcs, np.int64)
        dsts = np.ascontiguousarray(dsts, np.int64)
        words = np.ascontiguousarray(words, np.int64)
        if len(words) == 0:
            return
        lo = min(int(srcs.min()), int(dsts.min()))
        hi = max(int(srcs.max()), int(dsts.max()))
        self._check_key(lo, hi, tag)
        self._push_wave(srcs, dsts, tag, block, words, F_LIVE)

    def _push_wave(self, srcs, dsts, tag: int, block, words,
                   flags: int) -> None:
        """Header + slab write shared by the two vectorized send paths."""
        m = len(words)
        idx = self._alloc(m)
        offs = np.zeros(m, np.int64)
        np.cumsum(words[:-1], out=offs[1:])
        total = int(offs[-1] + words[-1])
        start = self._slab_room(total)
        self._slab[start:start + total] = block
        col = self._col
        col["src"][idx] = srcs
        col["dst"][idx] = dsts
        col["tag"][idx] = tag
        col["seq"][idx] = np.arange(self._seq, self._seq + m)
        self._seq += m
        col["flags"][idx] = flags
        col["payload_slot"][idx] = offs + start
        col["words"][idx] = words
        self._keycol[idx] = _encode_keys(srcs, dsts, tag)
        self._live[idx] = True
        self._nlive += m
        self._chan = None  # bulk delivery invalidates the FIFO index

    # -- receive matching ----------------------------------------------------

    def _ensure_chan(self) -> None:
        """Rebuild the per-channel FIFO index with one grouped sort."""
        if self._chan is not None:
            return
        chan: dict[tuple[int, int, int], deque] = {}
        li = np.flatnonzero(self._live)
        if li.size:
            col = self._col
            s, d, t = col["src"][li], col["dst"][li], col["tag"][li]
            key = self._keycol[li]
            order = np.lexsort((col["seq"][li], key))
            li, key = li[order], key[order]
            bounds = np.flatnonzero(np.diff(key)) + 1
            starts = np.concatenate(([0], bounds))
            ends = np.concatenate((bounds, [len(key)]))
            sl = s[order].tolist()
            dl = d[order].tolist()
            tl = t[order].tolist()
            il = li.tolist()
            for a, b in zip(starts.tolist(), ends.tolist()):
                chan[(sl[a], dl[a], tl[a])] = deque(il[a:b])
        self._chan = chan

    def _materialize(self, i: int) -> Any:
        """Read one header's payload out of the slab / object table."""
        col = self._col
        flags = int(col["flags"][i])
        slot = int(col["payload_slot"][i])
        if flags & F_OBJ:
            payload = self._objs[slot]
            return payload
        words = int(col["words"][i])
        block = self._slab[slot:slot + words].copy()
        return block.view(_I8) if flags & F_I8 else block

    def _free_one(self, i: int) -> None:
        col = self._col
        if int(col["flags"][i]) & F_OBJ:
            slot = int(col["payload_slot"][i])
            self._objs[slot] = None
            self._obj_free.append(slot)
        col["flags"][i] = 0
        self._live[i] = False
        self._release(np.array([i], dtype=np.int64))
        self._nlive -= 1
        if self._nlive == 0:
            self._reset_storage()

    def _reset_storage(self) -> None:
        self._cursor = 0
        self._objs.clear()
        self._obj_free.clear()
        if self._chan:
            self._chan = {}

    def pop(self, src: int, dst: int, tag: int) -> Any:
        """Oldest message of one channel, or :data:`MISSING`."""
        self._ensure_chan()
        fifo = self._chan.get((src, dst, tag))
        if not fifo:
            return MISSING
        i = fifo.popleft()
        payload = self._materialize(i)
        self._free_one(i)
        return payload

    def _match_batch(self, srcs, dsts, tag: int):
        """Vectorized receive matching for one wave of requests.

        Returns live header indices aligned with the requests, or None
        when some request has no message yet (the caller then falls back
        to the retrying per-message path).  The i-th request on a channel
        gets the channel's i-th oldest message — exactly what sequential
        pops would do.
        """
        m = len(srcs)
        li = np.flatnonzero(self._live)
        if li.size < m:
            return None
        col = self._col
        klive = self._keycol[li]
        seqs = col["seq"][li]
        if seqs.size > 1 and (seqs[1:] > seqs[:-1]).all():
            # headers already in arrival order (the usual same-wave case):
            # one stable sort by channel key keeps FIFO order within keys
            order = np.argsort(klive, kind="stable")
        else:
            order = np.lexsort((seqs, klive))
        li, klive = li[order], klive[order]
        kreq = _encode_keys(srcs, dsts, tag)
        rorder = np.argsort(kreq, kind="stable")
        kreq_sorted = kreq[rorder]
        pos = np.searchsorted(klive, kreq_sorted, side="left")
        # i-th request of a run takes the i-th message of that channel
        run_start = np.flatnonzero(
            np.concatenate(([True], kreq_sorted[1:] != kreq_sorted[:-1])))
        occ = np.arange(m) - np.repeat(
            run_start, np.diff(np.concatenate((run_start, [m]))))
        pos = pos + occ
        if pos[-1] >= len(klive) if m else False:
            return None
        if m and (pos >= len(klive)).any():
            return None
        if not np.array_equal(klive[pos], kreq_sorted):
            return None
        take = np.empty(m, np.int64)
        take[rorder] = li[pos]
        return take

    def _free_many(self, take: np.ndarray) -> None:
        col = self._col
        if self._objs:
            obj_mask = (col["flags"][take] & F_OBJ) != 0
            for slot in col["payload_slot"][take[obj_mask]].tolist():
                self._objs[slot] = None
                self._obj_free.append(slot)
        col["flags"][take] = 0
        self._live[take] = False
        self._release(take)
        self._nlive -= len(take)
        if self._nlive == 0:
            self._reset_storage()
        else:
            self._chan = None

    def pop_batch(self, srcs, dsts, tag: int) -> Any:
        """Pop one wave of messages, vectorized; MISSING if any absent."""
        srcs = np.ascontiguousarray(srcs, np.int64)
        dsts = np.ascontiguousarray(dsts, np.int64)
        take = self._match_batch(srcs, dsts, tag)
        if take is None:
            return MISSING
        col = self._col
        flags = col["flags"][take]
        if (flags & F_OBJ).any():
            out = [self._materialize(int(i)) for i in take]
        else:
            offs = col["payload_slot"][take]
            words = col["words"][take]
            csum = np.zeros(len(take), np.int64)
            np.cumsum(words[:-1], out=csum[1:])
            total = int(csum[-1] + words[-1]) if len(take) else 0
            gather = (np.arange(total) - np.repeat(csum, words)
                      + np.repeat(offs, words))
            block = self._slab[gather]
            i8 = (flags & F_I8) != 0
            out = []
            bounds = csum.tolist() + [total]
            for k, w in enumerate(words.tolist()):
                piece = block[bounds[k]:bounds[k] + w]
                out.append(piece.view(_I8) if i8[k] else piece)
        self._free_many(take)
        return out

    def pop_block(self, srcs, dsts, tag: int) -> Any:
        """Pop one wave as a single (float64 block, words) pair.

        The fully array-based receive path: matching, payload gather and
        header retirement are all vectorized, and the caller applies the
        block with one scatter.  Only float64 slab payloads qualify;
        anything else returns MISSING so the caller can fall back.
        """
        srcs = np.ascontiguousarray(srcs, np.int64)
        dsts = np.ascontiguousarray(dsts, np.int64)
        take = self._match_batch(srcs, dsts, tag)
        if take is None:
            return MISSING
        if len(take) == 0:
            return np.zeros(0, _F8), np.zeros(0, np.int64)
        col = self._col
        if (col["flags"][take] & (F_OBJ | F_I8)).any():
            return MISSING
        offs = col["payload_slot"][take]
        words = col["words"][take]
        csum = np.zeros(len(take), np.int64)
        np.cumsum(words[:-1], out=csum[1:])
        total = int(csum[-1] + words[-1])
        if np.array_equal(offs, csum + offs[0]):
            # payloads already sit back-to-back in request order (the
            # usual same-wave case): one slice instead of a fancy gather
            block = self._slab[offs[0]:offs[0] + total].copy()
        else:
            gather = (np.arange(total) - np.repeat(csum, words)
                      + np.repeat(offs, words))
            block = self._slab[gather]
        self._free_many(take)
        return block, words

    # -- scans ---------------------------------------------------------------

    def count(self, src: int, dst: int, tag: int) -> int:
        if self._chan is not None:
            fifo = self._chan.get((src, dst, tag))
            return len(fifo) if fifo else 0
        if not self._nlive:
            return 0
        key = (src << (2 * _KEY_BITS)) | (dst << _KEY_BITS) | tag
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
        srcs = (uniq >> (2 * _KEY_BITS)).tolist()
        dsts = ((uniq >> _KEY_BITS) & (_KEY_LIMIT - 1)).tolist()
        tags = (uniq & (_KEY_LIMIT - 1)).tolist()
        return list(zip(srcs, dsts, tags, counts.tolist()))

    # -- fault-fabric hooks --------------------------------------------------

    def move_last(self, src: int, dst: int, tag: int, pos: int) -> None:
        """Reorder rule: move a channel's newest message to FIFO position
        ``pos`` (0 = front), implemented by permuting ``seq`` stamps.

        ``seq`` order is the single source of truth for every consumer —
        per-message pops (via the rebuilt ``_chan`` index), the batched
        matchers behind ``pop_batch``/``pop_block``, and ``snapshot`` —
        so the reorder is expressed there: the channel's newest header
        takes the seq stamp of FIFO position ``pos`` and the displaced
        headers shift up, exactly ``fifo.insert(pos, fifo.pop())``.
        Mutating only the lazy ``_chan`` index would silently revert the
        reorder the next time bulk delivery or matching rebuilt it.
        """
        self._check_key(src, dst, tag)
        key = (src << (2 * _KEY_BITS)) | (dst << _KEY_BITS) | tag
        li = np.flatnonzero(self._live & (self._keycol == key))
        if li.size == 0:
            raise KeyError((src, dst, tag))
        seqs = self._col["seq"][li]
        order = np.argsort(seqs, kind="stable")
        fifo = li[order].tolist()  # channel headers, oldest first
        fifo.insert(pos, fifo.pop())
        self._col["seq"][np.asarray(fifo, np.int64)] = np.sort(seqs)
        self._chan = None  # stale FIFO index; rebuilt from seq on demand

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
        self._obj_free.clear()
        self._chan = None

    def snapshot(self) -> dict:
        """Freeze the wire by serializing the header array directly.

        Live headers are copied in ``seq`` order together with
        materialized payload copies; at the quiescent points where
        checkpoints are taken the live count says it is empty (no scan),
        but the round trip is exact for any wire state (the fault fabric
        snapshots mid-flight delay ledgers through the same mechanism).
        """
        li = np.flatnonzero(self._live) if self._nlive else np.zeros(0, int)
        order = np.argsort(self._col["seq"][li], kind="stable")
        li = li[order]
        return {"headers": self._h[li].copy(),
                "payloads": [_capture(self._materialize(int(i)))
                             for i in li],
                "seq": self._seq}

    def restore(self, snap: dict) -> None:
        self.clear()
        rows = snap["headers"]
        for k in range(len(rows)):
            self.push(int(rows["src"][k]), int(rows["dst"][k]),
                      int(rows["tag"][k]), _capture(snap["payloads"][k]))
        self._seq = int(snap["seq"])
