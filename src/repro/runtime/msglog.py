"""Sender-side message logging for localized restart.

Global rollback (PR 2) rewinds *every* rank to a checkpoint after one
rank dies — O(P) recovery work for a one-rank fault.  Message-logging
protocols (MPICH-V style) do better: if every delivery since the last
checkpoint is logged at the *sender side of the wire*, a killed rank can
be restored alone and re-driven against the log while the survivors
simply wait at the collective they already reached.

:class:`MessageLog` is that log.  It follows the house column-array
style of the ring transport and ``CommStats``: message *headers*
``(src, dst, tag, seq, flags, slot, words)`` live in one preallocated
numpy structured array, numeric payloads live in a float64 slab
addressed by ``slot``/``words`` (int64 rides bit-exactly via a view,
like the ring's ``F_I8`` rows), and payloads the slab cannot hold
bit-exactly fall into an object side table.  Appending a block wave is
one slab copy plus one vectorized header write — no per-message Python
objects on the hot path.

The communicator records into the log at final *delivery* time (its
``_deliver``/``_deliver_batch``/``_deliver_block`` hooks), i.e. after
the fault fabric has had its say: a dropped message is logged only when
its retransmission actually reaches the wire, a delayed one when it is
released, a corrupted one with the corrupted bits.  The log therefore
holds exactly the messages a receiver can observe, in per-channel FIFO
order — ``seq`` (the absolute append index) is the replay order.

Recovery uses the log twice:

:meth:`MessageLog.replay_onto`
    pushes every logged in-window delivery destined to the restored
    rank straight back onto the transport (no re-accounting — the
    original send already paid), skipping per channel the newest
    entries that are still sitting unconsumed on the wire (open
    split-phase windows: their original messages were never received,
    so replaying them would duplicate).

:class:`ReplayFilter`
    seq-based duplicate suppression for the sends the recovering rank
    re-emits while being re-driven: each re-send consumes the next
    logged entry of its (dst, tag) channel and is silently discarded —
    the peers received the original long ago.  A word-count mismatch
    against the logged entry means the replay diverged from the
    original execution and raises immediately.

>>> import numpy as np
>>> log = MessageLog()
>>> log.record(0, 1, 7, np.arange(3.0))
>>> log.record(1, 0, 7, np.array([5, 6], np.int64))
>>> log.record(0, 1, 9, 2.5)
>>> log.mark()
3
>>> log.entries()
[(0, 1, 7, 0, 3), (1, 0, 7, 1, 2), (0, 1, 9, 2, 1)]
>>> log.truncate_before(1)
>>> log.entries()  # seq stamps are absolute: they survive truncation
[(1, 0, 7, 1, 2), (0, 1, 9, 2, 1)]
>>> log.payload(2)
2.5
"""

from __future__ import annotations

from collections import deque
from typing import Any, Optional

import numpy as np

from ..errors import RuntimeFault
from .ringbuf import F_I8, F_OBJ, _capture
from .simmpi import _payload_words

#: one logged delivery; ``seq`` is the absolute append index (stable
#: across truncation), ``flags`` reuses the ring transport's payload
#: encoding bits, ``slot`` indexes the slab (word offset) or the object
#: side table, ``words`` is the accounting size
LOG_DTYPE = np.dtype([
    ("src", "<i8"), ("dst", "<i8"), ("tag", "<i8"), ("seq", "<i8"),
    ("flags", "<i8"), ("slot", "<i8"), ("words", "<i8"),
])

_F8 = np.dtype(np.float64)
_I8 = np.dtype(np.int64)


class MessageLog:
    """Column-array record of every delivery since the oldest checkpoint.

    Append-only between truncations; ``mark()`` returns the absolute
    entry count, which checkpoints store as their ``log_mark`` so
    recovery knows where a rank's replay window starts.
    """

    def __init__(self, capacity: int = 256, slab_words: int = 4096):
        self._hdr = np.zeros(capacity, LOG_DTYPE)
        self._n = 0
        #: absolute index of row 0 (advanced by :meth:`truncate_before`)
        self._base = 0
        self._slab = np.zeros(slab_words, _F8)
        self._cursor = 0
        self._objs: list[Any] = []
        #: when True, record calls are no-ops (migration-epoch traffic is
        #: never replayed — recovery restarts from the post-epoch
        #: checkpoint, so logging it would only poison replay windows)
        self.paused = False

    def pause(self) -> None:
        """Stop logging (migration-epoch exchanges must not be replayed)."""
        self.paused = True

    def resume(self) -> None:
        """Resume logging after a migration epoch."""
        self.paused = False

    def __len__(self) -> int:
        return self._base + self._n

    def mark(self) -> int:
        """Absolute entry count — store as a checkpoint's ``log_mark``."""
        return self._base + self._n

    @property
    def live_entries(self) -> int:
        """Entries currently retained (post-truncation)."""
        return self._n

    @property
    def live_words(self) -> int:
        """Payload words currently retained."""
        return int(self._hdr["words"][:self._n].sum())

    # -- appending -----------------------------------------------------------

    def _grow_rows(self, n: int) -> None:
        need = self._n + n
        if need > len(self._hdr):
            grown = np.zeros(max(need, 2 * len(self._hdr)), LOG_DTYPE)
            grown[:self._n] = self._hdr[:self._n]
            self._hdr = grown

    def _grow_slab(self, words: int) -> int:
        """Reserve ``words`` slab words; returns the slot offset."""
        need = self._cursor + words
        if need > len(self._slab):
            grown = np.zeros(max(need, 2 * len(self._slab)), _F8)
            grown[:self._cursor] = self._slab[:self._cursor]
            self._slab = grown
        slot = self._cursor
        self._cursor = need
        return slot

    def _append_row(self, src: int, dst: int, tag: int, flags: int,
                    slot: int, words: int) -> None:
        self._grow_rows(1)
        row = self._hdr[self._n]
        row["src"] = src
        row["dst"] = dst
        row["tag"] = tag
        row["seq"] = self._base + self._n
        row["flags"] = flags
        row["slot"] = slot
        row["words"] = words
        self._n += 1

    def record(self, src: int, dst: int, tag: int, payload: Any) -> None:
        """Log one delivery (already captured by value upstream)."""
        if self.paused:
            return
        if isinstance(payload, np.ndarray) and payload.ndim == 1 \
                and payload.dtype == _F8:
            slot = self._grow_slab(payload.size)
            self._slab[slot:slot + payload.size] = payload
            self._append_row(src, dst, tag, 0, slot, payload.size)
        elif isinstance(payload, np.ndarray) and payload.ndim == 1 \
                and payload.dtype == _I8:
            slot = self._grow_slab(payload.size)
            self._slab[slot:slot + payload.size] = payload.view(_F8)
            self._append_row(src, dst, tag, F_I8, slot, payload.size)
        else:
            self._objs.append(_capture(payload))
            self._append_row(src, dst, tag, F_OBJ, len(self._objs) - 1,
                             _payload_words(payload))

    def record_batch(self, srcs, dsts, tag: int, payloads: list) -> None:
        """Log one wave of per-message payloads (non-float64 waves)."""
        if self.paused:
            return
        for s, d, p in zip(np.asarray(srcs).tolist(),
                           np.asarray(dsts).tolist(), payloads):
            self.record(int(s), int(d), tag, p)

    def record_block(self, srcs, dsts, tag: int, block, words) -> None:
        """Log one concatenated float64 wave: one slab copy, one header
        write — the vectorized mirror of the transport's ``push_block``."""
        if self.paused:
            return
        words = np.ascontiguousarray(words, _I8)
        n = len(words)
        if n == 0:
            return
        total = int(words.sum())
        slot = self._grow_slab(total)
        self._slab[slot:slot + total] = block
        self._grow_rows(n)
        rows = self._hdr[self._n:self._n + n]
        rows["src"] = np.asarray(srcs, _I8)
        rows["dst"] = np.asarray(dsts, _I8)
        rows["tag"] = tag
        rows["seq"] = self._base + self._n + np.arange(n, dtype=_I8)
        rows["flags"] = 0
        rows["slot"] = slot + np.concatenate(([0], np.cumsum(words[:-1])))
        rows["words"] = words
        self._n += n

    # -- reading -------------------------------------------------------------

    def _row_index(self, seq: int) -> int:
        i = seq - self._base
        if not 0 <= i < self._n:
            raise RuntimeFault(f"message-log seq {seq} outside the "
                               f"retained window "
                               f"[{self._base}, {self._base + self._n})")
        return i

    def payload(self, seq: int) -> Any:
        """Materialize one logged payload (a fresh copy)."""
        return self._materialize(self._row_index(seq))

    def _materialize(self, i: int) -> Any:
        row = self._hdr[i]
        flags = int(row["flags"])
        if flags & F_OBJ:
            return _capture(self._objs[int(row["slot"])])
        lo = int(row["slot"])
        hi = lo + int(row["words"])
        if flags & F_I8:
            return self._slab[lo:hi].view(_I8).copy()
        return self._slab[lo:hi].copy()

    def entries(self, dst: Optional[int] = None,
                start_mark: int = 0) -> list[tuple[int, int, int, int, int]]:
        """Retained rows as (src, dst, tag, seq, words) tuples, in seq
        order, optionally filtered by destination and starting mark."""
        hdr = self._hdr[:self._n]
        out = []
        for i in range(self._n):
            if hdr["seq"][i] < start_mark:
                continue
            if dst is not None and hdr["dst"][i] != dst:
                continue
            out.append((int(hdr["src"][i]), int(hdr["dst"][i]),
                        int(hdr["tag"][i]), int(hdr["seq"][i]),
                        int(hdr["words"][i])))
        return out

    # -- retention -----------------------------------------------------------

    def truncate_before(self, mark: int) -> None:
        """Drop entries with ``seq < mark`` (they predate every retained
        checkpoint and can never be replayed again); compacts the slab
        and the object table."""
        k = mark - self._base
        if k <= 0:
            return
        k = min(k, self._n)
        keep = self._hdr[k:self._n].copy()
        slab = np.zeros(max(len(self._slab) // 2, 4096,
                            int(keep["words"].sum())), _F8)
        objs: list[Any] = []
        cursor = 0
        for row in keep:
            if int(row["flags"]) & F_OBJ:
                objs.append(self._objs[int(row["slot"])])
                row["slot"] = len(objs) - 1
            else:
                w = int(row["words"])
                lo = int(row["slot"])
                slab[cursor:cursor + w] = self._slab[lo:lo + w]
                row["slot"] = cursor
                cursor += w
        self._hdr = np.zeros(max(len(keep), 256), LOG_DTYPE)
        self._hdr[:len(keep)] = keep
        self._n = len(keep)
        self._base += k
        self._slab = slab
        self._cursor = cursor
        self._objs = objs

    # -- recovery ------------------------------------------------------------

    def replay_onto(self, comm, rank: int,
                    start_mark: int) -> tuple[int, int]:
        """Re-deliver logged in-window messages destined to ``rank``.

        Pushes straight onto the transport (no accounting: the original
        sends already paid, and the fault fabric already had its say when
        each entry was first delivered).  Per channel, the newest entries
        still sitting unconsumed on the wire — open split-phase windows
        whose waits have not run yet — are skipped: their originals are
        still there and the restored rank's pending receives will find
        them.  Returns ``(messages, words)`` replayed.
        """
        start = max(0, start_mark - self._base)
        hdr = self._hdr[:self._n]
        rows = np.flatnonzero(hdr["dst"] == rank)
        rows = rows[rows >= start]
        skip: set[int] = set()
        for s, d, t, cnt in comm.pending_channels():
            if d != rank:
                continue
            chan = [i for i in rows.tolist()
                    if hdr["src"][i] == s and hdr["tag"][i] == t]
            skip.update(chan[len(chan) - min(cnt, len(chan)):])
        count = 0
        total = 0
        for i in rows.tolist():
            if i in skip:
                continue
            comm._transport.push(int(hdr["src"][i]), rank,
                                 int(hdr["tag"][i]), self._materialize(i))
            count += 1
            total += int(hdr["words"][i])
        return count, total


class ReplayFilter:
    """Seq-based duplicate suppression for a rank being re-driven.

    Built over the log window ``[start_mark, mark())`` restricted to
    ``src == rank``: while installed on the communicator
    (``comm.begin_replay``), each send the recovering rank re-emits
    consumes the next logged entry of its (dst, tag) channel and is
    discarded before accounting — the peers consumed the original
    delivery long ago, and the ledger already counted it.  A word-count
    mismatch against the logged entry is a replay divergence and raises.
    A re-send with no logged counterpart (its original is still parked
    in a fault-fabric ledger) is suppressed leniently: the original
    will still arrive through the fabric.
    """

    def __init__(self, log: MessageLog, rank: int, start_mark: int):
        self.rank = rank
        self.suppressed = 0
        self.suppressed_words = 0
        self._expect: dict[tuple[int, int], deque] = {}
        start = max(0, start_mark - log._base)
        hdr = log._hdr[:log._n]
        rows = np.flatnonzero(hdr["src"] == rank)
        for i in rows[rows >= start].tolist():
            key = (int(hdr["dst"][i]), int(hdr["tag"][i]))
            self._expect.setdefault(key, deque()).append(
                (int(hdr["seq"][i]), int(hdr["words"][i])))

    def suppress(self, src: int, dst: int, tag: int, words: int) -> bool:
        """True when this send is a replay duplicate to be discarded."""
        if src != self.rank:
            return False
        q = self._expect.get((dst, tag))
        if q:
            seq, logged = q.popleft()
            if logged != words:
                raise RuntimeFault(
                    f"localized restart diverged: rank {src} re-sent "
                    f"{words} word(s) to rank {dst} (tag {tag}) but log "
                    f"seq {seq} recorded {logged} word(s)")
        self.suppressed += 1
        self.suppressed_words += words
        return True
