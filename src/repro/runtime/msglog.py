"""Sender-side message logging for localized restart.

Global rollback (PR 2) rewinds *every* rank to a checkpoint after one
rank dies — O(P) recovery work for a one-rank fault.  Message-logging
protocols (MPICH-V style) do better: if every delivery since the last
checkpoint is logged at the *sender side of the wire*, a killed rank can
be restored alone and re-driven against the log while the survivors
simply wait at the collective they already reached.

:class:`MessageLog` is that log, and it is a second wire: a
:class:`~repro.runtime.ringbuf.RingTransport` whose rows are never
received.  Recording a wave is pushing it (the ring takes its own
by-value copy); a row's ``seq`` stamp is the absolute record index, so
:meth:`MessageLog.mark` is the ring's seq count, and truncation frees
the rows below a mark — every checkpoint truncates at the current mark,
so the ring drains and its slab rewinds.

The communicator records into the log at final *delivery* time (its one
``_deliver`` hook), i.e. after the fault fabric has had its say: a
dropped message is logged only when its retransmission actually reaches
the wire, a delayed one when it is released, a corrupted one with the
corrupted bits.  The log therefore holds exactly the messages a receiver
can observe, in per-channel FIFO order — ``seq`` is the replay order.

Recovery uses the log twice:

:meth:`MessageLog.replay_onto`
    pushes every logged in-window delivery destined to the restored
    rank back onto the transport as one wave (no re-accounting — the
    original send already paid), skipping per channel the newest rows
    that are still sitting unconsumed on the wire (open split-phase
    windows: their original messages were never received, so replaying
    them would duplicate).

:class:`ReplayFilter`
    seq-based duplicate suppression for the sends the recovering rank
    re-emits while being re-driven: each re-send consumes the next
    logged row of its (dst, tag) channel and is masked out of its wave —
    the peers received the original long ago.  A word-count mismatch
    against the logged row means the replay diverged from the original
    execution and raises immediately.

>>> import numpy as np
>>> log = MessageLog()
>>> log.record([0], [1], 7, np.arange(3.0), [3])
>>> log.record([1, 0], [0, 1], 9, [np.array([5, 6]), 2.5], [2, 1])
>>> log.mark()
3
>>> log.truncate_before(1)
>>> log.ring.channels(), log.mark()  # seq stamps survive truncation
([(0, 1, 9, 1), (1, 0, 9, 1)], 3)
"""

from __future__ import annotations

from collections import deque

import numpy as np

from ..errors import RuntimeFault
from .ringbuf import RingTransport


class MessageLog:
    """Every delivery since the oldest retained checkpoint, as a ring.

    ``mark()`` returns the absolute record count, which checkpoints
    store as their ``log_mark`` so recovery knows where a rank's replay
    window starts.
    """

    def __init__(self):
        #: the log's own wire: one row per recorded delivery
        self.ring = RingTransport()
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

    def mark(self) -> int:
        """Absolute record count — store as a checkpoint's ``log_mark``."""
        return self.ring._seq

    def record(self, srcs, dsts, tag: int, block, words) -> None:
        """Log one delivered wave (the ring copies it by value)."""
        if not self.paused:
            self.ring.push(srcs, dsts, tag, block, words)

    def truncate_before(self, mark: int) -> None:
        """Free the rows with ``seq < mark`` (they predate every retained
        checkpoint and can never be replayed again)."""
        ring = self.ring
        ring._free_rows(np.flatnonzero(ring._live & (ring._col["seq"] < mark)))

    def _window(self, end: str, rank: int, start_mark: int) -> np.ndarray:
        """Rows whose ``end`` column is ``rank`` and ``seq`` is at least
        ``start_mark``, in seq order."""
        ring = self.ring
        seq = ring._col["seq"]
        rows = np.flatnonzero(ring._live & (ring._col[end] == rank)
                              & (seq >= start_mark))
        return rows[np.argsort(seq[rows], kind="stable")]

    def replay_onto(self, comm, rank: int,
                    start_mark: int) -> tuple[int, int]:
        """Re-deliver logged in-window messages destined to ``rank``.

        Pushes straight onto the transport as one wave (no accounting:
        the original sends already paid, and the fault fabric already
        had its say when each row was first delivered).  Per channel, the
        newest rows still sitting unconsumed on the wire — open
        split-phase windows whose waits have not run yet — are skipped:
        their originals are still there and the restored rank's pending
        receives will find them.  Returns ``(messages, words)`` replayed.
        """
        col = self.ring._col
        rows = self._window("dst", rank, start_mark)
        srcs, tags = col["src"][rows], col["tag"][rows]
        keep = np.ones(len(rows), bool)
        for s, d, t, cnt in comm.pending_channels():
            if d == rank:
                chan = np.flatnonzero((srcs == s) & (tags == t))
                keep[chan[max(0, len(chan) - cnt):]] = False
        rows = rows[keep]
        wave = self.ring._read(rows)
        comm._transport.push(col["src"][rows], col["dst"][rows],
                             col["tag"][rows],
                             wave[0] if isinstance(wave, tuple) else wave,
                             col["words"][rows])
        return len(rows), int(col["words"][rows].sum())


class ReplayFilter:
    """Seq-based duplicate suppression for a rank being re-driven.

    Built over the log window ``[start_mark, mark())`` restricted to
    ``src == rank``: while installed on the communicator
    (``comm.begin_replay``), each send the recovering rank re-emits
    consumes the next logged row of its (dst, tag) channel and is masked
    out of its wave before accounting — the peers consumed the original
    delivery long ago, and the ledger already counted it.  A word-count
    mismatch against the logged row is a replay divergence and raises.
    A re-send with no logged counterpart (its original is still parked
    in a fault-fabric ledger) is suppressed leniently: the original
    will still arrive through the fabric.
    """

    def __init__(self, log: MessageLog, rank: int, start_mark: int):
        self.rank = rank
        self.suppressed = 0
        self.suppressed_words = 0
        self._expect: dict[tuple[int, int], deque] = {}
        col = log.ring._col
        rows = log._window("src", rank, start_mark)
        for dst, tag, seq, words in zip(
                col["dst"][rows].tolist(), col["tag"][rows].tolist(),
                col["seq"][rows].tolist(), col["words"][rows].tolist()):
            self._expect.setdefault((dst, tag), deque()).append((seq, words))

    def suppress(self, srcs, dsts, tag: int, words) -> np.ndarray:
        """Mask of the wave's replay duplicates, to be discarded."""
        mask = np.asarray(srcs) == self.rank
        for i in np.flatnonzero(mask).tolist():
            dst, nwords = int(dsts[i]), int(words[i])
            q = self._expect.get((dst, tag))
            if q:
                seq, logged = q.popleft()
                if logged != nwords:
                    raise RuntimeFault(
                        f"localized restart diverged: rank {self.rank} "
                        f"re-sent {nwords} word(s) to rank {dst} (tag "
                        f"{tag}) but log seq {seq} recorded {logged} "
                        f"word(s)")
            self.suppressed += 1
            self.suppressed_words += nwords
        return mask
