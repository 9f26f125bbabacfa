"""Reference wire for the differential tests: one deque per channel.

:class:`DequeTransport` is the fabric SimMPI shipped with originally —
one Python :class:`~collections.deque` per ``(src, dst, tag)`` channel.
Obviously correct, and therefore the oracle: every method here defines
the semantics :class:`repro.runtime.ringbuf.RingTransport` must
reproduce bit-for-bit.  Tests reach it only through the
``reference_wire`` fixture (``tests/conftest.py``), which swaps it in
for the class :class:`~repro.runtime.simmpi.SimComm` constructs.
"""

from collections import deque
from typing import Any

import numpy as np

from repro.runtime.ringbuf import MISSING, _F8, _capture


class DequeTransport:
    """Reference wire: one FIFO deque per (src, dst, tag) channel.

    This is the transport SimMPI shipped with originally; every method
    here defines the semantics the ring transport must reproduce
    bit-for-bit.
    """

    name = "deque"

    def __init__(self):
        self._queues: dict[tuple[int, int, int], deque] = {}

    # -- delivery ------------------------------------------------------------

    def push(self, src: int, dst: int, tag: int, payload: Any) -> None:
        """Append one already-captured message to its channel FIFO."""
        self._queues.setdefault((src, dst, tag), deque()).append(payload)

    def push_batch(self, srcs, dsts, tag: int, payloads) -> None:
        """Deliver a wave of messages, capturing each payload by value."""
        q = self._queues
        for s, d, p in zip(srcs, dsts, payloads):
            q.setdefault((int(s), int(d), tag), deque()).append(_capture(p))

    def push_block(self, srcs, dsts, tag: int, block, words) -> None:
        """Deliver a concatenated float64 wave (see :class:`RingTransport`).

        The deque has no block representation: the wave is captured once
        and split back into one per-channel append per message — its
        native (and only) delivery granularity.
        """
        blk = np.ascontiguousarray(block, _F8).copy()
        q = self._queues
        offset = 0
        for s, d, w in zip(np.asarray(srcs).tolist(),
                           np.asarray(dsts).tolist(),
                           np.asarray(words).tolist()):
            q.setdefault((s, d, tag), deque()).append(blk[offset:offset + w])
            offset += w

    # -- receive matching ----------------------------------------------------

    def pop(self, src: int, dst: int, tag: int) -> Any:
        """Oldest message of one channel, or :data:`MISSING`."""
        q = self._queues.get((src, dst, tag))
        if q:
            return q.popleft()
        return MISSING

    def pop_batch(self, srcs, dsts, tag: int) -> Any:
        """Batched matching is a ring-transport specialization."""
        return MISSING

    def pop_block(self, srcs, dsts, tag: int) -> Any:
        """Block delivery is a ring-transport specialization."""
        return MISSING

    # -- scans ---------------------------------------------------------------

    def count(self, src: int, dst: int, tag: int) -> int:
        q = self._queues.get((src, dst, tag))
        return len(q) if q else 0

    def pending_total(self) -> int:
        return sum(len(q) for q in self._queues.values())

    def channels(self) -> list[tuple[int, int, int, int]]:
        """Non-empty channels as sorted (src, dst, tag, count) tuples."""
        return [(s, d, t, len(q))
                for (s, d, t), q in sorted(self._queues.items()) if q]

    # -- fault-fabric hooks --------------------------------------------------

    def move_last(self, src: int, dst: int, tag: int, pos: int) -> None:
        """Reorder rule: move a channel's newest message to position
        ``pos`` (0 = front of the FIFO)."""
        q = self._queues[(src, dst, tag)]
        q.insert(pos, q.pop())

    # -- lifecycle / snapshots -----------------------------------------------

    def clear(self) -> None:
        self._queues.clear()

    def snapshot(self) -> dict:
        """Freeze the in-flight wire (payloads captured by value)."""
        return {"queues": {key: [_capture(p) for p in q]
                           for key, q in self._queues.items() if q}}

    def restore(self, snap: dict) -> None:
        self._queues = {key: deque(_capture(p) for p in msgs)
                        for key, msgs in snap["queues"].items()}
