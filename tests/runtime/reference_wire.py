"""Reference wire for the differential tests: one deque per channel.

:class:`DequeTransport` is the fabric SimMPI shipped with originally —
one Python :class:`~collections.deque` per ``(src, dst, tag)`` channel.
Obviously correct, and therefore the oracle: every method here defines
the semantics :class:`repro.runtime.ringbuf.RingTransport` must
reproduce bit-for-bit.  Tests reach it only through the
``reference_wire`` fixture (``tests/conftest.py``), which swaps it in
for the class :class:`~repro.runtime.simmpi.SimComm` constructs.
"""

from collections import Counter, deque
from typing import Any

import numpy as np

from repro.runtime.ringbuf import MISSING, _capture


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

    def push(self, srcs, dsts, tag, block, words) -> None:
        """Deliver a wave: one per-channel append per message — the
        deque's native (and only) granularity — each captured by value.

        ``tag`` is one tag or a column of them, as on the ring.
        """
        if isinstance(block, np.ndarray):
            offsets = np.cumsum(words).tolist()
            block = np.array(block)  # one capture of the whole wave
            payloads = [block[a - w:a]
                        for a, w in zip(offsets, np.asarray(words).tolist())]
        else:
            payloads = [_capture(p) for p in block]
        tags = np.broadcast_to(np.asarray(tag), (len(payloads),)).tolist()
        q = self._queues
        for s, d, t, p in zip(np.asarray(srcs).tolist(),
                              np.asarray(dsts).tolist(), tags, payloads):
            q.setdefault((s, d, t), deque()).append(p)

    # -- receive matching ----------------------------------------------------

    def pop(self, srcs, dsts, tag: int) -> Any:
        """Pop one wave as a payload list, or :data:`MISSING` — consuming
        nothing — when some request's message has not arrived.  The i-th
        request on a channel takes the channel's i-th oldest message."""
        keys = [(int(s), int(d), int(tag)) for s, d in zip(srcs, dsts)]
        if any(self.count(*k) < n for k, n in Counter(keys).items()):
            return MISSING
        return [self._queues[k].popleft() for k in keys]

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
