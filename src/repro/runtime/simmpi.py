"""SimMPI — a deterministic in-process message-passing fabric.

The PVM/MPI substitute (paper references [3]/[8]): the generated SPMD
program only needs tagged point-to-point messages plus the collectives
built on them (:mod:`repro.runtime.halos`).  Running everything in one
process makes cross-rank executions bit-reproducible — which is what lets
the test suite compare SPMD against sequential runs exactly.

Every send captures its payload by value, so a split-phase window —
a wave sent at the POST, received at the WAIT — transfers exactly the
bytes a blocking exchange at the post point would have.  There are no
request handles: a POST whose WAIT never ran leaves its wave on the wire,
and :meth:`SimComm.assert_drained` (CC101) names it.

The wire is a :class:`~repro.runtime.ringbuf.RingTransport`, and every
layer of it handles a *wave* — m messages on one tag — in one call:
:meth:`SimComm.send_batch` (a payload list) and :meth:`SimComm.send_block`
(one concatenated block) both reduce to one ``_send_wave``, which
validates the wave, masks out replay duplicates, accounts it and hands
it to the one delivery hook ``_deliver`` (wire push + log record — the
hook the fault fabric overrides); :meth:`SimComm.recv_batch` and
:meth:`SimComm.recv_block` share one transport ``pop``.  A single
message (:class:`RankComm`) is a wave of one.

Every send is accounted (message count, payload words) per (source,
destination) pair; :mod:`repro.runtime.perfmodel` turns the ledger into
simulated wall-clock time.

>>> comm = SimComm(2)
>>> comm.view(0).send([1, 2, 3], dest=1, tag=7)
>>> comm.view(1).recv(source=0, tag=7)
[1, 2, 3]
>>> comm.stats.total_messages(), comm.stats.total_words()
(1, 3)
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional

import numpy as np

from ..errors import CommTimeout, RuntimeFault
from .ringbuf import (
    MISSING,
    RANK_LIMIT,
    RingTransport,
    _split,
    on_slab,
    wave_of,
    wave_rows,
)


@dataclass
class CollectiveRecord:
    """One logged collective: traffic plus its window kind.

    ``window`` is ``"blocking"`` for a classic collective, ``"posted"`` for
    the initiating half of a split-phase exchange and ``"waited"`` for the
    completing half; ``overlap_steps`` (set on waited records) is the
    smallest number of interpreter steps any rank computed between post and
    wait — the budget available for hiding latency.  Iterating yields the
    legacy ``(label, msgs, words)`` triple as *copies*, so unpacking a
    record can never mutate the ledger.

    >>> rec = CollectiveRecord(label="overlap:u", msgs=[1, 1], words=[4, 4])
    >>> label, msgs, words = rec
    >>> msgs[0] = 99; rec.msgs
    [1, 1]
    """

    label: str
    msgs: list[int]
    words: list[int]
    window: str = "blocking"
    overlap_steps: int = 0

    def __iter__(self):
        return iter((self.label, list(self.msgs), list(self.words)))


class CommStats:
    """Ledger of all traffic through one communicator.

    Sends are recorded as an append-only event log, one numpy chunk per
    wave, plus per-rank counters folded from it on demand, so the
    executor's per-collective bookkeeping is O(ranks) array arithmetic
    instead of a Python sweep over every (src, dst) pair.  The classic
    per-pair dictionaries are still available as :attr:`messages` /
    :attr:`words`, materialized lazily from the log.

    >>> st = CommStats()
    >>> st.note_batch(np.array([0, 1]), np.array([1, 0]), np.array([10, 4]))
    >>> st.messages[(0, 1)], st.words[(1, 0)]
    (1, 4)
    >>> st.rank_messages(1)
    2
    """

    def __init__(self):
        #: per-collective log (label, per-rank message count, per-rank words
        #: triples, plus the window kind) — see :class:`CollectiveRecord`
        self.collectives: list[CollectiveRecord] = []
        #: fault-tolerance accounting (all zero on a perfect fabric): receive
        #: retry polls, retransmitted messages and their words — charged by
        #: :func:`repro.runtime.perfmodel.parallel_time`
        self.retries = 0
        self.retransmits = 0
        self.retransmit_words = 0
        self._chunks: list[tuple[np.ndarray, np.ndarray, np.ndarray]] = []
        self._rank_msgs = np.zeros(0, np.int64)
        self._rank_wrds = np.zeros(0, np.int64)
        #: batched chunks not yet folded into the per-rank counters
        self._unfolded: list[tuple[np.ndarray, np.ndarray, np.ndarray]] = []
        self._nmsgs = 0
        self._nwords = 0
        self._pair_cache: Optional[tuple[dict, dict]] = None

    # -- recording -----------------------------------------------------------

    def _ensure_ranks(self, hi: int) -> None:
        if hi >= len(self._rank_msgs):
            grow = max(hi + 1, 2 * len(self._rank_msgs))
            m = np.zeros(grow, np.int64)
            m[:len(self._rank_msgs)] = self._rank_msgs
            w = np.zeros(grow, np.int64)
            w[:len(self._rank_wrds)] = self._rank_wrds
            self._rank_msgs, self._rank_wrds = m, w

    def note_batch(self, srcs: np.ndarray, dsts: np.ndarray,
                   words: np.ndarray) -> None:
        """Record one wave of messages with three array columns.

        The wave is logged immediately; folding it into the per-rank
        counters is deferred until a counter is read, so a send-side hot
        loop pays one list append per wave, not four bincounts.  The
        columns are copied on ingest: chunks are immutable once in the
        ledger (snapshots keep them by length), so the ledger must own
        them even if the caller reuses or mutates its buffers afterwards.
        """
        n = len(srcs)
        if n == 0:
            return
        chunk = (np.array(srcs, np.int64), np.array(dsts, np.int64),
                 np.array(words, np.int64))
        self._chunks.append(chunk)
        self._unfolded.append(chunk)
        self._nmsgs += n
        self._nwords += int(words.sum())
        self._pair_cache = None

    def _tally(self) -> None:
        """Apply deferred batch chunks to the per-rank counters."""
        for srcs, dsts, words in self._unfolded:
            hi = max(int(srcs.max()), int(dsts.max()))
            self._ensure_ranks(hi)
            size = hi + 1
            self._rank_msgs[:size] += np.bincount(srcs, minlength=size)
            self._rank_wrds[:size] += np.bincount(
                srcs, weights=words, minlength=size).astype(np.int64)
            off = dsts != srcs
            if off.any():
                self._rank_msgs[:size] += np.bincount(dsts[off],
                                                      minlength=size)
                self._rank_wrds[:size] += np.bincount(
                    dsts[off], weights=words[off],
                    minlength=size).astype(np.int64)
        self._unfolded = []

    # -- totals and per-rank counters ----------------------------------------

    def total_messages(self) -> int:
        return self._nmsgs

    def total_words(self) -> int:
        return self._nwords

    def rank_messages(self, rank: int) -> int:
        """Messages rank sent or received (self-sends counted once)."""
        self._tally()
        return int(self._rank_msgs[rank]) if rank < len(self._rank_msgs) \
            else 0

    def rank_words(self, rank: int) -> int:
        self._tally()
        return int(self._rank_wrds[rank]) if rank < len(self._rank_wrds) \
            else 0

    def rank_counters(self, size: int) -> tuple[np.ndarray, np.ndarray]:
        """(messages, words) per rank as two length-``size`` arrays.

        The vectorized bulk form of :meth:`rank_messages` /
        :meth:`rank_words`; the halo collectives diff two of these to log a
        :class:`CollectiveRecord` in O(ranks).
        """
        self._tally()
        msgs = np.zeros(size, np.int64)
        wrds = np.zeros(size, np.int64)
        n = min(size, len(self._rank_msgs))
        msgs[:n] = self._rank_msgs[:n]
        wrds[:n] = self._rank_wrds[:n]
        return msgs, wrds

    # -- per-pair dictionaries (lazy) ----------------------------------------

    def _pairs(self) -> tuple[dict, dict]:
        if self._pair_cache is None:
            msgs: dict[tuple[int, int], int] = {}
            wrds: dict[tuple[int, int], int] = {}
            for s_arr, d_arr, w_arr in self._chunks:
                for s, d, w in zip(s_arr.tolist(), d_arr.tolist(),
                                   w_arr.tolist()):
                    key = (s, d)
                    msgs[key] = msgs.get(key, 0) + 1
                    wrds[key] = wrds.get(key, 0) + w
            self._pair_cache = (msgs, wrds)
        return self._pair_cache

    @property
    def messages(self) -> dict[tuple[int, int], int]:
        """Message count per (src, dst) pair, built on demand."""
        return self._pairs()[0]

    @property
    def words(self) -> dict[tuple[int, int], int]:
        """Payload words per (src, dst) pair, built on demand."""
        return self._pairs()[1]

    # -- snapshots -----------------------------------------------------------

    def snapshot(self) -> tuple:
        """Freeze the ledger by length, for checkpoint snapshots: both
        logs are append-only (no record or flushed chunk ever changes), so
        two lengths plus the counters are the whole snapshot, O(ranks)
        whatever the history."""
        self._tally()
        return (len(self.collectives), len(self._chunks), self.retries,
                self.retransmits, self.retransmit_words,
                self._rank_msgs.copy(), self._rank_wrds.copy(),
                self._nmsgs, self._nwords)

    def restore(self, snap: tuple) -> None:
        """Rewind in place to a :meth:`snapshot` by truncating the logs."""
        (ncoll, nchunks, self.retries, self.retransmits,
         self.retransmit_words, msgs, wrds, self._nmsgs, self._nwords) = snap
        del self.collectives[ncoll:]
        del self._chunks[nchunks:]
        self._unfolded = []
        self._rank_msgs, self._rank_wrds = msgs.copy(), wrds.copy()
        self._pair_cache = None


class SimComm:
    """A communicator over ``size`` simulated ranks.

    The mpi4py-style per-rank handle is :class:`RankComm`
    (``comm.view(rank)``); this object owns the wire
    (:mod:`repro.runtime.ringbuf`) and the ledger.

    >>> comm = SimComm(3)
    >>> comm.send_batch([0, 0], [1, 2], [np.arange(2.0)] * 2, tag=5)
    >>> comm.pending_channels()
    [(0, 1, 5, 1), (0, 2, 5, 1)]
    >>> comm.view(2).recv(source=0, tag=5)
    array([0., 1.])
    """

    #: first tag handed out by :meth:`fresh_tag` — above every static tag
    #: used by the halo collectives
    FRESH_TAG_BASE = 1000

    def __init__(self, size: int):
        if size < 1:
            raise RuntimeFault("communicator needs at least one rank")
        if size > RANK_LIMIT:
            raise RuntimeFault(
                f"communicator of {size} ranks exceeds the wire's "
                f"{RANK_LIMIT}-rank address space")
        self.size = size
        self._transport = RingTransport()
        self._next_tag = self.FRESH_TAG_BASE
        self.stats = CommStats()
        #: receive retry budget in fabric steps; 0 keeps the historical
        #: fail-fast behaviour (an empty queue is an immediate deadlock)
        self.comm_timeout = 0
        #: sender-side message log for localized restart — installed by
        #: the executor only when ``recovery="local"`` is armed; the
        #: default fault-free path pays one ``is not None`` check per wave
        self.msglog = None
        #: duplicate-suppression filter, non-None only while a killed
        #: rank is being re-driven against the log; ``_live_tag`` holds
        #: the live tag counter meanwhile
        self._replay = None
        self._live_tag = self._next_tag

    def fresh_tag(self) -> int:
        """A tag no other exchange uses — isolates one split-phase window."""
        tag = self._next_tag
        self._next_tag += 1
        return tag

    def view(self, rank: int) -> "RankComm":
        if not 0 <= rank < self.size:
            raise RuntimeFault(f"rank {rank} out of range 0..{self.size - 1}")
        return RankComm(self, rank)

    # -- transport ----------------------------------------------------------

    def send_batch(self, srcs, dsts, payloads: list, tag: int = 0) -> None:
        """Blocking-send one wave: ``payloads[i]`` from ``srcs[i]`` to
        ``dsts[i]``, account + deliver, no handles.

        The wire carries 1-D payloads of one slab dtype as one block and
        anything else (scalars, bool, 2-D, mixed kinds) as one object wave
        (:func:`~repro.runtime.ringbuf.wave_of`).
        """
        self._send_wave(srcs, dsts, tag, *wave_of(payloads))

    def send_block(self, srcs, dsts, block, words, tag: int = 0) -> None:
        """Blocking-send one wave as a single concatenated block.

        ``block`` holds every payload back-to-back along its first axis;
        message i is the ``words[i]``-row slice starting at
        ``words[:i].sum()``.  The natural inverse of :meth:`recv_block`.
        A 1-D float64 or int64 block goes to the slab as it is; any other
        (bool, multi-dimensional) is split into an object wave.

        >>> comm = SimComm(2)
        >>> comm.send_block([0], [1], np.arange(3), [3], tag=4)
        >>> comm.recv_block([0], [1], tag=4)
        (array([0, 1, 2]), array([3]))
        """
        self._send_wave(srcs, dsts, tag, np.asarray(block), words)

    def _send_wave(self, srcs, dsts, tag: int, block, words) -> None:
        """Validate, suppress replay duplicates, account and deliver one
        wave.

        Raises :class:`RuntimeFault` for a malformed wave: columns of
        unequal length, a rank outside ``0..size-1``, a negative word
        count or a block whose rows the words column does not add up to.
        """
        srcs = np.ascontiguousarray(srcs, np.int64)
        dsts = np.ascontiguousarray(dsts, np.int64)
        words = np.ascontiguousarray(words, np.int64)
        m = len(words)
        if len(srcs) != m or len(dsts) != m:
            raise RuntimeFault(
                f"malformed wave on tag {tag}: {len(srcs)} source(s), "
                f"{len(dsts)} destination(s), {m} message(s)")
        if m == 0:
            return
        for end, ranks in (("from", srcs), ("to", dsts)):
            if int(ranks.min()) < 0 or int(ranks.max()) >= self.size:
                bad = next(r for r in ranks.tolist()
                           if not 0 <= r < self.size)
                raise RuntimeFault(f"send {end} invalid rank {bad}")
        if int(words.min()) < 0:
            raise RuntimeFault(
                f"malformed wave on tag {tag}: negative word count "
                f"{int(words.min())}")
        if isinstance(block, np.ndarray):
            if len(block) != int(words.sum()):
                raise RuntimeFault(
                    f"send_block: block holds {len(block)} row(s) but the "
                    f"words column sums to {int(words.sum())}")
            if not on_slab(block):
                block, words = wave_of(_split(block, words))
        if self._replay is not None:
            # replay duplicates: peers consumed the originals long ago
            keep = np.flatnonzero(
                ~self._replay.suppress(srcs, dsts, tag, words))
            if len(keep) < m:
                if not len(keep):
                    return
                srcs, dsts = srcs[keep], dsts[keep]
                block, words = wave_rows(block, words, keep)
        self.stats.note_batch(srcs, dsts, words)
        self._deliver(srcs, dsts, tag, block, words)

    def _deliver(self, srcs: np.ndarray, dsts: np.ndarray, tag: int,
                 block, words: np.ndarray) -> None:
        """Place one accounted wave on the wire and in the message log.

        The fault-injection fabric (:mod:`repro.runtime.faults`) overrides
        exactly this hook to drop/delay/reorder/duplicate/corrupt.
        """
        self._transport.push(srcs, dsts, tag, block, words)
        if self.msglog is not None:
            self.msglog.record(srcs, dsts, tag, block, words)

    def _recv(self, src: int, dest: int, tag: int) -> Any:
        """Receive one message — a wave of one — retrying through the
        fabric for up to ``comm_timeout`` steps."""
        wave = self._transport.pop([src], [dest], tag)
        for _ in range(self.comm_timeout):
            if wave is not MISSING:
                break
            self.stats.retries += 1
            self._progress((src, dest, tag))
            wave = self._transport.pop([src], [dest], tag)
        if wave is not MISSING:
            # a block wave of one is (payload, words); an object wave of
            # one is [payload]
            return wave[0]
        if self.comm_timeout:
            reason = (f"timed out after {self.comm_timeout} retry step(s) "
                      f"with no message")
        else:
            reason = ("no message pending — deadlock in the communication "
                      "schedule")
        raise CommTimeout(
            f"rank {dest} receive from {src} (tag {tag}): {reason}"
            f"{self._ledger_text()}",
            src=src, dst=dest, tag=tag, waited=self.comm_timeout,
            ledger=self.ledger())

    def _recv_wave(self, srcs, dsts, tag: int) -> Any:
        """One wave of receives, one per (srcs[i], dsts[i]) channel.

        Matching order is exactly sequential receive order (the i-th
        request on a channel takes its i-th oldest message).  When every
        message has arrived the transport resolves the wave with one
        sorted scan; any miss falls back to the retrying per-message
        path, so timeout and fault semantics are those of single receives.
        """
        wave = self._transport.pop(srcs, dsts, tag)
        if wave is MISSING:
            wave = [self._recv(int(s), int(d), tag)
                    for s, d in zip(srcs, dsts)]
        return wave

    def recv_batch(self, srcs, dsts, tag: int = 0) -> list:
        """Receive one wave as a list of payloads."""
        wave = self._recv_wave(srcs, dsts, tag)
        return _split(*wave) if isinstance(wave, tuple) else wave

    def recv_block(self, srcs, dsts, tag: int = 0):
        """Receive one wave as a single concatenated block.

        Returns ``(block, words)`` where ``block`` is every payload
        back-to-back in request order and ``words[i]`` is the i-th
        payload's length (its row count).  A block wave comes off the
        slab with no per-message Python object; an object wave is
        concatenated.
        """
        wave = self._recv_wave(srcs, dsts, tag)
        if isinstance(wave, tuple):
            return wave
        words = np.asarray([len(p) for p in wave], np.int64)
        block = np.concatenate(wave) if wave else np.zeros(0, np.float64)
        return block, words

    def _progress(self, key: tuple[int, int, int]) -> bool:
        """Advance fabric time by one step while a receive is retrying.

        The perfect fabric has nothing to progress; the fault fabric
        releases due delayed messages and retransmits dropped ones here.
        Returns True if anything moved.
        """
        return False

    def pending_messages(self) -> int:
        return self._transport.pending_total()

    def pending_channels(self) -> list[tuple[int, int, int, int]]:
        """Non-empty channels as sorted (src, dst, tag, count) tuples."""
        return self._transport.channels()

    def ledger(self) -> dict:
        """Outstanding fabric state, attached to every :class:`CommTimeout`."""
        return {"messages": self.pending_channels()}

    def _ledger_text(self) -> str:
        parts = []
        channels = self.pending_channels()
        if channels:
            parts.append("in flight: " + ", ".join(
                f"{s}->{d} tag={t} x{n}" for s, d, t, n in channels[:8]))
            if len(channels) > 8:
                parts.append(f"… ({len(channels)} channels)")
        return ("; " + "; ".join(parts)) if parts else ""

    def assert_drained(self) -> None:
        """Fail if any message was sent but never received.

        The exception names every leftover (src, dst, tag) channel in
        sorted order — deterministic, CI-diffable, and a fault-injection
        run that duplicates or mis-routes a message must be debuggable
        from the error text alone.
        """
        channels = self.pending_channels()
        if channels:
            total = sum(n for *_c, n in channels)
            detail = ", ".join(f"{s}->{d} tag={t} x{n}"
                               for s, d, t, n in channels[:8])
            more = (f", … ({len(channels)} channels)"
                    if len(channels) > 8 else "")
            from ..analysis.diagnostics import Diagnostic
            diag = Diagnostic(
                code="CC101",
                message=f"{total} message(s) sent but never received: "
                        f"{detail}{more}",
                data={"channels": [list(c) for c in channels]})
            err = RuntimeFault(f"CC101: {diag.message}")
            err.diagnostic = diag
            raise err

    # -- localized restart ---------------------------------------------------

    def begin_replay(self, filt, next_tag: int) -> None:
        """Install a :class:`~repro.runtime.msglog.ReplayFilter`.

        While installed, every send is checked against the filter first:
        replay duplicates (sends the recovering rank re-emits while being
        re-driven against the message log) are discarded before any
        accounting, so the ledger stays exactly the fault-free one.
        ``next_tag`` is the restored checkpoint's saved tag counter:
        :meth:`fresh_tag` re-draws the window tags the original segment
        drew, in the original order, until :meth:`end_replay` puts the
        live counter back.
        """
        self._replay = filt
        self._live_tag = self._next_tag
        self._next_tag = next_tag

    def end_replay(self) -> None:
        """Remove the replay filter and put the live tag counter back.

        A window still open at the failure boundary was re-posted by the
        replay, its sends all suppressed; the live WAIT receives the
        original wave, still on the wire.
        """
        self._replay = None
        self._next_tag = self._live_tag

    # -- checkpoint support --------------------------------------------------

    def transport_snapshot(self) -> dict:
        """Freeze the accounting state and the wire for a checkpoint.

        The wire is serialized by the transport itself — for the ring
        transport that is a direct copy of the live header rows plus
        materialized payloads (empty at the quiescent points where
        checkpoints are taken).  Fabric subclasses extend the dict with
        their own clocks/ledgers.
        """
        return {"next_tag": self._next_tag, "stats": self.stats.snapshot(),
                "wire": self._transport.snapshot()}

    def transport_restore(self, snap: dict) -> None:
        """Rewind to a :meth:`transport_snapshot` (checkpoint recovery)."""
        self._transport.restore(snap["wire"])
        self._next_tag = snap["next_tag"]
        self.stats.restore(snap["stats"])


@dataclass
class RankComm:
    """One rank's handle on the communicator (mpi4py-flavoured API).

    >>> comm = SimComm(2)
    >>> comm.view(0).send(np.arange(3), dest=1, tag=2)
    >>> comm.view(1).recv(source=0, tag=2)
    array([0, 1, 2])
    """

    comm: SimComm
    rank: int

    @property
    def size(self) -> int:
        return self.comm.size

    def send(self, payload: Any, dest: int, tag: int = 0) -> None:
        self.comm.send_batch([self.rank], [dest], [payload], tag)

    def recv(self, source: int, tag: int = 0) -> Any:
        return self.comm._recv(source, self.rank, tag)
