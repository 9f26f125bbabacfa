"""Tests for the sender-side message log backing localized restart.

The log is a ring transport whose rows are never received, so these
tests read it the way a checkpoint reads a wire: through
``log.ring.snapshot()`` — the live headers in seq order and their
payloads as one wave.
"""

import numpy as np
import pytest

from repro.errors import RuntimeFault
from repro.runtime import MessageLog, ReplayFilter, RingTransport, SimComm
from repro.runtime.ringbuf import F_I8, F_OBJ, wave_of


def _record(log, src, dst, tag, payload):
    """Record one message: a wave of one."""
    log.record([src], [dst], tag, *wave_of([payload]))


def _entries(log):
    """Retained rows as (src, dst, tag, seq, words), in seq order."""
    h = log.ring.snapshot()["headers"]
    return list(zip(*(h[f].tolist()
                      for f in ("src", "dst", "tag", "seq", "words"))))


def _payloads(log):
    """Retained payloads in seq order, by value."""
    wave = log.ring.snapshot()["wave"]
    if isinstance(wave, list):
        return wave
    block, words = wave
    return np.split(block, np.cumsum(words)[:-1]) if len(words) else []


def _flags(log):
    return log.ring.snapshot()["headers"]["flags"].tolist()


class TestRecordRoundTrip:
    def test_float64_payload_bit_exact(self):
        log = MessageLog()
        arr = np.array([1.5, -0.0, np.pi])
        _record(log, 0, 1, 7, arr)
        arr[0] = 42.0  # the log holds its own copy
        out = _payloads(log)[0]
        np.testing.assert_array_equal(out, [1.5, -0.0, np.pi])
        assert out.dtype == np.float64
        assert np.signbit(out[1])
        out[0] = 99.0  # fresh copy, not a slab view
        np.testing.assert_array_equal(_payloads(log)[0], [1.5, -0.0, np.pi])

    def test_int64_payload_rides_the_slab_bit_exactly(self):
        log = MessageLog()
        arr = np.array([-(1 << 62), 0, 7], np.int64)
        _record(log, 2, 0, 3, arr)
        out = _payloads(log)[0]
        assert out.dtype == np.int64
        np.testing.assert_array_equal(out, arr)
        assert _flags(log)[0] & F_I8 and not _flags(log)[0] & F_OBJ

    def test_scalar_and_odd_payloads_use_object_table(self):
        log = MessageLog()
        _record(log, 0, 1, 7, 2.5)
        _record(log, 0, 1, 7, np.zeros((2, 2)))
        first, second = _payloads(log)
        assert first == 2.5
        np.testing.assert_array_equal(second, np.zeros((2, 2)))
        assert all(f & F_OBJ for f in _flags(log))
        # object rows keep their accounting size in the words column
        assert _entries(log) == [(0, 1, 7, 0, 1), (0, 1, 7, 1, 4)]

    def test_growth_past_initial_capacity(self):
        log = MessageLog()
        log.ring = RingTransport(capacity=2, slab_words=4)
        for i in range(10):
            _record(log, 0, 1, i, np.full(3, float(i)))
        assert log.mark() == 10
        for i, got in enumerate(_payloads(log)):
            np.testing.assert_array_equal(got, np.full(3, float(i)))
        # the ring grew while every row was live; freeing them all must
        # fit its free-slot stack
        log.truncate_before(log.mark())
        assert log.ring.pending_total() == 0
        _record(log, 1, 0, 10, np.arange(2.0))
        assert _entries(log) == [(1, 0, 10, 10, 2)]


class TestWaveRecording:
    def test_record_block_matches_per_message_records(self):
        rng = np.random.default_rng(3)
        payloads = [rng.standard_normal(n) for n in (2, 5, 1)]
        srcs, dsts = [0, 1, 2], [1, 2, 0]

        a = MessageLog()
        a.record(srcs, dsts, 9, *wave_of(payloads))
        b = MessageLog()
        for s, d, p in zip(srcs, dsts, payloads):
            _record(b, s, d, 9, p)
        assert _entries(a) == _entries(b)
        for x, y in zip(_payloads(a), _payloads(b)):
            np.testing.assert_array_equal(x, y)

    def test_record_block_empty_is_a_no_op(self):
        log = MessageLog()
        log.record([], [], 5, np.zeros(0), np.zeros(0, np.int64))
        assert log.mark() == 0

    def test_record_batch_matches_per_message_records(self):
        # a mixed wave is one object wave; each row still round-trips
        payloads = [np.arange(2.0), np.arange(4), 3.5]
        a = MessageLog()
        a.record([0, 1, 2], [1, 0, 0], 4, *wave_of(payloads))
        b = MessageLog()
        for s, d, p in zip([0, 1, 2], [1, 0, 0], payloads):
            _record(b, s, d, 4, p)
        assert _entries(a) == _entries(b)
        for x, y in zip(_payloads(a), _payloads(b)):
            assert type(x) is type(y)
            np.testing.assert_array_equal(x, y)


class TestTruncation:
    def _filled(self):
        log = MessageLog()
        _record(log, 0, 1, 7, np.arange(3.0))
        _record(log, 1, 0, 7, np.array([5, 6], np.int64))
        _record(log, 0, 1, 9, 2.5)
        return log

    def test_seq_stamps_survive_truncation(self):
        log = self._filled()
        log.truncate_before(1)
        assert _entries(log) == [(1, 0, 7, 1, 2), (0, 1, 9, 2, 1)]
        assert log.mark() == 3 and len(_entries(log)) == 2
        ints, scalar = _payloads(log)
        np.testing.assert_array_equal(ints, np.array([5, 6], np.int64))
        assert scalar == 2.5

    def test_truncated_seq_unreachable(self):
        log = self._filled()
        log.truncate_before(2)
        assert [e[3] for e in _entries(log)] == [2]
        # a replay from an older mark can only see what is retained
        assert log.replay_onto(SimComm(2), 1, start_mark=0) == (1, 1)

    def test_truncate_is_idempotent_and_monotone(self):
        log = self._filled()
        log.truncate_before(1)
        log.truncate_before(1)
        log.truncate_before(0)  # older marks are no-ops
        assert len(_entries(log)) == 2
        _record(log, 2, 0, 1, np.ones(4))
        assert log.mark() == 4
        assert sum(e[4] for e in _entries(log)) == 2 + 1 + 4
        # truncating at the current mark drains the ring: its slab rewinds
        log.truncate_before(log.mark())
        assert log.ring.pending_total() == 0 and log.ring._cursor == 0
        assert log.mark() == 4


class TestReplayOnto:
    def test_replays_only_the_target_ranks_window(self):
        comm = SimComm(3)
        log = MessageLog()
        _record(log, 0, 1, 7, np.arange(2.0))   # pre-window (seq 0)
        _record(log, 0, 1, 7, np.arange(3.0))
        _record(log, 2, 1, 7, np.arange(4.0))
        _record(log, 0, 2, 7, np.arange(5.0))   # other destination
        n, words = log.replay_onto(comm, 1, start_mark=1)
        assert (n, words) == (2, 7)
        np.testing.assert_array_equal(comm._recv(0, 1, 7), np.arange(3.0))
        np.testing.assert_array_equal(comm._recv(2, 1, 7), np.arange(4.0))
        assert comm.pending_messages() == 0

    def test_wire_residue_skipped_per_channel(self):
        # seq 1's original is still sitting unconsumed on the wire (an
        # open split window): replay must push seq 0 only.
        comm = SimComm(2)
        comm._transport.push([0], [1], 7, np.full(3, 9.0), [3])
        log = MessageLog()
        _record(log, 0, 1, 7, np.arange(3.0))
        _record(log, 0, 1, 7, np.full(3, 9.0))
        n, words = log.replay_onto(comm, 1, start_mark=0)
        assert (n, words) == (1, 3)
        np.testing.assert_array_equal(comm._recv(0, 1, 7), np.full(3, 9.0))
        np.testing.assert_array_equal(comm._recv(0, 1, 7), np.arange(3.0))


class TestReplayFilter:
    def _log(self):
        log = MessageLog()
        _record(log, 1, 0, 7, np.arange(3.0))
        _record(log, 1, 2, 7, np.arange(2.0))
        _record(log, 0, 1, 7, np.arange(4.0))  # not rank 1's send
        return log

    def test_consumes_channel_fifo_entries(self):
        filt = ReplayFilter(self._log(), rank=1, start_mark=0)
        assert filt.suppress([1, 1], [0, 2], 7, [3, 2]).tolist() \
            == [True, True]
        assert filt.suppressed == 2 and filt.suppressed_words == 5

    def test_other_ranks_sends_pass_through(self):
        filt = ReplayFilter(self._log(), rank=1, start_mark=0)
        assert filt.suppress([0, 1], [1, 0], 7, [4, 3]).tolist() \
            == [False, True]
        assert filt.suppressed == 1

    def test_word_mismatch_is_a_divergence(self):
        filt = ReplayFilter(self._log(), rank=1, start_mark=0)
        with pytest.raises(RuntimeFault, match="diverged"):
            filt.suppress([1], [0], 7, [99])

    def test_unlogged_resend_suppressed_leniently(self):
        # the original is parked in a fault-fabric ledger: no logged
        # counterpart, but the re-send must still be discarded
        filt = ReplayFilter(self._log(), rank=1, start_mark=3)
        assert filt.suppress([1], [0], 7, [3]).all()
        assert filt.suppressed == 1

    def test_start_mark_restricts_the_window(self):
        log = self._log()
        _record(log, 1, 0, 7, np.arange(5.0))
        filt = ReplayFilter(log, rank=1, start_mark=2)
        assert filt.suppress([1], [0], 7, [5]).all()  # only seq 3 is in
        with pytest.raises(RuntimeFault, match="diverged"):
            ReplayFilter(log, rank=1, start_mark=0).suppress([1], [0], 7, [5])
