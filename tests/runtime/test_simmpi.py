"""Unit tests for the SimMPI fabric."""

import numpy as np
import pytest

from repro.errors import CommTimeout, RuntimeFault
from repro.runtime import (
    CollectiveRecord,
    SimComm,
    overlap_complete,
    overlap_post,
)
from tests.halo_views import halo_schedule


class TestTransport:
    def test_send_recv_roundtrip(self):
        comm = SimComm(2)
        comm.view(0).send({"x": 1}, dest=1, tag=5)
        assert comm.view(1).recv(source=0, tag=5) == {"x": 1}

    def test_messages_are_by_value(self):
        comm = SimComm(2)
        arr = np.arange(4.0)
        comm.view(0).send(arr, dest=1)
        arr[:] = -1
        received = comm.view(1).recv(source=0)
        np.testing.assert_array_equal(received, [0, 1, 2, 3])

    def test_fifo_per_channel(self):
        comm = SimComm(2)
        v0 = comm.view(0)
        v0.send("a", 1)
        v0.send("b", 1)
        v1 = comm.view(1)
        assert v1.recv(0) == "a"
        assert v1.recv(0) == "b"

    def test_tags_separate_channels(self):
        comm = SimComm(2)
        comm.view(0).send("late", 1, tag=2)
        comm.view(0).send("early", 1, tag=1)
        assert comm.view(1).recv(0, tag=1) == "early"
        assert comm.view(1).recv(0, tag=2) == "late"

    def test_missing_message_is_deadlock(self):
        comm = SimComm(2)
        with pytest.raises(RuntimeFault, match="deadlock"):
            comm.view(1).recv(source=0)

    def test_invalid_ranks_rejected(self):
        comm = SimComm(2)
        with pytest.raises(RuntimeFault):
            comm.view(5)
        with pytest.raises(RuntimeFault):
            comm.view(0).send(1, dest=9)
        with pytest.raises(RuntimeFault):
            SimComm(0)

    def test_assert_drained(self):
        comm = SimComm(2)
        comm.view(0).send(1, dest=1)
        with pytest.raises(RuntimeFault, match="never received"):
            comm.assert_drained()
        comm.view(1).recv(0)
        comm.assert_drained()

    def test_assert_drained_names_each_channel(self):
        comm = SimComm(3)
        comm.view(0).send(1, dest=1, tag=7)
        comm.view(2).send(1, dest=1, tag=9)
        comm.view(2).send(2, dest=1, tag=9)
        with pytest.raises(RuntimeFault) as ei:
            comm.assert_drained()
        text = str(ei.value)
        assert "0->1 tag=7 x1" in text
        assert "2->1 tag=9 x2" in text

    def test_pending_channels_sorted(self):
        comm = SimComm(3)
        comm.view(2).send("b", dest=0, tag=1)
        comm.view(0).send("a", dest=1, tag=3)
        assert comm.pending_channels() == [(0, 1, 3, 1), (2, 0, 1, 1)]


class TestNonblocking:
    """Split-phase windows over the wire: a wave sent at the POST and
    received at the WAIT, with no handle in between."""

    def _schedule(self):
        idx = np.array([0, 2], dtype=np.int64)
        return halo_schedule(holder=[{}, {0: idx}], owner=[{1: idx}, {}])

    def test_payload_captured_at_post_time(self):
        """Bit-identity hinges on this: writes after the post must not
        alter what was sent."""
        comm = SimComm(2)
        envs = [{"v": np.arange(4.0)}, {"v": np.zeros(4)}]
        pending = overlap_post(comm, envs, "v", self._schedule())
        envs[0]["v"][:] = 99.0
        overlap_complete(pending)
        np.testing.assert_array_equal(envs[1]["v"], [0.0, 0.0, 2.0, 0.0])
        comm.assert_drained()

    def test_double_wait_raises(self):
        comm = SimComm(2)
        envs = [{"v": np.arange(4.0)}, {"v": np.zeros(4)}]
        pending = overlap_post(comm, envs, "v", self._schedule())
        overlap_complete(pending)
        with pytest.raises(RuntimeFault, match="deadlock"):
            overlap_complete(pending)

    def test_fresh_tags_are_unique_and_above_static(self):
        comm = SimComm(2)
        tags = {comm.fresh_tag() for _ in range(10)}
        assert len(tags) == 10
        assert min(tags) >= SimComm.FRESH_TAG_BASE

    def test_split_windows_past_two_million_fresh_tags(self):
        """Every halo collective draws a fresh tag and none is reused: a
        long run's windows must keep working past tag 2**21."""
        comm = SimComm(2)
        comm._next_tag = (1 << 21) - 1  # as after ~2.1 million collectives
        envs = [{"v": np.arange(4.0), "w": np.arange(4.0) + 10},
                {"v": np.zeros(4), "w": np.zeros(4)}]
        first = overlap_post(comm, envs, "v", self._schedule())
        second = overlap_post(comm, envs, "w", self._schedule())
        assert (first.tag, second.tag) == ((1 << 21) - 1, 1 << 21)
        overlap_complete(first)
        overlap_complete(second)
        np.testing.assert_array_equal(envs[1]["v"], [0.0, 0.0, 2.0, 0.0])
        np.testing.assert_array_equal(envs[1]["w"], [10.0, 0.0, 12.0, 0.0])
        comm.assert_drained()

    def test_tag_and_rank_limits_of_the_wire(self):
        comm = SimComm(2)
        top = (1 << 31) - 1
        comm.view(0).send(np.arange(2.0), dest=1, tag=top)
        assert comm.pending_channels() == [(0, 1, top, 1)]
        np.testing.assert_array_equal(comm.view(1).recv(0, tag=top),
                                      [0.0, 1.0])
        with pytest.raises(RuntimeFault, match="packing limit"):
            comm.view(0).send(1.0, dest=1, tag=1 << 31)
        assert SimComm(1 << 16).size == 1 << 16
        with pytest.raises(RuntimeFault, match="address space"):
            SimComm((1 << 16) + 1)


class TestMalformedWaves:
    """A wave whose columns disagree, or that names a rank the
    communicator does not have, is refused before any accounting."""

    @pytest.mark.parametrize("send", [
        lambda c: c.send_batch([0, 0], [1], [np.zeros(1), np.zeros(2)],
                               tag=5),
        lambda c: c.send_batch([0], [1, 2], [np.zeros(1)], tag=5),
        lambda c: c.send_block([0, 7], [1, 2], np.arange(5.0), [2, 3],
                               tag=5),
        lambda c: c.send_batch([5], [1], [np.zeros(1)], tag=5),
        lambda c: c.send_batch([-1], [1], [1.0], tag=5),
        lambda c: c.send_block([0, 0], [1, 2], np.arange(1.0), [-1, 2],
                               tag=5),
        lambda c: c.send_block([0], [1], np.arange(3.0), [2], tag=5),
    ], ids=["short-dsts", "short-payloads", "src-out-of-range",
            "batch-src-out-of-range", "negative-src", "negative-words",
            "words-short-of-block"])
    def test_refused_and_unaccounted(self, send):
        comm = SimComm(3)
        with pytest.raises(RuntimeFault):
            send(comm)
        assert comm.pending_messages() == 0
        assert comm.stats.total_messages() == 0


class TestRequestLeakDetector:
    """A POST whose WAIT never ran leaves its wave on the wire: the drain
    check (CC101) is the leak detector, naming the channel."""

    def _post(self, comm):
        idx = np.array([1], dtype=np.int64)
        sched = halo_schedule(holder=[{}, {0: idx}], owner=[{1: idx}, {}])
        envs = [{"v": np.arange(3.0)}, {"v": np.zeros(3)}]
        return overlap_post(comm, envs, "v", sched)

    def test_clean_exchange_leaves_nothing_pending(self):
        comm = SimComm(2)
        pending = self._post(comm)
        assert comm.pending_messages() == 1
        overlap_complete(pending)
        assert comm.pending_messages() == 0
        comm.assert_drained()

    def test_leaked_request_detected(self):
        comm = SimComm(2)
        self._post(comm)
        with pytest.raises(RuntimeFault, match="CC101.*never received"):
            comm.assert_drained()

    def test_leaked_request_names_its_channel(self):
        comm = SimComm(2)
        pending = self._post(comm)
        with pytest.raises(RuntimeFault) as ei:
            comm.assert_drained()
        assert f"0->1 tag={pending.tag} x1" in str(ei.value)

    def test_blocking_traffic_never_pends(self):
        comm = SimComm(2)
        comm.view(0).send(1, dest=1)
        comm.view(1).recv(0)
        assert comm.pending_messages() == 0
        comm.assert_drained()


class TestStats:
    def test_message_and_word_counts(self):
        comm = SimComm(3)
        comm.view(0).send(np.zeros(10), dest=1)
        comm.view(0).send(3.5, dest=2)
        assert comm.stats.total_messages() == 2
        assert comm.stats.total_words() == 11
        assert comm.stats.messages[(0, 1)] == 1
        assert comm.stats.words[(0, 1)] == 10

    def test_rank_accounting_counts_both_ends(self):
        comm = SimComm(2)
        comm.view(0).send(np.zeros(4), dest=1)
        msgs, words = comm.stats.rank_counters(2)
        assert msgs.tolist() == [1, 1]
        assert words.tolist() == [4, 4]
        assert comm.stats.rank_words(1) == 4

    def test_collective_record_iteration_yields_copies(self):
        """Unpacking the legacy triple must never alias the ledger."""
        rec = CollectiveRecord(label="overlap:v", msgs=[1, 2], words=[3, 4])
        label, msgs, words = rec
        msgs[0] = 99
        words.append(7)
        assert rec.msgs == [1, 2]
        assert rec.words == [3, 4]
        assert label == "overlap:v"

    def test_stats_snapshot_survives_later_appends(self):
        """The length-based snapshot restores exactly the ledger it saw:
        whatever is appended afterwards, by any path, is gone again —
        and a second restore to the same snapshot lands there too."""
        comm = SimComm(3)
        stats = comm.stats
        comm.view(0).send(np.zeros(3), dest=1)
        comm.send_batch([1, 2], [0, 0], [np.zeros(2), np.zeros(5)])
        stats.collectives.append(
            CollectiveRecord(label="r", msgs=[1, 1, 0], words=[3, 3, 0]))
        stats.retries = 2

        def ledger():
            return (dict(stats.messages), dict(stats.words),
                    [tuple(rec) + (rec.window, rec.overlap_steps)
                     for rec in stats.collectives],
                    stats.rank_counters(3)[0].tolist(),
                    stats.rank_counters(3)[1].tolist(),
                    stats.total_messages(), stats.total_words(),
                    stats.retries, stats.retransmits,
                    stats.retransmit_words)

        before = ledger()
        snap = stats.snapshot()
        for _ in range(2):
            comm.view(2).send(np.zeros(7), dest=1)
            comm.send_batch([0], [2], [np.zeros(4)])
            stats.collectives.append(
                CollectiveRecord(label="s", msgs=[9, 9, 9], words=[1, 1, 1],
                                 window="waited", overlap_steps=4))
            stats.retries += 5
            stats.retransmits += 1
            stats.retransmit_words += 4
            assert ledger() != before
            stats.restore(snap)
            assert ledger() == before


class TestRetryTimeout:
    def test_zero_budget_keeps_fail_fast_deadlock(self):
        comm = SimComm(2)
        with pytest.raises(CommTimeout, match="deadlock"):
            comm.view(1).recv(source=0)
        assert comm.stats.retries == 0

    def test_timeout_counts_retries_and_carries_ledger(self):
        comm = SimComm(2)
        comm.comm_timeout = 3
        comm.view(0).send(1, dest=1, tag=8)  # unrelated in-flight traffic
        with pytest.raises(CommTimeout, match="3 retry step") as ei:
            comm.view(1).recv(source=0, tag=5)
        exc = ei.value
        assert comm.stats.retries == 3
        assert (exc.src, exc.dst, exc.tag, exc.waited) == (0, 1, 5, 3)
        assert exc.ledger["messages"] == [(0, 1, 8, 1)]
        assert "0->1 tag=8 x1" in str(exc)

    def test_commtimeout_is_a_runtime_fault(self):
        comm = SimComm(2)
        with pytest.raises(RuntimeFault):
            comm.view(1).recv(source=0)


class TestTransportSnapshot:
    def test_round_trip_restores_tags_and_stats(self):
        comm = SimComm(2)
        comm.view(0).send(np.zeros(4), dest=1)
        comm.view(1).recv(0)
        tag = comm.fresh_tag()
        snap = comm.transport_snapshot()
        comm.fresh_tag()
        comm.view(0).send(np.zeros(8), dest=1)
        comm.send_batch([1, 0], [0, 1], [np.zeros(2), np.zeros(3)], tag=3)
        comm.transport_restore(snap)
        assert comm.fresh_tag() == tag + 1
        assert comm.stats.total_words() == 4
        assert comm.stats.total_messages() == 1
        assert comm.pending_messages() == 0
        assert comm.pending_channels() == []
