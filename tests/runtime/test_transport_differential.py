"""Differential oracle: the ring wire must match its reference.

The deque transport (``reference_wire.py``, reached through the
``reference_wire`` fixture) is the reference implementation; the ring
transport is the production wire.  These tests replay the whole TESTIV
placement corpus (all 16 ranked placements) on both under the
adversarial fault schedules of the resilience PR and require *bit
identity* — final environments, the CollectiveRecord stream, traffic
totals — plus byte-identical diagnostics (``assert_drained`` leftovers,
``CommTimeout`` ledgers) so a failure report never depends on which wire
implementation produced it.
"""

from contextlib import nullcontext

import numpy as np
import pytest

from repro.corpus import TESTIV_SOURCE
from repro.errors import CommTimeout, RuntimeFault
from repro.mesh import build_partition, structured_tri_mesh
from repro.placement import enumerate_placements
from repro.runtime import (
    FaultPlan,
    SPMDExecutor,
    SimComm,
    envs_bit_identical,
    make_comm,
)
from repro.runtime.ringbuf import MISSING, RingTransport, wave_of
from repro.spec import spec_for_testiv
from tests.runtime.reference_wire import DequeTransport

#: adversarial schedules from the fault-injection PR: randomized
#: reordering, lossy-with-retransmit, delayed delivery, kill + recovery
SCHEDULES = [
    ("clean", None, 0),
    ("reorder", "reorder; seed=11", 0),
    ("lossy", "drop count=2; seed=3", 16),
    ("delayed", "delay steps=2 count=3; seed=5", 16),
    ("kill", "kill rank=1 event=4; reorder; seed=6", 8),
]


@pytest.fixture(scope="module")
def setup():
    mesh = structured_tri_mesh(6, 6)
    spec = spec_for_testiv()
    placements = enumerate_placements(TESTIV_SOURCE, spec)
    partition = build_partition(mesh, 3, spec.pattern)
    rng = np.random.default_rng(0)
    values = {
        "init": rng.standard_normal(mesh.n_nodes),
        "airetri": mesh.triangle_areas,
        "airesom": mesh.node_areas,
        "epsilon": 1e-8,
        "maxloop": 3,
    }
    return placements, spec, partition, values


@pytest.fixture
def wires(reference_wire):
    """Both wires by name: the production ring and the deque reference."""
    return {"ring": nullcontext, "deque": reference_wire}


def _run(setup, index, plan_text, timeout):
    placements, spec, partition, values = setup
    plan = FaultPlan.parse(plan_text) if plan_text else None
    ex = SPMDExecutor(placements.sub, spec,
                      placements.ranked[index].placement, partition)
    return ex.run(dict(values), faults=plan, comm_timeout=timeout)


def _record_stream(stats):
    return [(r.label, r.msgs, r.words, r.window, r.overlap_steps)
            for r in stats.collectives]


class TestCorpusDifferential:
    def test_all_16_placements_all_schedules(self, setup, reference_wire):
        placements = setup[0]
        assert len(placements.ranked) == 16
        for index in range(16):
            for name, plan_text, timeout in SCHEDULES:
                ring = _run(setup, index, plan_text, timeout)
                with reference_wire():
                    deque_ = _run(setup, index, plan_text, timeout)
                where = f"placement #{index} schedule {name}"
                diff = envs_bit_identical(ring.envs, deque_.envs)
                assert diff is None, f"{where}: {diff}"
                assert ring.rank_steps == deque_.rank_steps, where
                assert _record_stream(ring.stats) \
                    == _record_stream(deque_.stats), where
                assert ring.stats.total_messages() \
                    == deque_.stats.total_messages(), where
                assert ring.stats.total_words() \
                    == deque_.stats.total_words(), where
                assert ring.stats.retries == deque_.stats.retries, where
                assert ring.stats.retransmits \
                    == deque_.stats.retransmits, where


def _leftover_comm():
    """A communicator with undrained channels, pushed in shuffled order
    so the diagnostics sorting actually matters."""
    comm = SimComm(4)
    for src, dst, tag in [(2, 1, 7), (0, 3, 7), (2, 1, 7), (1, 0, 2),
                          (3, 2, 9), (0, 1, 7)]:
        comm.view(src).send(np.arange(3.0), dest=dst, tag=tag)
    return comm


class TestDiagnosticsDifferential:
    def test_assert_drained_text_identical(self, wires):
        texts = {}
        for transport, wire in wires.items():
            with wire(), pytest.raises(RuntimeFault) as err:
                _leftover_comm().assert_drained()
            texts[transport] = str(err.value)
        assert texts["ring"] == texts["deque"]
        # sorted by (src, dst, tag): deterministic, channel-ordered
        assert "0->1 tag=7" in texts["ring"]
        assert texts["ring"].index("0->1 tag=7") \
            < texts["ring"].index("2->1 tag=7")

    def test_commtimeout_ledger_identical(self, wires):
        ledgers, texts = {}, {}
        for transport, wire in wires.items():
            with wire():
                comm = _leftover_comm()
            comm.comm_timeout = 2
            with pytest.raises(CommTimeout) as err:
                comm.view(0).recv(source=3, tag=5)
            ledgers[transport] = err.value.ledger
            texts[transport] = str(err.value)
        assert texts["ring"] == texts["deque"]
        assert ledgers["ring"] == ledgers["deque"]

    def test_fault_ledger_text_identical(self, wires):
        plan = FaultPlan.parse("drop src=0 count=1; delay steps=9 count=1; "
                               "seed=2")
        texts = {}
        for transport, wire in wires.items():
            with wire():
                comm = make_comm(3, plan)
            for _ in range(3):
                comm.view(0).send(np.arange(2.0), dest=1, tag=4)
            with pytest.raises(CommTimeout) as err:
                comm.view(2).recv(source=1, tag=8)
            texts[transport] = str(err.value)
        assert texts["ring"] == texts["deque"]


class TestReorderSingleSourceOfTruth:
    """Regression: a ``move_last`` reorder must survive every consumer.

    The ring transport once applied reorders only to a lazy per-channel
    FIFO index; wave matching, bulk delivery (which rebuilt the index)
    and ``snapshot`` all read ``seq`` order and silently reverted the
    fault.  The fix permutes the channel's seq stamps — now the ring's
    only order — so every path below must agree with the deque oracle
    payload-for-payload.
    """

    def _pair(self):
        pair = {}
        for name, t in (("ring", RingTransport()),
                        ("deque", DequeTransport())):
            for k in range(3):
                t.push([0], [1], 7, *wave_of([np.arange(2.0) + k]))
            t.push([0], [2], 7, *wave_of([np.full(2, 9.0)]))  # bystander
            t.move_last(0, 1, 7, 0)  # newest message jumps to the front
            pair[name] = t
        return pair["ring"], pair["deque"]

    @staticmethod
    def _drain(t, n=3):
        # a wave of one is (payload, words) on the ring, [payload] on the
        # deque: either way its payload comes first
        return [t.pop([0], [1], 7)[0] for _ in range(n)]

    @staticmethod
    def _wave(t):
        """The three-message wave of channel (0, 1, 7), as payloads."""
        got = t.pop([0, 0, 0], [1, 1, 1], 7)
        assert got is not MISSING
        if isinstance(got, tuple):
            return np.split(got[0], np.cumsum(got[1])[:-1])
        return got

    def test_pop_batch_honours_reorder(self):
        ring, oracle = self._pair()
        for a, b in zip(self._wave(ring), self._drain(oracle)):
            assert np.array_equal(a, b)

    def test_pop_block_honours_reorder(self):
        ring, oracle = self._pair()
        block, words = ring.pop([0, 0, 0], [1, 1, 1], 7)
        assert words.tolist() == [2, 2, 2]
        assert np.array_equal(block, np.concatenate(self._drain(oracle)))

    def test_bulk_delivery_keeps_reorder(self):
        ring, oracle = self._pair()
        # bulk delivery rebuilds the FIFO index from scratch; the reorder
        # must survive the rebuild
        ring.push([1], [2], 3, *wave_of([np.arange(4.0)]))
        oracle.push([1], [2], 3, *wave_of([np.arange(4.0)]))
        for a, b in zip(self._drain(ring), self._drain(oracle)):
            assert np.array_equal(a, b)

    def test_snapshot_restore_keeps_reorder(self):
        ring, oracle = self._pair()
        ring2, oracle2 = RingTransport(), DequeTransport()
        ring2.restore(ring.snapshot())
        oracle2.restore(oracle.snapshot())
        for a, b in zip(self._drain(ring2), self._drain(oracle2)):
            assert np.array_equal(a, b)

    def test_middle_insert_after_index_built(self):
        for pos in (0, 1, 2):
            ring, oracle = self._pair()
            # a single receive first, then reorder again
            assert np.array_equal(ring.pop([0], [2], 7)[0],
                                  oracle.pop([0], [2], 7)[0])
            ring.move_last(0, 1, 7, pos)
            oracle.move_last(0, 1, 7, pos)
            for a, b in zip(self._wave(ring), self._drain(oracle)):
                assert np.array_equal(a, b)

    def test_recv_batch_under_reorder_plan_identical(self, wires):
        # end to end: a seeded reorder plan fires the same move_last calls
        # on both fabrics, and the batched receive path must deliver the
        # same payload per request even with depth-4 channels
        srcs = np.array([0, 0, 0, 2, 2, 0], np.int64)
        dsts = np.array([1, 1, 1, 3, 3, 1], np.int64)
        rng = np.random.default_rng(7)
        payloads = [rng.standard_normal(3) for _ in srcs]
        outs = {}
        for transport, wire in wires.items():
            with wire():
                comm = make_comm(4, FaultPlan.parse("reorder; seed=11"))
            for s, d, p in zip(srcs.tolist(), dsts.tolist(), payloads):
                comm.view(s).send(p, dest=d, tag=2)
            outs[transport] = comm.recv_batch(srcs, dsts, tag=2)
            comm.assert_drained()
        for a, b in zip(outs["ring"], outs["deque"]):
            assert np.array_equal(a, b)


class TestReferenceWireFixture:
    """The fixture itself: a differential must never compare ring to ring."""

    def test_comms_hold_the_reference_only_inside_the_block(
            self, reference_wire):
        assert type(SimComm(2)._transport) is RingTransport
        with reference_wire():
            assert type(SimComm(2)._transport) is DequeTransport
            assert type(make_comm(2, FaultPlan.parse("reorder"))
                        ._transport) is DequeTransport
        assert type(SimComm(2)._transport) is RingTransport

    def test_executor_run_is_checked_on_exit(self, setup, reference_wire,
                                             monkeypatch):
        with reference_wire():
            _run(setup, 0, None, 0)
        # an executor that kept a production communicator trips the
        # fixture's exit assertion
        ring_comm = SimComm(3)
        monkeypatch.setattr("repro.runtime.executor.make_comm",
                            lambda size, plan: ring_comm)
        with pytest.raises(AssertionError, match="production wire"):
            with reference_wire():
                SimComm(2)
                _run(setup, 0, None, 0)

    def test_empty_block_is_rejected(self, reference_wire):
        with pytest.raises(AssertionError, match="no communicator"):
            with reference_wire():
                pass
