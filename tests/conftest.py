"""Shared fixtures: the reference implementations differentials compare to.

Production has one wire (:class:`~repro.runtime.ringbuf.RingTransport`),
one halo body whose waves the wire carries as one block when they are
1-D float64 and message by message otherwise, and, on the vector
backend, runs each fusable loop once for all ranks.  The differential
suites still compare against three references, reached only through
these fixtures:

``reference_wire``
    the deque-per-channel transport of ``tests/runtime/reference_wire.py``
    swapped in for the class ``SimComm`` constructs;
``reference_halos``
    every halo wave routed over the wire one message at a time:
    ``send_block`` becomes ``_send_batch`` of the split block and
    ``recv_block`` becomes ``recv_batch`` plus a concatenate — the path
    production keeps for non-float payloads, replay and rule-matched
    faults;
``reference_compute``
    every fused loop served rank by rank instead of in one sweep, through
    the executor's own single-rank serving path (the one localized
    restart re-drives a rank with) — no second kernel implementation.

Each fixture is a context-manager factory, so one test can run the
production path and a reference side by side::

    prod = run(...)
    with reference_wire():
        ref = run(...)

Leaving the block asserts the reference really ran, so a differential
can never silently compare production to production.
"""

from contextlib import contextmanager

import numpy as np
import pytest

from repro.runtime import executor, simmpi
from tests.runtime.reference_wire import DequeTransport


@contextmanager
def _reference_wire():
    built = []   # transports constructed inside the block
    comms = []   # communicators the executor built inside the block

    def transport():
        built.append(DequeTransport())
        return built[-1]

    make_comm = executor.make_comm

    def recording_make_comm(*args, **kwargs):
        comms.append(make_comm(*args, **kwargs))
        return comms[-1]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(simmpi, "RingTransport", transport)
        mp.setattr(executor, "make_comm", recording_make_comm)
        yield
    assert built, "no communicator was built under reference_wire"
    for comm in comms:
        assert type(comm._transport) is DequeTransport, \
            "the executor ran on the production wire under reference_wire"


@contextmanager
def _reference_halos():
    routed = []   # waves sent message by message inside the block
    blocks = []   # block waves that reached the wire anyway
    deliver_block = simmpi.SimComm._deliver_block

    def send_block(self, srcs, dsts, block, words, tag=0):
        routed.append(tag)
        self._send_batch(srcs, dsts, tag,
                         np.split(np.asarray(block), np.cumsum(words)[:-1]))

    def recv_block(self, srcs, dsts, tag=0):
        payloads = self.recv_batch(srcs, dsts, tag)
        words = np.asarray([len(p) for p in payloads], np.int64)
        block = np.concatenate(payloads) if payloads else np.zeros(0)
        return block, words

    def counting_deliver_block(self, *args):
        blocks.append(args)
        deliver_block(self, *args)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(simmpi.SimComm, "send_block", send_block)
        mp.setattr(simmpi.SimComm, "recv_block", recv_block)
        mp.setattr(simmpi.SimComm, "_deliver_block", counting_deliver_block)
        yield
    assert not blocks, \
        f"{len(blocks)} block wave(s) sent under reference_halos"
    assert routed, "no per-message halo wave was routed under reference_halos"


@contextmanager
def _reference_compute():
    served = []   # ranks of every loop served inside the block

    def serve_singly(self, run, requests):
        for rank, request in enumerate(requests):
            self._serve_one(run, rank, request)
        served.append(len(requests))

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(executor.SPMDExecutor, "_serve", serve_singly)
        yield
    assert served, "no loop request was served under reference_compute"


@pytest.fixture
def reference_wire():
    """``with reference_wire():`` — communicators get the deque wire."""
    return _reference_wire


@pytest.fixture
def reference_halos():
    """``with reference_halos():`` — halo waves go message by message."""
    return _reference_halos


@pytest.fixture
def reference_compute():
    """``with reference_compute():`` — fused loops run rank by rank."""
    return _reference_compute
