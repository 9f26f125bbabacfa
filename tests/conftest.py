"""Shared fixtures: the reference implementations differentials compare to.

Production has one wire (:class:`~repro.runtime.ringbuf.RingTransport`),
one halo body whose every wave crosses that wire in one call, and, on
the vector backend, runs each fusable loop once for all ranks.  The
differential suites still compare against three references, reached
only through these fixtures:

``reference_wire``
    the deque-per-channel transport of ``tests/runtime/reference_wire.py``
    swapped in for the class ``SimComm`` constructs;
``reference_halos``
    every halo message sent and received as its own wave of one:
    ``send_block`` becomes one ``send_batch`` per message and
    ``recv_block`` one single receive per message plus a concatenate —
    so a wave ≡ its waves of one, message for message, under any fabric;
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
    halo_tags = set()   # tags of the halo waves sent inside the block
    waves = []          # (tag, messages) of every wave sent inside the block
    send_wave = simmpi.SimComm._send_wave

    def send_block(self, srcs, dsts, block, words, tag=0):
        halo_tags.add(tag)
        pieces = np.split(np.asarray(block), np.cumsum(words)[:-1]) \
            if len(words) else []
        for s, d, piece in zip(srcs, dsts, pieces):
            self.send_batch([s], [d], [piece], tag=tag)

    def recv_block(self, srcs, dsts, tag=0):
        payloads = [self._recv(int(s), int(d), tag)
                    for s, d in zip(srcs, dsts)]
        words = np.asarray([len(p) for p in payloads], np.int64)
        block = np.concatenate(payloads) if payloads else np.zeros(0)
        return block, words

    def counting_send_wave(self, srcs, dsts, tag, block, words):
        waves.append((tag, len(words)))
        send_wave(self, srcs, dsts, tag, block, words)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(simmpi.SimComm, "send_block", send_block)
        mp.setattr(simmpi.SimComm, "recv_block", recv_block)
        mp.setattr(simmpi.SimComm, "_send_wave", counting_send_wave)
        yield
    multi = [(tag, m) for tag, m in waves if tag in halo_tags and m > 1]
    assert not multi, \
        f"{len(multi)} multi-message halo wave(s) sent under reference_halos"
    assert halo_tags, "no halo wave was sent under reference_halos"


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
