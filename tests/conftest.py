"""Shared fixtures: the reference implementations differentials compare to.

Production has one wire (:class:`~repro.runtime.ringbuf.RingTransport`),
picks the halo path from the payload and, on the vector backend, runs
each fusable loop once for all ranks.  The differential suites still
compare against three references, reached only through these fixtures:

``reference_wire``
    the deque-per-channel transport of ``tests/runtime/reference_wire.py``
    swapped in for the class ``SimComm`` constructs;
``reference_halos``
    the per-message halo path forced for every payload, by declaring
    nothing block-eligible and hiding the executor's flat store;
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

import pytest

from repro.runtime import executor, halos, simmpi
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
    calls = {"send_block": 0, "isend_batch": 0}

    def counting(name):
        real = getattr(simmpi.SimComm, name)

        def wrapper(self, *args, **kwargs):
            calls[name] += 1
            return real(self, *args, **kwargs)
        return wrapper

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(halos, "_block_eligible", lambda envs, var: False)
        # a store field short-circuits the eligibility predicate: make the
        # executor's store read as absent (its flat buffers still back the
        # rank envs, exactly as on the production path)
        mp.setattr(executor.SPMDExecutor, "_store",
                   property(lambda self: None, lambda self, value: None),
                   raising=False)
        for name in calls:
            mp.setattr(simmpi.SimComm, name, counting(name))
        yield
    assert calls["send_block"] == 0, \
        f"{calls['send_block']} block wave(s) sent under reference_halos"
    assert calls["isend_batch"] > 0, \
        "no per-message halo wave was posted under reference_halos"


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
    """``with reference_halos():`` — halos take the per-message path."""
    return _reference_halos


@pytest.fixture
def reference_compute():
    """``with reference_compute():`` — fused loops run rank by rank."""
    return _reference_compute
