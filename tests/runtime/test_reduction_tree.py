"""The scalar reduction's tree table against the level-by-level reference.

:func:`repro.runtime.halos.allreduce_scalar` sends its binomial tree in
flushes — the whole table as one wave on a quiet wire, one level per
flush otherwise.  These tests hold it bit for bit to
``tests/runtime/reference_reduction.py``, which sends every level as its
own flush: the envs, the collective records and the per-pair traffic
ledger, and under the fault fabric every counter, clock, firing count,
RNG state and ledger the plan can touch.  They also count the wire calls
one reduction makes, which is what the table's single flush buys.
"""

import math

import numpy as np
import pytest

from repro.errors import ReproError
from repro.lang.semantics import REDUCTIONS
from repro.runtime import FaultPlan, SimComm
from repro.runtime.faults import FaultComm
from repro.runtime.halos import _TAG_REDUCE, allreduce_scalar
from repro.runtime.msglog import MessageLog, ReplayFilter
from repro.runtime.ringbuf import RingTransport
from tests.runtime import reference_reduction

SIZES = range(1, 34)
REDUCTIONS_SWEPT = 3  # reductions per communicator, one after another
#: scalar partials: NaN, ties, signed zeros, ints and bools
POOL = (1.5, -0.0, 0.0, math.nan, 3, True, False, 2.5, 1.5, -7, 0.1, 2)

PLANS = {
    "none": None,
    "drop": "drop tag=104 count=3; seed=1",
    "delay": "delay tag=104 count=3 steps=2; seed=2",
    "corrupt": "corrupt tag=104 count=2; seed=3",
    "duplicate": "duplicate tag=104 count=2; seed=4",
    "reorder": "duplicate tag=104 count=2; reorder tag=104 count=4; seed=5",
    "prob": "drop tag=104 prob=0.5; delay tag=104 steps=2 prob=0.5; "
            "corrupt tag=104 prob=0.5; duplicate tag=104 count=3 prob=0.5; "
            "reorder tag=104 prob=0.5; seed=6",
    # a duplicate from the first reduction is still on a tree channel
    # when the next one runs
    "stale": "duplicate src=1 dst=0 tag=104 count=1; seed=7",
}


def _bits(x):
    """A value's type and exact bits (NaN and -0.0 included)."""
    return type(x).__name__, np.asarray(x).tobytes()


def _partials(size, round_, rng):
    return [POOL[i] for i in rng.integers(0, len(POOL), size)] \
        if round_ else [POOL[(r * 5) % len(POOL)] for r in range(size)]


def _state(comm, envs):
    """Everything a reduction can leave behind, in comparable form."""
    stats = comm.stats
    state = {
        "envs": [_bits(env["s"]) for env in envs],
        "records": stats.collectives.copy(),
        "messages": list(stats.messages.items()),
        "words": list(stats.words.items()),
        "retries": stats.retries,
        "retransmits": (stats.retransmits, stats.retransmit_words),
        "ledger": comm.ledger(),
    }
    if isinstance(comm, FaultComm):
        state.update(clock=comm.clock, fired=comm._fired.tolist(),
                     rng=comm.rng.bit_generator.state,
                     corruptions=comm.corruptions.copy(),
                     duplicates=comm.duplicates.copy())
    return state


def _sweep(reduce, size, op, plan_text):
    """Run a few reductions on one communicator; the state after each."""
    comm = SimComm(size) if plan_text is None \
        else FaultComm(size, FaultPlan.parse(plan_text))
    comm.comm_timeout = 32
    rng = np.random.default_rng(size)
    envs = [{} for _ in range(size)]
    states = []
    for round_ in range(REDUCTIONS_SWEPT):
        for env, v in zip(envs, _partials(size, round_, rng)):
            env["s"] = v
        try:
            reduce(comm, envs, "s", op=op, label=f"r{round_}")
        except ReproError as exc:
            states.append(("raised", type(exc).__name__, str(exc)))
            break
        states.append(_state(comm, envs))
    return states


@pytest.mark.parametrize("op", sorted(REDUCTIONS))
@pytest.mark.parametrize("plan", sorted(PLANS))
def test_table_matches_level_by_level_reference(plan, op):
    for size in SIZES:
        got = _sweep(allreduce_scalar, size, op, PLANS[plan])
        want = _sweep(reference_reduction.allreduce_scalar, size, op,
                      PLANS[plan])
        assert got == want, f"P={size}"


@pytest.mark.parametrize("size", [2, 3, 5, 8, 13, 32, 33])
def test_stale_message_on_a_tree_channel(size):
    # the stale message is matched first, so its value enters the tree:
    # the wire is not quiet and each level is its own flush
    results = []
    for reduce in (allreduce_scalar, reference_reduction.allreduce_scalar):
        comm = SimComm(size)
        comm.send_batch([1], [0], [99.0], tag=_TAG_REDUCE)
        envs = [{"s": float(r)} for r in range(size)]
        reduce(comm, envs, "s")
        results.append(_state(comm, envs))
    assert results[0] == results[1]
    assert results[0]["envs"] != [_bits(sum(range(size)) * 1.0)] * size


@pytest.mark.parametrize("size", [2, 5, 8, 13, 33])
def test_localized_restart_rows(size):
    # a rank re-driven against the message log sends nothing (the replay
    # filter suppresses it) and receives exactly its logged rows, under
    # the table as under the reference
    for rank in range(size):
        results = []
        for reduce in (allreduce_scalar,
                       reference_reduction.allreduce_scalar):
            comm = SimComm(size)
            comm.msglog = MessageLog()
            partials = [0.1 * (r + 1) for r in range(size)]
            envs = [{"s": v} for v in partials]
            reduce(comm, envs, "s")
            total = envs[rank]["s"]
            envs[rank]["s"] = partials[rank]
            comm.msglog.replay_onto(comm, rank, 0)
            filt = ReplayFilter(comm.msglog, rank, 0)
            comm.begin_replay(filt, comm.FRESH_TAG_BASE)
            try:
                reduce(comm, envs, "s", rank=rank)
            finally:
                comm.end_replay()
            comm.assert_drained()
            assert _bits(envs[rank]["s"]) == _bits(total)
            results.append((_state(comm, envs), filt.suppressed))
        assert results[0] == results[1], f"rank {rank}"


class _KeepAll:
    """A replay filter that suppresses nothing."""

    def suppress(self, srcs, dsts, tag, words):
        return np.zeros(len(srcs), bool)


class TestWireCalls:
    P = 32
    LEVELS = 2 * math.ceil(math.log2(P))

    @pytest.fixture
    def calls(self, monkeypatch):
        seen = {"push": 0, "pop": 0}
        for name in seen:
            real = getattr(RingTransport, name)

            def spy(self, *args, _real=real, _name=name):
                seen[_name] += 1
                return _real(self, *args)

            monkeypatch.setattr(RingTransport, name, spy)
        return seen

    def _reduce(self, comm, calls):
        calls.update(push=0, pop=0)
        envs = [{"s": float(r)} for r in range(self.P)]
        allreduce_scalar(comm, envs, "s")
        assert all(env["s"] == sum(range(self.P)) for env in envs)
        return calls["push"], calls["pop"]

    def test_quiet_wire_is_one_flush(self, calls):
        comm = SimComm(self.P)
        assert self._reduce(comm, calls) == (1, 1)
        assert self._reduce(comm, calls) == (1, 1)
        comm.assert_drained()

    def test_live_rule_on_a_tree_row_flushes_per_level(self, calls):
        # the rule targets the top level's only message, which the fault
        # engine then delivers as its wave of one: one push that level
        comm = FaultComm(self.P, FaultPlan.parse(
            "reorder src=16 dst=0 tag=104"))
        assert self._reduce(comm, calls) == (self.LEVELS, self.LEVELS)

    def test_replay_filter_flushes_per_level(self, calls):
        comm = SimComm(self.P)
        comm.begin_replay(_KeepAll(), comm.FRESH_TAG_BASE)
        assert self._reduce(comm, calls) == (self.LEVELS, self.LEVELS)

    def test_pending_reduce_message_flushes_per_level(self, calls):
        comm = SimComm(self.P)
        comm.send_batch([5], [7], [1.0], tag=_TAG_REDUCE)  # no tree channel
        assert self._reduce(comm, calls) == (self.LEVELS, self.LEVELS)
        assert comm.pending_channels() == [(5, 7, _TAG_REDUCE, 1)]

    def test_spent_rule_is_quiet_again(self, calls):
        comm = FaultComm(self.P, FaultPlan.parse(
            "reorder src=16 dst=0 tag=104 count=1"))
        assert self._reduce(comm, calls) == (self.LEVELS, self.LEVELS)
        assert comm._fired.tolist() == [1]
        assert self._reduce(comm, calls) == (1, 1)
