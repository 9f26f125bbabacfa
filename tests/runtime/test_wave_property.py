"""Property: a wave ≡ its messages sent as waves of one ≡ the deque wire.

Every layer of the wire takes a wave — m messages on one tag — in one
call, and a single message is a wave of one.  Over random operation
sequences on a 3-rank, 2-tag wire (mixed payload kinds in one wave:
float64, int64, bool, 2-D, Python and numpy scalars; interleaved
channels; ``move_last`` reorders; snapshot/restore mid-flight; receive
waves that partly miss), three wires must agree bit for bit:

* the ring fed whole waves and drained by whole waves;
* the ring fed the same messages one wave of one at a time, and drained
  one single receive at a time;
* the deque reference (``reference_wire.py``) fed whole waves.

Agreement is on every received payload — type, dtype, shape and bytes —
on a missed receive wave consuming nothing, and on ``channels()`` after
every step.  A fixed-seed slice runs in tier-1; ``-m soak`` runs 10⁴
examples.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.runtime.ringbuf import MISSING, RingTransport, wave_of
from tests.runtime.reference_wire import DequeTransport

RANKS = st.integers(min_value=0, max_value=2)
TAGS = st.integers(min_value=0, max_value=1)
FLOATS = st.floats(width=64)
INTS = st.integers(min_value=-(1 << 62), max_value=1 << 62)
SIZES = st.integers(min_value=0, max_value=3)

PAYLOADS = st.one_of(
    hnp.arrays(np.float64, SIZES, elements=FLOATS),
    hnp.arrays(np.int64, SIZES),
    hnp.arrays(np.bool_, SIZES),
    hnp.arrays(np.float64, st.tuples(SIZES, st.just(2)), elements=FLOATS),
    FLOATS, INTS, st.booleans(), FLOATS.map(np.float64), INTS.map(np.int64),
)

OPS = st.lists(st.one_of(
    st.tuples(st.just("send"), TAGS,
              st.lists(st.tuples(RANKS, RANKS, PAYLOADS), max_size=5)),
    st.tuples(st.just("recv"), st.lists(st.integers(0, 20), max_size=4)),
    st.tuples(st.just("reorder"), st.integers(0, 50)),
    st.tuples(st.just("snapshot")),
), max_size=12)


def _same(x, y) -> bool:
    """Bit-for-bit payload equality: type, dtype, shape and bytes."""
    if type(x) is not type(y):
        return False
    if isinstance(x, np.ndarray):
        return (x.dtype == y.dtype and x.shape == y.shape
                and x.tobytes() == y.tobytes())
    return np.asarray(x).tobytes() == np.asarray(y).tobytes()


def _payloads(wave) -> list:
    if isinstance(wave, tuple):
        block, words = wave
        return np.split(block, np.cumsum(words)[:-1]) if len(words) else []
    return wave


class _Wires:
    """The three wires, driven in lockstep."""

    def __init__(self):
        # rings start tiny, so header and slab growth happen mid-flight
        self.waves = RingTransport(capacity=2, slab_words=4)
        self.singles = RingTransport(capacity=2, slab_words=4)
        self.deque = DequeTransport()

    def send(self, tag, msgs) -> None:
        srcs = [s for s, _d, _p in msgs]
        dsts = [d for _s, d, _p in msgs]
        payloads = [p for _s, _d, p in msgs]
        self.waves.push(srcs, dsts, tag, *wave_of(payloads))
        self.deque.push(srcs, dsts, tag, *wave_of(payloads))
        for s, d, p in msgs:
            self.singles.push([s], [d], tag, *wave_of([p]))

    def recv(self, picks) -> None:
        chans = self.waves.channels()
        if not chans or not picks:
            return
        tag = chans[picks[0] % len(chans)][2]
        pairs = [(s, d) for s, d, t, _n in chans if t == tag]
        reqs = [pairs[k % len(pairs)] for k in picks]
        srcs = [s for s, _d in reqs]
        dsts = [d for _s, d in reqs]
        got = self.waves.pop(srcs, dsts, tag)
        ref = self.deque.pop(srcs, dsts, tag)
        if got is MISSING:
            # nothing consumed: the other wires must miss the same wave
            assert ref is MISSING
            need = {}
            for key in reqs:
                need[key] = need.get(key, 0) + 1
            assert any(self.singles.count(s, d, tag) < n
                       for (s, d), n in need.items())
            return
        singles = [self.singles.pop([s], [d], tag)[0] for s, d in reqs]
        got = _payloads(got)
        assert len(got) == len(ref) == len(singles) == len(reqs)
        for a, b, c in zip(got, singles, ref):
            assert _same(a, b) and _same(a, c), (a, b, c)

    def reorder(self, k) -> None:
        chans = self.waves.channels()
        if not chans:
            return
        s, d, t, n = chans[k % len(chans)]
        pos = (k // len(chans)) % n
        for wire in (self.waves, self.singles, self.deque):
            wire.move_last(s, d, t, pos)

    def snapshot(self) -> None:
        for name in ("waves", "singles", "deque"):
            wire = getattr(self, name)
            fresh = type(wire)()
            fresh.restore(wire.snapshot())
            setattr(self, name, fresh)

    def check(self) -> None:
        chans = self.waves.channels()
        assert chans == self.singles.channels() == self.deque.channels()
        assert self.waves.pending_total() == sum(n for *_c, n in chans)


def assert_waves_agree(ops) -> None:
    wires = _Wires()
    for op, *args in ops:
        getattr(wires, op)(*args)
        wires.check()
    # drain everything left, channel by channel, as one wave per channel
    for s, d, t, n in wires.waves.channels():
        got = _payloads(wires.waves.pop([s] * n, [d] * n, t))
        ref = wires.deque.pop([s] * n, [d] * n, t)
        singles = [wires.singles.pop([s], [d], t)[0] for _ in range(n)]
        for a, b, c in zip(got, singles, ref):
            assert _same(a, b) and _same(a, c), (a, b, c)
    wires.check()
    assert wires.waves.pending_total() == 0


@settings(max_examples=150, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(ops=OPS)
def test_a_wave_is_its_waves_of_one(ops):
    assert_waves_agree(ops)


@pytest.mark.soak
@settings(max_examples=10_000, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(ops=OPS)
def test_a_wave_is_its_waves_of_one_soak(ops):
    assert_waves_agree(ops)


def test_mixed_wave_round_trips_on_every_wire():
    """One hand-written wave of every payload kind, all on one channel."""
    payloads = [np.array([1.5, -0.0]), np.array([-(1 << 62)], np.int64),
                np.array([True, False]), np.ones((2, 2)), 2.5, 7, True,
                np.float64(np.nan), np.int64(-3)]
    wires = _Wires()
    wires.send(4, [(0, 1, p) for p in payloads])
    wires.check()
    wires.recv([0] * len(payloads))
    wires.check()
    assert wires.waves.pending_total() == 0
