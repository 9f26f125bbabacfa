"""Property: the one FIFO run decides what the brute-force references do.

``wait_for_analysis`` replaces a state-space search with one greedy run
carrying vector clocks (see :mod:`repro.analysis.modelcheck`).  Over
random ``compile_orders`` nets — 2–3 classes; posts, waits and blocking
collectives, unpaired ones included; static, counter and explicit tags —
it must agree with the explorer in ``reference_models`` on the deadlock
verdict, the unmatched channels and whether any receive races, report
only races the explorer also reaches, and agree with the SimComm replay
(``CommTimeout`` ⇔ deadlock, an undrained wire ⇔ unmatched sends).  The
explorer may list more races: those reached only after an earlier wrong
match, which the engine has already reported.

A fixed-seed slice runs in tier-1; ``-m soak`` runs 10⁴ examples.
"""

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from repro.analysis.modelcheck import wait_for_analysis
from repro.analysis.mpnet import compile_orders
from repro.errors import CommTimeout, ReproError
from tests.analysis.reference_models import explore, replay_events

IDENTS = [("a", "m"), ("b", "m"), ("c", "m")]


@st.composite
def nets(draw):
    nclasses = draw(st.integers(min_value=2, max_value=3))
    orders = []
    for _ in range(nclasses):
        row = draw(st.lists(st.tuples(st.integers(min_value=0, max_value=2),
                                      st.booleans()), max_size=4))
        orders.append([IDENTS[i] + ("post",) if post else IDENTS[i]
                       for i, post in row])
    mode = draw(st.sampled_from(["static", "counter", "explicit"]))
    if mode != "explicit":
        return compile_orders(orders, tag_mode=mode)
    tags = [draw(st.lists(st.integers(min_value=100, max_value=102),
                          min_size=len(o), max_size=len(o)))
            for o in orders]
    return compile_orders(orders, tags=tags)


def _triples(races) -> set:
    return {(tuple(r["channel"]), r["expected"], r["got"]) for r in races}


def _channels(unmatched) -> set:
    return {tuple(u["channel"]) for u in unmatched}


def assert_one_engine_suffices(net) -> None:
    verdict = wait_for_analysis(net)
    ref = explore(net, max_states=200_000)
    assume(not ref.truncated)
    dead = verdict.deadlock is not None
    assert dead == ref.deadlocked
    assert _channels(verdict.unmatched) == _channels(ref.unmatched)
    assert bool(verdict.races) == bool(ref.races)
    assert _triples(verdict.races) <= _triples(ref.races)
    exc = replay_events(net)
    assert isinstance(exc, CommTimeout) == dead
    if not dead:
        assert isinstance(exc, ReproError) == bool(verdict.unmatched)


@settings(max_examples=400, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(net=nets())
def test_engine_agrees_with_references(net):
    assert_one_engine_suffices(net)


@pytest.mark.soak
@settings(max_examples=10_000, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(net=nets())
def test_engine_agrees_with_references_soak(net):
    assert_one_engine_suffices(net)
