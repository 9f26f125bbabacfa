"""MP-net model checker — the one engine, its references, and mutations.

The acceptance contract: the vector-clocked FIFO run, the brute-force
explorer and the runtime deadlock watchdog (a real SimComm replaying the
net's micro-op programs; both in ``reference_models``) agree on every
TESTIV placement, blocking and split-phase, and on a table of seeded
schedule mutations that each assert their exact CC code — including a
tag-level deadlock the order-level CC005 cannot distinguish.  The
property over random nets is ``test_one_engine.py``.
"""

import pytest

from repro.analysis.commcheck import check_net
from repro.analysis.modelcheck import wait_for_analysis
from repro.analysis.mpnet import (
    CommEvent,
    compile_events,
    compile_orders,
    compile_placement,
)
from repro.corpus import TESTIV_SOURCE
from repro.errors import CommTimeout, ReproError
from repro.placement.comms import widen_placement
from repro.placement.engine import enumerate_placements
from repro.spec import spec_for_testiv
from tests.analysis.reference_models import (
    deadlock_cycle,
    explore,
    replay_events,
)

A, B, C = ("a", "m"), ("b", "m"), ("c", "m")
A_POST, B_POST = A + ("post",), B + ("post",)


@pytest.fixture(scope="module")
def testiv():
    return enumerate_placements(TESTIV_SOURCE, spec_for_testiv())


class TestWaitForAnalysis:
    def test_aligned_orders_complete(self):
        v = wait_for_analysis(compile_orders([[A, B], [A, B]]))
        assert v.clean and v.deadlock is None

    def test_crossed_blocking_orders_deadlock_with_cycle(self):
        v = wait_for_analysis(compile_orders([[A, B], [B, A]]))
        assert v.deadlock is not None
        assert v.deadlock["kind"] == "cycle"
        assert sorted(k for _c, k in v.deadlock["cycle"]) == [0, 1]
        # every blocked entry names its (src, dst, tag) channel
        for b in v.deadlock["blocked"]:
            assert len(b["channel"]) == 3 and b["sender_alive"]

    def test_wait_without_sender_is_unmatched_recv(self):
        v = wait_for_analysis(compile_orders([[A], []]))
        assert v.deadlock is not None
        assert v.deadlock["kind"] == "unmatched-recv"
        assert not v.deadlock["blocked"][0]["sender_alive"]

    def test_post_without_wait_leaves_unmatched_send(self):
        v = wait_for_analysis(compile_orders([[A_POST], [A_POST]]))
        assert v.deadlock is None and v.unmatched
        assert v.unmatched[0]["colors"] == ["a/m#0"]

    def test_shared_tag_conflict_detected(self):
        # two windows forced onto one tag: FIFO matches right, but the
        # second post is not causally after the first wait, so the wait
        # can match it in another schedule
        net = compile_orders([[A_POST, B_POST, A, B]] * 2,
                             tags=[[100, 100, 100, 100]] * 2)
        v = wait_for_analysis(net)
        assert v.deadlock is None and v.races
        race = v.races[0]
        assert (race["expected"], race["got"]) == ("a/m#0", "b/m#0")
        assert race["recv"].startswith("c1[2] recv a/m#0")
        assert race["send"].startswith("c0[1] send b/m#0")

    def test_tag_reuse_races_unless_causally_ordered(self):
        # one tag reused by two blocking exchanges: class 0 can receive
        # a, then send b, before class 1 receives a — a real race
        net = compile_orders([[A, B]] * 2, tags=[[100, 100]] * 2)
        assert wait_for_analysis(net).races and explore(net).races
        # one-sided a, an acknowledgement, then b: b's send is causally
        # after a's receive, so the reuse is safe on every schedule
        ack = ("ack", "m")
        sender = [CommEvent(A, sends=(1,), recvs=()),
                  CommEvent(ack, sends=(), recvs=(1,)),
                  CommEvent(B, sends=(1,), recvs=())]
        receiver = [CommEvent(A, sends=(), recvs=(0,)),
                    CommEvent(ack, sends=(0,), recvs=()),
                    CommEvent(B, sends=(), recvs=(0,))]
        net = compile_events([sender, receiver],
                             tags=[[100, 101, 100]] * 2)
        assert wait_for_analysis(net).clean and explore(net).clean

    def test_skewed_tag_tables_race(self):
        # counter allocator under divergent orders: the match crosses
        # collectives even though FIFO completes
        net = compile_orders([[A, B], [B, A]], tag_mode="counter")
        v = wait_for_analysis(net)
        assert v.races and v.deadlock is None


class TestExplorer:
    def test_aligned_orders_clean(self):
        r = explore(compile_orders([[A, B], [A, B]]))
        assert r.clean and not r.truncated and r.states > 0

    def test_crossed_blocking_orders_deadlock_with_witness(self):
        r = explore(compile_orders([[A, B], [B, A]]))
        assert r.deadlocked
        dl = r.deadlocks[0]
        assert len(dl["blocked"]) == 2
        assert all("send" in step or "recv" in step
                   for step in dl["trace"])

    def test_race_branches_recorded_with_witness(self):
        net = compile_orders([[A_POST, B_POST, A, B]] * 2,
                             tags=[[100, 100, 100, 100]] * 2)
        r = explore(net)
        assert r.races and not r.deadlocked
        race = r.races[0]
        assert race["expected"] != race["got"]
        assert race["witness"]

    def test_unmatched_send_at_terminal_marking(self):
        r = explore(compile_orders([[A_POST], [A_POST]]))
        assert r.unmatched and not r.deadlocked

    def test_state_bound_truncates_instead_of_verdict(self):
        net = compile_orders([[A, B], [B, A]])
        r = explore(net, max_states=1)
        assert r.truncated and not r.deadlocked

    def test_channel_bound_is_not_a_deadlock(self):
        # a sender the bound blocks is exploration truncation, never a
        # deadlock verdict of the unbounded net
        net = compile_orders([[A_POST, B_POST, A, B]] * 2,
                             tags=[[100, 100, 100, 100]] * 2)
        r = explore(net, channel_bound=1)
        assert r.truncated and not r.deadlocked


class TestCrossCheck:
    def test_agreement_is_not_divergence(self):
        # the engine and the reference explorer on the two classic nets
        for orders, dead in (([[A, B], [B, A]], True),
                             ([[A, B], [A, B]], False)):
            net = compile_orders(orders)
            assert (wait_for_analysis(net).deadlock is not None) is dead
            assert explore(net).deadlocked is dead


class TestTestivAgreement:
    """Engine == explorer == runtime watchdog, 16 placements × modes."""

    @pytest.mark.parametrize("split", [False, True],
                             ids=["blocking", "split-phase"])
    def test_all_16_placements_agree_no_deadlock(self, split):
        result = enumerate_placements(TESTIV_SOURCE, spec_for_testiv(),
                                      split_phase=split)
        assert len(result.ranked) == 16
        for i, rp in enumerate(result.ranked):
            net = compile_placement(result.sub, rp.placement)
            assert wait_for_analysis(net).clean, f"placement #{i}: engine"
            assert explore(net).clean, f"placement #{i}: explorer"
            assert check_net(net).clean, f"placement #{i}: diagnostics"
            assert replay_events(net) is None, \
                f"placement #{i}: watchdog disagrees"

    def test_widened_placements_also_agree(self, testiv):
        for rp in testiv.ranked[:4]:
            wide = widen_placement(testiv.vfg, rp.placement)
            net = compile_placement(testiv.sub, wide)
            assert wait_for_analysis(net).clean and explore(net).clean
            assert replay_events(net) is None


# one seeded schedule mutation per row: (orders, explicit tags or None,
# tag mode, the exact CC code check_net must emit, the watchdog verdict
# class replay_events must return)
MUTATIONS = [
    # crossed blocking collectives: the classic wait-for cycle
    ("crossed-blocking", [[A, B], [B, A]], None, "static",
     "CC005", CommTimeout),
    # three-way rotation: cycle through every class
    ("rotated-3way", [[A, B, C], [B, C, A], [C, A, B]], None, "static",
     "CC005", CommTimeout),
    # wait whose sender never posts
    ("missing-sender", [[A], []], None, "static", "CC005", CommTimeout),
    # blocking exchange against a post-only peer: the peer matches the
    # blocking send's recv but never drains the reverse channel
    ("one-sided-wait", [[A], [A_POST]], None, "static",
     "CC004", ReproError),
    # identical identity orders with skewed tag tables — THE tag-level
    # deadlock order-level CC005 cannot distinguish (see
    # test_tag_level_deadlock_invisible_to_order_level)
    ("tag-skew-deadlock", [[A, B], [A, B]], [[100, 101], [101, 100]],
     "explicit", "CC005", CommTimeout),
    # two windows forced onto one shared tag: schedule-dependent match
    ("shared-tag-windows", [[A_POST, B_POST, A, B]] * 2,
     [[100, 100, 100, 100]] * 2, "explicit", "CC010", type(None)),
    # counter-allocator skew under divergent post orders: wrong-color
    # matches without deadlock
    ("counter-skew-race", [[A_POST, B_POST, A, B], [B_POST, A_POST, A, B]],
     None, "counter", "CC010", type(None)),
    # posts both classes never wait for: unmatched sends in flight
    ("posts-never-waited", [[A_POST], [A_POST]], None, "static",
     "CC004", ReproError),
    # one class posts twice, waits once: one token left on the channel
    ("double-post", [[A_POST, A_POST, A], [A_POST, A]],
     [[100, 100, 100], [100, 100]], "explicit", "CC004", ReproError),
]


class TestSeededMutations:
    """Each mutation asserts its exact code; engine, explorer and
    watchdog agree."""

    @pytest.mark.parametrize(
        "name,orders,tags,mode,code,verdict",
        MUTATIONS, ids=[m[0] for m in MUTATIONS])
    def test_mutation_code_and_watchdog_agreement(self, name, orders,
                                                  tags, mode, code,
                                                  verdict):
        net = compile_orders(orders, tags=tags,
                             tag_mode=mode if tags is None else "static")
        sink = check_net(net)
        assert code in sink.codes(), f"{name}: {sink.render()}"
        exc = replay_events(net)
        assert isinstance(exc, verdict) or (verdict is type(None)
                                            and exc is None), \
            f"{name}: watchdog said {type(exc).__name__}"
        # deadlock/no-deadlock agreement with the watchdog and explorer
        dead = isinstance(exc, CommTimeout)
        assert (wait_for_analysis(net).deadlock is not None) == dead
        assert explore(net).deadlocked == dead

    def test_tag_level_deadlock_invisible_to_order_level(self):
        # the acceptance case: identical identity orders — the order-level
        # wait-for graph sees no conflict at all — yet skewed tag tables
        # deadlock the exchange, and the watchdog confirms
        orders = [[A, B], [A, B]]
        assert deadlock_cycle(orders) is None
        net = compile_orders(orders, tags=[[100, 101], [101, 100]])
        assert wait_for_analysis(net).deadlock is not None
        assert explore(net).deadlocked
        assert isinstance(replay_events(net), CommTimeout)


class TestCheckNetDiagnostics:
    def test_clean_net_emits_nothing(self):
        sink = check_net(compile_orders([[A, B], [A, B]]))
        assert sink.clean

    def test_deadlock_diag_carries_witness_trace(self):
        sink = check_net(compile_orders([[A, B], [B, A]]))
        diag = next(d for d in sink.diagnostics if d.code == "CC005")
        assert diag.data["trace"]
        assert all("send" in step or "recv" in step
                   for step in diag.data["trace"])
        assert diag.data["kind"] == "cycle" and diag.data["cycle"]

    def test_tag_conflict_is_a_warning(self):
        net = compile_orders([[A_POST, B_POST, A, B]] * 2,
                             tags=[[100, 100, 100, 100]] * 2)
        sink = check_net(net)
        assert {d.code for d in sink.diagnostics} == {"CC010"}
        assert sink.ok and not sink.clean
