"""Explicit-state model checker — engines, agreement, and mutations.

The acceptance contract: the bounded explorer, the wait-for dataflow
pass, and the runtime deadlock watchdog (a real SimComm replaying the
net's micro-op programs) agree deadlock/no-deadlock on every TESTIV
placement, blocking and split-phase, and on a table of seeded schedule
mutations that each assert their exact CC code — including a tag-level
deadlock the order-level CC005 cannot distinguish.
"""

import pytest

from repro.analysis.commcheck import (
    check_net,
    deadlock_cycle,
    replay_events,
)
from repro.analysis.modelcheck import (
    CrossCheck,
    DEFAULT_NET_BOUND,
    ModelCheckResult,
    crosscheck,
    explore,
    main as modelcheck_main,
    wait_for_analysis,
)
from repro.analysis.mpnet import compile_orders, compile_placement
from repro.corpus import TESTIV_SOURCE
from repro.errors import CommTimeout, ReproError
from repro.placement.comms import widen_placement
from repro.placement.engine import enumerate_placements
from repro.spec import spec_for_testiv

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
        # two windows forced onto one tag: the receive pops from a
        # channel holding two distinct colors
        net = compile_orders([[A_POST, B_POST, A, B]] * 2,
                             tags=[[100, 100, 100, 100]] * 2)
        v = wait_for_analysis(net)
        assert v.deadlock is None and v.conflicts
        assert v.conflicts[0]["in_flight"] == ["a/m#0", "b/m#0"]

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
        cc = crosscheck(compile_orders([[A, B], [B, A]]))
        assert not cc.diverged
        cc = crosscheck(compile_orders([[A, B], [A, B]]))
        assert not cc.diverged

    def test_disagreement_flagged(self):
        net = compile_orders([[A], [A]])
        forged = CrossCheck(wait_for=wait_for_analysis(net),
                            model=ModelCheckResult(
                                deadlocks=[{"blocked": [], "trace": []}]))
        assert forged.diverged

    def test_truncation_is_inconclusive_not_divergent(self):
        net = compile_orders([[A, B], [B, A]])
        cc = CrossCheck(wait_for=wait_for_analysis(net),
                        model=explore(net, max_states=1))
        assert cc.wait_for.deadlock is not None
        assert not cc.model.deadlocked and not cc.diverged


class TestTestivAgreement:
    """Model checker == runtime watchdog over all 16 placements × modes."""

    @pytest.mark.parametrize("split", [False, True],
                             ids=["blocking", "split-phase"])
    def test_all_16_placements_agree_no_deadlock(self, split):
        result = enumerate_placements(TESTIV_SOURCE, spec_for_testiv(),
                                      split_phase=split)
        assert len(result.ranked) == 16
        for i, rp in enumerate(result.ranked):
            net = compile_placement(result.sub, rp.placement)
            cc = crosscheck(net)
            assert not cc.diverged, f"placement #{i} diverged"
            assert cc.wait_for.clean, f"placement #{i}: wait-for verdict"
            assert cc.model.clean, f"placement #{i}: explorer verdict"
            assert replay_events(net) is None, \
                f"placement #{i}: watchdog disagrees"

    def test_widened_placements_also_agree(self, testiv):
        for rp in testiv.ranked[:4]:
            wide = widen_placement(testiv.vfg, rp.placement)
            net = compile_placement(testiv.sub, wide)
            cc = crosscheck(net)
            assert not cc.diverged and cc.model.clean
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
    """Each mutation asserts its exact code; engines and watchdog agree."""

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
        assert "CC011" not in sink.codes(), f"{name}: engines diverged"
        exc = replay_events(net)
        assert isinstance(exc, verdict) or (verdict is type(None)
                                            and exc is None), \
            f"{name}: watchdog said {type(exc).__name__}"
        # deadlock/no-deadlock agreement with the watchdog
        cc = crosscheck(net)
        assert cc.model.deadlocked == isinstance(exc, CommTimeout)

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

    def test_cc011_fires_on_forged_engine_disagreement(self, monkeypatch):
        # CC011 can only come from a checker bug, so seed one: make the
        # dataflow engine lie about a deadlocking net
        import repro.analysis.commcheck as commcheck
        from repro.analysis.modelcheck import WaitForVerdict

        def lying_crosscheck(net, max_states=DEFAULT_NET_BOUND,
                             channel_bound=32):
            return CrossCheck(wait_for=WaitForVerdict(),
                              model=explore(net, max_states=max_states))

        monkeypatch.setattr(commcheck, "crosscheck", lying_crosscheck)
        sink = commcheck.check_net(compile_orders([[A, B], [B, A]]))
        assert "CC011" in sink.codes()
        diag = next(d for d in sink.diagnostics if d.code == "CC011")
        assert diag.severity == "error"
        assert diag.data["explorer"]["deadlocked"] is True
        assert diag.data["wait_for"]["deadlock"] is None


class TestCheckNetDiagnostics:
    def test_clean_net_emits_nothing(self):
        sink = check_net(compile_orders([[A, B], [A, B]]))
        assert sink.clean

    def test_deadlock_diag_carries_witness_trace(self):
        sink = check_net(compile_orders([[A, B], [B, A]]))
        diag = next(d for d in sink.diagnostics if d.code == "CC005")
        assert diag.data["trace"]
        assert diag.data["states"] > 0
        assert diag.data["net_bound"] == DEFAULT_NET_BOUND

    def test_tag_conflict_is_a_warning(self):
        net = compile_orders([[A_POST, B_POST, A, B]] * 2,
                             tags=[[100, 100, 100, 100]] * 2)
        sink = check_net(net)
        assert {d.code for d in sink.diagnostics} == {"CC010"}
        assert sink.ok and not sink.clean

    def test_truncated_exploration_is_inconclusive_not_clean(self, testiv):
        # stopping at the state bound without a finding is no verdict:
        # it must be visible (and fail --strict), never silence
        net = compile_placement(testiv.sub, testiv.ranked[0].placement)
        sink = check_net(net, net_bound=1)
        assert [d.code for d in sink.diagnostics] == ["CC012"]
        diag = sink.diagnostics[0]
        assert diag.name == "model-inconclusive"
        assert diag.severity == "warning" and not sink.clean
        assert diag.message == ("exploration stopped after 1 states "
                                "(net_bound=1); no verdict")
        assert diag.data["truncated"] and diag.data["net_bound"] == 1

    def test_finished_exploration_emits_no_cc012(self, testiv):
        for rp in testiv.ranked:
            net = compile_placement(testiv.sub, rp.placement)
            assert check_net(net).clean


class TestCorpusSweep:
    def test_corpus_mode_clean_and_strict_exit_zero(self, capsys):
        assert modelcheck_main(["--corpus", "--strict"]) == 0
        out = capsys.readouterr().out
        assert "0 finding(s)" in out and "DIVERGED" not in out

    def test_dot_exemplar_written(self, tmp_path):
        dot = tmp_path / "net.dot"
        assert modelcheck_main(["--corpus", "--dot", str(dot)]) == 0
        text = dot.read_text()
        assert text.startswith("digraph") and "shape=ellipse" in text

    def test_json_output(self, capsys):
        import json

        assert modelcheck_main(["--corpus", "--json"]) == 0
        rows = json.loads(capsys.readouterr().out)
        assert rows and all(not r["diverged"] for r in rows)
        assert {"program", "mode", "placement", "states"} <= set(rows[0])

    def test_nothing_to_do_errors(self):
        with pytest.raises(SystemExit):
            modelcheck_main([])
