"""Direct unit tests for communication extraction and anchoring."""

import pytest

from repro.automata import automaton_for
from repro.corpus import HEAT_SOURCE, TESTIV_SOURCE
from repro.lang import Assign, DoLoop, IfGoto
from repro.lang.cfg import ENTRY, EXIT
from repro.lang.printer import format_expr
from repro.placement import Propagator, extract_comms
from repro.placement.comms import (
    _anchor_valid,
    _cache,
    _hoist_anchor,
    _single_anchor,
)
from repro.placement.engine import analyze
from repro.spec import spec_for_testiv, PartitionSpec


@pytest.fixture(scope="module")
def testiv():
    spec = spec_for_testiv()
    sub, graph, idioms, legality, vfg = analyze(TESTIV_SOURCE, spec)
    return sub, graph.cfg, vfg


def sid_by_text(sub, fragment):
    for st in sub.walk():
        if isinstance(st, Assign):
            if fragment in f"{format_expr(st.target)} = {format_expr(st.value)}":
                return st.sid
    raise AssertionError(fragment)


class TestHoisting:
    def test_use_inside_partitioned_loop_hoists_to_header(self, testiv):
        sub, cfg, vfg = testiv
        gather = sid_by_text(sub, "vm = old(s1)")
        anchor = _hoist_anchor(cfg, vfg, gather)
        assert isinstance(sub.stmt(anchor), DoLoop)

    def test_sequential_statement_is_its_own_anchor(self, testiv):
        sub, cfg, vfg = testiv
        seq = sid_by_text(sub, "loop = loop + 1")
        assert _hoist_anchor(cfg, vfg, seq) == seq


def labels(vfg, defs):
    """The per-definition-set facts extraction reads its anchors off."""
    return _cache(vfg).labels_of(frozenset(defs))


class TestLoopAwareReachability:
    def test_zero_trip_paths_suppressed(self, testiv):
        """With positive extents, entry cannot skip the sqrdiff accumulate."""
        sub, cfg, vfg = testiv
        acc = sid_by_text(sub, "sqrdiff = sqrdiff + diff*diff")
        first_if = next(s.sid for s in sub.walk() if isinstance(s, IfGoto))
        assert not labels(vfg, {acc}).entry_reaches(first_if)

    def test_plain_reachability_still_works(self, testiv):
        sub, cfg, vfg = testiv
        init = sid_by_text(sub, "old(i) = init(i)")
        copy = sid_by_text(sub, "old(i) = new(i)")
        # a use no definition reaches is crossed by every statement (None)
        assert labels(vfg, {init}).crossing({copy}) is not None

    def test_avoid_node_blocks(self, testiv):
        sub, cfg, vfg = testiv
        init = sid_by_text(sub, "old(i) = init(i)")
        head = sub.labels()[100].sid
        result = sid_by_text(sub, "result(i) = new(i)")
        # everything downstream funnels through label 100
        assert head in labels(vfg, {init}).crossing({result})


class TestCandidateValidity:
    def test_fig9_anchor_is_first_if(self, testiv):
        sub, cfg, vfg = testiv
        defs = {sid_by_text(sub, f"new(s{k}) = new(s{k})") for k in (1, 2, 3)}
        copy = sid_by_text(sub, "old(i) = new(i)")
        result = sid_by_text(sub, "result(i) = new(i)")
        uses = {copy, result}
        hoisted = {_hoist_anchor(cfg, vfg, u) for u in uses}
        anchor = _single_anchor(cfg, vfg, labels(vfg, defs), uses, hoisted,
                                idempotent=True)
        first_if = next(s.sid for s in sub.walk() if isinstance(s, IfGoto))
        assert anchor == first_if

    def test_anchor_before_defining_loop_invalid(self, testiv):
        sub, cfg, vfg = testiv
        tri_loop = next(l.sid for l, e in
                        ((sub.stmt(s), e) for s, e in vfg.loops.items())
                        if e == "triangle")
        facts = labels(vfg, {sid_by_text(sub, "new(s1) = new(s1)")})
        copy = sid_by_text(sub, "old(i) = new(i)")
        assert not _anchor_valid(cfg, facts, tri_loop,
                                 facts.crossing({copy}), idempotent=True)

    def test_exit_anchor_only_for_exit_uses(self, testiv):
        sub, cfg, vfg = testiv
        facts = labels(vfg, {sid_by_text(sub, "new(s1) = new(s1)")})
        copy = sid_by_text(sub, "old(i) = new(i)")
        hoisted = {_hoist_anchor(cfg, vfg, copy)}
        assert _single_anchor(cfg, vfg, facts, {copy}, hoisted,
                              idempotent=True) not in (None, EXIT)
        assert _single_anchor(cfg, vfg, facts, {EXIT}, {EXIT},
                              idempotent=True) == EXIT

    def test_nonidempotent_rejects_pre_def_anchor(self, testiv):
        """A reduction comm cannot sit where the partials may be absent."""
        sub, cfg, vfg = testiv
        acc = sid_by_text(sub, "sqrdiff = sqrdiff + diff*diff")
        zero = sid_by_text(sub, "sqrdiff = 0.0")
        first_if = next(s.sid for s in sub.walk() if isinstance(s, IfGoto))
        facts = labels(vfg, {acc})
        crossing = facts.crossing({first_if})
        # before the accumulation: invalid (entry reaches it without defs)
        assert facts.entry_reaches(zero)
        assert not _anchor_valid(cfg, facts, zero, crossing,
                                 idempotent=False)
        # after it: valid
        assert _anchor_valid(cfg, facts, first_if, crossing,
                             idempotent=False)


class TestExtractOnHeat:
    def test_in_time_loop_anchor(self):
        spec = PartitionSpec.parse(
            "pattern overlap-elements-2d\nextent node nsom\n"
            "extent triangle ntri\nindexmap som triangle node\n"
            "array u0 node\narray u1 node\narray u node\narray rhs node\n"
            "array mass node\narray area triangle\n")
        sub, graph, idioms, legality, vfg = analyze(HEAT_SOURCE, spec)
        prop = Propagator(vfg, automaton_for(spec.pattern))
        sol = next(prop.solutions())
        comms = extract_comms(vfg, sol)
        # the all-OVERLAP solution refreshes the scattered RHS each step;
        # either way a halo update must sit inside the time loop
        halo = next(c for c in comms if c.var in ("u", "rhs"))
        time_loop = next(s for s in sub.walk()
                         if isinstance(s, DoLoop) and s.var == "n")
        inner_sids = {s.sid for s in time_loop.walk()}
        assert halo.anchor in inner_sids
