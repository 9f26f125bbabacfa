"""Unit tests for the value-flow graph construction."""

import pytest

from repro.analysis import build_depgraph, detect_idioms
from repro.automata import (
    G_ACCUM_SELF,
    G_BOUND,
    G_CONTROL,
    G_DIRECT,
    G_GATHER,
    G_LOCAL,
    G_OUTPUT,
    G_REDUCE_ARG,
    G_SCALAR,
)
from repro.corpus import TESTIV_SOURCE
from repro.errors import PlacementError
from repro.lang import Assign, parse_subroutine
from repro.lang.printer import format_expr
from repro.placement import N_DEF, N_IN, N_OUT, build_value_flow_graph
from repro.placement.dfg import VNode
from repro.spec import PartitionSpec, spec_for_testiv


def vfg_of(source, spec):
    sub = parse_subroutine(source)
    graph = build_depgraph(sub, spec)
    idioms = detect_idioms(sub, spec, graph.amap)
    return build_value_flow_graph(graph, idioms)


@pytest.fixture(scope="module")
def testiv():
    return vfg_of(TESTIV_SOURCE, spec_for_testiv())


def sid_of(vfg, fragment):
    for st in vfg.graph.sub.walk():
        if isinstance(st, Assign):
            text = f"{format_expr(st.target)} = {format_expr(st.value)}"
            if fragment in text:
                return st.sid
    raise AssertionError(fragment)


class TestStructure:
    def test_partitioned_loops_found(self, testiv):
        assert len(testiv.loops) == 6
        assert sorted(testiv.loops.values()) == [
            "node", "node", "node", "node", "node", "triangle"]

    def test_inputs_present(self, testiv):
        assert {"init", "som", "airetri", "airesom"} <= set(testiv.inputs)

    def test_outputs_present(self, testiv):
        assert set(testiv.outputs) == {"result"}

    def test_output_edge_guard(self, testiv):
        out = testiv.outputs["result"]
        edges = [e for e in testiv.edges if e.dst == out]
        assert edges and all(e.guard == G_OUTPUT for e in edges)

    def test_def_nodes_unique(self, testiv):
        names = [n.name for n in testiv.def_nodes()]
        assert len(names) == len(set(names))

    def test_edges_deduplicated(self, testiv):
        seen = set()
        for e in testiv.edges:
            assert e not in seen
            seen.add(e)


class TestGuards:
    def test_gather_guard(self, testiv):
        vm = sid_of(testiv, "vm = old(s1)")
        gathers = [e for e in testiv.edges
                   if e.dst.sid == vm and e.var == "old"]
        assert gathers and all(e.guard == G_GATHER for e in gathers)

    def test_accum_self_guard(self, testiv):
        acc = sid_of(testiv, "new(s1) = new(s1)")
        self_edges = [e for e in testiv.edges
                      if e.dst.sid == acc and e.var == "new"]
        assert self_edges
        assert all(e.guard == G_ACCUM_SELF for e in self_edges)

    def test_direct_guard(self, testiv):
        cp = sid_of(testiv, "old(i) = init(i)")
        edges = [e for e in testiv.edges
                 if e.dst.sid == cp and e.var == "init"]
        assert edges and edges[0].guard == G_DIRECT

    def test_reduce_self_is_accum(self, testiv):
        red = sid_of(testiv, "sqrdiff = sqrdiff + diff*diff")
        self_edges = [e for e in testiv.edges
                      if e.dst.sid == red and e.var == "sqrdiff"]
        assert self_edges
        assert all(e.guard == G_ACCUM_SELF for e in self_edges)

    def test_localized_guard(self, testiv):
        red = sid_of(testiv, "sqrdiff = sqrdiff + diff*diff")
        diff_edges = [e for e in testiv.edges
                      if e.dst.sid == red and e.var == "diff"]
        assert diff_edges and diff_edges[0].guard == G_LOCAL

    def test_control_guard(self, testiv):
        ctl = [e for e in testiv.edges
               if e.guard == G_CONTROL and e.var == "sqrdiff"]
        assert len(ctl) >= 1  # sqrdiff feeds the convergence test

    def test_bound_guard(self, testiv):
        bounds = [e for e in testiv.edges if e.guard == G_BOUND]
        assert {"nsom", "ntri"} <= {e.var for e in bounds}

    def test_scalar_guard_sequential(self, testiv):
        # loop = loop + 1 consumes loop sequentially
        seq = [e for e in testiv.edges
               if e.var == "loop" and e.guard == G_SCALAR]
        assert seq

    def test_reduce_arg_guard(self):
        spec = PartitionSpec.parse(
            "pattern overlap-elements-2d\nextent node nsom\n"
            "extent triangle ntri\narray a node\n")
        vfg = vfg_of(
            "      subroutine t(a, nsom, ntri, s)\n"
            "      real a(100)\n      real s\n      integer i\n"
            "      s = 0.0\n"
            "      do i = 1,nsom\n"
            "         s = s + a(i)\n"
            "      end do\n"
            "      end\n", spec)
        args = [e for e in vfg.edges
                if e.var == "a" and e.guard == G_REDUCE_ARG]
        assert args


class TestInductionEscape:
    def test_escaping_induction_rejected(self):
        from repro.automata import fig6
        from repro.placement import Propagator

        spec = PartitionSpec.parse(
            "pattern overlap-elements-2d\nextent node nsom\narray a node\n")
        vfg = vfg_of(
            "      subroutine t(a, nsom, total)\n"
            "      real a(100)\n      integer total, k, i\n"
            "      k = 0\n"
            "      do i = 1,nsom\n"
            "         k = k + 1\n"
            "      end do\n"
            "      total = k\n"
            "      end\n", spec)
        with pytest.raises(PlacementError, match="induction"):
            Propagator(vfg, fig6())
