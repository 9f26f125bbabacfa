"""Unit tests for reaching definitions and the dependence graph."""

import pytest

from repro.analysis import (
    ANTI,
    CONTROL,
    OUTPUT,
    TRUE,
    AccessMap,
    build_depgraph,
    covering_writes,
    reaching_definitions,
)
from repro.corpus import TESTIV_SOURCE
from repro.lang import CFG, ENTRY, Assign, DoLoop, IfGoto, parse_subroutine
from repro.lang.printer import format_expr
from repro.spec import PartitionSpec, spec_for_testiv


def stmt_by_text(sub, fragment):
    for st in sub.walk():
        if isinstance(st, Assign):
            text = f"{format_expr(st.target)} = {format_expr(st.value)}"
            if fragment in text:
                return st
    raise AssertionError(f"no statement matching {fragment!r}")


@pytest.fixture(scope="module")
def testiv():
    sub = parse_subroutine(TESTIV_SOURCE)
    spec = spec_for_testiv()
    return build_depgraph(sub, spec)


SIMPLE_SPEC = ("pattern overlap-elements-2d\n"
               "extent node nsom\nextent triangle ntri\n"
               "indexmap m triangle node\n"
               "array a node\narray b node\n")


def small(body, spec_text=SIMPLE_SPEC):
    src = ("      subroutine t(a, b, m, nsom, ntri)\n"
           "      integer nsom, ntri\n"
           "      real a(100), b(100)\n"
           "      integer m(200,3)\n"
           "      integer i, k, s\n"
           "      real x, y\n"
           f"{body}"
           "      end\n")
    sub = parse_subroutine(src)
    return build_depgraph(sub, PartitionSpec.parse(spec_text))


class TestCoveringWrites:
    def test_testiv_covering(self, testiv):
        sub = testiv.sub
        cov = testiv.rdefs.covering
        for frag in ("old(i) = init(i)", "new(i) = 0.0",
                     "old(i) = new(i)", "result(i) = new(i)"):
            assert stmt_by_text(sub, frag).sid in cov
        # scatter accumulations never cover
        assert stmt_by_text(sub, "new(s1) = new(s1)").sid not in cov

    def test_conditional_write_does_not_cover(self):
        g = small("      do i = 1,nsom\n"
                  "         if (x .gt. 0.0) then\n"
                  "            a(i) = 0.0\n"
                  "         end if\n"
                  "      end do\n")
        assert not g.rdefs.covering

    def test_partial_range_does_not_cover(self):
        g = small("      do i = 1,k\n"
                  "         a(i) = 0.0\n"
                  "      end do\n")
        assert not g.rdefs.covering

    def test_stepped_loop_does_not_cover(self):
        g = small("      do i = 1,nsom,2\n"
                  "         a(i) = 0.0\n"
                  "      end do\n")
        assert not g.rdefs.covering


class TestTrueDeps:
    def test_input_read_edges(self, testiv):
        reads = {e.var for e in testiv if e.src == ENTRY and e.kind == TRUE}
        # program inputs actually read
        for v in ("init", "som", "airetri", "airesom", "nsom", "ntri",
                  "epsilon", "maxloop"):
            assert v in reads

    def test_gather_sees_both_old_defs(self, testiv):
        sub = testiv.sub
        gather = stmt_by_text(sub, "vm = old(s1)")
        srcs = {e.src for e in testiv if e.dst == gather.sid
                and e.kind == TRUE and e.var == "old"}
        init_copy = stmt_by_text(sub, "old(i) = init(i)").sid
        step_copy = stmt_by_text(sub, "old(i) = new(i)").sid
        assert init_copy in srcs and step_copy in srcs

    def test_covering_write_cuts_stale_defs(self, testiv):
        sub = testiv.sub
        # reads of NEW must never see the *previous* sweep's triangle-loop
        # defs: the NEW(i)=0.0 loop kills them along the back edge
        sq = stmt_by_text(sub, "diff = new(i) - old(i)")
        srcs = {e.src for e in testiv
                if e.dst == sq.sid and e.kind == TRUE and e.var == "new"}
        zero = stmt_by_text(sub, "new(i) = 0.0").sid
        accs = {stmt_by_text(sub, f"new(s{k}) = new(s{k})").sid
                for k in (1, 2, 3)}
        assert srcs <= accs | {zero}
        # the zero-trip path of the NEW(i)=0.0 loop is recorded, not an edge
        assert any(v == "new" for _, v in testiv.zero_trip_shadows)

    def test_result_reads_new(self, testiv):
        sub = testiv.sub
        res = stmt_by_text(sub, "result(i) = new(i)")
        assert any(e.var == "new" for e in testiv
                   if e.dst == res.sid and e.kind == TRUE)

    def test_no_entry_edge_for_initialized_local(self, testiv):
        sub = testiv.sub
        # vm is always written before read: no input-read of vm
        assert "vm" not in {e.var for e in testiv
                            if e.src == ENTRY and e.kind == TRUE}

    def test_uninitialized_read_shows_input_edge(self):
        g = small("      x = y + 1.0\n")
        assert "y" in {e.var for e in g if e.src == ENTRY and e.kind == TRUE}


class TestCarried:
    def test_direct_same_loop_not_carried(self, testiv):
        sub = testiv.sub
        sq = stmt_by_text(sub, "diff = new(i) - old(i)")
        edges = [e for e in testiv
                 if e.dst == sq.sid and e.kind == TRUE and e.var == "new"]
        zero_sid = stmt_by_text(sub, "new(i) = 0.0").sid
        # defs from a different loop are never "carried" by this loop
        assert all(e.carried_by is None for e in edges if e.src == zero_sid)

    def test_scatter_chain_carried(self, testiv):
        sub = testiv.sub
        acc1 = stmt_by_text(sub, "new(s1) = new(s1)")
        carried = [e for e in testiv if e.dst == acc1.sid
                   and e.var == "new" and e.carried_by is not None]
        assert carried  # accumulate statements conflict across iterations

    def test_scalar_in_partitioned_loop_carried(self):
        g = small("      do i = 1,nsom\n"
                  "         x = x + a(i)\n"
                  "      end do\n")
        red = [s for s in g.sub.walk() if isinstance(s, Assign)][0]
        self_edges = [e for e in g if e.dst == red.sid
                      and e.src == red.sid and e.var == "x"]
        assert any(e.carried_by is not None for e in self_edges)

    def test_cross_loop_not_carried(self):
        g = small("      do i = 1,nsom\n"
                  "         a(i) = 1.0\n"
                  "      end do\n"
                  "      do i = 1,nsom\n"
                  "         b(i) = a(i)\n"
                  "      end do\n")
        writes = stmt_by_text(g.sub, "a(i) = 1.0")
        reads = stmt_by_text(g.sub, "b(i) = a(i)")
        edges = [e for e in g
                 if e.dst == reads.sid and e.kind == TRUE and e.var == "a"]
        assert edges and all(e.carried_by is None for e in edges)


class TestOtherKinds:
    def test_anti_dep_read_then_overwrite(self):
        g = small("      x = a(1)\n      a(1) = 2.0\n")
        w = stmt_by_text(g.sub, "a(1) = 2.0")
        assert any(e.var == "a" for e in g
                   if e.dst == w.sid and e.kind == ANTI)

    def test_output_dep_two_writes(self):
        g = small("      x = 1.0\n      x = 2.0\n")
        second = [s for s in g.sub.walk() if isinstance(s, Assign)][1]
        assert any(e.var == "x" for e in g
                   if e.dst == second.sid and e.kind == OUTPUT)

    def test_control_dep_from_ifgoto(self, testiv):
        sub = testiv.sub
        first, second = [s for s in sub.walk() if isinstance(s, IfGoto)]
        # the first test controls whether the second one runs at all
        assert second.sid in {e.dst for e in testiv
                              if e.src == first.sid and e.kind == CONTROL}
        # the copy-back loop runs only when the *second* test falls through
        # (the controlled node is the loop header; its body hides behind the
        # zero-trip edge and is controlled transitively)
        copy = stmt_by_text(sub, "old(i) = new(i)")
        copy_loop = next(l for l in sub.walk()
                         if isinstance(l, DoLoop) and copy in l.body)
        assert copy_loop.sid in {e.dst for e in testiv
                                 if e.src == second.sid and e.kind == CONTROL}

    def test_control_dep_ifblock(self):
        g = small("      if (x .gt. 0.0) then\n"
                  "         y = 1.0\n"
                  "      end if\n")
        branch = [s for s in g.sub.walk() if hasattr(s, "then_body")][0]
        inner = stmt_by_text(g.sub, "y = 1.0")
        assert inner.sid in {e.dst for e in g
                             if e.src == branch.sid and e.kind == CONTROL}

    def test_describe_is_readable(self, testiv):
        line = testiv.edges[0].describe(testiv.sub)
        assert "->" in line
