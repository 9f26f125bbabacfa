"""Unit tests for access extraction and classification."""

import pytest

from repro.analysis import (
    CTX_BOUND,
    CTX_CONTROL,
    CTX_SUBSCRIPT,
    DIRECT,
    INDIRECT,
    INVARIANT,
    REPLICATED,
    SCALAR,
    WHOLE,
    AccessMap,
)
from repro.corpus import TESTIV_SOURCE
from repro.lang import Assign, DoLoop, IfGoto, parse_subroutine
from repro.spec import NODE, TRIANGLE, PartitionSpec, spec_for_testiv


@pytest.fixture
def amap():
    sub = parse_subroutine(TESTIV_SOURCE)
    return AccessMap(sub, spec_for_testiv())


def stmt_by_text(sub, fragment):
    from repro.lang import format_subroutine

    for st in sub.walk():
        if isinstance(st, Assign):
            from repro.lang.printer import format_expr

            text = f"{format_expr(st.target)} = {format_expr(st.value)}"
            if fragment in text:
                return st
    raise AssertionError(f"no statement matching {fragment!r}")


class TestTestivClassification:
    def test_direct_node_copy(self, amap):
        st = stmt_by_text(amap.sub, "old(i) = init(i)")
        sa = amap[st.sid]
        d = sa.defs[0]
        assert d.mode == DIRECT and d.entity == NODE
        use = [u for u in sa.uses if u.name == "init"][0]
        assert use.mode == DIRECT and use.entity == NODE

    def test_map_read_is_direct_on_source_entity(self, amap):
        st = stmt_by_text(amap.sub, "s1 = som(i,1)")
        sa = amap[st.sid]
        use = [u for u in sa.uses if u.name == "som"][0]
        assert use.mode == DIRECT and use.entity == TRIANGLE
        assert sa.defs[0].name == "s1" and sa.defs[0].mode == SCALAR

    def test_gather_through_id_scalar(self, amap):
        st = stmt_by_text(amap.sub, "vm = old(s1) + old(s2) + old(s3)")
        uses = [u for u in amap[st.sid].uses if u.name == "old"]
        assert len(uses) == 3
        assert all(u.mode == INDIRECT and u.via == "som" for u in uses)
        assert all(u.loop_entity == TRIANGLE for u in uses)

    def test_scatter_accumulate(self, amap):
        st = stmt_by_text(amap.sub, "new(s1) = new(s1) + vm/airesom(s1)")
        sa = amap[st.sid]
        d = sa.defs[0]
        assert d.mode == INDIRECT and d.entity == NODE and d.via == "som"
        assert d.self_update
        gather = [u for u in sa.uses if u.name == "airesom"][0]
        assert gather.mode == INDIRECT

    def test_subscript_context(self, amap):
        st = stmt_by_text(amap.sub, "new(s1) = new(s1) + vm/airesom(s1)")
        subs = [u for u in amap[st.sid].uses
                if u.name == "s1" and u.context == CTX_SUBSCRIPT]
        assert subs

    def test_reduction_statement_shape(self, amap):
        st = stmt_by_text(amap.sub, "sqrdiff = sqrdiff + diff*diff")
        d = amap[st.sid].defs[0]
        assert d.mode == SCALAR and d.self_update

    def test_branch_condition_context(self, amap):
        ifs = [s for s in amap.sub.walk() if isinstance(s, IfGoto)]
        sa = amap[ifs[0].sid]
        use = [u for u in sa.uses if u.name == "sqrdiff"][0]
        assert use.context == CTX_CONTROL

    def test_loop_bound_context(self, amap):
        loops = [s for s in amap.sub.walk() if isinstance(s, DoLoop)]
        sa = amap[loops[0].sid]
        bound = [u for u in sa.uses if u.name == "nsom"][0]
        assert bound.context == CTX_BOUND
        assert sa.defs[0].name == "i"  # loop variable def

    def test_loop_entity_recorded(self, amap):
        st = stmt_by_text(amap.sub, "old(i) = init(i)")
        assert amap[st.sid].defs[0].loop_entity == NODE


class TestOtherShapes:
    def make(self, body, extra_spec=""):
        src = ("      subroutine t(a, b, m, nsom, ntri)\n"
               "      integer nsom, ntri\n"
               "      real a(100), b(100)\n"
               "      integer m(200,3)\n"
               "      integer i, k, s\n"
               "      real x\n"
               f"{body}"
               "      end\n")
        sub = parse_subroutine(src)
        spec = PartitionSpec.parse(
            "pattern overlap-elements-2d\n"
            "extent node nsom\nextent triangle ntri\n"
            "indexmap m triangle node\n"
            "array a node\narray b node\n" + extra_spec)
        return sub, AccessMap(sub, spec)

    def test_literal_indirection(self):
        sub, amap = self.make("      do i = 1,ntri\n"
                              "         x = a(m(i,2))\n"
                              "      end do\n")
        st = [s for s in sub.walk() if isinstance(s, Assign)][0]
        use = [u for u in amap[st.sid].uses if u.name == "a"][0]
        assert use.mode == INDIRECT and use.via == "m"

    def test_invariant_element_in_loop(self):
        sub, amap = self.make("      do i = 1,nsom\n"
                              "         x = a(1)\n"
                              "      end do\n")
        st = [s for s in sub.walk() if isinstance(s, Assign)][0]
        use = [u for u in amap[st.sid].uses if u.name == "a"][0]
        assert use.mode == INVARIANT

    def test_whole_access_outside_loops(self):
        sub, amap = self.make("      x = a(5)\n")
        st = sub.body[0]
        use = [u for u in amap[st.sid].uses if u.name == "a"][0]
        assert use.mode == WHOLE

    def test_replicated_array(self):
        sub, amap = self.make(
            "      do i = 1,nsom\n"
            "         a(i) = b(i)\n"
            "      end do\n", extra_spec="")
        amap.spec.replicated.add("b")
        amap2 = AccessMap(sub, amap.spec)
        st = [s for s in sub.walk() if isinstance(s, Assign)][0]
        use = [u for u in amap2[st.sid].uses if u.name == "b"][0]
        assert use.mode == REPLICATED

    def test_id_scalar_reset_on_reassignment(self):
        sub, amap = self.make("      do i = 1,ntri\n"
                              "         s = m(i,1)\n"
                              "         s = k + 1\n"
                              "         x = a(s)\n"
                              "      end do\n")
        reads = [u for sa in amap for u in sa.uses if u.name == "a"]
        # s no longer holds node ids: access is indirect-without-map at best
        assert all(u.via is None for u in reads)

    def test_id_scalar_branch_intersection(self):
        sub, amap = self.make("      do i = 1,ntri\n"
                              "         if (x .gt. 0.0) then\n"
                              "            s = m(i,1)\n"
                              "         else\n"
                              "            s = m(i,2)\n"
                              "         end if\n"
                              "         x = a(s)\n"
                              "      end do\n")
        reads = [u for sa in amap for u in sa.uses if u.name == "a"]
        assert any(u.mode == INDIRECT and u.via == "m" for u in reads)

    def test_sequential_loop_keeps_no_partition_context(self):
        sub, amap = self.make("      do k = 1,5\n"
                              "         x = x + 1.0\n"
                              "      end do\n")
        st = [s for s in sub.walk() if isinstance(s, Assign)][0]
        assert amap[st.sid].defs[0].loop_sid is None

    def test_defs_of_and_uses_of(self, ):
        sub, amap = self.make("      do i = 1,nsom\n"
                              "         a(i) = b(i)\n"
                              "      end do\n")
        assert len([x for sa in amap for x in sa.defs if x.name == "a"]) == 1
        assert len([x for sa in amap for x in sa.uses if x.name == "b"]) == 1
        assert "a" in amap.all_names()
