"""Integration tests for the placement engine on the paper's programs.

``TestFig9Fig10`` is the headline reproduction: both generated SPMD
programs of the paper's figures 9 and 10 must appear among the enumerated
solutions, with their domains and synchronization placements.
"""

import pytest

from repro.automata import KERNEL, OVERLAP
from repro.corpus import (
    ADVECTION_SOURCE,
    EDGE_SMOOTH_3D_SOURCE,
    FIG5_SKETCH_SOURCE,
    HEAT_SOURCE,
    JACOBI_NODE_SOURCE,
    TESTIV_SOURCE,
)
from repro.errors import LegalityError, PlacementError
from repro.lang import DoLoop, parse_subroutine, scan_directives
from repro.lang.cfg import EXIT
from repro.placement import enumerate_placements
from repro.spec import PartitionSpec, spec_for_testiv


def loops_in_order(result):
    return [s.sid for s in result.sub.walk()
            if isinstance(s, DoLoop) and s.sid in result.vfg.loops]


def domains_vector(result, rp):
    return tuple(rp.placement.domains[l] for l in loops_in_order(result))


def find_solution(result, domains):
    for rp in result.ranked:
        if domains_vector(result, rp) == tuple(domains):
            return rp
    raise AssertionError(f"no solution with domains {domains}")


@pytest.fixture(scope="module")
def testiv():
    return enumerate_placements(TESTIV_SOURCE, spec_for_testiv())


HEAT_SPEC = PartitionSpec.parse(
    "pattern overlap-elements-2d\nextent node nsom\nextent triangle ntri\n"
    "indexmap som triangle node\narray u0 node\narray u1 node\n"
    "array u node\narray rhs node\narray mass node\narray area triangle\n")

ADVECT_SPEC = PartitionSpec.parse(
    "pattern overlap-elements-2d\nextent node nsom\nextent triangle ntri\n"
    "indexmap som triangle node\narray c0 node\narray c1 node\n"
    "array c node\narray acc node\narray w triangle\n")

ESM3D_SPEC = PartitionSpec.parse(
    "pattern overlap-elements-3d\nextent node nsom\nextent edge nseg\n"
    "indexmap nubo edge node\narray v0 node\narray v1 node\n"
    "array v node\narray acc node\narray elen edge\n")

JACOBI_SPEC = PartitionSpec.parse(
    "pattern overlap-elements-2d\nextent node nsom\n"
    "array x0 node\narray x1 node\narray x node\narray b node\n")


class TestEnumeration:
    def test_sixteen_solutions(self, testiv):
        # 4 free node loops × forced triangle(OVERLAP) and reduction(KERNEL)
        assert len(testiv) == 16

    def test_solutions_distinct(self, testiv):
        sigs = {rp.placement.solution.signature() for rp in testiv.ranked}
        assert len(sigs) == 16

    def test_ranked_by_cost(self, testiv):
        costs = [rp.cost.total for rp in testiv.ranked]
        assert costs == sorted(costs)

    def test_limit(self):
        res = enumerate_placements(TESTIV_SOURCE, spec_for_testiv(), limit=3)
        assert len(res) == 3

    def test_triangle_loop_forced_overlap(self, testiv):
        tri = [l for l, e in testiv.vfg.loops.items() if e == "triangle"][0]
        assert all(rp.placement.domains[tri] == OVERLAP
                   for rp in testiv.ranked)

    def test_reduction_loop_forced_kernel(self, testiv):
        red_loop = testiv.vfg.idioms.scalar_reductions[0].loop_sid
        assert all(rp.placement.domains[red_loop] == KERNEL
                   for rp in testiv.ranked)


class TestFig9Fig10:
    """The two generated SPMD programs of the paper."""

    def test_fig9_solution_found(self, testiv):
        # figure 9: every loop on OVERLAP except the (kernel-forced)
        # reduction loop; exactly two synchronizations, grouped at the
        # convergence tests
        rp = find_solution(testiv, [OVERLAP, OVERLAP, OVERLAP, KERNEL,
                                    OVERLAP, OVERLAP])
        comms = {(c.var, c.method) for c in rp.placement.comms}
        assert comms == {("new", "overlap-som"), ("sqrdiff", "+ reduction")}
        # both anchored at the same statement: the first convergence test
        anchors = {c.anchor for c in rp.placement.comms}
        assert len(anchors) == 1
        st = rp.placement.comms[0]
        first_if = next(s for s in testiv.sub.walk() if hasattr(s, "cond"))
        assert st.anchor == first_if.sid

    def test_fig9_annotated_directives(self, testiv):
        rp = find_solution(testiv, [OVERLAP, OVERLAP, OVERLAP, KERNEL,
                                    OVERLAP, OVERLAP])
        directives = [d for _, d in scan_directives(rp.annotated)]
        assert directives == [
            "ITERATION DOMAIN: OVERLAP",
            "ITERATION DOMAIN: OVERLAP",
            "ITERATION DOMAIN: OVERLAP",
            "ITERATION DOMAIN: KERNEL",
            "SYNCHRONIZE METHOD: overlap-som ON ARRAY: NEW",
            "SYNCHRONIZE METHOD: + reduction ON SCALAR: SQRDIFF",
            "ITERATION DOMAIN: OVERLAP",
            "ITERATION DOMAIN: OVERLAP",
        ]

    def test_fig10_solution_found(self, testiv):
        # figure 10: kernel domains for the copy loops, OLD refreshed at
        # the top of each sweep, RESULT fixed at the very end
        rp = find_solution(testiv, [KERNEL, OVERLAP, OVERLAP, KERNEL,
                                    KERNEL, KERNEL])
        comms = {(c.var, c.method) for c in rp.placement.comms}
        assert comms == {("old", "overlap-som"),
                         ("sqrdiff", "+ reduction"),
                         ("result", "overlap-som")}
        by_var = {c.var: c for c in rp.placement.comms}
        assert by_var["result"].anchor == EXIT
        # the OLD update sits inside the sweep, before the triangle loop
        tri = [l for l, e in testiv.vfg.loops.items() if e == "triangle"][0]
        assert by_var["old"].anchor == tri

    def test_fig10_annotated_directives(self, testiv):
        rp = find_solution(testiv, [KERNEL, OVERLAP, OVERLAP, KERNEL,
                                    KERNEL, KERNEL])
        directives = [d for _, d in scan_directives(rp.annotated)]
        assert directives == [
            "ITERATION DOMAIN: KERNEL",
            "ITERATION DOMAIN: OVERLAP",
            "SYNCHRONIZE METHOD: overlap-som ON ARRAY: OLD",
            "ITERATION DOMAIN: OVERLAP",
            "ITERATION DOMAIN: KERNEL",
            "SYNCHRONIZE METHOD: + reduction ON SCALAR: SQRDIFF",
            "ITERATION DOMAIN: KERNEL",
            "ITERATION DOMAIN: KERNEL",
            "SYNCHRONIZE METHOD: overlap-som ON ARRAY: RESULT",
        ]

    def test_computational_statements_unchanged(self, testiv):
        # paper section 2.2: the computational part remains exactly the same
        for rp in testiv.ranked:
            code_lines = [l.strip() for l in rp.annotated.splitlines()
                          if l.strip() and not l.strip().startswith("C$")]
            assert "new(s1) = new(s1) + vm/airesom(s1)" in code_lines
            assert "sqrdiff = sqrdiff + diff*diff" in code_lines


class TestOtherPrograms:
    def test_heat_places(self):
        res = enumerate_placements(HEAT_SOURCE, HEAT_SPEC)
        assert len(res) >= 1
        best = res.best()
        # the gather of U inside the time loop demands a U update per step
        assert any(c.var == "u" for c in best.placement.comms)

    def test_advection_places_with_max_reduction(self):
        res = enumerate_placements(ADVECTION_SOURCE, ADVECT_SPEC)
        best = res.best()
        methods = {c.method for c in best.placement.comms}
        assert "max reduction" in methods

    def test_esm3d_places_on_3d_pattern(self):
        res = enumerate_placements(EDGE_SMOOTH_3D_SOURCE, ESM3D_SPEC)
        assert len(res) >= 1
        assert any(c.var == "v" for c in res.best().placement.comms)

    def test_jacobi_minimal_comms(self):
        res = enumerate_placements(JACOBI_NODE_SOURCE, JACOBI_SPEC)
        best = res.best()
        # no indirection anywhere: only the final residual reduction and
        # (for kernel-domain variants) the output update are needed
        assert {c.kind for c in best.placement.comms} <= {"reduce", "overlap"}
        assert any(c.var == "resid" for c in best.placement.comms)

    def test_fig5_sketch_places(self):
        spec = PartitionSpec.parse(
            "pattern overlap-elements-2d\nextent node nsom\n"
            "extent triangle ntri\nindexmap som triangle node\n"
            "array old node\narray new node\narray out triangle\n")
        res = enumerate_placements(FIG5_SKETCH_SOURCE, spec)
        best = res.best()
        comms = {(c.var, c.kind) for c in best.placement.comms}
        # NEW is written by scatter then read by the last triangle loop
        assert ("new", "overlap") in comms
        assert ("sqrdiff", "reduce") in comms

    def test_illegal_program_raises(self):
        spec = PartitionSpec.parse(
            "pattern overlap-elements-2d\nextent node nsom\narray a node\n")
        with pytest.raises(LegalityError):
            enumerate_placements(
                "      subroutine t(a, nsom)\n"
                "      real a(100)\n      integer i\n"
                "      do i = 1,nsom\n"
                "         a(i) = a(1)\n"
                "      end do\n"
                "      end\n", spec)


class TestSharedNodesPattern:
    """TESTIV under the figure-2 pattern (figure-7 automaton)."""

    @pytest.fixture(scope="class")
    def res(self):
        return enumerate_placements(TESTIV_SOURCE,
                                    spec_for_testiv("shared-nodes-2d"))

    def test_places(self, res):
        assert len(res) >= 1

    def test_combine_method_used(self, res):
        methods = {c.method for rp in res.ranked
                   for c in rp.placement.comms}
        assert any(m.startswith("combine-") for m in methods)

    def test_new_is_combined_before_convergence_loop(self, res):
        # under figure 2 the sqrdiff loop reads NEW per-node: partial sums
        # must be combined *before* the reduction, unlike figure 1
        best = res.best()
        by_var = {c.var: c for c in best.placement.comms
                  if c.method.startswith("combine-")}
        assert "new" in by_var
