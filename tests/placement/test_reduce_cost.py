"""Unit tests for the §5.2 dfg reduction and the cost model."""

import itertools

import pytest

from repro.automata import automaton_for
from repro.corpus import HEAT_SOURCE, TESTIV_SOURCE
from repro.lang.cfg import EXIT
from repro.placement import (
    CostModel,
    Propagator,
    enumerate_placements,
    estimate_cost,
    extract_comms,
    Placement,
    rank_placements,
    reduce_vfg,
)
from repro.placement.engine import analyze
from repro.spec import PartitionSpec, spec_for_testiv


@pytest.fixture(scope="module")
def testiv_parts():
    spec = spec_for_testiv()
    sub, graph, idioms, legality, vfg = analyze(TESTIV_SOURCE, spec)
    return sub, vfg, automaton_for(spec.pattern)


class TestReduction:
    def test_reduction_shrinks_graph(self, testiv_parts):
        _, vfg, aut = testiv_parts
        reduced, stats = reduce_vfg(vfg, aut)
        assert stats.edges_after < stats.edges_before
        assert 0 < stats.edge_ratio < 1.0

    def test_reduction_preserves_solutions(self, testiv_parts):
        """Same domains must force the same updates with/without reduction."""
        _, vfg, aut = testiv_parts
        reduced, _ = reduce_vfg(vfg, aut)
        full = Propagator(vfg, aut)
        fast = Propagator(reduced, aut)
        full_sols = {s.signature() for s in full.solutions()}
        fast_sols = {s.signature() for s in fast.solutions()}
        # every update the reduced search finds is found by the full one;
        # the full graph may carry extra always-pass edges but no extra
        # update edges, so the signatures must agree exactly
        assert full_sols == fast_sols

    def test_reduction_keeps_update_capable_edges(self, testiv_parts):
        _, vfg, aut = testiv_parts
        reduced, _ = reduce_vfg(vfg, aut)
        prop = Propagator(reduced, aut)
        sol = next(prop.solutions())
        assert sol.edge_updates  # gather of OLD etc. still present

    def test_preconstrain_prunes_search(self, testiv_parts):
        _, vfg, aut = testiv_parts
        prop = Propagator(vfg, aut)
        free_space = 1
        for entity in vfg.loops.values():
            free_space *= len(aut.domains_for(entity))
        tight_space = 1
        for _, alts in prop.loop_choices():
            tight_space *= len(alts)
        assert tight_space < free_space
        # the domains the forced roles drop admit no solution anyway
        free = [dict(zip(sorted(vfg.loops), combo)) for combo in
                itertools.product(*(aut.domains_for(entity) for _, entity
                                    in sorted(vfg.loops.items())))]
        assert ({s.signature() for s in map(prop.evaluate, free) if s}
                == {s.signature() for s in prop.solutions()})


class TestCostModel:
    @pytest.fixture(scope="class")
    def result(self):
        return enumerate_placements(TESTIV_SOURCE, spec_for_testiv())

    def test_breakdown_components(self, result):
        best = result.best()
        assert best.cost.total == pytest.approx(
            best.cost.comm_alpha + best.cost.comm_beta + best.cost.compute)
        assert best.cost.comm_sites >= 1

    def test_grouping_detected_in_fig9_variant(self, result):
        # the all-OVERLAP solution anchors both syncs at the same statement
        grouped = [rp for rp in result.ranked if rp.cost.grouped_sites > 0]
        assert grouped

    def test_overlap_domains_cost_more_compute(self, result):
        from repro.automata import KERNEL, OVERLAP

        by_domains = {}
        for rp in result.ranked:
            doms = tuple(sorted(rp.placement.domains.items()))
            by_domains[doms] = rp
        all_overlap = [rp for rp in result.ranked
                       if list(rp.placement.domains.values()).count(OVERLAP) == 5]
        mostly_kernel = [rp for rp in result.ranked
                        if list(rp.placement.domains.values()).count(KERNEL) == 5]
        assert all_overlap and mostly_kernel
        assert (all_overlap[0].cost.compute
                > mostly_kernel[0].cost.compute)

    def test_alpha_dominates_when_messages_expensive(self):
        # with huge alpha, the grouped (fewer-sites) solution must win
        model = CostModel(alpha=1e9, beta=0.0, gamma=0.0)
        res = enumerate_placements(TESTIV_SOURCE, spec_for_testiv(),
                                   model=model)
        best = res.best()
        worst = res.ranked[-1]
        assert best.cost.comm_sites <= worst.cost.comm_sites
        assert len(best.placement.comm_sites()) <= len(worst.placement.comm_sites())

    def test_gamma_dominates_when_compute_expensive(self):
        model = CostModel(alpha=0.0, beta=0.0, gamma=1e6,
                          overlap_fraction=0.5)
        res = enumerate_placements(TESTIV_SOURCE, spec_for_testiv(),
                                   model=model)
        from repro.automata import KERNEL

        best_domains = list(res.best().placement.domains.values())
        # compute-bound ranking prefers kernel iteration spaces
        assert best_domains.count(KERNEL) >= 4

    def test_comms_inside_time_loop_weighted(self):
        spec = PartitionSpec.parse(
            "pattern overlap-elements-2d\nextent node nsom\n"
            "extent triangle ntri\nindexmap som triangle node\n"
            "array u0 node\narray u1 node\narray u node\narray rhs node\n"
            "array mass node\narray area triangle\n")
        res = enumerate_placements(HEAT_SOURCE, spec)
        best = res.best()
        in_loop = [c for c in best.placement.comms if c.var == "u"]
        assert in_loop
        model = CostModel()
        light = estimate_cost(res.vfg, Placement(
            solution=best.placement.solution, comms=[]), model)
        heavy = estimate_cost(res.vfg, best.placement, model)
        assert heavy.comm_alpha >= model.alpha * model.iterations
        assert heavy.total > light.total
