"""Experiment S2: tool cost and the section-5.2/6 claims.

Section 6: manual placement "typically needs several days"; the tool is
mechanical.  Section 5.2 worries the straightforward implementation "may
become expensive on large programs" and proposes reducing the dfg by
merging state-preserving dependences.  This benchmark measures:

* placement wall time vs program size (synthetic gather–scatter families);
* dependence-graph construction vs program size (the edge count grows
  with the square of the phases; the wall-clock gate is opt-in,
  ``REPRO_PERF_ASSERT=1``);
* the §5.2 dfg reduction's edge-count and search-time effect;
* how far ``loop_choices``' forced-domain filter narrows the domain
  product the search walks (against ``domains_for`` alone).
"""

import os
import time

import pytest

from conftest import emit_report
from repro.analysis import AccessMap, build_depgraph
from repro.automata import automaton_for
from repro.corpus import synthetic_source, synthetic_spec
from repro.placement import (
    Propagator,
    enumerate_placements,
    reduce_vfg,
)
from repro.lang import CFG, parse_subroutine
from repro.placement.engine import analyze

PHASES = (1, 2, 4, 8, 16)


def time_placement(n_phases: int) -> tuple[float, int]:
    src = synthetic_source(n_phases)
    start = time.perf_counter()
    result = enumerate_placements(src, synthetic_spec(), limit=4)
    elapsed = time.perf_counter() - start
    return elapsed, len(list(result.sub.walk()))


def test_scaling_with_program_size(benchmark):
    rows = benchmark.pedantic(
        lambda: [(n,) + time_placement(n) for n in PHASES],
        rounds=1, iterations=1)
    lines = [f"{'phases':>7}{'statements':>12}{'time (ms)':>11}"]
    for n, secs, stmts in rows:
        lines.append(f"{n:>7}{stmts:>12}{secs * 1e3:>11.1f}")
    base = rows[0][1] / rows[0][2]
    lines.append("")
    lines.append("(the paper's engineer 'typically needs several days'; the")
    lines.append(" tool handles a 16-phase program in milliseconds)")
    emit_report("S2 tool runtime vs program size", "\n".join(lines))
    # sanity: sub-second even for the largest family member
    assert rows[-1][1] < 2.0


def test_depgraph_scaling(benchmark):
    rows = []
    for n in (8, 16, 32):
        spec = synthetic_spec()
        sub = parse_subroutine(synthetic_source(n))
        cfg, amap = CFG.build(sub), AccessMap(sub, spec)
        best = float("inf")
        for _ in range(5):
            t0 = time.perf_counter()
            graph = build_depgraph(sub, spec, cfg, amap)
            best = min(best, time.perf_counter() - t0)
        rows.append((n, len(list(sub.walk())), len(graph.edges), best))
    benchmark.pedantic(lambda: build_depgraph(sub, spec, cfg, amap),
                       rounds=1, iterations=1)
    lines = [f"{'phases':>7}{'statements':>12}{'edges':>8}{'time (ms)':>11}"]
    for n, stmts, edges, secs in rows:
        lines.append(f"{n:>7}{stmts:>12}{edges:>8}{secs * 1e3:>11.1f}")
    lines.append("(build_depgraph given the CFG and access map, best of 5)")
    emit_report("S2 dependence graph vs program size", "\n".join(lines))
    if os.environ.get("REPRO_PERF_ASSERT"):
        assert rows[-1][3] < 0.05, rows[-1]


def test_dfg_reduction_ablation(benchmark):
    src = synthetic_source(8)
    spec = synthetic_spec()
    sub, graph, idioms, legality, vfg = analyze(src, spec)
    automaton = automaton_for(spec.pattern)
    reduced, stats = reduce_vfg(vfg, automaton)

    def search(graph_to_use):
        prop = Propagator(graph_to_use, automaton)
        return sum(1 for _ in prop.solutions(limit=32))

    def timed(graph_to_use, repeats=5):
        best = float("inf")
        count = 0
        for _ in range(repeats):
            t0 = time.perf_counter()
            count = search(graph_to_use)
            best = min(best, time.perf_counter() - t0)
        return best, count

    t_full, full_count = timed(vfg)
    t_red, red_count = timed(reduced)
    benchmark(lambda: search(reduced))

    assert full_count == red_count  # reduction preserves the solution set
    lines = [
        f"edges: {stats.edges_before} -> {stats.edges_after} "
        f"({stats.edge_ratio:.2%} kept)",
        f"search over full graph:    {t_full * 1e3:.1f} ms ({full_count} solutions)",
        f"search over reduced graph: {t_red * 1e3:.1f} ms ({red_count} solutions)",
        f"speedup from reduction:    {t_full / t_red:.2f}x",
    ]
    emit_report("S2 dfg reduction (section 5.2)", "\n".join(lines))
    assert stats.edges_after < stats.edges_before
    assert t_red < t_full  # the §5.2 optimization pays off


def test_preconstraint_pruning(benchmark):
    src = synthetic_source(6)
    spec = synthetic_spec()
    sub, graph, idioms, legality, vfg = analyze(src, spec)
    automaton = automaton_for(spec.pattern)

    def space():
        total = 1
        for _lsid, alts in Propagator(vfg, automaton).loop_choices():
            total *= len(alts)
        return total

    free = 1
    for entity in vfg.loops.values():
        free *= len(automaton.domains_for(entity))
    tight = benchmark(space)
    emit_report("S2 forced-domain preconstraint",
                f"domain assignments tried: {free} -> {tight} "
                f"({free // max(tight, 1)}x fewer)")
    assert tight < free
