"""The one module through which the harness calls into ``repro``.

Every public entry point the benchmark times is listed here, one thin
function each, called with the library's default arguments — so a PR
that renames, merges or re-signatures one of them (the ``RunConfig`` and
oracle-retirement items of ROADMAP.md) edits this file and nothing else
in the benchmark.  Nothing here passes ``transport=``, ``halo_wave=``,
``g2l`` or any other knob ROADMAP slates for removal.
"""

from __future__ import annotations

import numpy as np

from repro.analysis.commcheck import check_net
from repro.analysis.commcheck import check_placement as _check_placement
from repro.analysis.commcheck import check_schedules as _check_schedules
from repro.analysis.depgraph import build_depgraph as _build_depgraph
from repro.analysis.diagnostics import anchor_for
from repro.analysis.idioms import detect_idioms as _detect_idioms
from repro.analysis.legality import check_legality as _check_legality
from repro.analysis.mpnet import compile_placement
from repro.automata.library import automaton_for as _automaton_for
from repro.corpus import (
    ADVECTION_SOURCE,
    EDGE_SMOOTH_3D_SOURCE,
    HEAT_SOURCE,
    JACOBI_NODE_SOURCE,
    SHALLOW_SOURCE,
    SHALLOW_SPEC_TEXT,
    TESTIV_SOURCE,
    synthetic_source,
    synthetic_spec,
)
from repro.driver import pipeline as _pipeline
from repro.lang.parser import parse_subroutine
from repro.lang.typecheck import check_types
from repro.mesh import (
    build_combine_schedule,
    build_overlap_schedule,
    element_dual_edges,
    random_delaunay_mesh,
)
from repro.mesh import build_partition as _build_partition
from repro.mesh import partition_elements as _partition_elements
from repro.placement import engine as _engine
from repro.placement.annotate import annotate_source, placement_summary
from repro.placement.comms import Placement, extract_comms
from repro.placement.comms import widen_placement as _widen_placement
from repro.placement.cost import rank_placements
from repro.placement.dfg import build_value_flow_graph
from repro.placement.propagate import Propagator
from repro.placement.reduce import reduce_vfg
from repro.placement.serialize import outputs_fingerprint, result_fingerprint
from repro.runtime import (
    SPMDExecutor,
    SimComm,
    combine_update,
    overlap_update,
    parallel_time,
    sequential_time,
)
from repro.runtime import faults as _faults
from repro.service import PlacementService
from repro.spec import PartitionSpec, spec_for_testiv

__all__ = [
    "ADVECTION_SOURCE", "EDGE_SMOOTH_3D_SOURCE", "HEAT_SOURCE",
    "JACOBI_NODE_SOURCE", "SHALLOW_SOURCE", "SHALLOW_SPEC_TEXT",
    "TESTIV_SOURCE", "PartitionSpec", "automaton", "build_interpreter",
    "build_global_env", "build_partition", "check", "check_invariants",
    "check_placement", "check_schedules", "cut_edges", "dfg", "depgraph",
    "enumerate_placements", "enumerate_staged", "executor", "fault_plan",
    "gather", "halo_probe", "idioms", "legality", "model_check", "parse",
    "outputs_fingerprint", "overlap_from_ranks", "partition_elements",
    "random_delaunay_mesh", "rebalance_policy", "result_fingerprint",
    "run_pipeline", "run_sequential", "schedules", "service",
    "service_place", "sim_times", "spec_for_testiv", "spmd_run",
    "synthetic_source", "synthetic_spec", "typecheck", "widen",
]


# -- lang -----------------------------------------------------------------

def parse(source):
    return parse_subroutine(source)


def typecheck(sub):
    check_types(sub).raise_if_errors()


def build_interpreter(sub, backend):
    """``lower_subroutine`` (+ ``build_vector_kernels`` on ``"vector"``)."""
    return _pipeline.build_interpreter(sub, backend=backend)


def run_sequential(sub, env, backend, interpreter=None):
    return _pipeline.run_sequential(sub, env, backend=backend,
                                    interpreter=interpreter)


# -- analysis -------------------------------------------------------------

def depgraph(sub, spec):
    return _build_depgraph(sub, spec)


def idioms(sub, spec, graph):
    return _detect_idioms(sub, spec, graph.amap)


def legality(sub, spec, graph, idioms_):
    report = _check_legality(sub, spec, graph, idioms_)
    report.raise_if_illegal()
    return report


def check_placement(result, placement, model_check=False):
    return _check_placement(result.vfg, placement, result.automaton,
                            model_check=model_check)


def model_check(result, placement, sink):
    """The MP-net half of ``check_placement(model_check=True)``, alone."""
    if placement.comms:
        first = min(placement.comms, key=lambda op: op.wait_anchor)
        check_net(compile_placement(result.sub, placement), sink, result.sub,
                  anchor_for(result.sub, first.wait_anchor))
    return sink


def check_schedules(partition, placement, sub, sink):
    return _check_schedules(partition, placement, sub=sub, sink=sink)


# -- automata -------------------------------------------------------------

def automaton(pattern):
    return _automaton_for(pattern)


# -- placement ------------------------------------------------------------

def enumerate_placements(source, spec, limit=None):
    return _engine.enumerate_placements(source, spec, limit=limit)


def dfg(graph, idioms_):
    return build_value_flow_graph(graph, idioms_)


def enumerate_staged(span, source, spec, limit=None):
    """``enumerate_placements`` constituent by constituent, one span each.

    Mirrors :func:`repro.placement.engine.enumerate_placements`; the
    traced pass checks its ``result_fingerprint`` against the front
    door's.  ``span(name)`` is the tracer's context-manager factory.
    Returns the result and the sizes of the intermediate graphs.
    """
    with span("lang.parse_s"):
        sub = parse(source)
    with span("lang.typecheck_s"):
        typecheck(sub)
    with span("analysis.depgraph_s"):
        graph = depgraph(sub, spec)
    with span("analysis.idioms_s"):
        found = idioms(sub, spec, graph)
    with span("analysis.legality_s"):
        report = legality(sub, spec, graph, found)
    with span("placement.dfg_s"):
        vfg = dfg(graph, found)
    with span("automata.build_s"):
        auto = automaton(spec.pattern)
    with span("placement.reduce_s"):
        search_vfg, stats = reduce_vfg(vfg, auto)
    with span("placement.search_s"):
        solutions = list(Propagator(search_vfg, auto).solutions(limit=limit))
    with span("placement.comms_s"):
        placements = [Placement(solution=sol,
                                comms=extract_comms(search_vfg, sol))
                      for sol in solutions]
    with span("placement.rank_s"):
        ranked = rank_placements(vfg, placements)
    with span("placement.annotate_s"):
        result = _engine.PlacementResult(
            sub=sub, spec=spec, automaton=auto, legality=report, vfg=vfg,
            outputs=frozenset(vfg.outputs), flags={"split_phase": False})
        for placement, cost in ranked:
            result.ranked.append(_engine.RankedPlacement(
                placement=placement,
                annotated=annotate_source(sub, vfg, placement), cost=cost,
                summary=placement_summary(sub, vfg, placement)))
    sizes = {"lang.stmts": sum(1 for _ in sub.walk()),
             "analysis.depgraph_edges": len(graph.edges),
             "automata.transitions": len(auto.transitions_table()),
             "placement.dfg_edges": stats.edges_before,
             "placement.reduce_edges_kept": stats.edges_after,
             "placement.solutions": len(solutions)}
    return result, sizes


def widen(result, placement):
    return _widen_placement(result.vfg, placement)


# -- mesh -----------------------------------------------------------------

def partition_elements(mesh, nparts):
    return _partition_elements(mesh, nparts)


def overlap_from_ranks(mesh, nparts, pattern, elem_ranks):
    return _build_partition(mesh, nparts, pattern, elem_ranks=elem_ranks)


def build_partition(mesh, nparts, pattern):
    return _build_partition(mesh, nparts, pattern)


def check_invariants(partition):
    partition.check_invariants()


def schedules(partition, placement):
    """Build the wave schedule of every halo communication placed."""
    built = {}
    for op in placement.comms:
        if op.kind == "overlap":
            built[op] = build_overlap_schedule(partition, op.entity)
        elif op.kind == "combine":
            built[op] = build_combine_schedule(partition, op.entity)
    return built


def cut_edges(mesh, elem_ranks):
    pairs = element_dual_edges(mesh)
    return int((elem_ranks[pairs[:, 0]] != elem_ranks[pairs[:, 1]]).sum())


# -- runtime --------------------------------------------------------------

def executor(sub, spec, placement, partition, backend):
    return SPMDExecutor(sub, spec, placement, partition, backend=backend)


def spmd_run(ex, values, faults=None, comm_timeout=0, rebalance=None,
             recovery="global"):
    return ex.run(values, faults=faults, comm_timeout=comm_timeout,
                  rebalance=rebalance, recovery=recovery)


def gather(spmd, var):
    return spmd.gather(var)


def fault_plan(text):
    return _faults.FaultPlan.parse(text)


def rebalance_policy(partition, events):
    return _faults.rebalance_policy(partition, tuple(events))


def sim_times(seq_steps, spmd):
    """(sequential seconds, TimeBreakdown) under the default MachineModel."""
    return (sequential_time(seq_steps),
            parallel_time(spmd.rank_steps, spmd.stats))


def halo_probe(partition, op, schedule, calls):
    """``calls`` blocking halo updates of ``op`` on a fresh ``SimComm``."""
    envs = [{op.var: np.zeros(len(sub.l2g[op.entity]))}
            for sub in partition.subs]
    comm = SimComm(partition.nparts)
    update = overlap_update if op.kind == "overlap" else combine_update
    for _ in range(calls):
        update(comm, envs, op.var, schedule)


# -- driver ---------------------------------------------------------------

def build_global_env(sub, spec, mesh, fields, scalars):
    return _pipeline.build_global_env(sub, spec, mesh, fields, scalars)


def check(result, placement, partition):
    """The pipeline's pre-flight hook: commcheck + schedule checks."""
    return _pipeline.check(result, placement, partition)


def run_pipeline(source, spec, mesh, nparts, fields, scalars, backend,
                 split_phase=False):
    return _pipeline.run_pipeline(source, spec, mesh, nparts, fields=fields,
                                  scalars=scalars, backend=backend,
                                  split_phase=split_phase)


# -- service --------------------------------------------------------------

def service(cache_dir, mem_items):
    return PlacementService(cache_dir, mem_items=mem_items)


def service_place(svc, program, spec_text):
    return svc.place(program, spec_text)
