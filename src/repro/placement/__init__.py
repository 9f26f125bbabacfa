"""Automatic placement of communications — the paper's contribution.

Pipeline: value-flow graph (:mod:`.dfg`) → backtracking state propagation
(:mod:`.propagate`) → communication extraction (:mod:`.comms`) → cost
ranking (:mod:`.cost`) → annotated SPMD source (:mod:`.annotate`), fronted
by :func:`enumerate_placements`.
"""

from .annotate import annotate_source, domain_directive, placement_summary
from .checkmode import check_annotated_program, parse_annotated
from .comms import (
    CommOp,
    K_COMBINE,
    K_OVERLAP,
    K_REDUCE,
    Placement,
    extract_comms,
    widen_placement,
)
from .cost import CostBreakdown, CostModel, estimate_cost, rank_placements
from .dot import vfg_to_dot
from .dfg import (
    N_DEF,
    N_IN,
    N_OUT,
    N_USE,
    VEdge,
    VNode,
    ValueFlowGraph,
    build_value_flow_graph,
)
from .engine import (
    PlacementResult,
    RankedPlacement,
    analyze,
    enumerate_placements,
)
from .propagate import Propagator, Solution
from .reduce import ReductionStats, reduce_vfg

__all__ = [
    "CommOp", "CostBreakdown", "CostModel", "K_COMBINE", "K_OVERLAP",
    "check_annotated_program", "parse_annotated",
    "K_REDUCE", "N_DEF", "N_IN", "N_OUT", "N_USE", "Placement",
    "PlacementResult", "Propagator", "RankedPlacement", "ReductionStats",
    "Solution", "VEdge", "VNode", "ValueFlowGraph", "analyze",
    "annotate_source", "build_value_flow_graph", "domain_directive",
    "enumerate_placements", "estimate_cost", "extract_comms",
    "placement_summary", "rank_placements",
    "reduce_vfg", "vfg_to_dot", "widen_placement",
]
