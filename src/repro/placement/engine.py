"""High-level placement API: analyze → enumerate → rank → annotate.

This is the library's front door for the paper's whole section 4:

>>> from repro.corpus import TESTIV_SOURCE
>>> from repro.spec import spec_for_testiv
>>> from repro.placement import enumerate_placements
>>> result = enumerate_placements(TESTIV_SOURCE, spec_for_testiv())
>>> print(result.best().annotated)          # doctest: +SKIP
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field
from typing import Optional, Union

from ..analysis.depgraph import DepGraph, build_depgraph
from ..analysis.idioms import Idioms, detect_idioms
from ..analysis.legality import LegalityReport, check_legality
from ..automata.automaton import OverlapAutomaton
from ..automata.library import automaton_for
from ..errors import PlacementError
from ..lang.ast import Subroutine
from ..lang.parser import parse_subroutine
from ..lang.typecheck import check_types
from ..spec import PartitionSpec
from .annotate import annotate_source, placement_summary
from .comms import Placement, extract_comms
from .cost import CostBreakdown, CostModel, estimate_cost, rank_placements
from .dfg import ValueFlowGraph, build_value_flow_graph
from .propagate import Propagator, Solution
from .reduce import reduce_vfg


@dataclass
class RankedPlacement:
    """One placement with its annotated source and cost estimate."""

    placement: Placement
    annotated: str
    cost: CostBreakdown
    summary: str


@dataclass
class PlacementResult:
    """Everything the tool produced for one subroutine + spec.

    A result restored from the placement service's content-addressed
    cache (:mod:`repro.placement.serialize`) carries the ranked
    placements, the annotated sources and the output-variable set, but
    not the analysis graphs: ``automaton``, ``legality`` and ``vfg`` are
    then ``None`` and ``outputs``/``flags`` are filled from the cached
    payload instead.  :meth:`output_vars` abstracts over the two shapes.
    A restored ``ranked`` is a read-only sequence that decodes each
    placement the first time it is read.
    """

    sub: Subroutine
    spec: PartitionSpec
    automaton: Optional[OverlapAutomaton]
    legality: Optional[LegalityReport]
    vfg: Optional[ValueFlowGraph]
    ranked: Sequence[RankedPlacement] = field(default_factory=list)
    #: program outputs (vfg.outputs keys); set on cache restore where the
    #: vfg itself is not rebuilt
    outputs: Optional[frozenset[str]] = None
    #: analysis flags the artifact was produced under (e.g. split_phase)
    flags: Optional[dict] = None

    def best(self) -> RankedPlacement:
        if not self.ranked:
            raise PlacementError("no consistent placement exists")
        return self.ranked[0]

    def output_vars(self) -> frozenset[str]:
        """Output variables, from the vfg or the restored payload."""
        if self.outputs is not None:
            return self.outputs
        return frozenset(self.vfg.outputs)

    def __len__(self) -> int:
        return len(self.ranked)


def _ranked_at(result: PlacementResult, index: int) -> RankedPlacement:
    """``result.ranked[index]``, range-checked: the one check behind
    ``--index``, ``placement_index`` and the service's ``index``."""
    if not 0 <= index < len(result.ranked):
        raise PlacementError(f"placement index {index} out of range: "
                             f"{len(result.ranked)} consistent placement(s)")
    return result.ranked[index]


def ranked_result(sub: Subroutine, spec: PartitionSpec,
                  automaton: OverlapAutomaton, legality: LegalityReport,
                  vfg: ValueFlowGraph, placements: list[Placement],
                  split_phase: bool,
                  model: CostModel = CostModel()) -> PlacementResult:
    """The result over ``placements``: each with its cost, annotated text
    and summary, cheapest first."""
    ranked = [RankedPlacement(placement=placement,
                              annotated=annotate_source(sub, vfg, placement),
                              cost=cost,
                              summary=placement_summary(sub, vfg, placement))
              for placement, cost in rank_placements(vfg, placements, model)]
    return PlacementResult(sub=sub, spec=spec, automaton=automaton,
                           legality=legality, vfg=vfg, ranked=ranked,
                           outputs=frozenset(vfg.outputs),
                           flags={"split_phase": split_phase})


def analyze(source_or_sub: Union[str, Subroutine],
            spec: PartitionSpec) -> tuple[Subroutine, DepGraph, Idioms,
                                          LegalityReport, ValueFlowGraph]:
    """Front half of the pipeline: parse, dependences, idioms, legality, dfg."""
    sub = (parse_subroutine(source_or_sub)
           if isinstance(source_or_sub, str) else source_or_sub)
    check_types(sub).raise_if_errors()
    graph = build_depgraph(sub, spec)
    idioms = detect_idioms(sub, spec, graph.amap)
    legality = check_legality(sub, spec, graph, idioms)
    legality.raise_if_illegal()
    vfg = build_value_flow_graph(graph, idioms)
    return sub, graph, idioms, legality, vfg


def enumerate_placements(source_or_sub: Union[str, Subroutine],
                         spec: PartitionSpec,
                         limit: Optional[int] = None,
                         model: CostModel = CostModel(),
                         split_phase: bool = False) -> PlacementResult:
    """Run the whole tool and return all placements, cheapest first.

    The search runs over the §5.2-reduced dfg with forced loop domains
    pre-constrained; neither changes the solution set.  ``limit`` (a
    positive integer, or None for all) stops the enumeration after that
    many solutions.  ``split_phase`` widens every communication to its
    (post, wait) window so the annotated output carries
    ``C$SYNCHRONIZE POST``/``WAIT`` pairs and the ranking counts hidden
    latency; off by default, which preserves the paper's blocking
    single-directive output exactly.
    """
    sub, graph, idioms, legality, vfg = analyze(source_or_sub, spec)
    automaton = automaton_for(spec.pattern)
    search_vfg, _stats = reduce_vfg(vfg, automaton)
    prop = Propagator(search_vfg, automaton)
    placements: list[Placement] = []
    for sol in prop.solutions(limit=limit):
        comms = extract_comms(search_vfg, sol, split_phase=split_phase)
        placements.append(Placement(solution=sol, comms=comms))
    return ranked_result(sub, spec, automaton, legality, vfg, placements,
                         split_phase, model)
