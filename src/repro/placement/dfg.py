"""The value-flow graph the placement engine propagates overlap states over.

This is the paper's "data-flow graph" specialization: nodes are *value
sites* — statement definitions, program inputs and program outputs — and
arrows are the true/control/value dependences along which the flowing data
travels (section 3.4: anti and output dependences "do not represent the
chain of values leading to the result").

Each arrow carries a **crossing guard** telling the overlap automaton how
the value is consumed (direct read, gather, scatter self-read, reduction
operand, branch condition, …).  Guards are derived from the access
descriptors of :mod:`repro.analysis.accesses` plus the idioms of
:mod:`repro.analysis.idioms`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import compress, repeat
from operator import eq
from typing import TYPE_CHECKING, Iterator, Optional

from ..analysis.accesses import (
    CTX_BOUND,
    CTX_CONTROL,
    DIRECT,
    INDIRECT,
    INVARIANT,
    REPLICATED,
    SCALAR,
    WHOLE,
    Access,
)
from ..analysis.depgraph import TRUE, DepGraph
from ..analysis.idioms import Idioms
from ..automata.automaton import (
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
from ..errors import PlacementError
from ..lang.ast import Assign, DoLoop, Var
from ..lang.cfg import ENTRY, EXIT

if TYPE_CHECKING:
    from ..analysis.paths import PathSearch
    from .anchors import ExtractionCache

# node kinds
N_DEF = "def"
N_IN = "in"
N_OUT = "out"
N_USE = "use"   # consumer-only statements (branch conditions, calls)


@dataclass(frozen=True, order=True)
class VNode:
    """One value site of the flow graph."""

    kind: str
    sid: int       # ENTRY for inputs, EXIT for outputs
    var: Optional[str]

    @property
    def name(self) -> str:
        if self.kind == N_IN:
            return f"in:{self.var}"
        if self.kind == N_OUT:
            return f"out:{self.var}"
        if self.kind == N_USE:
            return f"use@{self.sid}"
        return f"{self.var}@{self.sid}"


@dataclass(frozen=True)
class VEdge:
    """One state-carrying dependence arrow."""

    src: VNode
    dst: VNode
    guard: str
    var: str
    #: innermost partitioned loop (sid) of the consuming access, if any
    dst_loop: Optional[int] = None
    #: the consuming access (None for output requirements)
    use: Optional[Access] = None


@dataclass
class ValueFlowGraph:
    """Value sites, state-carrying arrows, and the per-loop choice points."""

    graph: DepGraph
    idioms: Idioms
    nodes: set[VNode] = field(default_factory=set)
    edges: list[VEdge] = field(default_factory=list)
    #: partitioned loop sid -> entity
    loops: dict[int, str] = field(default_factory=dict)
    #: output variable -> its VNode
    outputs: dict[str, VNode] = field(default_factory=dict)
    #: input variable -> its VNode
    inputs: dict[str, VNode] = field(default_factory=dict)
    #: communication extraction's per-program answers; built on first use
    #: by :mod:`repro.placement.comms`
    _extraction: Optional[ExtractionCache] = field(
        default=None, repr=False, compare=False)
    #: the judge's path answers; built on first use by
    #: :mod:`repro.analysis.paths`
    _witnesses: Optional[PathSearch] = field(
        default=None, repr=False, compare=False)

    def def_nodes(self) -> list[VNode]:
        return sorted(n for n in self.nodes if n.kind == N_DEF)

    def __iter__(self) -> Iterator[VEdge]:
        return iter(self.edges)


def _def_node_of_stmt(graph: DepGraph, sid: int) -> Optional[VNode]:
    """The value node a statement's execution produces, if any."""
    sa = graph.amap.by_sid.get(sid)
    if sa is None or not sa.defs:
        st = graph.cfg.nodes.get(sid)
        if st is not None and hasattr(st, "cond"):
            return VNode(N_USE, sid, None)
        return None
    # statements in this language define exactly one variable (calls are
    # restricted to scalars by legality and get a consumer node instead)
    if len(sa.defs) > 1:
        return VNode(N_USE, sid, None)
    return VNode(N_DEF, sid, sa.defs[0].name)


def _use_guard(use: Access, graph: DepGraph, idioms: Idioms) -> str:
    """Crossing guard of the arrows into one use.

    ``G_LOCAL`` holds only for an arrow whose source defines inside the
    use's loop; from any other source the arrow is ``G_SCALAR`` (see
    :func:`_defines_in`).
    """
    dst_sid = use.sid
    if use.context == CTX_CONTROL:
        return G_CONTROL
    if use.context == CTX_BOUND:
        return G_BOUND
    red = idioms.reduction_for(dst_sid)
    in_loop = use.loop_sid is not None
    if use.mode in (SCALAR, REPLICATED):
        if in_loop:
            if red is not None and red.var == use.name:
                return G_ACCUM_SELF  # the running partial of the reduction
            if (idioms.is_localized(use.name, use.loop_sid)
                    or _is_loop_var(graph, use.loop_sid, use.name)
                    or _is_induction(idioms, use.name, use.loop_sid)):
                return G_LOCAL
            return G_SCALAR
        return G_SCALAR
    if use.mode == DIRECT:
        if red is not None:
            return G_REDUCE_ARG
        return G_DIRECT
    if use.mode == INDIRECT:
        acc = idioms.accumulation_for(dst_sid)
        if acc is not None and acc.array == use.name:
            return G_ACCUM_SELF
        return G_GATHER
    raise PlacementError(
        f"access mode {use.mode!r} of {use.name!r} cannot carry flowing data "
        f"(run the legality check first)")


def _defines_in(graph: DepGraph, sid: int, loop_sid: int) -> bool:
    """Whether statement ``sid`` defines a value inside loop ``loop_sid``."""
    sa = graph.amap.by_sid.get(sid)
    return sa is not None and any(d.loop_sid == loop_sid for d in sa.defs)


def _is_loop_var(graph: DepGraph, loop_sid: Optional[int], var: str) -> bool:
    if loop_sid is None:
        return False
    loop = graph.cfg.nodes.get(loop_sid)
    return isinstance(loop, DoLoop) and loop.var == var


def _is_induction(idioms: Idioms, var: str, loop_sid: Optional[int]) -> bool:
    return any(iv.var == var and iv.loop_sid == loop_sid
               for iv in idioms.inductions)


def build_value_flow_graph(graph: DepGraph, idioms: Idioms) -> ValueFlowGraph:
    """Construct the propagation graph from the dependence graph."""
    sub, spec, cfg = graph.sub, graph.spec, graph.cfg
    vfg = ValueFlowGraph(graph=graph, idioms=idioms)

    # partitioned loops (the search's choice points)
    for st in sub.walk():
        if isinstance(st, DoLoop):
            ent = spec.entity_of_loop(st)
            if ent is not None and st.sid in cfg.nodes:
                vfg.loops[st.sid] = ent

    def input_node(var: str) -> VNode:
        node = vfg.inputs.get(var)
        if node is None:
            node = VNode(N_IN, ENTRY, var)
            vfg.inputs[var] = node
            vfg.nodes.add(node)
        return node

    # -- true-dependence arrows: one per distinct (src, dst, var, use) row.
    # Rows of one use are distinct by source, so only a use equal to an
    # earlier one of its statement (``x = a(i) + a(i)``) repeats arrows.
    repeated: set[int] = set()
    for sa in graph.amap:
        seen: set[Access] = set()
        for u in sa.uses:
            if u in seen:
                repeated.add(id(u))
            seen.add(u)
    dst_nodes: dict[int, Optional[VNode]] = {}
    src_nodes: dict[tuple[int, str], VNode] = {}
    guards: dict[int, str] = {}
    e = graph.edges
    true_rows = compress(zip(e.src, e.dst, e.var, e.dst_access),
                         map(eq, e.kind, repeat(TRUE)))
    for src_sid, dst_sid, var, use in true_rows:
        if use is None or id(use) in repeated:
            continue
        if dst_sid in dst_nodes:
            dst = dst_nodes[dst_sid]
        else:
            dst = dst_nodes[dst_sid] = _def_node_of_stmt(graph, dst_sid)
            if dst is not None:
                vfg.nodes.add(dst)
        if dst is None:
            continue
        src = src_nodes.get((src_sid, var))
        if src is None:
            src = (input_node(var) if src_sid == ENTRY
                   else VNode(N_DEF, src_sid, var))
            src_nodes[(src_sid, var)] = src
            vfg.nodes.add(src)
        guard = guards.get(id(use))
        if guard is None:
            guard = guards[id(use)] = _use_guard(use, graph, idioms)
        if guard == G_LOCAL and not _defines_in(graph, src_sid,
                                                use.loop_sid):
            guard = G_SCALAR
        vfg.edges.append(VEdge(src=src, dst=dst, guard=guard, var=var,
                               dst_loop=use.loop_sid, use=use))

    # -- every definition is a node even without consumers ------------------
    for sa in graph.amap:
        if sa.sid not in cfg.nodes:
            continue
        node = _def_node_of_stmt(graph, sa.sid)
        if node is not None:
            vfg.nodes.add(node)

    # -- program outputs -----------------------------------------------------
    params = [p.lower() for p in sub.params]
    for var in params:
        def_sids = [s for s in graph.rdefs.sids(EXIT, var) if s != ENTRY]
        if not def_sids:
            continue
        out = VNode(N_OUT, EXIT, var)
        vfg.outputs[var] = out
        vfg.nodes.add(out)
        for dsid in def_sids:
            src = VNode(N_DEF, dsid, var)
            vfg.nodes.add(src)
            vfg.edges.append(VEdge(src=src, dst=out, guard=G_OUTPUT,
                                   var=var, dst_loop=None, use=None))
    return vfg
