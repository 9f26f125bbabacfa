"""The data-dependence graph ("dfg") with the paper's five dependence kinds.

Nodes are statement sids plus the virtual input node ``ENTRY``; edges carry
a kind in {``true``, ``anti``, ``output``, ``control``}, the variable, the
definition/use access descriptors, and — when both endpoints sit in the
same partitioned loop — whether the dependence is *potentially carried*
across that loop's iterations (the property figure 4 classifies).

The paper's fifth kind, the **value** dependence (operand → operation), is
intra-statement; at our statement granularity it fuses into the true edge,
whose ``use`` access descriptor records the consuming context (value /
control / bound / subscript).  The overlap automaton's thin-arrow
transitions key off that context, so nothing is lost — see DESIGN.md.

Carried-dependence classification (conservative):

* two ``direct`` accesses in the same partitioned loop always address the
  same iteration's element → loop-independent;
* any ``indirect``/``invariant`` endpoint may touch another iteration's
  element → potentially carried;
* scalar accesses inside a partitioned loop are always potentially
  carried (every iteration shares the cell) — it is exactly the job of
  localization/reduction/induction detection (:mod:`repro.analysis.idioms`)
  to discharge the benign ones.

Storage.  The edge set is a :class:`EdgeTable`: seven parallel columns
(``kind``, ``src``, ``dst``, ``var``, ``src_access``, ``dst_access``,
``carried_by``), row ``i`` being one dependence.  Rows are emitted from
the reaching bitsets of :mod:`repro.analysis.reaching`: the true and
output edges statement by statement in sid order, then the anti edges
the same way, then the control edges.  The sources of one access come in
ascending sid order, so the table is the same in every process.  A
:class:`DepEdge` is built only when a row is asked for (indexing,
iteration, the selection methods); the legality check and the value-flow
graph read the columns.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field
from typing import Iterator, NamedTuple, Optional

from ..lang.ast import IfBlock, IfGoto, Subroutine
from ..lang.cfg import CFG, ENTRY, EXIT
from ..spec import PartitionSpec
from .accesses import CTX_CONTROL, DIRECT, Access, AccessMap
from .reaching import ReachingDefs, reaching_definitions, reaching_uses, set_bits

TRUE = "true"
ANTI = "anti"
OUTPUT = "output"
CONTROL = "control"


class DepEdge(NamedTuple):
    """One dependence between two statements (or from the input node).

    A named tuple: one is built per row asked for, so it must be cheap.
    """

    kind: str
    src: int
    dst: int
    var: Optional[str] = None
    #: access descriptor at the defining end (true/output) or reading end (anti)
    src_access: Optional[Access] = None
    #: access descriptor at the consuming end
    dst_access: Optional[Access] = None
    #: sid of the partitioned loop across whose iterations this may be carried
    carried_by: Optional[int] = None

    def describe(self, sub: Subroutine) -> str:
        """Human-readable one-liner for diagnostics."""
        def at(sid: int) -> str:
            if sid == ENTRY:
                return "<input>"
            return f"line {sub.stmt(sid).line}"
        tail = f" on {self.var}" if self.var else ""
        carried = (f" carried by loop at {at(self.carried_by)}"
                   if self.carried_by else "")
        return f"{self.kind}{tail}: {at(self.src)} -> {at(self.dst)}{carried}"


class EdgeTable(Sequence):
    """The edge set as columns; row ``i`` of every column is one edge.

    A sized sequence of :class:`DepEdge`: indexing and iteration build
    the edge objects on demand.
    """

    __slots__ = ("kind", "src", "dst", "var", "src_access", "dst_access",
                 "carried_by")

    def __init__(self) -> None:
        self.kind: list[str] = []
        self.src: list[int] = []
        self.dst: list[int] = []
        self.var: list[Optional[str]] = []
        self.src_access: list[Optional[Access]] = []
        self.dst_access: list[Optional[Access]] = []
        self.carried_by: list[Optional[int]] = []

    def __len__(self) -> int:
        return len(self.kind)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [self[j] for j in range(*i.indices(len(self)))]
        return DepEdge(self.kind[i], self.src[i], self.dst[i], self.var[i],
                       self.src_access[i], self.dst_access[i],
                       self.carried_by[i])

    def __iter__(self) -> Iterator[DepEdge]:
        return map(DepEdge, self.kind, self.src, self.dst, self.var,
                   self.src_access, self.dst_access, self.carried_by)

    def select(self, rows) -> list[DepEdge]:
        return [self[i] for i in rows]

    def _append(self, kind: str, dst: int, var: Optional[str],
             dst_access: Optional[Access], srcs: list[int],
             src_accesses: list[Optional[Access]],
             carried: list[Optional[int]]) -> None:
        """Append one row per source, all into ``dst``."""
        n = len(srcs)
        self.kind += [kind] * n
        self.src += srcs
        self.dst += [dst] * n
        self.var += [var] * n
        self.src_access += src_accesses
        self.dst_access += [dst_access] * n
        self.carried_by += carried


@dataclass
class DepGraph:
    """Dependence graph of one subroutine under one partitioning spec."""

    sub: Subroutine
    spec: PartitionSpec
    cfg: CFG
    amap: AccessMap
    rdefs: ReachingDefs
    edges: EdgeTable = field(default_factory=EdgeTable)
    #: (sid, var) pairs where a local's input value *may* reach a read, but
    #: only along a zero-trip-loop path shadowing a real definition; these
    #: are dropped from the graph under the positive-extent assumption
    zero_trip_shadows: list[tuple[int, str]] = field(default_factory=list)

    def by_kind(self, kind: str) -> list[DepEdge]:
        e = self.edges
        return e.select(i for i, k in enumerate(e.kind) if k == kind)

    def __iter__(self) -> Iterator[DepEdge]:
        return iter(self.edges)


class _Sources:
    """The rows into one access from the sites of one reaching bitset.

    ``rows(bits, acc)`` is the sids and accesses of ``bits``' sites and,
    per site, the partitioned loop the dependence between its access and
    ``acc`` may be carried by: two accesses in one partitioned loop
    conflict across its iterations unless both are ``direct`` (same
    element, same iteration).  Each bitset is decoded once.
    """

    def __init__(self, sids: list[int], accesses: list[Optional[Access]]):
        self._sids = sids
        self._accesses = accesses
        self._decoded: dict[int, tuple[list[int], list]] = {}
        self._carried: dict[tuple[int, int, bool], list[Optional[int]]] = {}

    def rows(self, bits: int, acc: Access
             ) -> tuple[list[int], list, list[Optional[int]]]:
        decoded = self._decoded.get(bits)
        if decoded is None:
            idx = set_bits(bits)
            decoded = self._decoded[bits] = ([self._sids[i] for i in idx],
                                             [self._accesses[i] for i in idx])
        sids, accesses = decoded
        loop = acc.loop_sid
        if loop is None:
            return sids, accesses, [None] * len(sids)
        direct = acc.mode == DIRECT
        key = (bits, loop, direct)
        carried = self._carried.get(key)
        if carried is None:
            carried = self._carried[key] = [
                loop if a is not None and a.loop_sid == loop
                and not (direct and a.mode == DIRECT) else None
                for a in accesses]
        return sids, accesses, carried


def build_depgraph(sub: Subroutine, spec: PartitionSpec,
                   cfg: Optional[CFG] = None,
                   amap: Optional[AccessMap] = None) -> DepGraph:
    """Compute the full dependence graph for ``sub`` under ``spec``."""
    if cfg is None:
        cfg = CFG.build(sub)
    if amap is None:
        amap = AccessMap(sub, spec)
    rdefs = reaching_definitions(cfg, amap)
    ruses = reaching_uses(cfg, amap, rdefs)
    g = DepGraph(sub=sub, spec=spec, cfg=cfg, amap=amap, rdefs=rdefs)
    edges = g.edges

    # each site's access: the last def of its variable at a definition
    # site, the first use at a use site (none at the input sites)
    def_access: list[Optional[Access]] = [None] * len(rdefs.sites)
    use_access: list[Optional[Access]] = [None] * len(ruses.sites)
    for sa in amap:
        for d in sa.defs:
            i = rdefs.index.get((sa.sid, d.name))
            if i is not None:
                def_access[i] = d
        for u in reversed(sa.uses):
            i = ruses.index.get((sa.sid, u.name))
            if i is not None:
                use_access[i] = u
    defs = _Sources([s for s, _ in rdefs.sites], def_access)
    uses = _Sources([s for s, _ in ruses.sites], use_access)
    inputs = rdefs.inputs
    dmasks = rdefs.masks
    umasks = ruses.masks

    # --- true and output dependences from reaching definitions -------------
    params = {p.lower() for p in sub.params}
    for sid in cfg.nodes:
        sa = amap.by_sid.get(sid)
        if sa is None:
            continue
        reach = rdefs.ins[sid]
        for u in sa.uses:
            bits = reach & dmasks[u.name]
            if bits & inputs and bits & ~inputs and u.name not in params:
                # a local's input "value" reaching only through the
                # zero-trip path of a loop that otherwise (re)defines
                # it; mesh extents are positive, so drop the edge
                g.zero_trip_shadows.append((sid, u.name))
                bits &= ~inputs
            if bits:
                edges._append(TRUE, sid, u.name, u, *defs.rows(bits, u))
        for d in sa.defs:
            # overwriting the input is not a constraint
            bits = reach & dmasks[d.name] & ~inputs
            if bits:
                edges._append(OUTPUT, sid, d.name, d, *defs.rows(bits, d))

    # --- anti dependences from reaching uses --------------------------------
    for sid in cfg.nodes:
        sa = amap.by_sid.get(sid)
        if sa is None:
            continue
        reach = ruses.ins[sid]
        for d in sa.defs:
            bits = reach & umasks.get(d.name, 0)
            if bits:
                edges._append(ANTI, sid, d.name, d, *uses.rows(bits, d))

    # --- control dependences (Ferrante-style via postdominators) -----------
    for b, st in cfg.nodes.items():
        if not isinstance(st, (IfGoto, IfBlock)):
            continue
        sa = amap.by_sid.get(b)
        ctrl = [u for u in sa.uses if u.context == CTX_CONTROL] if sa else []
        ca = ctrl[0] if ctrl else None
        for dst in _controlled_statements(cfg, b):
            edges._append(CONTROL, dst, None, None, [b], [ca], [None])
    return g


def _controlled_statements(cfg: CFG, branch: int) -> list[int]:
    """Statements control-dependent on ``branch``.

    ``s`` is control dependent on ``branch`` iff ``branch`` has a successor
    ``x`` with ``s`` postdominating ``x`` (or ``s == x``) while ``s`` does
    not postdominate ``branch`` itself.
    """
    out: set[int] = set()
    for x in cfg.succ.get(branch, ()):
        if x == EXIT:
            continue
        for s in cfg.nodes:
            if s == branch:
                continue
            if (s == x or cfg.postdominates(s, x)) \
                    and not cfg.postdominates(s, branch):
                out.add(s)
    return sorted(out)
