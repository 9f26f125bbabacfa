"""Legality checking of a user partitioning — paper figure 4 / section 3.2.

"A loop partitioning provided by the user is acceptable if no dependence
(remaining after induction and reduction detection, and localization) is
carried across the iterations of the partitioned loop.  This checking, when
performed manually, is an important source of errors.  An important feature
of our tool is that it checks all dependences automatically."

Case mapping (figure 4 letters; the report labels each violation):

=====  ======================================================================
case   situation
=====  ======================================================================
``a``  true dependence carried across iterations of one partitioned loop
``c``  anti dependence carried across iterations of one partitioned loop
``d``  output/control dependence carried across iterations of one loop
``b``  dependence inside a single iteration — respected
``e``  dependence within sequential (non-partitioned) code — respected
``f``  dependence from one partitioned loop to a later one — respected,
       because a communication orders them
``g``  dependence into/out of a *particular, explicit* partitioned
       iteration (explicit or loop-invariant element index) — forbidden
       except for reductions
``h``  sequential code → partitioned loop — respected
``i``  partitioned loop → sequential code — respected (communication)
=====  ======================================================================
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from itertools import chain, compress, repeat
from operator import is_not
from typing import Optional

from ..errors import LegalityError
from ..lang.ast import DoLoop, Subroutine
from ..lang.cfg import ENTRY
from ..spec import PartitionSpec
from .accesses import INVARIANT, WHOLE, Access
from .depgraph import ANTI, OUTPUT, TRUE, DepEdge, DepGraph, build_depgraph
from .idioms import Idioms, detect_idioms


@dataclass(frozen=True)
class Violation:
    """One dependence that forbids the requested partitioning."""

    case: str  # figure-4 letter
    edge: DepEdge
    reason: str

    def describe(self, sub: Subroutine) -> str:
        return f"case {self.case}: {self.reason} ({self.edge.describe(sub)})"


@dataclass
class LegalityReport:
    """Outcome of checking one subroutine against one spec."""

    sub: Subroutine
    spec: PartitionSpec
    graph: DepGraph
    idioms: Idioms
    violations: list[Violation] = field(default_factory=list)
    #: carried edges removed by an idiom, with the idiom family name
    discharged: list[tuple[DepEdge, str]] = field(default_factory=list)
    #: classification of every edge into a figure-4 case letter
    cases: dict[str, int] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.violations

    def raise_if_illegal(self) -> None:
        if self.violations:
            lines = [v.describe(self.sub) for v in self.violations]
            raise LegalityError(
                "partitioning is illegal:\n  " + "\n  ".join(lines),
                violations=self.violations)

    def summary(self) -> str:
        parts = [f"{k}:{v}" for k, v in sorted(self.cases.items())]
        state = "LEGAL" if self.ok else f"ILLEGAL ({len(self.violations)} violations)"
        return f"{state}  [{' '.join(parts)}]  discharged={len(self.discharged)}"

    def diagnostics(self) -> list:
        """The violations as CC009 :class:`~.diagnostics.Diagnostic`s.

        Bridges the figure-4 report into the shared diagnostic format so
        ``repro lint`` renders legality failures alongside commcheck
        findings (the case letter rides in ``data``).
        """
        from .diagnostics import Diagnostic, anchor_for

        out = []
        for v in self.violations:
            anchors = tuple(anchor_for(self.sub, s)
                            for s in dict.fromkeys((v.edge.src, v.edge.dst))
                            if s != ENTRY)
            out.append(Diagnostic(
                code="CC009", var=v.edge.var,
                message=v.describe(self.sub),
                anchors=anchors,
                data={"case": v.case, "kind": v.edge.kind}))
        return out


def _discharge_table(idioms: Idioms
                     ) -> dict[tuple[int, str], list[tuple[str, Optional[frozenset]]]]:
    """(loop, var) -> the idioms that may discharge a carried edge there.

    Each entry is ``(family, sids)``: the edge is discharged when both of
    its endpoints lie in ``sids`` (``None``: any endpoints).  Entries are
    in the order the families are tried — reduction, accumulation,
    induction, localization — so the first match names the edge.
    """
    table: dict[tuple[int, str], list] = {}
    for r in idioms.scalar_reductions:
        table.setdefault((r.loop_sid, r.var), []).append(
            ("reduction", frozenset(r.sids)))
    for a in idioms.array_accumulations:
        table.setdefault((a.loop_sid, a.array), []).append(
            ("accumulation", frozenset(a.sids)))
    for iv in idioms.inductions:
        table.setdefault((iv.loop_sid, iv.var), []).append(
            ("induction", frozenset((iv.sid,))))
    for loc in idioms.localized:
        table.setdefault((loc.loop_sid, loc.var), []).append(
            ("localization", None))
    return table


def _where(acc: Optional[Access]):
    """Where an access sits, as far as an uncarried edge's case goes: "g"
    for an explicit element of a partitioned array, else its partitioned
    loop (None outside one)."""
    if acc is None:
        return None
    if acc.entity is not None and acc.mode in (INVARIANT, WHOLE):
        return "g"
    return acc.loop_sid


def _case(src_in, dst_in) -> str:
    """Figure-4 case letter of an edge carried by no loop, from the
    :func:`_where` of its two ends."""
    if src_in == "g" or dst_in == "g":
        return "g"
    if src_in is not None and dst_in is not None:
        return "b" if src_in == dst_in else "f"
    if src_in is None and dst_in is None:
        return "e"
    return "h" if src_in is None else "i"


def _uncarried_cases(graph: DepGraph) -> Counter:
    """Case counts of the edges no loop carries, input reads excluded
    (program inputs are given, so reading them is always fine).

    Their case depends only on the :func:`_where` pair of their ends, so
    the rows are counted by that pair — nothing is built per row — and
    each distinct pair is classified once.
    """
    where = {id(None): None}
    for sa in graph.amap:
        for acc in chain(sa.defs, sa.uses):
            where[id(acc)] = _where(acc)
    e = graph.edges
    pairs: dict[tuple, int] = {}
    for src, src_acc, dst_acc, loop in zip(e.src, e.src_access, e.dst_access,
                                           e.carried_by):
        if src != ENTRY and loop is None:
            key = (where[id(src_acc)], where[id(dst_acc)])
            pairs[key] = pairs.get(key, 0) + 1
    cases: Counter = Counter()
    for (src_in, dst_in), n in pairs.items():
        cases[_case(src_in, dst_in)] += n
    return cases


_CARRIED_CASE = {TRUE: "a", ANTI: "c"}  # output and control: "d"


def check_legality(sub: Subroutine, spec: PartitionSpec,
                   graph: Optional[DepGraph] = None,
                   idioms: Optional[Idioms] = None) -> LegalityReport:
    """Classify every dependence and collect the forbidden ones."""
    spec.validate(sub)
    if graph is None:
        graph = build_depgraph(sub, spec)
    if idioms is None:
        idioms = detect_idioms(sub, spec, graph.amap)
    report = LegalityReport(sub=sub, spec=spec, graph=graph, idioms=idioms)
    cases = _uncarried_cases(graph)

    # the carried rows, each discharged by an idiom or a violation; none
    # is an input read (the input site has no access to carry it)
    discharge = _discharge_table(idioms)
    e = graph.edges
    for i in compress(range(len(e)), map(is_not, e.carried_by, repeat(None))):
        src, dst, var = e.src[i], e.dst[i], e.var[i]
        for family, sids in discharge.get((e.carried_by[i], var), ()):
            if sids is None or (src in sids and dst in sids):
                report.discharged.append((e[i], family))
                break
        else:
            kind = e.kind[i]
            case = _CARRIED_CASE.get(kind, "d")
            cases[case] += 1
            report.violations.append(Violation(
                case=case, edge=e[i],
                reason=f"{kind} dependence on {var!r} carried "
                       f"across iterations of a partitioned loop"))
    report.cases = dict(cases)
    _access_violations(report)
    return report


def _access_violations(report: LegalityReport) -> None:
    """The violations that are properties of an access, not of an edge."""
    sub, spec, graph = report.sub, report.spec, report.graph
    # case g is a property of the *access*, not of a dependence edge: an
    # explicit/invariant element index into a partitioned array names a
    # particular partitioned iteration, which SPMD ranks cannot relate to
    # their local numbering (input reads have no non-ENTRY edge, so an
    # edge-based check would miss them)
    for sa in graph.amap:
        for acc in list(sa.defs) + list(sa.uses):
            if acc.entity is not None and acc.mode in (INVARIANT, WHOLE):
                report.cases["g"] = report.cases.get("g", 0) + 1
                report.violations.append(Violation(
                    case="g",
                    edge=DepEdge(kind=TRUE, src=sa.sid, dst=sa.sid,
                                 var=acc.name, dst_access=acc),
                    reason=f"explicit element access to partitioned array "
                           f"{acc.name!r} names a particular partitioned "
                           f"iteration"))

    # a replicated array written inside a partitioned loop diverges: each
    # processor updates only the elements its iterations touch, so the
    # "replicated" copies stop being identical
    for sa in graph.amap:
        for acc in sa.defs:
            if acc.mode == "replicated" and acc.loop_sid is not None:
                report.violations.append(Violation(
                    case="a",
                    edge=DepEdge(kind=OUTPUT, src=sa.sid, dst=sa.sid,
                                 var=acc.name, dst_access=acc),
                    reason=f"replicated array {acc.name!r} written inside a "
                           f"partitioned loop (copies would diverge)"))

    # a partitioned loop's index used as a *value* relates parallel
    # iteration numbers to original ones — impossible in SPMD (case g:
    # "we have no way to relate parallel iteration numbers to original
    # ones"); subscript uses are fine (local numbering is consistent)
    for st in sub.walk():
        if not isinstance(st, DoLoop) or spec.entity_of_loop(st) is None:
            continue
        for inner in list(st.walk())[1:]:
            sa = graph.amap.by_sid.get(inner.sid)
            if sa is None:
                continue
            for acc in sa.uses:
                if acc.name == st.var and acc.context == "value" \
                        and acc.loop_sid == st.sid:
                    report.violations.append(Violation(
                        case="g",
                        edge=DepEdge(kind=TRUE, src=st.sid, dst=inner.sid,
                                     var=st.var, dst_access=acc),
                        reason=f"partitioned loop index {st.var!r} used as a "
                               f"value (parallel iteration numbers cannot be "
                               f"related to original ones)"))
