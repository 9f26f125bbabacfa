"""Where a communication may go: one labelling per definition set.

:mod:`repro.placement.comms` anchors an update group — definitions D, uses
U — at a program point c that answers three questions:

(i)   every D→U path crosses c;
(ii)  every ENTRY→c path crosses D (combine and reduce only);
(iii) c cannot re-execute without crossing D (combine and reduce only).

Rather than searching paths per candidate, each definition set labels the
program once and every candidate reads its answers off the labels:

* (i) is dominance in the graph rooted at a super-source that feeds D's
  successors: c crosses every D→U path iff it dominates every use the
  super-source reaches (:meth:`DefinitionLabels.crossing`);
* (ii) and (iii) are reachability in the graph without D, read off its
  strongly connected components and the set of components each one
  reaches (:meth:`DefinitionLabels.entry_reaches`,
  :meth:`DefinitionLabels.reexecutes`).

Split-phase post windows need two plain sweeps per post candidate over
the same graph (:meth:`SplitGraph.sweep`).

**Partitioned loops execute at least once** (mesh extents are positive).
The :class:`SplitGraph` makes that a property of the graph: each
partitioned header keeps its sid as the *entry copy*, whose one successor
is the body, and gains a *back copy* that the body's back edges reach and
that keeps the body and exit edges.  A path can only leave a partitioned
loop after traversing its body.  Arriving at either copy counts as
arriving at the header.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Optional

from ..lang.ast import DoLoop
from ..lang.cfg import CFG, ENTRY, dominator_tree, nearest_common_dominator

#: the super-source of a definition set's dominator tree (EXIT is -1, back
#: copies are -2 - header)
SOURCE = -2


@dataclass
class SplitGraph:
    """The CFG with each partitioned header split into an entry copy (its
    sid, body edge only) and a back copy (``back[sid]``, body and exit
    edges, reached by the loop's back edges)."""

    cfg: CFG
    succ: dict[int, tuple[int, ...]]
    pred: dict[int, list[int]]
    back: dict[int, int]
    #: back copy -> its header
    header: dict[int, int]

    @classmethod
    def build(cls, cfg: CFG, partitioned: Iterable[int]) -> "SplitGraph":
        back = {h: -2 - h for h in partitioned if cfg.nodes[h].body}
        succ: dict[int, tuple[int, ...]] = {}
        for n, targets in cfg.succ.items():
            succ[n] = tuple(back[s] if s in back
                            and n in cfg.loop_interior(s) else s
                            for s in targets)
        for h, b in back.items():
            succ[b] = succ[h]
            succ[h] = (cfg.nodes[h].body[0].sid,)
        pred: dict[int, list[int]] = {n: [] for n in succ}
        for n, targets in succ.items():
            for s in targets:
                pred[s].append(n)
        return cls(cfg=cfg, succ=succ, pred=pred, back=back,
                   header={b: h for h, b in back.items()})

    def copies(self, sid: int) -> tuple[int, ...]:
        """The nodes that stand for statement ``sid``."""
        b = self.back.get(sid)
        return (sid,) if b is None else (sid, b)

    def sweep(self, start: int, avoid: int) -> tuple[frozenset[int], bool]:
        """Statements control can arrive at after ``start`` without entering
        ``avoid``, and whether it can arrive at ``start`` again.

        ``start`` is left through its entry copy.  A ``do`` statement's
        pre-action runs once per loop *entry*, so for a ``do`` start only an
        arrival from outside the loop counts as arriving again.
        """
        cfg = self.cfg
        inside = (cfg.loop_interior(start)
                  if isinstance(cfg.nodes.get(start), DoLoop) else ())
        header = self.header
        blocked = set(self.copies(avoid))
        seen: set[int] = set()
        again = False
        queue = [start]
        while queue:
            nxt = []
            for n in queue:
                for s in self.succ[n]:
                    if s in blocked:
                        continue
                    if s == start and header.get(n, n) not in inside:
                        again = True
                    if s not in seen:
                        seen.add(s)
                        nxt.append(s)
            queue = nxt
        return frozenset({header.get(n, n) for n in seen}), again


class DefinitionLabels:
    """Every candidate's answers to (i)–(iii) for one definition set."""

    def __init__(self, graph: SplitGraph, defs: frozenset[int]):
        self.graph = graph
        self.defs = defs

    # -- (i): a dominator tree rooted at the definitions' successors --------

    @cached_property
    def _tree(self) -> tuple[dict[int, int], dict[int, int]]:
        """Immediate dominators and reverse post-order index of the graph
        rooted at :data:`SOURCE`."""
        succ, pred = self.graph.succ, self.graph.pred
        roots = tuple(dict.fromkeys(s for d in sorted(self.defs)
                                    for s in succ[d]))
        return dominator_tree(SOURCE, {**succ, SOURCE: roots},
                              {**pred, **{r: [*pred[r], SOURCE]
                                          for r in roots}})

    def crossing(self, uses: Iterable[int]) -> Optional[frozenset[int]]:
        """The statements that cross every path from a definition to one of
        ``uses`` — ``None`` when no use is reachable, so every statement
        does.  A ``do`` statement stands for its entry copy: callers refuse
        one that precedes a definition inside its own loop first, and from
        outside, a loop's back copy is reached only through its entry copy
        (the type checker refuses a ``goto`` into a loop body)."""
        idom, index = self._tree
        ncd = None
        for u in uses:
            for n in self.graph.copies(u):
                if n in idom:
                    ncd = n if ncd is None else nearest_common_dominator(
                        idom, index, ncd, n)
        if ncd is None:
            return None
        chain = set()
        while ncd != SOURCE:
            chain.add(ncd)
            ncd = idom[ncd]
        return frozenset(chain)

    # -- (ii), (iii): components of the graph without the definitions -------

    @cached_property
    def _components(self) -> tuple[dict[int, int], list[int]]:
        """Component of every node of the graph without D, and per component
        the bitset of components it reaches (itself included).

        Tarjan's algorithm completes a component only after every component
        it reaches, so each reach set is final when it is built.
        """
        succ = self.graph.succ
        removed = {n for d in self.defs for n in self.graph.copies(d)}
        index: dict[int, int] = {}
        low: dict[int, int] = {}
        comp: dict[int, int] = {}
        reach: list[int] = []
        stack: list[int] = []
        for root in succ:
            if root in index or root in removed:
                continue
            index[root] = low[root] = len(index)
            stack.append(root)
            work = [(root, iter(succ[root]))]
            while work:
                n, it = work[-1]
                for s in it:
                    if s in removed:
                        continue
                    if s not in index:
                        index[s] = low[s] = len(index)
                        stack.append(s)
                        work.append((s, iter(succ[s])))
                        break
                    if s not in comp:  # on the stack
                        low[n] = min(low[n], index[s])
                else:
                    work.pop()
                    if work:
                        p = work[-1][0]
                        low[p] = min(low[p], low[n])
                    if low[n] != index[n]:
                        continue
                    k = len(reach)
                    members = []
                    while True:
                        m = stack.pop()
                        comp[m] = k
                        members.append(m)
                        if m == n:
                            break
                    bits = 1 << k
                    for m in members:
                        for s in succ[m]:
                            c = comp.get(s, k)
                            if c != k and s not in removed:
                                bits |= reach[c]
                    reach.append(bits)
        return comp, reach

    def _reaches(self, start: int, sid: int) -> bool:
        """A path from node ``start`` to statement ``sid`` that enters no
        definition (``start`` itself outside D)."""
        comp, reach = self._components
        bits = reach[comp[start]]
        return any(n in comp and bits >> comp[n] & 1
                   for n in self.graph.copies(sid))

    def entry_reaches(self, sid: int) -> bool:
        """(ii) fails: control reaches ``sid`` from ENTRY without a
        definition."""
        return self._reaches(ENTRY, sid)

    def reexecutes(self, sid: int) -> bool:
        """(iii) fails: control re-reaches ``sid`` without a definition.

        A ``do`` statement's pre-action runs once per loop *entry*:
        iterating the loop's own body back to its header is not a
        re-execution, so the paths start at the loop's exterior
        successors.
        """
        if sid in self.defs:
            return False
        cfg = self.graph.cfg
        if isinstance(cfg.nodes.get(sid), DoLoop):
            inside = cfg.loop_interior(sid)
            starts = {s for n in inside for s in cfg.succ.get(n, ())
                      if s not in inside}
        else:
            starts = set(cfg.succ.get(sid, ()))
        return any(s not in self.defs and self._reaches(s, sid)
                   for s in starts)


@dataclass
class ExtractionCache:
    """What communication extraction learns about one program, kept on its
    value-flow graph: the split graph, the labels by definition set, the
    sweeps by ``(start, avoid)`` and the windows by update group (see
    :func:`repro.placement.comms.extract_comms`)."""

    graph: SplitGraph
    labels: dict[frozenset[int], DefinitionLabels] = field(
        default_factory=dict)
    sweeps: dict[tuple[int, int], tuple[frozenset[int], bool]] = field(
        default_factory=dict)
    windows: dict[tuple, tuple[tuple[int, int], ...]] = field(
        default_factory=dict)

    def labels_of(self, defs: frozenset[int]) -> DefinitionLabels:
        found = self.labels.get(defs)
        if found is None:
            found = self.labels[defs] = DefinitionLabels(self.graph, defs)
        return found

    def sweep(self, start: int, avoid: int) -> tuple[frozenset[int], bool]:
        """:meth:`SplitGraph.sweep`, once per ``(start, avoid)``."""
        found = self.sweeps.get((start, avoid))
        if found is None:
            found = self.sweeps[start, avoid] = self.graph.sweep(start, avoid)
        return found
