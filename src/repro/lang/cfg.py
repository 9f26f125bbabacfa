"""Control-flow graph over statements, with dominator machinery.

Nodes are statement ids (``sid``); two virtual nodes ``ENTRY`` (0) and
``EXIT`` (-1) bracket the subroutine.  Structured constructs (``do``,
``if/then/else``) contribute their header statement as the branching node;
``goto`` / ``if () goto`` edges resolve through the label table, so the
irreducible-looking control flow of figures 9/10 (label 100 loop with two
conditional exits) is handled uniformly.

The placement engine uses dominators to choose communication insertion
points: a synchronization for a value must be placed after its definition
and at a point dominating every use that requires coherence (section 4 of
the paper derives placements from the arrow mapping ``M_a``; the dominator
rule is our deterministic realization of "somewhere between the extremities
of the data-dependence").
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Sequence

from .ast import (
    Assign,
    CallStmt,
    Continue,
    DoLoop,
    Goto,
    IfBlock,
    IfGoto,
    Return,
    Stmt,
    Stop,
    Subroutine,
)
from ..errors import AnalysisError

ENTRY = 0
EXIT = -1


def reverse_postorder(root: int, succ: Mapping[int, Sequence[int]]
                      ) -> list[int]:
    """The nodes reachable from ``root`` in reverse post-order of one
    depth-first walk taking each node's successors in ``succ`` order."""
    seen = {root}
    order: list[int] = []
    stack = [(root, iter(succ[root]))]
    while stack:
        n, it = stack[-1]
        for s in it:
            if s not in seen:
                seen.add(s)
                stack.append((s, iter(succ[s])))
                break
        else:
            order.append(n)
            stack.pop()
    order.reverse()
    return order


def nearest_common_dominator(idom: dict[int, int], index: dict[int, int],
                             a: int, b: int) -> int:
    """The deepest node of the tree ``idom`` above both ``a`` and ``b``
    (``index``: the reverse post-order :func:`dominator_tree` returns)."""
    while a != b:
        while index[a] > index[b]:
            a = idom[a]
        while index[b] > index[a]:
            b = idom[b]
    return a


def dominator_tree(root: int, succ: Mapping[int, Sequence[int]],
                   pred: Mapping[int, Sequence[int]]
                   ) -> tuple[dict[int, int], dict[int, int]]:
    """Immediate dominators of the graph reachable from ``root`` (which is
    its own) and the reverse post-order index of each of its nodes, by
    Cooper–Harvey–Kennedy's iterative algorithm.  Pass the graph reversed
    (``pred`` as ``succ``) for postdominators."""
    order = reverse_postorder(root, succ)
    index = {n: i for i, n in enumerate(order)}
    idom = {root: root}
    changed = True
    while changed:
        changed = False
        for n in order[1:]:
            new = None
            for p in pred[n]:
                if p in idom:
                    new = p if new is None else nearest_common_dominator(
                        idom, index, new, p)
            if idom.get(n) != new:
                idom[n] = new
                changed = True
    return idom, index


@dataclass
class CFG:
    """Control-flow graph of one subroutine."""

    sub: Subroutine
    nodes: dict[int, Stmt] = field(default_factory=dict)
    succ: dict[int, list[int]] = field(default_factory=dict)
    pred: dict[int, list[int]] = field(default_factory=dict)
    #: sid -> list of enclosing DoLoop sids, outermost first
    loops_of: dict[int, list[int]] = field(default_factory=dict)
    # lazily derived facts: the graph is never mutated after :meth:`build`,
    # so each is computed once per program and shared by every consumer
    _idom: dict[int, int] | None = None
    _ipdom: dict[int, int] | None = None
    _back_edges: list[tuple[int, int]] | None = None
    _natural_loops: dict[int, set[int]] | None = None
    _loops_containing: dict[int, tuple[int, ...]] | None = None
    _interiors: dict[int, frozenset[int]] = field(default_factory=dict)

    # -- construction -------------------------------------------------------

    @classmethod
    def build(cls, sub: Subroutine) -> "CFG":
        cfg = cls(sub=sub)
        for nid in (ENTRY, EXIT):
            cfg.succ[nid] = []
            cfg.pred[nid] = []
        labels: dict[int, int] = {}
        for st in sub.walk():
            cfg.nodes[st.sid] = st
            cfg.succ[st.sid] = []
            cfg.pred[st.sid] = []
            if st.label is not None:
                if st.label in labels:
                    raise AnalysisError(f"duplicate label {st.label}")
                labels[st.label] = st.sid
        cfg._link_block(sub.body, EXIT, labels, loop_stack=())
        first = sub.body[0].sid if sub.body else EXIT
        cfg._edge(ENTRY, first)
        cfg._prune_unreachable()
        return cfg

    def _edge(self, a: int, b: int) -> None:
        if b not in self.succ[a]:
            self.succ[a].append(b)
            self.pred[b].append(a)

    def _link_block(
        self,
        stmts: list[Stmt],
        follow: int,
        labels: dict[int, int],
        loop_stack: tuple[int, ...],
    ) -> None:
        """Wire statements of one block; ``follow`` is the sid after the block."""
        for i, st in enumerate(stmts):
            nxt = stmts[i + 1].sid if i + 1 < len(stmts) else follow
            self._link_stmt(st, nxt, labels, loop_stack)

    def _resolve(self, label: int, labels: dict[int, int], st: Stmt) -> int:
        try:
            return labels[label]
        except KeyError:
            raise AnalysisError(
                f"goto to undefined label {label} at line {st.line}"
            ) from None

    def _link_stmt(
        self, st: Stmt, nxt: int, labels: dict[int, int], loop_stack: tuple[int, ...]
    ) -> None:
        self.loops_of[st.sid] = list(loop_stack)
        if isinstance(st, (Assign, Continue, CallStmt)):
            self._edge(st.sid, nxt)
        elif isinstance(st, Goto):
            self._edge(st.sid, self._resolve(st.target, labels, st))
        elif isinstance(st, IfGoto):
            self._edge(st.sid, self._resolve(st.target, labels, st))
            self._edge(st.sid, nxt)
        elif isinstance(st, (Return, Stop)):
            self._edge(st.sid, EXIT)
        elif isinstance(st, DoLoop):
            inner_stack = loop_stack + (st.sid,)
            if st.body:
                self._edge(st.sid, st.body[0].sid)
                # back edge: last body statement falls through to the header
                self._link_block(st.body, st.sid, labels, inner_stack)
            else:
                self._edge(st.sid, st.sid)
            self._edge(st.sid, nxt)  # trip-count exhausted
        elif isinstance(st, IfBlock):
            if st.then_body:
                self._edge(st.sid, st.then_body[0].sid)
                self._link_block(st.then_body, nxt, labels, loop_stack)
            else:
                self._edge(st.sid, nxt)
            if st.else_body:
                self._edge(st.sid, st.else_body[0].sid)
                self._link_block(st.else_body, nxt, labels, loop_stack)
            else:
                self._edge(st.sid, nxt)
        else:  # pragma: no cover - exhaustiveness guard
            raise AnalysisError(f"cannot build CFG for {type(st).__name__}")

    def _prune_unreachable(self) -> None:
        seen = set()
        stack = [ENTRY]
        while stack:
            n = stack.pop()
            if n in seen:
                continue
            seen.add(n)
            stack.extend(self.succ[n])
        seen.add(EXIT)
        for nid in list(self.succ):
            if nid not in seen:
                for s in self.succ.pop(nid):
                    if s in self.pred:
                        self.pred[s].remove(nid)
                self.pred.pop(nid, None)
                self.nodes.pop(nid, None)

    # -- orders and dominators ----------------------------------------------

    def rpo(self) -> list[int]:
        """Reverse post-order from ENTRY (stable across calls)."""
        return reverse_postorder(ENTRY, self.succ)

    def idom(self) -> dict[int, int]:
        """Immediate dominators."""
        if self._idom is None:
            self._idom = dominator_tree(ENTRY, self.succ, self.pred)[0]
        return self._idom

    def dominates(self, a: int, b: int) -> bool:
        """True when every path ENTRY→``b`` passes through ``a``."""
        idom = self.idom()
        n = b
        while True:
            if n == a:
                return True
            if n == ENTRY or n not in idom:
                return False
            parent = idom[n]
            if parent == n:
                return n == a
            n = parent

    def dom_chain(self, n: int) -> list[int]:
        """Dominators of ``n`` from ``n`` up to ENTRY (inclusive)."""
        idom = self.idom()
        chain = [n]
        while n != ENTRY and n in idom and idom[n] != n:
            n = idom[n]
            chain.append(n)
        return chain

    def common_dominator(self, targets: list[int]) -> int:
        """Deepest node dominating every node of ``targets``."""
        if not targets:
            return ENTRY
        chain = self.dom_chain(targets[0])
        chain_set = None
        for t in targets[1:]:
            other = set(self.dom_chain(t))
            chain_set = other if chain_set is None else (chain_set & other)
        if chain_set is None:
            return targets[0]
        for n in chain:
            if n in chain_set:
                return n
        return ENTRY

    def ipdom(self) -> dict[int, int]:
        """Immediate postdominators (dominators of the reversed graph).

        Nodes on infinite paths that cannot reach EXIT are absent.
        """
        if self._ipdom is None:
            self._ipdom = dominator_tree(EXIT, self.pred, self.succ)[0]
        return self._ipdom

    def postdominates(self, a: int, b: int) -> bool:
        """True when every path ``b``→EXIT passes through ``a``."""
        ipdom = self.ipdom()
        n = b
        while True:
            if n == a:
                return True
            if n == EXIT or n not in ipdom:
                return False
            parent = ipdom[n]
            if parent == n:
                return n == a
            n = parent

    # -- simple queries -------------------------------------------------------

    def back_edges(self) -> list[tuple[int, int]]:
        """Edges (a, b) where b dominates a — natural-loop back edges."""
        if self._back_edges is None:
            self._back_edges = [(a, b) for a, succs in self.succ.items()
                                if a != ENTRY
                                for b in succs if self.dominates(b, a)]
        return self._back_edges

    def loop_interior(self, header: int) -> frozenset[int]:
        """Sids of a ``do`` loop's statements, the header included."""
        inside = self._interiors.get(header)
        if inside is None:
            inside = frozenset(s.sid for s in self.nodes[header].walk())
            self._interiors[header] = inside
        return inside

    def natural_loops(self) -> dict[int, set[int]]:
        """Natural loops by header: goto-formed cycles included.

        For each back edge (a → h) the loop body is h plus every node that
        reaches a backwards without passing h.  Loops sharing a header are
        merged.  This sees the label-100/goto-100 convergence loop of the
        paper's TESTIV, which has no ``do`` statement at all.
        """
        if self._natural_loops is not None:
            return self._natural_loops
        loops: dict[int, set[int]] = {}
        for a, h in self.back_edges():
            body = {h, a}
            stack = [a]
            while stack:
                n = stack.pop()
                if n == h:
                    continue
                for p in self.pred.get(n, ()):
                    if p not in body and p != ENTRY:
                        body.add(p)
                        stack.append(p)
            loops.setdefault(h, set()).update(body)
        self._natural_loops = loops
        return loops

    def loops_containing(self, sid: int) -> tuple[int, ...]:
        """Headers of the natural loops whose body holds ``sid``, in
        :meth:`natural_loops` order."""
        if self._loops_containing is None:
            table: dict[int, list[int]] = {}
            for header, body in self.natural_loops().items():
                for n in body:
                    table.setdefault(n, []).append(header)
            self._loops_containing = {n: tuple(hs) for n, hs in table.items()}
        return self._loops_containing.get(sid, ())
