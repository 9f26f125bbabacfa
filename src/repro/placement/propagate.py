"""Overlap-state propagation as tables — paper section 4.

The paper propagates the flowing data's state through the dfg with a
nondeterministic, backtracking pair ``cross_node``/``cross_arrow``,
requiring one state per node, cycle-consistency, and given input/output
states.  Our value-flow formulation sharpens this picture: once an
iteration **domain** (KERNEL/OVERLAP) is chosen for every partitioned loop,
every definition's state is *locally determined* (a direct write's
coherence depends only on its loop's domain, a scatter always leaves stale
overlap, a reduction always leaves partials), and every arrow crossing is
deterministic under the lazy-update rule (communicate exactly when the
automaton forbids the plain crossing).  The nondeterminism of the paper's
algorithm therefore collapses onto the domain choices: the search is a
pairwise constraint problem over loop domains, and each consistent
assignment yields one mapping pair (``M_n``: node → state, ``M_a``: arrow
→ transition/Update), i.e. one solution of figure 9/10 kind.

``cross_node`` and ``cross_arrow`` are therefore table rows, each computed
once per program whatever the number of solutions:

* ``cross_node`` — one **site row** per value site: a definition's state
  under each domain of the one partitioned loop :meth:`Propagator.def_state`
  reads, or ``None`` where the pattern admits no state.  Inputs, outputs
  and replicated scalars are constants.
* ``cross_arrow`` — one **arrow row** per dfg arrow: the crossing (plain,
  an ``Update``, or the paper's "no applicable transition" dead end) for
  each pair of (source-loop, destination-loop) domains.

That is at most 2·|defs| + 4·|edges| automaton queries.  A forward-checked
depth-first search then runs over the rows, trying OVERLAP before KERNEL
for each loop: a branch dies as soon as a site row, or an arrow row whose
later loop was just assigned, rules it out, and each surviving leaf is
assembled from rows (``M_n`` from per-loop row dicts, ``M_a`` from the
rows that carry an Update).  :meth:`Propagator.evaluate` is the same search
over one assignment.  The search is iterative (the paper: "For efficiency,
recursive functions have been implemented iteratively").

Rows keep the order in which a walk of one candidate would visit them
(sites in the graph's order, then arrows last first, then outputs): when
several rows rule a candidate out the first one decides, and a query that
raised raises where that walk would have.

Cycle-consistency (the paper's "the propagated state must be identical on
each visit") holds by construction: states do not depend on predecessor
states, only on domains, so revisiting a node along a dfg cycle always
sees the same state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product
from operator import itemgetter
from typing import Hashable, Iterator, Optional

from ..analysis.accesses import DIRECT, INDIRECT
from ..analysis.depgraph import DepGraph
from ..analysis.idioms import Idioms
from ..automata.automaton import (
    G_LOCAL,
    OVERLAP,
    OverlapAutomaton,
    Update,
)
from ..automata.state import SCA0, State, coherent
from ..errors import PlacementError
from .dfg import N_DEF, N_IN, VEdge, VNode, ValueFlowGraph

#: a site or arrow admitting no transition under the key's domains
_DEAD = object()
#: the key of a loop the assignment leaves out
_ABSENT = object()
#: the loop of a row that reads no domain (never a key of an assignment)
_NO_LOOP = object()
_MISSING = object()


def _fails(outcome) -> bool:
    return outcome is _DEAD or isinstance(outcome, Exception)


@dataclass
class Solution:
    """One consistent (M_n, M_a) pair: a communication placement."""

    #: partitioned loop sid -> KERNEL | OVERLAP
    domains: dict[int, str]
    #: M_n — value-site node -> overlap state
    states: dict[VNode, State]
    #: M_a restricted to Update arrows — edge -> the communication it forces
    edge_updates: dict[VEdge, Update]

    def updates_by_var(self) -> dict[tuple[str, str], list[VEdge]]:
        """Group update edges by (variable, method)."""
        out: dict[tuple[str, str], list[VEdge]] = {}
        for edge, up in self.edge_updates.items():
            out.setdefault((edge.var, up.method), []).append(edge)
        return out

    def signature(self) -> tuple:
        """Hashable identity of the solution (for dedup/comparison)."""
        doms = tuple(sorted(self.domains.items()))
        ups = tuple(sorted((e.src.name, e.dst.name, u.method)
                           for e, u in self.edge_updates.items()))
        return (doms, ups)


class _Row:
    """One table row: its place in the walk order, the loops whose domains
    it reads, and its outcome per key of those domains — a state, an
    ``Update`` or ``None``, ``_DEAD``, or the exception the query raised.
    Cells are computed on first read.  A subclass says which key an
    assignment gives the row (``key``) and asks the automaton (``query``).
    """

    __slots__ = ("pos", "site", "loops", "prop", "cells")

    def __init__(self, pos: int, site, loops: tuple, prop: "Propagator"):
        self.pos = pos
        self.site = site
        self.loops = loops
        self.prop = prop
        self.cells: dict = {}

    def get(self, key: Hashable):
        out = self.cells.get(key, _MISSING)
        if out is _MISSING:
            try:
                out = self.query(key)
            except Exception as exc:  # raised when a candidate reaches it
                out = exc
            self.cells[key] = out
        return out

    def at(self, domains: dict):
        return self.get(self.key(domains))


class _SiteRow(_Row):
    """cross_node: the state at a value site per domain of its one loop."""

    __slots__ = ()

    def key(self, domains: dict) -> Hashable:
        return domains.get(self.loops[0], _ABSENT)

    def query(self, key: Hashable):
        node = self.site
        if node.kind == N_IN:
            return self.prop.input_state(node.var)
        state = self.prop.def_state(node, {} if key is _ABSENT
                                    else {self.loops[0]: key})
        return _DEAD if state is None else state


class _ArrowRow(_Row):
    """cross_arrow: the crossing of an arrow per (source, destination)
    domain pair."""

    __slots__ = ("src",)

    def __init__(self, pos: int, edge: VEdge, src: Optional[_SiteRow],
                 prop: "Propagator"):
        dst = (edge.dst_loop,) if edge.dst_loop else ()
        super().__init__(pos, edge, src.loops + dst if src else (), prop)
        self.src = src

    def key(self, domains: dict) -> Hashable:
        if self.src is None:
            return None
        dst = self.site.dst_loop
        return self.src.key(domains), domains.get(dst) if dst else None

    def query(self, key: Hashable):
        if self.src is None:  # not a site the walk assigns a state
            raise KeyError(self.site.src)
        state = self.src.get(key[0])
        if _fails(state):
            return None  # the walk stops at the source's row first
        deliveries = self.prop.automaton.deliver(state, self.site.guard,
                                                 key[1])
        return deliveries[0].update if deliveries else _DEAD


class _OutputRow(_Row):
    """The given state of a program output."""

    __slots__ = ()

    def key(self, domains: dict) -> Hashable:
        return _ABSENT

    def query(self, key: Hashable):
        ent = self.prop.spec.entity_of_array(self.site.var)
        return coherent(ent) if ent else SCA0


class Propagator:
    """Evaluates and enumerates solutions over one value-flow graph."""

    def __init__(self, vfg: ValueFlowGraph, automaton: OverlapAutomaton):
        self.vfg = vfg
        self.automaton = automaton
        self.graph: DepGraph = vfg.graph
        self.idioms: Idioms = vfg.idioms
        self.spec = vfg.graph.spec
        self._check_induction_escapes()

    # -- choice points ---------------------------------------------------------

    def loop_choices(self) -> list[tuple[int, tuple[str, ...]]]:
        """Per-loop domain alternatives, pre-constrained by forced roles.

        A loop hosting a reduction must iterate KERNEL (each entity counted
        once); a loop scattering through an indirection must cover its
        overlap under duplicated-element patterns.  The site rows rule the
        other alternatives out anyway; dropping them here only narrows the
        product the search walks.  A loop needing both is outside the
        method (no consistent mapping exists — the paper's "no applicable
        transition" dead end).
        """
        choices: list[tuple[int, tuple[str, ...]]] = []
        for lsid, entity in sorted(self.vfg.loops.items()):
            allowed = list(self.automaton.domains_for(entity))
            if self._has_reduction(lsid):
                want = self.automaton.reduction_domain()
                allowed = [d for d in allowed if d == want]
            if self._has_indirect_scatter(lsid) \
                    and self.automaton.pattern.duplicated_elements:
                allowed = [d for d in allowed if d == OVERLAP]
            if not allowed:
                raise PlacementError(
                    f"loop at line {self.graph.sub.stmt(lsid).line} needs "
                    f"both a kernel-only reduction and an overlap-covering "
                    f"scatter: no iteration domain satisfies both")
            choices.append((lsid, tuple(allowed)))
        return choices

    def _has_reduction(self, lsid: int) -> bool:
        return any(r.loop_sid == lsid for r in self.idioms.scalar_reductions)

    def _has_indirect_scatter(self, lsid: int) -> bool:
        for acc in self.idioms.array_accumulations:
            if acc.loop_sid != lsid:
                continue
            for sid in acc.sids:
                sa = self.graph.amap.by_sid.get(sid)
                if sa and sa.defs and sa.defs[0].mode == INDIRECT:
                    return True
        return False

    def _check_induction_escapes(self) -> None:
        induction_nodes = {
            VNode(N_DEF, iv.sid, iv.var) for iv in self.idioms.inductions}
        for edge in self.vfg.edges:
            if edge.src in induction_nodes and edge.guard != G_LOCAL:
                st = self.graph.sub.stmt(edge.src.sid)
                raise PlacementError(
                    f"induction variable {edge.src.var!r} (line {st.line}) "
                    f"escapes its partitioned loop; SPMD ranks cannot "
                    f"reconstruct its global value")

    # -- state evaluation ----------------------------------------------------------

    def input_state(self, var: str) -> State:
        ent = self.spec.entity_of_array(var)
        if ent is None:
            return SCA0
        return coherent(ent)

    def def_state(self, node: VNode, domains: dict[int, str]) -> Optional[State]:
        """M_n at one definition site — locally determined by the domains."""
        sa = self.graph.amap.by_sid.get(node.sid)
        assert sa is not None and sa.defs
        acc = next(d for d in sa.defs if d.name == node.var)
        red = self.idioms.reduction_for(node.sid)
        if red is not None and red.var == node.var:
            if domains.get(red.loop_sid) != self.automaton.reduction_domain():
                return None  # overlap-domain reductions double-count entities
            return self.automaton.reduction_def_state()
        if acc.mode == INDIRECT:
            # scatter-accumulation target (legality admits nothing else)
            domain = domains[acc.loop_sid]
            return self.automaton.scatter_def_state(acc.entity, domain)
        if acc.mode == DIRECT:
            return self.automaton.def_state(acc.entity, domains[acc.loop_sid])
        # scalars: localized inside partitioned loops, replicated outside
        if acc.loop_sid is not None:
            ent = acc.loop_entity
            return self.automaton.def_state(ent, domains[acc.loop_sid],
                                            localized=True)
        return SCA0

    def _def_loop(self, node: VNode):
        """The one loop whose domain :meth:`def_state` reads at ``node``."""
        red = self.idioms.reduction_for(node.sid)
        if red is not None and red.var == node.var:
            return red.loop_sid
        sa = self.graph.amap.by_sid.get(node.sid)
        acc = next((d for d in sa.defs if d.name == node.var), None) \
            if sa is not None else None
        if acc is None or (acc.mode not in (DIRECT, INDIRECT)
                           and acc.loop_sid is None):
            return _NO_LOOP  # a replicated scalar (or def_state raises)
        return acc.loop_sid

    # -- the tables ------------------------------------------------------------------

    def _rows(self) -> list[_Row]:
        """Every row, in walk order: sites, arrows last first, outputs.

        A search owns its rows: the rows refer to this propagator, so
        keeping them on it would make both garbage only a cycle
        collection frees."""
        sites = {}
        for node in self.vfg.nodes:
            if node.kind in (N_IN, N_DEF):
                loop = _NO_LOOP if node.kind == N_IN else self._def_loop(node)
                sites[node] = _SiteRow(len(sites), node, (loop,), self)
        arrows = [_ArrowRow(len(sites) + i, edge, sites.get(edge.src), self)
                  for i, edge in enumerate(reversed(self.vfg.edges))]
        pos = len(sites) + len(arrows)
        outputs = [_OutputRow(pos + i, node, (), self)
                   for i, node in enumerate(self.vfg.outputs.values())]
        return [*sites.values(), *arrows, *outputs]

    # -- search over the rows ----------------------------------------------------------

    def evaluate(self, domains: dict[int, str]) -> Optional[Solution]:
        """The solution for fixed domains: the search over one assignment.

        Returns None when some definition has no admissible state, or some
        arrow no crossing (paper: "no applicable transition"), under these
        domains.
        """
        return next(self._search([(lsid, (dom,))
                                  for lsid, dom in domains.items()], None),
                    None)

    def solutions(self, limit: Optional[int] = None) -> Iterator[Solution]:
        """Depth-first enumeration of all consistent placements.

        The iteration order tries OVERLAP before KERNEL, so the first
        solution matches the paper's figure 9 (all-overlap domains) and a
        later one its figure 10 (kernel domains with grouped updates).
        ``limit`` stops the enumeration after that many solutions.
        """
        if limit is not None and (isinstance(limit, bool)
                                  or not isinstance(limit, int) or limit < 1):
            raise PlacementError(
                f"limit must be a positive integer or None: {limit!r}")
        return self._search(self.loop_choices(), limit)

    def _search(self, choices: list[tuple[int, tuple[str, ...]]],
                limit: Optional[int]) -> Iterator[Solution]:
        depth = {lsid: i for i, (lsid, _alts) in enumerate(choices)}
        alts = dict(choices)
        # checks[d]: the rows that can fail, read once depth d is assigned
        checks: list[list[tuple]] = [[] for _ in range(len(choices) + 1)]
        first_raise = math.inf
        sites: dict[tuple, list[_Row]] = {}   # by the loops they read
        carriers: list[list] = []   # [loops, rows] runs of Update carriers
        for row in self._rows():
            read = tuple(lsid for lsid in dict.fromkeys(row.loops)
                         if lsid in depth)
            failing = {}
            carries = False
            for combo in product(*(alts[lsid] for lsid in read)):
                key = row.key(dict(zip(read, combo)))
                out = row.get(key)
                if _fails(out):
                    failing[key] = out
                    if out is not _DEAD:
                        first_raise = min(first_raise, row.pos)
                carries = carries or isinstance(out, Update)
            if failing:
                level = max((depth[lsid] + 1 for lsid in read), default=0)
                checks[level].append((row.pos, row.key, failing))
            if isinstance(row.site, VNode):
                sites.setdefault(read, []).append(row)
            elif carries:
                # consecutive carriers share one part while few loops decide it
                joint = tuple(dict.fromkeys(carriers[-1][0] + read)) \
                    if carriers else ()
                if carriers and len(joint) <= _PART_LOOPS:
                    carriers[-1][0] = joint
                    carriers[-1][1].append(row)
                else:
                    carriers.append([read, [row]])
        states = [_Part(read, rows) for read, rows in sites.items()]
        updates = [_Part(read, rows) for read, rows in carriers]

        def check(bad, assigned: dict, level: int):
            """The earliest failing row so far: (walk position, outcome)."""
            for pos, key, failing in checks[level]:
                out = failing.get(key(assigned), _MISSING)
                if out is not _MISSING and (bad is None or pos < bad[0]):
                    bad = (pos, out)
            return bad

        def dead(bad) -> bool:
            # every leaf below is None unless an earlier row may raise
            return bad is not None and bad[1] is _DEAD and bad[0] < first_raise

        found = 0
        bad = check(None, {}, 0)
        stack = [] if dead(bad) else [(0, {}, bad)]
        while stack:
            idx, assigned, bad = stack.pop()
            if idx == len(choices):
                if bad is not None:
                    if bad[1] is not _DEAD:
                        raise bad[1]
                    continue
                yield _assemble(assigned, states, updates)
                found += 1
                if limit is not None and found >= limit:
                    return
                continue
            lsid, doms = choices[idx]
            # push in reverse so doms[0] (OVERLAP) is explored first
            for dom in reversed(doms):
                nxt = dict(assigned)
                nxt[lsid] = dom
                below = check(bad, nxt, idx + 1)
                if not dead(below):
                    stack.append((idx + 1, nxt, below))


#: the most loops one part of a leaf's M_a may read
_PART_LOOPS = 4


class _Part:
    """Rows a leaf reads together: their non-``None`` outcomes as one dict
    per key of the searched loops they read, so a leaf merges dicts (in
    walk order) instead of hashing sites and arrows one by one."""

    __slots__ = ("key", "rows", "memo")

    def __init__(self, loops: tuple, rows: list[_Row]):
        self.key = itemgetter(*loops) if loops else lambda _domains: ()
        self.rows = rows
        self.memo: dict = {}

    def at(self, domains: dict) -> dict:
        key = self.key(domains)
        part = self.memo.get(key)
        if part is None:
            outs = ((row.site, row.at(domains)) for row in self.rows)
            part = self.memo[key] = {site: out for site, out in outs
                                     if out is not None}
        return part


def _assemble(domains: dict[int, str], states: list[_Part],
              updates: list[_Part]) -> Solution:
    """The (M_n, M_a) pair of an assignment no row rules out."""
    sol = Solution(domains=domains, states={}, edge_updates={})
    for part in states:
        sol.states.update(part.at(domains))
    for part in updates:
        sol.edge_updates.update(part.at(domains))
    return sol
