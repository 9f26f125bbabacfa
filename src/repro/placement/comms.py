"""Communication extraction: from Update arrows to program points.

The paper derives "the places where to set communications" from the arrow
mapping ``M_a``: an Update arrow means a communication somewhere between
the extremities of the data-dependence.  This module realizes that
"somewhere" deterministically with dominators:

* group Update arrows by (variable, method);
* hoist each consuming use out of its partitioned loop (communications are
  collective and must execute identically on every processor);
* anchor the group's single communication at the **deepest program point
  dominating every hoisted use** that is verified to lie strictly between
  all the definitions and all the uses (an exact CFG path check, not just
  dominance) — this is what makes the figure-9 placement put the NEW
  update right before the convergence tests, covering both the loop-back
  and the exit path with one message;
* when no single point exists (several def/use generations of the same
  array), fall back to one communication per use;
* non-idempotent methods (figure-2 ``combine-…`` assembly, scalar
  reductions) additionally require that every path from entry to the
  anchor crosses a definition first — re-combining an already-coherent
  value would double it (paper, figure 7 discussion).

Split-phase windows (an extension beyond the paper).  The paper emits one
blocking collective per group; the dominance machinery above, however,
knows the whole *legal window* of the communication — after every
definition, before every use.  With ``split_phase`` enabled each
:class:`CommOp` carries a window ``(post_anchor, wait_anchor)``: the wait
anchor is the paper's single insertion point, and the post anchor is the
earliest point on the wait's dominator chain where the communicated
values are already final, so the runtime can start the transfer there and
hide its latency behind the computation in between.  A valid post point

* dominates the wait (every wait is preceded by its post),
* sees no definition of the variable between itself and the wait
  (the posted values are bit-identical to what a blocking call at the
  wait would send),
* pairs one-to-one with the wait: control cannot re-reach the post
  without waiting, reach the wait again without re-posting, or exit the
  program with the request still pending.

A degenerate window (``post == wait``) is exactly the paper's blocking
collective and renders as the single figure-9/10 directive.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Optional

from ..analysis.depgraph import DepGraph
from ..errors import PlacementError
from ..lang.ast import DoLoop
from ..lang.cfg import CFG, ENTRY, EXIT
from .dfg import N_OUT, VEdge, ValueFlowGraph
from .propagate import Solution

# communication kinds (what the runtime must do)
K_OVERLAP = "overlap"   # copy kernel-owner values onto overlap copies
K_COMBINE = "combine"   # assemble all copies (associative op) and redistribute
K_REDUCE = "reduce"     # scalar allreduce


@dataclass(frozen=True, order=True)
class CommOp:
    """One communication to insert, as a (post, wait) placement window.

    ``post_anchor`` is the sid whose pre-action starts the transfer,
    ``wait_anchor`` the sid whose pre-action completes it (EXIT for
    end-of-program).  A degenerate window (``post_anchor == wait_anchor``)
    is the paper's blocking collective.
    """

    post_anchor: int     # sid the post precedes (== wait_anchor if blocking)
    wait_anchor: int     # sid the wait precedes; EXIT for end-of-program
    kind: str            # K_OVERLAP | K_COMBINE | K_REDUCE
    var: str
    method: str          # directive method name ("overlap-som", "+ reduction")
    entity: Optional[str] = None   # entity of the array (None for scalars)
    op: Optional[str] = None       # reduction operator for K_REDUCE

    @property
    def anchor(self) -> int:
        """The paper's single insertion point — where coherence is needed."""
        return self.wait_anchor

    @property
    def is_split(self) -> bool:
        return self.post_anchor != self.wait_anchor

    def directive(self, phase: Optional[str] = None) -> str:
        target = "SCALAR" if self.entity is None else "ARRAY"
        tag = f"{phase} " if phase else ""
        return (f"C$SYNCHRONIZE {tag}METHOD: {self.method} "
                f"ON {target}: {self.var.upper()}")


@dataclass
class Placement:
    """A complete transformation decision: domains plus communications."""

    solution: Solution
    comms: list[CommOp] = field(default_factory=list)

    @property
    def domains(self) -> dict[int, str]:
        return self.solution.domains

    def comm_count(self) -> int:
        return len(self.comms)

    def comm_sites(self) -> set[int]:
        return {c.anchor for c in self.comms}


def _hoist_anchor(cfg: CFG, vfg: ValueFlowGraph, sid: int) -> int:
    """Program point for a consumer: outside any partitioned loop."""
    for lsid in cfg.loops_of.get(sid, []):
        if lsid in vfg.loops:
            return lsid  # outermost partitioned loop header
    return sid


class _Paths:
    """Loop-aware path search over one program, shared by every query.

    A query's answer depends on the CFG and the partitioned-loop set only
    — never on the solution being post-processed — so answers are kept
    for the life of the value-flow graph (``vfg._paths``): ``found`` by
    ``(start, avoid, targets)``, ``exit_ok`` by avoid-set and loop header,
    ``windows`` by update group (see :func:`extract_comms`).
    """

    def __init__(self, cfg: CFG, partitioned: frozenset[int]):
        self.cfg = cfg
        self.partitioned = partitioned
        self.found: dict[tuple, Optional[tuple[int, ...]]] = {}
        self.exit_ok: dict[frozenset[int], dict[int, bool]] = {}
        self.windows: dict[tuple, tuple[tuple[int, int], ...]] = {}

    def find(self, start: int, avoid: frozenset[int],
             targets: frozenset[int]) -> Optional[tuple[int, ...]]:
        key = (start, avoid, targets)
        if key not in self.found:
            self.found[key] = self._search_from(start, avoid, targets)
        return self.found[key]

    def _search_from(self, start: int, avoid: frozenset[int],
                     targets: frozenset[int]) -> Optional[tuple[int, ...]]:
        cfg, partitioned = self.cfg, self.partitioned
        final = self.exit_ok.setdefault(avoid, {})
        # answers still being computed, or computed from one that was:
        # good for this query only
        unsettled: dict[int, bool] = {}
        unsettled_reads = 0

        def exit_ok(hdr: int) -> bool:
            nonlocal unsettled_reads
            known = final.get(hdr)
            if known is not None:
                return known
            known = unsettled.get(hdr)
            if known is not None:
                unsettled_reads += 1
                return known
            unsettled[hdr] = True  # break recursion conservatively
            reads_before = unsettled_reads
            body_first = cfg.nodes[hdr].body[0].sid
            res = body_first not in avoid and _search(body_first, {hdr}) \
                is not None
            if unsettled_reads == reads_before:
                del unsettled[hdr]
                final[hdr] = res
            else:
                unsettled[hdr] = res
            return res

        def succs(n: int):
            st = cfg.nodes.get(n)
            if n in partitioned and st.body:
                body_first = st.body[0].sid
                yield body_first
                if exit_ok(n):
                    for s in cfg.succ.get(n, ()):
                        if s != body_first:
                            yield s
            else:
                yield from cfg.succ.get(n, ())

        def _search(origin: int, goals) -> Optional[tuple[int, ...]]:
            parent: dict[int, Optional[int]] = {origin: None}
            queue = [origin]
            while queue:
                nxt: list[int] = []
                for n in queue:
                    for s in succs(n):
                        if s in goals and s not in avoid:
                            path = [s, n]
                            p = parent[n]
                            while p is not None:
                                path.append(p)
                                p = parent[p]
                            path.reverse()
                            return tuple(path)
                        if s in parent or s in avoid:
                            continue
                        parent[s] = n
                        nxt.append(s)
                queue = nxt
            return None

        return _search(start, targets)


def _paths(vfg: ValueFlowGraph) -> _Paths:
    if vfg._paths is None:
        vfg._paths = _Paths(vfg.graph.cfg, frozenset(vfg.loops))
    return vfg._paths


def find_path_avoiding(cfg: CFG, vfg: ValueFlowGraph, start: int,
                       avoid: set[int], targets: set[int]
                       ) -> Optional[list[int]]:
    """Loop-aware path search: a concrete ``start → target`` statement path
    that enters no ``avoid`` node, or None when every path is cut.

    Entering an avoided node (including arriving at a target that is also
    avoided) counts as crossing it — pre-action communications cover every
    arrival at their anchor statement.  Partitioned loops are assumed to
    execute at least one iteration (mesh extents are positive), so the
    loop-exit successor of a partitioned header is taken only when the
    body can be traversed back to the header while avoiding ``avoid``.

    The returned path (``[start, …, target]``) is the witness commcheck
    attaches to its diagnostics; :func:`_reachable_avoiding` is the
    boolean view the extraction predicates use.
    """
    path = _paths(vfg).find(start, frozenset(avoid), frozenset(targets))
    return None if path is None else list(path)


def _reachable_avoiding(cfg: CFG, vfg: ValueFlowGraph, start: int,
                        avoid: set[int], targets: set[int]) -> bool:
    """Boolean view of :func:`find_path_avoiding` (same loop semantics)."""
    return _paths(vfg).find(start, frozenset(avoid),
                            frozenset(targets)) is not None


def _candidate_valid(cfg: CFG, vfg: ValueFlowGraph, cand: int,
                     defs: set[int], uses: set[int],
                     idempotent: bool) -> bool:
    if cand == EXIT:
        if uses - {EXIT}:
            return False  # a trailing comm covers only end-of-program uses
        return idempotent or not _reachable_avoiding(
            cfg, vfg, ENTRY, defs, {EXIT})
    if isinstance(cfg.nodes.get(cand), DoLoop) \
            and defs & cfg.loop_interior(cand):
        # a pre-loop communication cannot order with definitions made
        # inside the loop it precedes
        return False
    # every def→use path must cross the candidate
    for d in defs:
        if _reachable_avoiding(cfg, vfg, d, {cand}, uses):
            return False
    if not idempotent:
        # non-idempotent communications (combine/reduce) must always act on
        # freshly assembled partials: no entry→anchor path may skip the
        # definitions, and the anchor must not re-execute without a
        # definition in between
        if _reachable_avoiding(cfg, vfg, ENTRY, defs, {cand}):
            return False
        if find_reexecution(cfg, vfg, cand, defs) is not None:
            return False
    return True


def find_reexecution(cfg: CFG, vfg: ValueFlowGraph, cand: int,
                     stop: set[int]) -> Optional[list[int]]:
    """Path on which control re-reaches ``cand``'s pre-action without
    entering ``stop`` (``[cand, …, cand]``), or None.

    A communication inserted before a ``do`` loop executes once per loop
    *entry* — iterating the loop's own body back to its header is not a
    re-execution, so the walk starts from the loop's exterior successors.
    """
    if isinstance(cfg.nodes.get(cand), DoLoop):
        inside = cfg.loop_interior(cand)
        starts = {s for n in inside for s in cfg.succ.get(n, ())
                  if s not in inside}
    else:
        starts = set(cfg.succ.get(cand, ()))
    for s in sorted(starts - stop):
        if s == cand:
            return [cand, cand]
        path = find_path_avoiding(cfg, vfg, s, stop, {cand})
        if path is not None:
            return [cand] + path
    return None


def _post_valid(cfg: CFG, vfg: ValueFlowGraph, cand: int, wait: int,
                defs: set[int]) -> bool:
    """Is ``cand`` a sound POST point for a communication waited at ``wait``?

    Soundness here means the split-phase execution is bit-identical to the
    blocking collective at ``wait`` and every request is matched: values
    must be final at the post (no definition on any post→wait path), the
    post must dominate the wait, and post/wait must pair one-to-one (no
    re-post without a wait, no re-wait without a post, no program exit
    with a pending request).  ``do``-loop candidates fire once per loop
    *entry*, so their re-execution test starts from the loop's exterior
    successors (same convention as the anchor checks above).
    """
    if cand == wait:
        return True
    if cand in (ENTRY, EXIT) or cand in defs:
        return False
    # the post is collective: it must sit outside partitioned loops
    if any(l in vfg.loops for l in cfg.loops_of.get(cand, [])):
        return False
    if isinstance(cfg.nodes.get(cand), DoLoop) \
            and defs & cfg.loop_interior(cand):
        # posting before a loop that still defines the value is stale
        return False
    # freshness: no definition may execute between the post and its wait
    for d in defs:
        if _reachable_avoiding(cfg, vfg, cand, {wait}, {d}):
            return False
    # pairing: control must not re-reach the post without waiting, ...
    if find_reexecution(cfg, vfg, cand, {wait}) is not None:
        return False
    # ... re-reach the wait without re-posting, ...
    if wait != EXIT \
            and find_reexecution(cfg, vfg, wait, {cand}) is not None:
        return False
    # ... or exit the program with the request still pending
    if _reachable_avoiding(cfg, vfg, cand, {wait}, {EXIT}):
        return False
    return True


def _post_anchor(cfg: CFG, vfg: ValueFlowGraph, wait: int,
                 defs: set[int]) -> int:
    """Earliest valid POST point for a communication waited at ``wait``.

    Walks the wait's dominator chain upward (each element is executed on
    every path to the wait) and keeps the furthest point that still
    satisfies :func:`_post_valid` — the widest legal window.  Falls back
    to the degenerate window (``wait`` itself) when nothing wider exists.
    """
    best = wait
    for cand in cfg.dom_chain(wait)[1:]:
        if cand == ENTRY:
            break
        if _post_valid(cfg, vfg, cand, wait, defs):
            best = cand
    return best


def kind_and_op(method: str, vfg: Optional[ValueFlowGraph] = None,
                edges: Iterable[VEdge] = ()) -> tuple[str, Optional[str]]:
    """Communication kind and operator of an update or directive method.

    A directive spells a reduction's operator out (``+ reduction``); the
    automaton's bare ``reduction`` takes it from the producing statement.
    """
    if method.startswith("overlap-"):
        return K_OVERLAP, None
    if method.startswith("combine-"):
        return K_COMBINE, "+"
    if method.endswith("reduction"):
        op = method[:-len("reduction")].strip()
        if op:
            return K_REDUCE, op
        for e in edges:
            red = vfg.idioms.reduction_for(e.src.sid)
            if red is not None:
                return K_REDUCE, red.op
    raise PlacementError(f"no communication kind or operator for {method!r}")


def _group_windows(cfg: CFG, vfg: ValueFlowGraph, defs: set[int],
                   uses: set[int], idempotent: bool, widen: bool
                   ) -> Optional[tuple[tuple[int, int], ...]]:
    """(post, wait) windows of one update group, or None when definition
    and use are too entangled for any insertion point."""

    def window(wait: int) -> tuple[int, int]:
        post = _post_anchor(cfg, vfg, wait, defs) if widen else wait
        return post, wait

    hoisted = {u if u == EXIT else _hoist_anchor(cfg, vfg, u) for u in uses}
    anchor = _single_anchor(cfg, vfg, defs, uses, hoisted, idempotent)
    if anchor is not None:
        return (window(anchor),)
    # fallback: one communication per hoisted use
    windows = []
    for u in sorted(uses, key=lambda s: (s == EXIT, s)):
        cand = u if u == EXIT else _hoist_anchor(cfg, vfg, u)
        if not _candidate_valid(cfg, vfg, cand, defs, {u}, idempotent):
            return None
        windows.append(window(cand))
    return tuple(windows)


def extract_comms(vfg: ValueFlowGraph, solution: Solution,
                  split_phase: bool = False) -> list[CommOp]:
    """Turn a solution's Update arrows into anchored communication calls.

    With ``split_phase`` each communication additionally gets the earliest
    valid POST point on its wait anchor's dominator chain (degenerate when
    nothing wider exists); scalar reductions always stay blocking — their
    tree exchange has no separable one-ended post.

    Where a group's communications go is decided by its definitions and
    uses alone, and the solutions of one program are combinations of few
    distinct groups: each group's windows are computed once per program
    and shared by every solution containing it.
    """
    cfg: CFG = vfg.graph.cfg
    spec = vfg.graph.spec
    memo = _paths(vfg).windows
    out: list[CommOp] = []
    for (var, method), edges in sorted(solution.updates_by_var().items()):
        kind, op = kind_and_op(method, vfg, edges)
        idempotent = kind == K_OVERLAP
        defs = {e.src.sid for e in edges if e.src.sid != ENTRY}
        uses = {EXIT if e.dst.kind == N_OUT else e.dst.sid for e in edges}
        widen = split_phase and kind != K_REDUCE
        key = (frozenset(defs), frozenset(uses), idempotent, widen)
        windows = memo.get(key)
        if windows is None:
            windows = _group_windows(cfg, vfg, defs, uses, idempotent, widen)
            if windows is None:
                raise PlacementError(
                    f"no valid insertion point for {method} on {var!r} "
                    f"(definition and use too entangled)")
            memo[key] = windows
        entity = spec.entity_of_array(var)
        directive_method = f"{op} reduction" if kind == K_REDUCE else method
        out.extend(CommOp(post_anchor=post, wait_anchor=wait, kind=kind,
                          var=var, method=directive_method, entity=entity,
                          op=op)
                   for post, wait in windows)
    # fallback comms of one group may coincide (same anchor/var/method)
    return list(dict.fromkeys(sorted(out)))


def widen_placement(vfg: ValueFlowGraph, placement: Placement) -> Placement:
    """Re-extract a placement's communications with split-phase windows.

    The domains (and therefore the solution) are untouched: only each
    communication's post anchor is hoisted to the earliest valid point, so
    the result is the same placement with latency-hiding windows.
    """
    return Placement(solution=placement.solution,
                     comms=extract_comms(vfg, placement.solution,
                                         split_phase=True))


def _single_anchor(cfg: CFG, vfg: ValueFlowGraph, defs: set[int],
                   uses: set[int], hoisted: set[int],
                   idempotent: bool) -> Optional[int]:
    """Deepest valid anchor covering all uses with one communication."""
    if uses == {EXIT}:
        return EXIT if _candidate_valid(cfg, vfg, EXIT, defs, uses,
                                        idempotent) else None
    # with EXIT among the uses, still walk up from the common dominator
    # of the others: EXIT is reached from everywhere on exit paths, so
    # crossing-verification decides
    non_exit = sorted(h for h in hoisted if h != EXIT)
    start = cfg.common_dominator(non_exit) if non_exit else EXIT
    for cand in cfg.dom_chain(start):
        if cand == ENTRY:
            break
        # the candidate must sit outside partitioned loops
        if any(l in vfg.loops for l in cfg.loops_of.get(cand, [])):
            continue
        if _candidate_valid(cfg, vfg, cand, defs, uses, idempotent):
            return cand
    return None
