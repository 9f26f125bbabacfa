"""commcheck — whole-program static verification of a placed program.

The paper's §3.2 argument for automatic checking ("this checking, when
performed manually, is an important source of errors") is applied to the
tool's *own output*: once :mod:`repro.placement.comms` has committed to a
set of :class:`~repro.placement.comms.CommOp` windows, this pass proves —
before a single message is sent — that

* every OVERLAP read is covered by an update communication on **every**
  path from its definitions (CC001), and every reduction/combine use by a
  fresh, exactly-once assembly (CC007);
* split-phase windows are race-free (no definition inside an open
  post→wait window, CC002) and pair one-to-one (no double post, no wait
  without a post, no leaked window, CC003);
* collectives never sit under rank-divergent control flow with unmatched
  participants (CC004), and the two sides of such a branch, compiled to
  an MP net, reach no deadlocked marking (CC005 — the static twin of the
  runtime deadlock watchdog) and, under per-rank tags, no
  schedule-dependent receive (CC010);
* checkpoint boundaries cannot fall inside an open window, which would
  make the PR-2 quiescence condition unreachable (CC006);
* the halo schedules actually cover the overlap the placement relies on
  (CC008);
* and — what only hand-written text can get wrong, this being the judge
  of the §5.2 test mode too (:mod:`repro.placement.checkmode`) — that the
  iteration domains admit an overlap state at all (CC014) and every
  declared communication belongs to an update some dependence needs
  (CC013).

Two engines cooperate.  The **path predicates** run a loop-aware path
search of their own (:func:`repro.analysis.paths.find_path_avoiding` —
partitioned loops execute at least once, arriving at a communication
anchor counts as crossing it), independent of the labellings extraction
reads its anchors off, so a violation always comes with a concrete
statement path witness.  On top, a classical **forward dataflow** pass
(:func:`compute_facts`) abstractly interprets the automaton's coherence
states (``Nod₀/Nod₁/Sca₁``…) and the open-window set over the CFG.  Facts
enrich diagnostics, computed when one is emitted: no verdict reads them,
so a clean placement never runs the dataflow (``--facts`` dumps them).

Every order of collective events the checks read — a branch side's
events, the facts' pre-action transfer, the whole-program MP net — is
the placed schedule (:func:`repro.placement.comms.placed_schedule`),
with anchors in source order: the order the executor runs and the
annotated text prints.

Surfaces: the ``repro-place lint`` CLI subcommand (:func:`lint_main`) and
the ``check(...)`` hook :mod:`repro.driver.pipeline` runs after every
placement.
"""

from __future__ import annotations

import argparse
import functools
import sys
from dataclasses import dataclass, field
from typing import Iterable, Optional

from ..automata.automaton import G_BOUND, G_CONTROL, OverlapAutomaton
from ..errors import LegalityError, ReproError
from ..lang.ast import Subroutine
from ..lang.cfg import CFG, ENTRY, EXIT
from ..placement.comms import (
    CommOp,
    K_COMBINE,
    K_OVERLAP,
    K_REDUCE,
    POST,
    WAIT,
    Placement,
    kind_and_op,
    placed_schedule,
)
from ..placement.dfg import N_DEF, N_OUT, ValueFlowGraph
from ..placement.propagate import Propagator
from .diagnostics import (
    Diagnostic,
    DiagnosticSink,
    SourceAnchor,
    anchor_for,
    parse_suppressions,
)
from .modelcheck import wait_for_analysis
from .mpnet import MPNet, compile_orders, compile_placement
from .paths import find_path_avoiding, find_reexecution


def _witness(sub: Subroutine, sids: Iterable[int]) -> tuple[SourceAnchor, ...]:
    return tuple(anchor_for(sub, s) for s in sids)


# ---------------------------------------------------------------------------
# coherence-facts forward dataflow (abstract interpretation of the automaton)
# ---------------------------------------------------------------------------

#: the distinguished "all copies correct" origin
COHERENT = ("coherent", None)


@dataclass
class ProgramFacts:
    """Per-statement abstract state of the placed program.

    ``reads[sid]`` maps each variable to the set of *origins* its value may
    have when the statement executes (after the pre-action communications
    anchored there): ``("coherent", None)``, or ``(state_name, def_sid)``
    for an incoherent definition still uncommunicated on some path.
    ``windows[sid]`` is the pair (may-be-open, must-be-open) of comm-op
    indices during the statement.
    """

    reads: dict[int, dict[str, frozenset]] = field(default_factory=dict)
    windows: dict[int, tuple[frozenset, frozenset]] = field(
        default_factory=dict)

    def describe(self, sid: int, var: str, sub: Subroutine) -> list[str]:
        out = []
        for name, dsid in sorted(self.reads.get(sid, {}).get(var, ()),
                                 key=str):
            if dsid is None:
                out.append(name)
            else:
                out.append(f"{name}@{anchor_for(sub, dsid).label()}")
        return out


def compute_facts(vfg: ValueFlowGraph, placement: Placement,
                  automaton: OverlapAutomaton) -> ProgramFacts:
    """Forward dataflow over the CFG with the CommOps overlaid.

    Transfer order at each statement is the placed schedule's
    (:func:`~repro.placement.comms.placed_schedule`): pre-action waits
    (and blocking collectives) restore coherence and close windows, then
    pre-action posts open windows, then the statement's own definition
    applies its locally-determined
    :meth:`~repro.placement.propagate.Propagator.def_state`.  Joins are
    may-unions on coherence origins and (may ∪, must ∩) on windows.  The
    pass is a sound over-approximation — unlike the path predicates it
    does not assume partitioned loops iterate — so it serves enrichment
    and inspection, not the verdicts.
    """
    cfg = vfg.graph.cfg
    prop = Propagator(vfg, automaton)
    domains = placement.solution.domains

    #: sid -> the origins its definitions give their variables
    def_origin: dict[int, dict[str, frozenset]] = {}
    variables: set[str] = set(vfg.inputs)
    for node in vfg.def_nodes():
        if node.sid == ENTRY or node.var is None:
            continue
        variables.add(node.var)
        try:
            st = prop.def_state(node, domains)
        except KeyError:
            st = None  # a loop outside this solution's choice points
        origin = COHERENT if st is None or st.coherent \
            else (st.name, node.sid)
        def_origin.setdefault(node.sid, {})[node.var] = frozenset([origin])

    variables |= {op.var for op in placement.comms}
    schedule = placed_schedule(placement.comms)
    index = {op: i for i, op in enumerate(placement.comms)}

    base = {v: frozenset([COHERENT]) for v in sorted(variables)}

    in_facts: dict[int, dict[str, frozenset]] = {ENTRY: dict(base)}
    in_win: dict[int, tuple[frozenset, frozenset]] = {
        ENTRY: (frozenset(), frozenset())}
    facts = ProgramFacts()

    order = cfg.rpo()
    pos = {n: i for i, n in enumerate(order)}
    worklist = list(order)
    in_list = set(worklist)
    while worklist:
        worklist.sort(key=lambda n: pos.get(n, 0), reverse=True)
        n = worklist.pop()
        in_list.discard(n)
        if n != ENTRY:
            preds = [p for p in cfg.pred.get(n, ()) if p in in_facts]
            if not preds:
                continue
            joined: dict[str, frozenset] = dict(base)
            may: frozenset = frozenset()
            must: Optional[frozenset] = None
            for p in preds:
                # OUT of p: its definitions override the read view
                out = {**facts.reads.get(p, in_facts[p]),
                       **def_origin.get(p, {})}
                for v, orig in out.items():
                    joined[v] = joined.get(v, frozenset()) | orig
                p_may, p_must = facts.windows.get(p, in_win[p])
                may |= p_may
                must = p_must if must is None else (must & p_must)
            in_facts[n] = joined
            in_win[n] = (may, must if must is not None else frozenset())
        # pre-actions at n: waits close and restore coherence, posts open
        cur = dict(in_facts[n])
        may, must = in_win[n]
        for phase, op in schedule.get(n, ()):
            i = index[op]
            if phase == POST:
                may, must = may | {i}, must | {i}
            else:
                cur[op.var] = frozenset([COHERENT])
                may, must = may - {i}, must - {i}
        changed = facts.reads.get(n) != cur or facts.windows.get(n) != (may,
                                                                        must)
        facts.reads[n] = cur
        facts.windows[n] = (may, must)
        if changed:
            for s in cfg.succ.get(n, ()):
                if s not in in_list:
                    in_list.add(s)
                    worklist.append(s)
    return facts


# ---------------------------------------------------------------------------
# the channel wait-for analysis (CC005)
# ---------------------------------------------------------------------------

def side_verdicts(orders: list[list]):
    """Tag-aware CC005/CC010 verdicts for per-class collective orders.

    Returns ``(aligned, skewed)``: the wait-for verdict of the orders
    compiled to an MP net under **static** (aligned) tag assignment —
    the semantics a SimComm run of the orders executes, whose deadlock
    is the upgraded CC005 — and under **counter** tags,
    the per-rank ``fresh_tag`` allocator of a real-MPI backend, whose
    skew under divergent orders puts messages of different collectives
    onto one (src, dst, tag) channel (the CC010 hazard).
    """
    aligned = wait_for_analysis(compile_orders(orders, tag_mode="static"))
    skewed = wait_for_analysis(compile_orders(orders, tag_mode="counter"))
    return aligned, skewed


# ---------------------------------------------------------------------------
# the checker
# ---------------------------------------------------------------------------

@dataclass
class _Group:
    """One (variable, method) update group with its placed communications."""

    var: str
    method: str
    kind: str
    edges: list
    ops: list[CommOp]

    @property
    def defs(self) -> set[int]:
        return {e.src.sid for e in self.edges if e.src.sid != ENTRY}

    @property
    def anchors(self) -> set[int]:
        return {op.wait_anchor for op in self.ops}


def _groups(vfg: ValueFlowGraph, placement: Placement) -> list[_Group]:
    out = []
    for (var, method), edges in sorted(
            placement.solution.updates_by_var().items()):
        kind, op = kind_and_op(method, vfg, edges)
        ops = [c for c in placement.comms
               if (c.var, c.kind, c.op) == (var, kind, op)]
        out.append(_Group(var=var, method=method, kind=kind,
                          edges=edges, ops=ops))
    return out


def _all_defs_of(vfg: ValueFlowGraph, var: str) -> set[int]:
    return {n.sid for n in vfg.nodes
            if n.kind == N_DEF and n.var == var and n.sid != ENTRY}


def _live(cfg: CFG, anchors: set[int], d: int) -> set[int]:
    """The ``anchors`` that order with the definition at ``d``.

    A communication in front of a ``do`` loop runs once per loop *entry*:
    it orders with no definition made inside that loop, whatever the
    back-edge arrival at the header looks like to the path search.
    """
    return anchors.difference(cfg.loops_of.get(d, ()))


def _side_region(cfg: CFG, start: int, branch: int, join: int) -> set[int]:
    """Statements executed on one side of a branch before the join point.

    The walk re-enters the branch node itself when a loop leads back to it
    (arrival there re-fires its pre-actions) but does not continue past
    it, and never enters the join — statements at or after the join
    execute on both sides equally.
    """
    region: set[int] = set()
    stack = [start]
    while stack:
        n = stack.pop()
        if n == join or n in region:
            continue
        region.add(n)
        if n == branch:
            continue
        stack.extend(cfg.succ.get(n, ()))
    return region


def _side_events(sub: Subroutine, schedule: dict,
                 region: set[int]) -> list[tuple]:
    """The placed schedule's events in one branch region, anchors in
    source order: ``(var, method)``, and ``(var, method, "post")`` for a
    split window's post."""
    return [(op.var, op.method) + ((POST,) if phase == POST else ())
            for a in sorted(region & schedule.keys(),
                            key=sub.positions.__getitem__)
            for phase, op in schedule[a]]


def _check_quiescence(sink: DiagnosticSink, sub: Subroutine, cfg: CFG,
                      vfg: ValueFlowGraph, placement: Placement,
                      broken_ops: set[int]) -> None:
    """CC006: no interior collective boundary is ever quiescent."""
    split = [(i, op) for i, op in enumerate(placement.comms)
             if op.is_split and i not in broken_ops]
    if not split:
        return
    boundaries = sorted({op.wait_anchor for op in placement.comms
                         if op.wait_anchor != EXIT})
    if not boundaries:
        return
    covered: dict[int, tuple[CommOp, list[int]]] = {}
    for b in boundaries:
        for _i, op in split:
            if b in (op.post_anchor, op.wait_anchor):
                continue  # co-anchored events: waits run before posts
            path = find_path_avoiding(cfg, vfg, op.post_anchor,
                                      {op.wait_anchor}, {b})
            if path is not None:
                covered[b] = (op, path)
                break
        else:
            return  # b is statically quiescent — checkpointing can happen
    b, (op, path) = sorted(covered.items())[0]
    labels = ", ".join(anchor_for(sub, x).label() for x in boundaries)
    sink.emit(Diagnostic(
        code="CC006",
        message=f"every checkpoint boundary ({labels}) can fall inside an "
                f"open post->wait window — the executor only snapshots "
                f"quiescent boundaries, so checkpointing never happens and "
                f"a killed rank cannot be recovered (e.g. the "
                f"{op.kind}:{op.var} window posted at "
                f"{anchor_for(sub, op.post_anchor).label()} spans "
                f"{anchor_for(sub, b).label()})",
        anchors=(anchor_for(sub, b), anchor_for(sub, op.post_anchor)),
        witness=_witness(sub, path),
        data={"boundaries": boundaries, "post": op.post_anchor,
              "wait": op.wait_anchor}))


def check_net(net: MPNet, sink: Optional[DiagnosticSink] = None,
              sub: Optional[Subroutine] = None,
              anchor: Optional[SourceAnchor] = None) -> DiagnosticSink:
    """Model-check one MP net and classify the verdicts as diagnostics.

    One run of :func:`repro.analysis.modelcheck.wait_for_analysis`
    decides every verdict: CC005 for a deadlock (with the run's
    fired-transition witness trace), CC010 for a receive a token of
    another color can reach in some schedule, and CC004 for unmatched
    sends left in channel places when the run completes.
    """
    if sink is None:
        sink = DiagnosticSink()
    anchors = (anchor,) if anchor is not None else ()
    verdict = wait_for_analysis(net)
    meta = {"meta": dict(net.meta)}
    if verdict.deadlock is not None:
        dl = verdict.deadlock
        detail = "; ".join(
            f"class {b['class']} blocks receiving {b['waiting_for']} on "
            f"channel {b['channel'][0]}->{b['channel'][1]} "
            f"tag {b['channel'][2]}" for b in dl["blocked"])
        sink.emit(Diagnostic(
            code="CC005",
            message=f"the schedule reaches a deadlocked marking: {detail}",
            anchors=anchors, data=dict(meta, **dl)))
    for race in verdict.races:
        chan = race["channel"]
        sink.emit(Diagnostic(
            code="CC010",
            message=f"two in-flight messages share channel "
                    f"{chan[0]}->{chan[1]} tag {chan[2]}: class "
                    f"{race['class']} expects {race['expected']} but can "
                    f"match {race['got']} — the receive is "
                    f"schedule-dependent",
            anchors=anchors,
            data=dict(meta, **race)))
    if verdict.unmatched:
        leftover = ", ".join(
            f"{u['channel'][0]}->{u['channel'][1]} tag {u['channel'][2]} "
            f"({', '.join(u['colors'])})" for u in verdict.unmatched)
        sink.emit(Diagnostic(
            code="CC004",
            message=f"the schedule completes with unmatched send(s) left "
                    f"in flight: {leftover}",
            anchors=anchors,
            data=dict(meta, unmatched=verdict.unmatched)))
    return sink


#: CC003's pairing searches over a window's (post, wait), tried in order —
#: the first that finds a path is the window's fault: (fault, the end it
#: is at, search, message)
_PAIRING = (
    ("wait-before-post", WAIT,
     lambda cfg, vfg, post, wait: find_path_avoiding(cfg, vfg, ENTRY, {post},
                                                     {wait}),
     "wait of {label} at {wait} is reachable without its post at {post} "
     "(wait before post)"),
    ("double-post", POST,
     lambda cfg, vfg, post, wait: find_reexecution(cfg, vfg, post, {wait}),
     "double post of {label}: control re-reaches the post at {post} "
     "without passing its wait"),
    ("unmatched-wait", WAIT,
     lambda cfg, vfg, post, wait: None if wait == EXIT
     else find_reexecution(cfg, vfg, wait, {post}),
     "unmatched wait of {label}: control re-reaches the wait at {wait} "
     "without re-posting"),
    ("leaked-window", POST,
     lambda cfg, vfg, post, wait: None if wait == EXIT
     else find_path_avoiding(cfg, vfg, post, {wait}, {EXIT}),
     "window of {label} posted at {post} can leak: the program exits "
     "without reaching the wait"),
)


def check_placement(vfg: ValueFlowGraph, placement: Placement,
                    automaton: Optional[OverlapAutomaton] = None,
                    *,
                    source: Optional[str] = None,
                    suppress: Iterable[str] = (),
                    sink: Optional[DiagnosticSink] = None,
                    model_check: bool = False) -> DiagnosticSink:
    """Run every static check over one placed program — generated, or
    read back from annotated text (CC014 ends the check: without states
    there are no update groups to judge).

    ``source`` (when given) is scanned for ``commcheck: disable=CCnnn``
    suppression comments; explicit ``suppress`` codes are added on top.
    Pass an existing ``sink`` to accumulate across placements.
    ``model_check=True`` additionally compiles the whole placed schedule
    into an MP net and model-checks it (:func:`check_net`).
    """
    cfg: CFG = vfg.graph.cfg
    sub: Subroutine = vfg.graph.sub
    if sink is None:
        codes = set(suppress)
        if source:
            codes |= parse_suppressions(source)
        sink = DiagnosticSink(suppress=codes)
    if automaton is None:
        from ..automata.library import automaton_for
        automaton = automaton_for(vfg.graph.spec.pattern)
    placement = _check_domains(sink, sub, vfg, placement, automaton)
    if placement is None:
        return sink

    @functools.cache
    def facts() -> Optional[ProgramFacts]:
        """The coherence facts, for the first diagnostic that cites them."""
        try:
            return compute_facts(vfg, placement, automaton)
        except (ReproError, KeyError, AssertionError):
            return None  # enrichment only; the predicates still run

    # -- CC004: a collective inside a partitioned loop runs once per local
    # entity, a count that differs from rank to rank -----------------------
    for op in placement.comms:
        for a in sorted({op.post_anchor, op.wait_anchor}):
            for loop in cfg.loops_of.get(a, ()):
                if loop in vfg.loops:
                    at, hdr = anchor_for(sub, a), anchor_for(sub, loop)
                    sink.emit(Diagnostic(
                        code="CC004", var=op.var,
                        message=f"{op.method} on {op.var!r} at {at.label()} "
                                f"sits inside the partitioned loop at "
                                f"{hdr.label()}: ranks iterate it different "
                                f"numbers of times, so the collective goes "
                                f"unmatched",
                        anchors=(at, hdr), witness=(hdr, at)))

    # -- CC003 / CC002 / CC006: window pairing and window contents ----------
    broken_ops: set[int] = set()
    for idx, op in enumerate(placement.comms):
        if not op.is_split:
            continue
        post, wait = op.post_anchor, op.wait_anchor
        for fault, at, search, message in _PAIRING:
            path = search(cfg, vfg, post, wait)
            if path is None:
                continue
            broken_ops.add(idx)
            where = {POST: anchor_for(sub, post), WAIT: anchor_for(sub, wait)}
            sink.emit(Diagnostic(
                code="CC003", var=op.var,
                message=message.format(label=f"{op.kind}:{op.var}",
                                       post=where[POST].label(),
                                       wait=where[WAIT].label()),
                anchors=(where[at], where[POST if at == WAIT else WAIT]),
                witness=_witness(sub, path),
                data={"post": post, "wait": wait, "fault": fault}))
            break

    for idx, op in enumerate(placement.comms):
        if not op.is_split or idx in broken_ops:
            continue
        post, wait = op.post_anchor, op.wait_anchor
        label = f"{op.kind}:{op.var}"
        # CC002 — a definition of the communicated variable inside the window
        # makes the posted (by-value) payload stale relative to the blocking
        # semantics the placement promises
        for d in sorted(_all_defs_of(vfg, op.var)):
            at_post = d == post
            path = [d] if at_post \
                else find_path_avoiding(cfg, vfg, post, {wait}, {d})
            if path is None:
                continue
            diag = Diagnostic(
                code="CC002", var=op.var,
                message=f"{op.var!r} is written at "
                        f"{anchor_for(sub, d).label()} " + (
                            f"inside the open {label} window posted there "
                            f"(posted values go stale)" if at_post else
                            f"while the {label} window posted at "
                            f"{anchor_for(sub, post).label()} is still open"),
                anchors=(anchor_for(sub, d),
                         anchor_for(sub, wait if at_post else post)),
                witness=_witness(sub, path),
                data={"post": post, "wait": wait, "def": d})
            if not at_post and facts() is not None:
                may = facts().windows.get(d, (frozenset(), frozenset()))[0]
                diag.data["window_may_be_open"] = idx in may
            sink.emit(diag)
    # CC006 — every checkpoint boundary crossed by an open window.  The
    # executor snapshots only quiescent collective boundaries (and skips
    # the rest), so a window spanning *some* boundaries is the normal
    # split-phase overlap; the latent fault is a placement in which NO
    # interior boundary is ever quiescent — checkpointing silently never
    # happens and a kill becomes unrecoverable.
    _check_quiescence(sink, sub, cfg, vfg, placement, broken_ops)

    # -- coverage: CC001 / CC004 / CC005 / CC007 ----------------------------
    groups = _groups(vfg, placement)
    broken_vars = {placement.comms[i].var for i in broken_ops}
    grouped = {op for group in groups for op in group.ops}
    for op in placement.comms:
        if op not in grouped:  # CC013 — only hand-written text declares one
            at = anchor_for(sub, op.wait_anchor)
            sink.emit(Diagnostic(
                code="CC013", var=op.var, anchors=(at,),
                message=f"{op.method} on {op.var!r} at {at.label()} is "
                        f"superfluous: no dependence under the declared "
                        f"domains requires it",
                data={"post": op.post_anchor, "wait": op.wait_anchor}))
    ipdom = cfg.ipdom()
    emitted: set[tuple] = set()
    for group in groups:
        if group.var in broken_vars:
            continue  # the pairing fault is the root cause
        anchors = group.anchors
        for e in sorted(group.edges, key=lambda e: (e.src.sid, e.dst.sid)):
            d = e.src.sid
            if d == ENTRY:
                continue
            use = EXIT if e.dst.kind == N_OUT else e.dst.sid
            path = find_path_avoiding(cfg, vfg, d, _live(cfg, anchors, d),
                                      {use})
            if path is None:
                continue
            _emit_coverage(sink, sub, cfg, vfg, placement, group, e, d, use,
                           path, anchors, ipdom, facts, emitted)
        if group.kind == K_OVERLAP or not group.ops:
            continue
        # non-idempotent communications must always assemble fresh partials
        for op in group.ops:
            a = op.wait_anchor
            path = find_path_avoiding(cfg, vfg, ENTRY, group.defs, {a})
            if path is None:
                path_w = find_reexecution(cfg, vfg, a, group.defs)
                if path_w is None:
                    continue
                msg = (f"{group.method} of {group.var!r} at "
                       f"{anchor_for(sub, a).label()} re-executes without a "
                       f"fresh contribution (re-combining doubles the value)")
                path = path_w
            else:
                msg = (f"{group.method} of {group.var!r} at "
                       f"{anchor_for(sub, a).label()} is reachable without "
                       f"any contributing definition (combining an "
                       f"already-final value doubles it)")
            if not _once(emitted, ("CC007-fresh", group.var, a)):
                continue
            sink.emit(Diagnostic(
                code="CC007", var=group.var, message=msg,
                anchors=(anchor_for(sub, a),),
                witness=_witness(sub, path),
                data={"method": group.method, "anchor": a}))

    # -- formal model: CC005 / CC004 / CC010 over the MP net --------------
    if model_check and placement.comms:
        net = compile_placement(sub, placement)
        first = min(placement.comms, key=lambda op: op.wait_anchor)
        check_net(net, sink, sub, anchor_for(sub, first.wait_anchor))
    return sink


def _check_domains(sink: DiagnosticSink, sub: Subroutine,
                   vfg: ValueFlowGraph, placement: Placement,
                   automaton: OverlapAutomaton) -> Optional[Placement]:
    """The placement to judge — evaluated here if it came without states
    (read from a payload, or from text whose domains may admit none) — or
    ``None`` after CC014: a partitioned loop has no domain, or the domains
    admit no state."""
    domains = placement.domains
    bare = sorted(set(vfg.loops) - set(domains))
    for lsid in bare:
        sink.emit(Diagnostic(
            code="CC014", anchors=(anchor_for(sub, lsid),),
            message=f"partitioned loop at {anchor_for(sub, lsid).label()} "
                    f"has no ITERATION DOMAIN directive"))
    if bare:
        return None
    if placement.solution.states:
        return placement
    prop = Propagator(vfg, automaton)
    solution = prop.evaluate(domains)
    if solution is not None:
        return Placement(solution, placement.comms)
    # the definition whose state the pattern excludes, or (a delivery
    # failed on an edge) the loops whose domains disagree
    stuck = [n.sid for n in vfg.def_nodes() if n.sid != ENTRY
             and prop.def_state(n, domains) is None]
    sink.emit(Diagnostic(
        code="CC014", anchors=_witness(sub, stuck[:1] or sorted(domains)),
        message="no overlap state is consistent with the iteration domains "
                "(an incoherent state the pattern excludes is produced)"))
    return None


def _once(emitted: set[tuple], key: tuple) -> bool:
    """Whether ``key``'s finding is not yet emitted (and now is)."""
    if key in emitted:
        return False
    emitted.add(key)
    return True


def _emit_coverage(sink: DiagnosticSink, sub: Subroutine, cfg: CFG,
                   vfg: ValueFlowGraph, placement: Placement, group: _Group,
                   edge, d: int, use: int, path: list[int],
                   anchors: set[int], ipdom: dict[int, int],
                   facts, emitted: set[tuple]) -> None:
    """Classify one uncovered def→use path into CC001/CC004/CC005/CC007
    (CC010 when only a per-rank tag allocator would go wrong)."""

    def emit(code: str, message: str, data: dict) -> None:
        if _once(emitted, (code, group.var, use)):
            sink.emit(Diagnostic(
                code=code, var=group.var, message=message,
                anchors=(anchor_for(sub, use), anchor_for(sub, d)),
                witness=_witness(sub, path), data=data))

    fact_names = facts().describe(use, group.var, sub) if use != EXIT \
        and facts() is not None else []
    # an assembling communication of another kind or operator declared on
    # the path leaves every rank the same — wrong — value
    rivals = [c for c in placement.comms if c.var == group.var
              and c.kind != K_OVERLAP and c not in group.ops]
    uniform = bool(rivals) and find_path_avoiding(
        cfg, vfg, d, _live(cfg, {c.wait_anchor for c in rivals}, d),
        {use}) is None
    if edge.guard in (G_CONTROL, G_BOUND) and use not in (ENTRY, EXIT) \
            and not uniform:
        # an incoherent branch condition: ranks may diverge — compare the
        # collective events each side of the branch executes
        branch = f"branch at {anchor_for(sub, use).label()}"
        join = ipdom.get(use, EXIT)
        succs = list(dict.fromkeys(cfg.succ.get(use, ())))
        schedule = placed_schedule(placement.comms)
        sides = [_side_events(sub, schedule, _side_region(cfg, s, use, join))
                 for s in succs]
        for i in range(len(sides)):
            for j in range(i + 1, len(sides)):
                idents_i = sorted(sides[i])
                idents_j = sorted(sides[j])
                if idents_i != idents_j:
                    only = [x for x in idents_i if x not in idents_j] \
                        + [x for x in idents_j if x not in idents_i]
                    unmatched = ", ".join(
                        "/".join(map(str, x)) for x in only) or "(none)"
                    emit("CC004",
                         f"{branch} reads {group.var!r} whose value may "
                         f"differ across ranks ({group.method} missing on "
                         f"some path); the branch sides execute unmatched "
                         f"collectives: {unmatched}",
                         {"branch": use, "facts": fact_names,
                          "unmatched": [list(map(str, x)) for x in only]})
                    return
                orders = [sides[i], sides[j]]
                named = [["/".join(map(str, x)) for x in o] for o in orders]
                aligned, skewed = side_verdicts(orders)
                if aligned.deadlock is not None:
                    blocked = aligned.deadlock["blocked"]
                    cycle = aligned.deadlock["cycle"] or \
                        [[b["waiting_for"], b["class"]] for b in blocked]
                    detail = "; ".join(
                        f"side {b['class']} blocks receiving "
                        f"{b['waiting_for']} on channel "
                        f"{b['channel'][0]}->{b['channel'][1]} "
                        f"tag {b['channel'][2]}" for b in blocked)
                    emit("CC005",
                         f"{branch} may diverge across ranks and its sides "
                         f"execute conflicting communication schedules — "
                         f"tag-level wait-for "
                         f"{aligned.deadlock['kind']}: {detail}",
                         {"branch": use, "orders": named,
                          "cycle": [[str(c), k] for c, k in cycle],
                          "blocked": blocked, "facts": fact_names})
                    return
                if not skewed.clean:
                    hazards = skewed.races or skewed.deadlock["blocked"]
                    chan = hazards[0]["channel"]
                    emit("CC010",
                         f"{branch} may diverge across ranks; under a "
                         f"per-rank tag allocator the sides' schedules put "
                         f"messages of different collectives onto channel "
                         f"{chan[0]}->{chan[1]} tag {chan[2]} — the receive "
                         f"match is schedule-dependent",
                         {"branch": use, "orders": named,
                          "races": skewed.races,
                          "skew_deadlock": skewed.deadlock,
                          "facts": fact_names})
                    return
        # sides agree: fall through to the plain coverage code
    if group.kind == K_OVERLAP:
        code, what = "CC001", "stale OVERLAP read"
    else:
        code, what = "CC007", "partial (uncombined) read"
    where = "the program output" if use == EXIT \
        else anchor_for(sub, use).label()
    covered = ", ".join(anchor_for(sub, a).label()
                        for a in sorted(anchors)) or "none placed"
    emit(code,
         f"{what} of {group.var!r} at {where}: the path from its definition "
         f"at {anchor_for(sub, d).label()} crosses no {group.method} "
         f"communication (anchors: {covered})"
         + (f"; {rivals[0].method} assembles another value"
            if uniform else ""),
         {"method": group.method, "def": d, "use": use,
          "facts": fact_names})


# ---------------------------------------------------------------------------
# halo-schedule completeness (CC008)
# ---------------------------------------------------------------------------

def check_schedules(partition, placement: Placement,
                    schedules: Optional[dict] = None,
                    sub: Optional[Subroutine] = None,
                    sink: Optional[DiagnosticSink] = None) -> DiagnosticSink:
    """Verify the halo schedules cover what the placement relies on.

    For every entity the placement updates or combines, each rank's
    overlap copies ``[kern, total)`` must appear exactly once in its
    holder-table indices, and the owner and holder tables must agree
    word count by word count on every (owner, holder) channel — the very
    tables the wire executes, in either direction.  Pass prebuilt
    schedules via ``schedules`` (entity → :class:`HaloSchedule`) to check
    the runtime's own; otherwise one is built per entity.
    """
    import numpy as np

    from ..mesh.schedule import build_halo_schedule

    if sink is None:
        sink = DiagnosticSink()
    ops = {}
    for op in placement.comms:
        if op.kind in (K_OVERLAP, K_COMBINE) and op.entity:
            ops.setdefault(op.entity, op)
    for ent in sorted(ops):
        sched = (schedules or {}).get(ent)
        if sched is None:
            sched = build_halo_schedule(partition, ent)
        anchors = ((anchor_for(sub, ops[ent].wait_anchor),)
                   if sub is not None else ())
        for r in range(partition.nparts):
            kern, total = partition.subs[r].counts(ent)
            fills = np.bincount(sched.holder.idx[r],
                                minlength=total)[kern:total]
            for what, hit in (("unfilled", fills == 0),
                              ("filled more than once", fills > 1)):
                slots = (np.flatnonzero(hit) + kern).tolist()
                if slots:
                    sink.emit(Diagnostic(
                        code="CC008", var=ent,
                        message=f"halo schedule for entity {ent!r} leaves "
                                f"{len(slots)} of rank {r}'s overlap copies "
                                f"{what} (locals {slots[:6]}"
                                f"{'…' if len(slots) > 6 else ''}) — reads "
                                f"after the update are stale or "
                                f"order-dependent",
                        anchors=anchors,
                        data={"entity": ent, "rank": r, "what": what,
                              "slots": slots[:32]}))
        owner, holder = sched.owner, sched.holder
        sent = dict(zip(zip(owner.rank.tolist(), owner.peer.tolist()),
                        owner.words.tolist()))
        held = dict(zip(zip(holder.peer.tolist(), holder.rank.tolist()),
                        holder.words.tolist()))
        for o, h in sorted(sent.keys() | held.keys()):
            s, e = sent.get((o, h), 0), held.get((o, h), 0)
            if s != e:  # words the owner table moves vs the holder table
                sink.emit(Diagnostic(
                    code="CC008", var=ent,
                    message=f"halo schedule for entity {ent!r} is "
                            f"asymmetric: owner rank {o} exchanges {s} "
                            f"value(s) with holder rank {h}, which "
                            f"expects {e} — the exchange deadlocks or "
                            f"misaligns",
                    anchors=anchors,
                    data={"entity": ent, "owner": o, "holder": h,
                          "owner_words": s, "holder_words": e}))
    return sink


# ---------------------------------------------------------------------------
# program-level entry points (the `repro lint` engine)
# ---------------------------------------------------------------------------

def lint_source(source: str, spec, *,
                split_phase: bool = False,
                indices: Optional[list[int]] = None,
                suppress: Iterable[str] = (),
                model_check: bool = False):
    """Lint every (or selected) placement of one program.

    Returns ``(result, findings)`` where ``findings`` is a list of
    ``(placement_index, DiagnosticSink)``; an index outside the ranked
    placements raises :class:`~repro.errors.PlacementError`.  An illegal
    partitioning returns ``(None, [(None, sink)])`` with the figure-4
    violations as CC009 diagnostics.
    """
    from ..lang.parser import parse_subroutine
    from ..placement.engine import _ranked_at, enumerate_placements
    from .legality import check_legality

    codes = set(suppress) | parse_suppressions(source)
    try:
        result = enumerate_placements(source, spec, split_phase=split_phase)
    except LegalityError:
        sub = parse_subroutine(source)
        report = check_legality(sub, spec)
        sink = DiagnosticSink(suppress=codes)
        for diag in report.diagnostics():
            sink.emit(diag)
        return None, [(None, sink)]
    findings = []
    chosen = indices if indices is not None else range(len(result.ranked))
    for i in chosen:
        placement = _ranked_at(result, i).placement
        sink = check_placement(result.vfg, placement, result.automaton,
                               suppress=codes, model_check=model_check)
        findings.append((i, sink))
    return result, findings


def _corpus_programs():
    from ..corpus import SHALLOW_SOURCE, SHALLOW_SPEC_TEXT, TESTIV_SOURCE
    from ..spec import PartitionSpec, spec_for_testiv

    shallow_spec = PartitionSpec.parse(
        SHALLOW_SPEC_TEXT.format(pattern="overlap-elements-2d"))
    return [
        ("testiv", TESTIV_SOURCE, spec_for_testiv()),
        ("shallow", SHALLOW_SOURCE, shallow_spec),
    ]


def lint_corpus(strict: bool = False, out=None,
                suppress: Iterable[str] = (),
                model_check: bool = False) -> int:
    """Lint the fig-9/fig-10 corpus: every placement, blocking and widened."""
    out = out or sys.stdout
    failures = 0
    for name, source, spec in _corpus_programs():
        for split in (False, True):
            mode = "split-phase" if split else "blocking"
            _result, findings = lint_source(source, spec, split_phase=split,
                                            suppress=suppress,
                                            model_check=model_check)
            n_placements = len(findings)
            n_diags = sum(len(s.diagnostics) for _, s in findings)
            out.write(f"{name} [{mode}]: {n_placements} placement(s), "
                      f"{n_diags} diagnostic(s)\n")
            for i, sink in findings:
                if not sink.clean:
                    failures += len(sink.errors) or len(sink.diagnostics)
                    head = f"  placement #{i}: " if i is not None else "  "
                    out.write(head + sink.render().replace("\n", "\n  ")
                              + "\n")
    if failures:
        out.write(f"corpus lint: {failures} finding(s)\n")
        return 2 if strict else 0
    out.write("corpus lint: clean\n")
    return 0


def lint_main(argv: Optional[list[str]] = None) -> int:
    """`repro-place lint` entry point."""
    parser = argparse.ArgumentParser(
        prog="repro-place lint",
        description="Static communication verifier: prove halo coherence, "
                    "window safety and deadlock-freedom of the placed "
                    "program before a single message is sent.")
    parser.add_argument("program", nargs="?",
                        help="FORTRAN source file (one subroutine)")
    parser.add_argument("spec", nargs="?",
                        help="partitioning spec data file")
    parser.add_argument("--corpus", action="store_true",
                        help="lint every placement of the built-in "
                             "fig-9/fig-10 corpus instead of a file pair")
    parser.add_argument("--index", type=int, action="append", default=None,
                        help="lint only this ranked placement "
                             "(repeatable; default: all)")
    parser.add_argument("--split-phase", action="store_true",
                        help="widen communications into POST/WAIT windows "
                             "before checking")
    parser.add_argument("--strict", action="store_true",
                        help="exit 2 when any diagnostic is emitted")
    parser.add_argument("--json", action="store_true",
                        help="machine-readable diagnostics")
    parser.add_argument("--disable", action="append", default=[],
                        metavar="CCnnn", help="suppress a diagnostic code "
                                              "(repeatable)")
    parser.add_argument("--facts", action="store_true",
                        help="dump the per-statement coherence facts of the "
                             "best placement")
    parser.add_argument("--model-check", action="store_true",
                        help="additionally compile each placed schedule "
                             "into an MP net and model-check it "
                             "(CC005/CC004/CC010)")
    args = parser.parse_args(argv)
    out = sys.stdout
    try:
        if args.corpus:
            return lint_corpus(strict=args.strict, out=out,
                               suppress=args.disable,
                               model_check=args.model_check)
        if not args.program or not args.spec:
            parser.error("program and spec files are required "
                         "(or use --corpus)")
        from ..spec import PartitionSpec
        with open(args.program) as fh:
            source = fh.read()
        with open(args.spec) as fh:
            spec = PartitionSpec.parse(fh.read())
        result, findings = lint_source(source, spec,
                                       split_phase=args.split_phase,
                                       indices=args.index,
                                       suppress=args.disable,
                                       model_check=args.model_check)
        total = sum(len(s.diagnostics) for _, s in findings)
        if args.json:
            import json as _json
            payload = [{"placement": i, "diagnostics": s.to_json()}
                       for i, s in findings]
            out.write(_json.dumps(payload, indent=2) + "\n")
        else:
            for i, sink in findings:
                head = f"placement #{i}" if i is not None else "legality"
                out.write(f"* {head}: {sink.render()}\n")
            if result is not None:
                out.write(f"lint: {len(findings)} placement(s), "
                          f"{total} diagnostic(s)\n")
        if args.facts and result is not None and result.ranked:
            _dump_facts(result, out)
        return 2 if (args.strict and total) else 0
    except (ReproError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1


def _dump_facts(result, out) -> None:
    from ..automata.library import automaton_for

    placement = result.ranked[0].placement
    automaton = result.automaton or automaton_for(result.spec.pattern)
    facts = compute_facts(result.vfg, placement, automaton)
    sub = result.sub
    out.write("* coherence facts (best placement)\n")
    for sid in sorted(s for s in facts.reads if s > 0):
        row = []
        for var in sorted(facts.reads[sid]):
            names = facts.describe(sid, var, sub)
            if names != ["coherent"]:
                row.append(f"{var}={'|'.join(names)}")
        may, must = facts.windows.get(sid, (frozenset(), frozenset()))
        if may:
            row.append(f"open={{{','.join(str(i) for i in sorted(may))}}}")
        if row:
            out.write(f"  {anchor_for(sub, sid).label():>6}  "
                      + "  ".join(row) + "\n")
