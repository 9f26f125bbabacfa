"""Reaching definitions and exposed uses over the statement CFG.

Definition sites are ``(sid, var)`` pairs; the virtual site ``(ENTRY, v)``
models the initial (input) value of every variable, so a true dependence
out of ``(ENTRY, v)`` is a read of the program input ``v`` — these become
the data-flow-graph *input nodes* whose overlap state is given (paper
section 3.4, condition 1).

Kill precision follows the target class:

* scalar assignments kill;
* an array definition kills only when it is a **covering write** — a
  direct ``A(i)`` store, immediately inside a partitioned loop running
  ``do i = 1, <extent of A's entity>`` with unit step (the
  ``NEW(i) = 0.0`` idiom).  All other array stores (scatter accumulations
  in particular) are weak updates.

Layout.  Each analysis numbers its sites once: the sites of one variable
take consecutive bits, in sid order, so ``(ENTRY, v)`` (sid 0) is the
lowest bit of ``v``'s range.  A set of sites is a Python ``int``;
``masks[v]`` holds the bits of ``v``'s sites, a statement's kill set is
the OR of the masks of the variables it strongly updates, and one
worklist step is ``in = OR(out[p])``, ``out = (in & ~kill) | gen``.  The
sites of ``v`` reaching node ``n`` are the set bits of
``ins[n] & masks[v]``, already in sid order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..lang.ast import Assign, Const, DoLoop, Var
from ..lang.cfg import CFG, ENTRY, EXIT
from .accesses import DIRECT, AccessMap

Site = tuple[int, str]  # (sid, variable); sid == ENTRY for program inputs
DefSite = Site


@dataclass
class SiteSets:
    """One forward may-analysis over ``(sid, var)`` sites, as bitsets."""

    #: bit ``i`` of every set stands for ``sites[i]``
    sites: list[Site]
    #: site -> its bit
    index: dict[Site, int]
    #: variable -> the bits of its sites (one consecutive range)
    masks: dict[str, int]
    #: node -> the sites reaching its entry
    ins: dict[int, int]

    def sids(self, node: int, var: str) -> list[int]:
        """Sids of ``var``'s sites reaching ``node``, in ascending order."""
        bits = self.ins.get(node, 0) & self.masks.get(var, 0)
        return [self.sites[i][0] for i in set_bits(bits)]


@dataclass
class ReachingDefs(SiteSets):
    """Result of the forward reaching-definitions analysis.

    ``ins`` covers every statement, ``ENTRY`` and ``EXIT`` (the
    definitions reaching the subroutine exit: the program outputs).
    """

    #: the bits of the input sites ``(ENTRY, v)``
    inputs: int
    #: variables killed (strongly updated) by each statement
    kills_var: dict[int, frozenset[str]]
    #: sids of covering array writes
    covering: frozenset[int]


def set_bits(bits: int) -> list[int]:
    """Indices of the set bits of ``bits``, ascending."""
    out = []
    while bits:
        low = bits & -bits
        out.append(low.bit_length() - 1)
        bits ^= low
    return out


def _number(sids_by_var: dict[str, set[int]]
            ) -> tuple[list[Site], dict[Site, int], dict[str, int]]:
    """Sites, site -> bit and per-variable masks, one range per variable."""
    sites: list[Site] = []
    masks: dict[str, int] = {}
    for var in sorted(sids_by_var):
        sids = sorted(sids_by_var[var])
        masks[var] = ((1 << len(sids)) - 1) << len(sites)
        sites.extend((sid, var) for sid in sids)
    return sites, {site: i for i, site in enumerate(sites)}, masks


def _solve(cfg: CFG, gen: dict[int, int], kill: dict[int, int],
           entry: int) -> tuple[dict[int, int], dict[int, int]]:
    """Round-robin ``out = (OR(out[p]) & ~kill) | gen`` to the fixpoint.

    ``entry`` is the out-set of ``ENTRY``.  Returns the in- and out-sets
    of every statement and ``ENTRY`` (0 for nodes not reachable).
    """
    out = dict.fromkeys(cfg.nodes, 0)
    out[ENTRY] = entry
    order = [n for n in cfg.rpo() if n in cfg.nodes]
    preds = {n: [p for p in cfg.pred.get(n, ()) if p in out] for n in order}
    ins = dict.fromkeys(out, 0)
    changed = True
    while changed:
        changed = False
        for n in order:
            new_in = 0
            for p in preds[n]:
                new_in |= out[p]
            ins[n] = new_in
            new_out = (new_in & ~kill[n]) | gen[n]
            if new_out != out[n]:
                out[n] = new_out
                changed = True
    return ins, out


def covering_writes(cfg: CFG, amap: AccessMap) -> set[int]:
    """Statements that fully overwrite a partitioned array (strong update)."""
    spec = amap.spec
    out: set[int] = set()
    for sid, st in cfg.nodes.items():
        if not isinstance(st, Assign):
            continue
        defs = amap[sid].defs
        if not defs or defs[0].mode != DIRECT:
            continue
        acc = defs[0]
        loops = cfg.loops_of.get(sid, [])
        if not loops:
            continue
        loop = cfg.nodes[loops[-1]]
        assert isinstance(loop, DoLoop)
        if acc.loop_sid != loop.sid:
            continue
        if st not in loop.body:
            continue  # conditionally executed writes are weak
        if not (isinstance(loop.lo, Const) and loop.lo.value == 1):
            continue
        if loop.step is not None and not (
                isinstance(loop.step, Const) and loop.step.value == 1):
            continue
        ent = acc.entity
        if ent is None:
            continue
        extent = spec.extents.get(ent)
        if isinstance(loop.hi, Var) and loop.hi.name == extent:
            out.add(sid)
    return out


def reaching_definitions(cfg: CFG, amap: AccessMap) -> ReachingDefs:
    """Forward may-analysis of definition sites."""
    covering = covering_writes(cfg, amap)
    all_vars = amap.all_names() | set(cfg.sub.decls)
    sids_by_var: dict[str, set[int]] = {v: {ENTRY} for v in all_vars}
    for sid in cfg.nodes:
        sa = amap.by_sid.get(sid)
        if sa is not None:
            for d in sa.defs:
                sids_by_var[d.name].add(sid)
    sites, bit, masks = _number(sids_by_var)

    gen: dict[int, int] = {}
    kill: dict[int, int] = {}
    kills_var: dict[int, frozenset[str]] = {ENTRY: frozenset()}
    for sid in cfg.nodes:
        sa = amap.by_sid.get(sid)
        g = k = 0
        killed = set()
        if sa is not None:
            for d in sa.defs:
                g |= 1 << bit[(sid, d.name)]
                if d.mode == "scalar" or sid in covering:
                    killed.add(d.name)
                    k |= masks[d.name]
        gen[sid], kill[sid] = g, k
        kills_var[sid] = frozenset(killed)

    inputs = sum(1 << bit[(ENTRY, v)] for v in all_vars)
    ins, out = _solve(cfg, gen, kill, inputs)
    # definitions reaching the subroutine exit (program outputs)
    exit_in = 0
    for p in cfg.pred.get(EXIT, ()):
        exit_in |= out.get(p, 0)
    ins[EXIT] = exit_in
    return ReachingDefs(sites=sites, index=bit, masks=masks, ins=ins,
                        inputs=inputs, kills_var=kills_var,
                        covering=frozenset(covering))


def reaching_uses(cfg: CFG, amap: AccessMap,
                  rdefs: Optional[ReachingDefs] = None) -> SiteSets:
    """Forward may-analysis: uses reaching the *entry* of each statement.

    A use ``(u, v)`` reaches ``s`` when some path from ``u``'s read of
    ``v`` to ``s`` passes no killing definition of ``v``.  An anti
    dependence ``u → s`` exists for each definition of ``v`` at ``s`` with
    ``(u, v)`` reaching it (read-then-overwrite ordering).
    """
    if rdefs is None:
        rdefs = reaching_definitions(cfg, amap)
    sids_by_var: dict[str, set[int]] = {}
    for sid in cfg.nodes:
        sa = amap.by_sid.get(sid)
        if sa is not None:
            for u in sa.uses:
                sids_by_var.setdefault(u.name, set()).add(sid)
    sites, bit, masks = _number(sids_by_var)

    gen: dict[int, int] = {}
    kill: dict[int, int] = {}
    for sid in cfg.nodes:
        sa = amap.by_sid.get(sid)
        g = k = 0
        if sa is not None:
            for u in sa.uses:
                g |= 1 << bit[(sid, u.name)]
        for var in rdefs.kills_var.get(sid, ()):
            k |= masks.get(var, 0)
        gen[sid], kill[sid] = g, k

    ins, _ = _solve(cfg, gen, kill, 0)
    return SiteSets(sites=sites, index=bit, masks=masks, ins=ins)
