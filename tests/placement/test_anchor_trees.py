"""Anchor facts from per-group labellings ≡ the judge's path search.

Extraction answers three questions per update group (definitions D, uses
U) and candidate anchor c off one labelling per definition set
(:mod:`repro.placement.anchors`), and judges split-phase post candidates
with two sweeps each.  commcheck answers the same questions with its own
loop-aware path search (:mod:`repro.analysis.paths`).  These tests hold
the two to each other, candidate by candidate:

(i)   every D→U path crosses c   ⇔ no ``find_path_avoiding(d, {c}, U)``
(ii)  ENTRY reaches c avoiding D ⇔ ``find_path_avoiding(ENTRY, D, {c})``
(iii) c re-executes avoiding D   ⇔ ``find_reexecution(c, D)``
post  ``comms._post_valid``      ⇔ the path-search window rules

over every real update group of every corpus program (both 2-D patterns),
``synthetic_source(1..16)``, blocking and split, and seeded random
(D, U) groups.

The candidates are the statements outside every partitioned loop (a
partitioned header itself included), and EXIT for (ii).  Tier-1 checks,
for each real group, the ones extraction walks (the dominator chain
above the hoisted uses, and the hoisted uses) and the posts of the waits
it picks, plus eight candidates of each of 240 random groups; ``-m
soak`` checks every candidate and post of every real group and 10⁴
random groups.  For (i), a ``do`` candidate that precedes a definition
inside its own loop is left out: extraction refuses it before asking
(i), and there the two algorithms differ on purpose — the search counts
a back-edge arrival at the header as crossing it, while a communication
in front of a ``do`` loop runs once per loop *entry*, which the
labelling models (and commcheck's own coverage rule, ``_live``, agrees).
"""

import functools
import random

import pytest

from repro.analysis.paths import find_path_avoiding, find_reexecution
from repro.automata.library import automaton_for
from repro.corpus import (
    ADVECTION_SOURCE,
    EDGE_SMOOTH_3D_SOURCE,
    HEAT_SOURCE,
    JACOBI_NODE_SOURCE,
    SHALLOW_SOURCE,
    SHALLOW_SPEC_TEXT,
    TESTIV_SOURCE,
    synthetic_source,
    synthetic_spec,
)
from repro.lang.ast import Assign, DoLoop
from repro.lang.cfg import ENTRY, EXIT
from repro.placement import Propagator
from repro.placement.comms import (
    K_OVERLAP,
    K_REDUCE,
    _cache,
    _group_windows,
    _hoist_anchor,
    _post_valid,
    kind_and_op,
)
from repro.placement.dfg import N_OUT
from repro.placement.engine import analyze
from repro.placement.reduce import reduce_vfg
from repro.spec import PartitionSpec, spec_for_testiv

P1 = "overlap-elements-2d"
P2 = "shared-nodes-2d"
_TRI = ("pattern {pattern}\nextent node nsom\nextent triangle ntri\n"
        "indexmap som triangle node\n")
_HEAT = _TRI + ("array u0 node\narray u1 node\narray u node\narray rhs node\n"
                "array mass node\narray area triangle\n")
_ADVECT = _TRI + ("array c0 node\narray c1 node\narray c node\n"
                  "array acc node\narray w triangle\n")
_JACOBI = ("pattern {pattern}\nextent node nsom\narray x0 node\n"
           "array x1 node\narray x node\narray b node\n")
_EDGE3D = ("pattern overlap-elements-3d\nextent node nsom\nextent edge nseg\n"
           "indexmap nubo edge node\narray v0 node\narray v1 node\n"
           "array v node\narray acc node\narray elen edge\n")


def _spec(text, pattern):
    return PartitionSpec.parse(text.format(pattern=pattern))


def _programs():
    progs = {"edge-smooth-3d": (EDGE_SMOOTH_3D_SOURCE, _spec(_EDGE3D, P1))}
    for pattern in (P1, P2):
        tag = pattern.split("-")[0]
        progs.update({
            f"testiv-{tag}": (TESTIV_SOURCE, spec_for_testiv(pattern)),
            f"advect-{tag}": (ADVECTION_SOURCE, _spec(_ADVECT, pattern)),
            f"heat-{tag}": (HEAT_SOURCE, _spec(_HEAT, pattern)),
            f"jacobi-node-{tag}": (JACOBI_NODE_SOURCE,
                                   _spec(_JACOBI, pattern)),
            f"shallow-{tag}": (SHALLOW_SOURCE,
                               _spec(SHALLOW_SPEC_TEXT, pattern)),
        })
    for n in range(1, 17):
        progs[f"synthetic-{n}"] = (synthetic_source(n), synthetic_spec())
    return progs


PROGRAMS = _programs()
#: solutions whose update groups are checked, per program
SOLUTIONS = 16


class Program:
    """One analysed program, its update groups and its candidates."""

    def __init__(self, source, spec):
        sub, graph, _idioms, _legality, vfg = analyze(source, spec)
        self.cfg, self.vfg = graph.cfg, vfg
        automaton = automaton_for(spec.pattern)
        search_vfg, _ = reduce_vfg(vfg, automaton)
        groups = set()
        for sol in Propagator(search_vfg, automaton).solutions(
                limit=SOLUTIONS):
            for (_var, method), edges in sol.updates_by_var().items():
                kind, _op = kind_and_op(method, search_vfg, edges)
                groups.add((
                    frozenset(e.src.sid for e in edges if e.src.sid != ENTRY),
                    frozenset(EXIT if e.dst.kind == N_OUT else e.dst.sid
                              for e in edges),
                    kind == K_OVERLAP, kind != K_REDUCE))
        self.groups = sorted(groups, key=lambda g: (sorted(g[0]),
                                                    sorted(g[1]), g[2:]))
        cfg = self.cfg
        self.candidates = sorted(
            s for s in cfg.nodes
            if not any(l in vfg.loops for l in cfg.loops_of.get(s, ())))
        self.assignments = sorted(s for s, st in cfg.nodes.items()
                                  if isinstance(st, Assign))
        self.statements = sorted(cfg.nodes)


@functools.cache
def program(name) -> Program:
    return Program(*PROGRAMS[name])


# -- the judge's answers ------------------------------------------------------

def _judge_crosses(cfg, vfg, defs, uses, cand):
    return all(find_path_avoiding(cfg, vfg, d, {cand}, set(uses)) is None
               for d in defs)


def _judge_post_valid(cfg, vfg, cand, wait, defs):
    """The post-window rules as one path query each (the extraction code
    before the labellings, over the judge's search)."""
    if cand == wait:
        return True
    if cand in (ENTRY, EXIT) or cand in defs:
        return False
    if any(l in vfg.loops for l in cfg.loops_of.get(cand, [])):
        return False
    if isinstance(cfg.nodes.get(cand), DoLoop) \
            and defs & cfg.loop_interior(cand):
        return False
    if any(find_path_avoiding(cfg, vfg, cand, {wait}, {d}) is not None
           for d in defs):
        return False
    if find_reexecution(cfg, vfg, cand, {wait}) is not None:
        return False
    if wait != EXIT and find_reexecution(cfg, vfg, wait, {cand}) is not None:
        return False
    return find_path_avoiding(cfg, vfg, cand, {wait}, {EXIT}) is None


# -- the comparison ----------------------------------------------------------

def disagreements(prog: Program, defs, uses, idempotent, widen,
                  candidates=None, waits=None):
    """Every (question, candidate) on which the labelling and the judge's
    search answer differently, for one group: (i)–(iii) at ``candidates``,
    post verdicts on the dominator chains of ``waits`` (all candidates
    when None)."""
    cfg, vfg = prog.cfg, prog.vfg
    cache = _cache(vfg)
    labels = cache.labels_of(frozenset(defs))
    crossing = labels.crossing(uses)
    candidates = prog.candidates if candidates is None else candidates
    out = []
    for c in candidates:
        refused = isinstance(cfg.nodes.get(c), DoLoop) \
            and defs & cfg.loop_interior(c)
        if not refused:
            tree = crossing is None or c in crossing
            if tree != _judge_crosses(cfg, vfg, defs, uses, c):
                out.append(("i", c))
        if not idempotent:
            judge = find_path_avoiding(cfg, vfg, ENTRY, set(defs), {c})
            if labels.entry_reaches(c) != (judge is not None):
                out.append(("ii", c))
            judge = find_reexecution(cfg, vfg, c, set(defs))
            if labels.reexecutes(c) != (judge is not None):
                out.append(("iii", c))
    for wait in (candidates if waits is None else waits) if widen else ():
        for post in cfg.dom_chain(wait)[1:]:
            if post == ENTRY:
                break
            if _post_valid(cfg, vfg, cache, post, wait, frozenset(defs)) \
                    != _judge_post_valid(cfg, vfg, post, wait, set(defs)):
                out.append(("post", post, wait))
    if not idempotent:
        judge = find_path_avoiding(cfg, vfg, ENTRY, set(defs), {EXIT})
        if labels.entry_reaches(EXIT) != (judge is not None):
            out.append(("ii", EXIT))
    return out


def asked(prog: Program, uses):
    """The candidates extraction walks for a group: the dominator chain
    above the hoisted uses and each hoisted use (the fallback)."""
    cfg, vfg = prog.cfg, prog.vfg
    hoisted = {_hoist_anchor(cfg, vfg, u) for u in uses if u != EXIT}
    chain = cfg.dom_chain(cfg.common_dominator(sorted(hoisted))) \
        if hoisted else []
    return sorted(set(prog.candidates) & (set(chain) | hoisted))


@pytest.mark.parametrize("name", sorted(PROGRAMS))
def test_every_group_of_every_program(name):
    prog = program(name)
    assert prog.groups
    for defs, uses, idempotent, widen in prog.groups:
        windows = _group_windows(prog.cfg, prog.vfg, _cache(prog.vfg), defs,
                                 set(uses), idempotent, False)
        assert disagreements(prog, defs, uses, idempotent, widen,
                             asked(prog, uses),
                             [w for _, w in windows or ()]) == [], \
            (sorted(defs), sorted(uses))


@pytest.mark.soak
@pytest.mark.parametrize("name", sorted(PROGRAMS))
def test_every_candidate_of_every_group(name):
    prog = program(name)
    for defs, uses, idempotent, widen in prog.groups:
        assert disagreements(prog, defs, uses, idempotent, widen) == [], \
            (sorted(defs), sorted(uses))


def random_group(rng: random.Random, prog: Program):
    """A (D, U) group over arbitrary assignments and statements."""
    defs = frozenset(rng.sample(prog.assignments,
                                min(len(prog.assignments),
                                    rng.randint(1, 3))))
    uses = set(rng.sample(prog.statements, min(len(prog.statements),
                                               rng.randint(1, 3))))
    if rng.random() < 0.2:
        uses.add(EXIT)
    return defs, frozenset(uses), rng.random() < 0.5, rng.random() < 0.5


def _random_groups(seed, count):
    rng = random.Random(seed)
    names = sorted(PROGRAMS)
    for _ in range(count):
        prog = program(rng.choice(names))
        defs, uses, idempotent, widen = random_group(rng, prog)
        # a slice of the candidates keeps one group cheap; the seed varies
        # which slice
        cands = rng.sample(prog.candidates, min(len(prog.candidates), 8))
        assert disagreements(prog, defs, uses, idempotent, widen,
                             cands) == [], (sorted(defs), sorted(uses))


@pytest.mark.parametrize("seed", range(4))
def test_seeded_random_groups(seed):
    _random_groups(seed, 60)


@pytest.mark.soak
def test_ten_thousand_random_groups():
    _random_groups(1_000, 10_000)
