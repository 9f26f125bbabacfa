"""The table-driven search ≡ the per-leaf walk it replaced.

:class:`~repro.placement.propagate.Propagator` computes each definition's
state and each arrow's crossing once per program and assembles solutions
from those rows; ``reference_propagate.py`` keeps the search that
re-walked the whole graph at every leaf.  The two must agree:
``solutions()`` as a sequence (order, domains, ``states`` and the key
order of ``edge_updates``) under every ``limit``; ``evaluate`` on every
leaf of the full ``domains_for`` product, assignments the search never
tries included; and a raised exception in type and message, after the
same prefix of solutions.

A fixed slice runs in tier-1.  The whole grid runs under ``-m soak``:
every ``place-corpus`` program, both 2-D patterns where the spec allows,
the reduced and the unreduced dfg, and ``synthetic_source(n)`` for
n = 1…6.
"""

import dataclasses
import itertools
import math
import random

import pytest

from repro.automata import KERNEL, OVERLAP
from repro.automata.automaton import (
    G_DIRECT,
    G_GATHER,
    G_OUTPUT,
    OverlapAutomaton,
)
from repro.automata.library import automaton_for
from repro.corpus import (
    SHALLOW_SOURCE,
    SHALLOW_SPEC_TEXT,
    TESTIV_SOURCE,
    synthetic_source,
    synthetic_spec,
)
from repro.errors import PlacementError
from repro.placement import Propagator, enumerate_placements
from repro.placement.engine import analyze
from repro.placement.reduce import reduce_vfg
from repro.spec import PartitionSpec, spec_for_testiv
from tests.placement.reference_propagate import (
    reference_evaluate,
    reference_solutions,
)
from tests.placement.test_shared_postprocessing import P1, P2, PROGRAMS

LIMITS = (None, 1, 3, 64)
#: the most leaves the reference (which prunes nothing) may walk for one
#: comparison: a larger search is compared only under a limit it reaches
#: within that many leaves
WALKABLE = 2 ** 14
#: ``evaluate`` is compared on every leaf of a domains_for product up to
#: this size, on a seeded sample of SAMPLE leaves of a larger one
EVAL_LEAVES = 4096
SAMPLE = 256


def _grid() -> dict:
    """name -> (source, spec): the place-corpus programs, both 2-D
    patterns where the spec allows, and synthetic_source(1…6)."""
    grid = {}
    for name, (source, spec, _limit) in PROGRAMS.items():
        base = name.removesuffix("-p1").removesuffix("-p2")
        for pattern in (P1, P2) if spec.pattern in (P1, P2) \
                else (spec.pattern,):
            grid[f"{base}/{pattern}"] = (
                source, dataclasses.replace(spec, pattern=pattern))
    for n in range(1, 7):
        for pattern in (P1, P2):
            grid[f"synthetic-{n}/{pattern}"] = (synthetic_source(n),
                                                synthetic_spec(pattern))
    return grid


GRID = _grid()
#: (case, reduced?) pairs tier-1 runs; the soak runs every pair
SLICE = [("testiv/" + P1, True), ("testiv/" + P1, False),
         ("advect/" + P2, True), ("heat/" + P1, True),
         ("synthetic-2/" + P1, True)]


def _steps(run):
    """What a call produces, one comparable step at a time: each solution
    (``None`` from ``evaluate`` stays ``None``), then how it ended — the
    exception's type and message, or ``"returned"``."""
    try:
        for sol in run():
            yield None if sol is None else (list(sol.domains.items()),
                                            sol.states,
                                            list(sol.edge_updates.items()))
    except Exception as exc:  # compared by type and message
        yield "raised", type(exc), str(exc)
    else:
        yield "returned"


def _agree(run, reference):
    """Assert both calls produce the same steps, in lockstep; returns
    how they ended."""
    for i, (got, want) in enumerate(itertools.zip_longest(
            _steps(run), _steps(reference))):
        assert got == want, i
    return got


def _setup(case: str, reduced: bool, automaton=None):
    source, spec = GRID[case]
    _sub, _graph, _idioms, _legality, vfg = analyze(source, spec)
    automaton = automaton or automaton_for(spec.pattern)
    if reduced:
        vfg, _stats = reduce_vfg(vfg, automaton)
    return vfg, automaton


def _leaves(vfg, automaton, budget: int):
    loops = sorted(vfg.loops.items())
    space = [automaton.domains_for(entity) for _lsid, entity in loops]
    if math.prod(map(len, space)) <= budget:
        combos = itertools.product(*space)
    else:
        rng = random.Random(1)
        combos = (tuple(rng.choice(alts) for alts in space)
                  for _ in range(min(budget, SAMPLE)))
    for combo in combos:
        yield {lsid: dom for (lsid, _entity), dom in zip(loops, combo)}


def _leaf_index(choices, domains) -> int:
    """The position of ``domains`` in the reference's walk order."""
    index = 0
    for lsid, alts in choices:
        index = index * len(alts) + alts.index(domains[lsid])
    return index


def _assert_same(vfg, automaton, eval_budget: int = EVAL_LEAVES):
    """One Propagator answers every query; a fresh one per query walks
    the reference."""
    prop = Propagator(vfg, automaton)
    choices = prop.loop_choices()
    leaves = math.prod(len(alts) for _lsid, alts in choices)
    for limit in LIMITS:
        if leaves > WALKABLE:
            # compare only a prefix the reference reaches within WALKABLE
            # leaves: the new search stops at the limit-th solution too
            if limit is None:
                continue
            sols = list(prop.solutions(limit))
            if len(sols) < limit \
                    or _leaf_index(choices, sols[-1].domains) >= WALKABLE:
                continue
        _agree(lambda: prop.solutions(limit),
               lambda: reference_solutions(Propagator(vfg, automaton), limit))
    for i, domains in enumerate(_leaves(vfg, automaton, eval_budget)):
        variants = [domains]
        if i % 7 == 0 and domains:
            # ... and the same assignment with a loop left out, or one extra
            variants += [dict(list(domains.items())[1:]),
                         {**domains, -1: KERNEL}]
        for assignment in variants:
            _agree(lambda: [prop.evaluate(assignment)],
                   lambda: [reference_evaluate(prop, assignment)])


@pytest.mark.parametrize("case,reduced", SLICE)
def test_tables_equal_the_walk(case, reduced):
    _assert_same(*_setup(case, reduced), eval_budget=64)


@pytest.mark.soak
@pytest.mark.parametrize("reduced", (True, False))
@pytest.mark.parametrize("case", sorted(GRID))
def test_tables_equal_the_walk_everywhere(case, reduced):
    _assert_same(*_setup(case, reduced))


class _Hostile(OverlapAutomaton):
    """An automaton whose crossings raise or dead-end on purpose."""

    def __init__(self, pattern, raises, dead):
        super().__init__(pattern)
        self.raises, self.dead = raises, dead

    def deliver(self, state, guard, domain=None):
        if self.raises(state, guard, domain):
            raise PlacementError(f"hostile {guard} of {state} into {domain}")
        if self.dead(state, guard, domain):
            return []
        return super().deliver(state, guard, domain)


#: name -> (which crossings raise, which dead-end)
HOSTILE = {
    # by the consumer's domain: some leaves are solutions, some raise,
    # some are dead, and the search raises after a prefix of solutions
    "stale-read": (lambda st, guard, dom: guard == G_DIRECT
                   and dom == KERNEL and not st.coherent,
                   lambda st, guard, dom: guard == G_GATHER
                   and dom == KERNEL),
    # the output arrows come first in walk order: a leaf dead at a later
    # arrow still raises, so the dead rows must not prune it away
    "output": (lambda st, guard, dom: guard == G_OUTPUT,
               lambda st, guard, dom: guard == G_DIRECT and dom == OVERLAP),
}


@pytest.mark.parametrize("rule", sorted(HOSTILE))
@pytest.mark.parametrize("reduced", (True, False))
@pytest.mark.parametrize("case", ["testiv/" + P1, "heat/" + P1,
                                  "shallow/" + P1])
def test_a_failing_crossing_fails_where_the_walk_does(case, reduced, rule):
    """A query that raises raises at the leaf the walk would raise at,
    after the same solutions, unless an earlier row rules the leaf out."""
    pattern = automaton_for(GRID[case][1].pattern).pattern
    vfg, automaton = _setup(case, reduced, _Hostile(pattern, *HOSTILE[rule]))
    _assert_same(vfg, automaton, eval_budget=64)


def test_a_site_the_walk_never_assigns_is_a_key_error():
    vfg, automaton = _setup("testiv/" + P1, True)
    out = next(n for n in vfg.nodes if n.kind == "out")
    edge = dataclasses.replace(vfg.edges[0], src=out)
    vfg = dataclasses.replace(vfg, edges=[*vfg.edges, edge])
    ended = _agree(lambda: Propagator(vfg, automaton).solutions(),
                   lambda: reference_solutions(Propagator(vfg, automaton)))
    assert ended == ("raised", KeyError, repr(out))


def test_both_roles_raise_before_any_solution():
    source = """\
      subroutine both(a, b, som, nsom, ntri, s)
      integer nsom, ntri, som(100,3), i
      real a(100), b(100), s
      s = 0.0
      do i = 1,ntri
         b(som(i,1)) = b(som(i,1)) + a(i)
         s = s + a(i)
      end do
      end
"""
    spec = PartitionSpec.parse(
        "pattern overlap-elements-2d\nextent node nsom\n"
        "extent triangle ntri\nindexmap som triangle node\n"
        "array a triangle\narray b node\n")
    _sub, _graph, _idioms, _legality, vfg = analyze(source, spec)
    automaton = automaton_for(spec.pattern)
    ended = _agree(lambda: Propagator(vfg, automaton).solutions(),
                   lambda: reference_solutions(Propagator(vfg, automaton)))
    assert ended[:2] == ("raised", PlacementError)
    assert "both a kernel-only reduction and an overlap" in ended[2]


def _counted(name):
    def query(self, *args, **kwargs):
        self.calls[name] += 1
        return getattr(OverlapAutomaton, name)(self, *args, **kwargs)
    return query


class _Counting(OverlapAutomaton):
    """Counts the automaton queries the search makes."""

    def __init__(self, pattern):
        super().__init__(pattern)
        self.calls = dict.fromkeys(("deliver", "def_state",
                                    "scatter_def_state",
                                    "reduction_def_state"), 0)

    deliver = _counted("deliver")
    def_state = _counted("def_state")
    scatter_def_state = _counted("scatter_def_state")
    reduction_def_state = _counted("reduction_def_state")


@pytest.mark.parametrize("reduced", (True, False))
def test_queries_per_program_not_per_solution(reduced):
    """SHALLOW's 256 solutions cost one row per definition and arrow:
    ≤ 2 state queries per definition, ≤ 4 crossings per arrow (the
    per-leaf walk made about 10⁴ crossings on the reduced dfg alone)."""
    spec = PartitionSpec.parse(SHALLOW_SPEC_TEXT.format(pattern=P1))
    automaton = _Counting(automaton_for(P1).pattern)
    _sub, _graph, _idioms, _legality, vfg = analyze(SHALLOW_SOURCE, spec)
    if reduced:
        vfg, _stats = reduce_vfg(vfg, automaton)
    assert len(list(Propagator(vfg, automaton).solutions())) == 256
    defs = sum(1 for n in vfg.nodes if n.kind == "def")
    assert 0 < automaton.calls["deliver"] <= 4 * len(vfg.edges)
    states = automaton.calls["def_state"] \
        + automaton.calls["scatter_def_state"] \
        + automaton.calls["reduction_def_state"]
    assert 0 < states <= 2 * defs


@pytest.mark.parametrize("limit", [0, -3, 2.5, True, "3"])
def test_limit_must_be_a_positive_integer(limit):
    with pytest.raises(PlacementError, match=r"limit must be a positive "
                                             r"integer or None: "):
        enumerate_placements(TESTIV_SOURCE, spec_for_testiv(), limit=limit)


def test_limit_counts_solutions():
    assert [len(enumerate_placements(TESTIV_SOURCE, spec_for_testiv(),
                                     limit=limit))
            for limit in (1, 2, 16, 17, None)] == [1, 2, 16, 16, 16]
