"""Post-processing shared per update group ≡ post-processing per solution.

Everything downstream of ``Propagator.solutions`` keeps what it learns
about a program on the CFG / value-flow graph / subroutine and reuses it
for every solution.  These tests pin that sharing to the unshared
behaviour three ways: against a reference that hands every solution a
program nothing has been derived for yet, against the fingerprints the
last commit without sharing produced, and — for the path answers
commcheck keeps across the placements it judges — against the per-query
path search that commit ran.
"""

import json
import pathlib
import random
from dataclasses import replace

import pytest

from repro.analysis.commcheck import check_placement
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
from repro.errors import PlacementError, ReproError
from repro.lang.cfg import CFG
from repro.placement import Propagator, enumerate_placements, extract_comms
from repro.placement.annotate import annotate_source, placement_summary
from repro.placement.comms import Placement
from repro.placement.cost import estimate_cost
from repro.placement.engine import analyze
from repro.placement.reduce import reduce_vfg
from repro.placement.serialize import (
    decode_result,
    encode_result,
    payload_fingerprint,
    result_fingerprint,
)
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


def _spec(text, pattern=P1):
    return PartitionSpec.parse(text.format(pattern=pattern))


#: name -> (source, spec, solution limit): the ``place-corpus`` programs
PROGRAMS = {
    "testiv-p1": (TESTIV_SOURCE, spec_for_testiv(P1), None),
    "testiv-p2": (TESTIV_SOURCE, spec_for_testiv(P2), None),
    "advect-p1": (ADVECTION_SOURCE, _spec(_ADVECT), None),
    "advect-p2": (ADVECTION_SOURCE, _spec(_ADVECT, P2), None),
    "heat": (HEAT_SOURCE, _spec(_HEAT), None),
    "jacobi-node": (JACOBI_NODE_SOURCE, _spec(_JACOBI), None),
    "edge-smooth-3d": (EDGE_SMOOTH_3D_SOURCE, _spec(_EDGE3D), None),
    "shallow": (SHALLOW_SOURCE, _spec(SHALLOW_SPEC_TEXT), None),
    "synthetic-8": (synthetic_source(8), synthetic_spec(), 64),
    "synthetic-16": (synthetic_source(16), synthetic_spec(), 16),
}
MODES = {"blocking": False, "split": True}


def _underived(vfg):
    """The same program (same sids) with nothing derived for it yet."""
    sub = replace(vfg.graph.sub, _index=None, _layout=None)
    graph = replace(vfg.graph, sub=sub, cfg=CFG.build(sub))
    return replace(vfg, graph=graph, _extraction=None, _witnesses=None)


def _post_process(search_vfg, vfg, sol, split_phase):
    placement = Placement(solution=sol, comms=extract_comms(
        search_vfg, sol, split_phase=split_phase))
    sub = vfg.graph.sub
    return (placement.comms, estimate_cost(vfg, placement),
            annotate_source(sub, vfg, placement),
            placement_summary(sub, vfg, placement))


def _unshared_find_path(cfg, partitioned, start, avoid, targets):
    """The path search as it ran before answers were shared: every query
    starts from an empty ``exit_ok`` table."""
    exit_ok_cache = {}

    def exit_ok(hdr):
        cached = exit_ok_cache.get(hdr)
        if cached is not None:
            return cached
        exit_ok_cache[hdr] = True  # break recursion conservatively
        body_first = cfg.nodes[hdr].body[0].sid
        res = body_first not in avoid \
            and search(body_first, {hdr}) is not None
        exit_ok_cache[hdr] = res
        return res

    def succs(n):
        st = cfg.nodes.get(n)
        if n in partitioned and st.body:
            body_first = st.body[0].sid
            yield body_first
            if exit_ok(n):
                yield from (s for s in cfg.succ.get(n, ())
                            if s != body_first)
        else:
            yield from cfg.succ.get(n, ())

    def search(origin, goals):
        parent = {origin: None}
        queue = [origin]
        while queue:
            nxt = []
            for n in queue:
                for s in succs(n):
                    if s in goals and s not in avoid:
                        path = [s, n]
                        while parent[path[-1]] is not None:
                            path.append(parent[path[-1]])
                        return tuple(reversed(path))
                    if s in parent or s in avoid:
                        continue
                    parent[s] = n
                    nxt.append(s)
            queue = nxt
        return None

    return search(start, targets)


@pytest.fixture(scope="module", params=sorted(PROGRAMS))
def program(request):
    source, spec, limit = PROGRAMS[request.param]
    sub, graph, idioms, legality, vfg = analyze(source, spec)
    automaton = automaton_for(spec.pattern)
    search_vfg, _stats = reduce_vfg(vfg, automaton)
    solutions = list(Propagator(search_vfg, automaton).solutions(limit=limit))
    return search_vfg, vfg, solutions


@pytest.mark.parametrize("mode", sorted(MODES))
class TestDifferential:
    def test_shared_equals_per_solution_in_any_order(self, program, mode):
        search_vfg, vfg, solutions = program
        split = MODES[mode]
        reference = [_post_process(_underived(search_vfg), _underived(vfg),
                                   sol, split) for sol in solutions]
        shared_search, shared = _underived(search_vfg), _underived(vfg)
        assert [_post_process(shared_search, shared, sol, split)
                for sol in solutions] == reference
        order = list(range(len(solutions)))
        random.Random(7).shuffle(order)
        shuffled_search, shuffled = _underived(search_vfg), _underived(vfg)
        for i in order:
            assert _post_process(shuffled_search, shuffled, solutions[i],
                                 split) == reference[i]

    def test_every_shared_path_answer_is_the_unshared_one(self, program,
                                                          mode):
        search_vfg, vfg, solutions = program
        shared = _underived(vfg)
        for sol in solutions:
            comms = extract_comms(search_vfg, sol, split_phase=MODES[mode])
            check_placement(shared, Placement(solution=sol, comms=comms))
        paths = shared._witnesses
        assert paths.found
        for (start, avoid, targets), path in paths.found.items():
            assert path == _unshared_find_path(
                paths.cfg, paths.partitioned, start, avoid, targets)


class TestGoldenFingerprints:
    """The placements, costs, summaries and annotated text the tool
    produced before sharing, digest by digest."""

    GOLDEN = json.loads((pathlib.Path(__file__).parent / "golden"
                         / "result_fingerprints.json").read_text("utf-8"))

    @pytest.mark.parametrize("mode", sorted(MODES))
    @pytest.mark.parametrize("name", sorted(PROGRAMS))
    def test_result_fingerprint_unchanged(self, name, mode):
        source, spec, limit = PROGRAMS[name]
        result = enumerate_placements(source, spec, limit=limit,
                                      split_phase=MODES[mode])
        golden = self.GOLDEN["fingerprints"][f"{name}/{mode}"]
        assert result_fingerprint(result) == golden
        # ... which is the digest of the body the artifact stores: the
        # service reads its name off the bytes, it never re-renders
        payload = encode_result(result)
        assert payload_fingerprint(payload) == golden
        restored = decode_result(payload, result.sub, result.spec)
        assert result_fingerprint(restored) == golden
        assert encode_result(restored) == payload

    @staticmethod
    def _payload():
        source, spec, limit = PROGRAMS[sorted(PROGRAMS)[0]]
        result = enumerate_placements(source, spec, limit=limit)
        return result, encode_result(result)

    def test_head_locates_every_record(self):
        result, payload = self._payload()
        head, _, body = payload.partition(b"\n")
        head = json.loads(head)
        assert sorted(head) == ["flags", "sha256", "spans", "table",
                                "version"]
        assert head["flags"] == result.flags and head["version"] == 4
        assert head["sha256"] == payload_fingerprint(payload)
        records = [json.loads(body[start:end])
                   for start, end in head["spans"]]
        assert records == json.loads(body)["solutions"]
        assert head["table"] == [[rp.cost.total, rp.summary,
                                  rp.placement.comm_count()]
                                 for rp in result.ranked]

    def test_version_1_payload_is_refused_as_stale(self):
        result, payload = self._payload()
        head, _, body = payload.partition(b"\n")
        # layout 1: one object, flags beside the rest
        v1 = json.dumps({**json.loads(body), "flags": result.flags},
                        sort_keys=True, separators=(",", ":")).encode()
        with pytest.raises(ReproError, match=r"version 1 != supported 4 "
                                             r"\(stale cache entry\?\)"):
            decode_result(v1, result.sub, result.spec)

    def test_version_2_payload_is_refused_as_stale(self):
        result, payload = self._payload()
        body = payload.partition(b"\n")[2]
        # layout 2: a head of flags and version, no spans or table
        v2 = json.dumps({"flags": result.flags, "version": 2},
                        sort_keys=True, separators=(",", ":")).encode()
        with pytest.raises(ReproError, match=r"version 2 != supported 4 "
                                             r"\(stale cache entry\?\)"):
            decode_result(v2 + b"\n" + body, result.sub, result.spec)

    def test_version_3_payload_is_refused_as_stale(self):
        result, payload = self._payload()
        head, _, body = payload.partition(b"\n")
        # layout 3: the head without the body's digest
        v3 = {k: v for k, v in json.loads(head).items() if k != "sha256"}
        v3 = json.dumps({**v3, "version": 3}, sort_keys=True,
                        separators=(",", ":")).encode()
        with pytest.raises(ReproError, match=r"version 3 != supported 4 "
                                             r"\(stale cache entry\?\)"):
            decode_result(v3 + b"\n" + body, result.sub, result.spec)

    def test_golden_covers_exactly_the_programs(self):
        assert sorted(self.GOLDEN["fingerprints"]) == sorted(
            f"{name}/{mode}" for name in PROGRAMS for mode in MODES)


ENTANGLED_SOURCE = """\
      subroutine tangle(a, b, nsom, flag)
      integer nsom, flag, i
      real a(1000), b(1000)
      real s
      s = 0.0
      if (flag .gt. 0) then
         do i = 1,nsom
            s = s + a(i)
         end do
      end if
      do i = 1,nsom
         b(i) = s
      end do
      end
"""


def test_entangled_group_raises_on_every_call():
    """The reduction's partial sums reach ``b(i) = s`` on one path only:
    no point both follows the definition always and precedes the use."""
    spec = PartitionSpec.parse("pattern overlap-elements-2d\n"
                               "extent node nsom\narray a node\n"
                               "array b node\n")
    sub, graph, idioms, legality, vfg = analyze(ENTANGLED_SOURCE, spec)
    solutions = list(Propagator(vfg, automaton_for(spec.pattern)).solutions())
    assert solutions
    for sol in solutions + solutions:
        for split in (False, True):
            with pytest.raises(PlacementError, match="too entangled"):
                extract_comms(vfg, sol, split_phase=split)
