"""The bitset dependence analysis ≡ the frozenset reference, row for row.

:func:`reaching_definitions` / :func:`reaching_uses` compute integer
bitsets and :func:`build_depgraph` stores the edge set as columns; these
tests hold them to the set-of-tuples formulation they replaced
(``reference_reaching``): the same reaching sets at every node, the same
edge multiset over all seven fields, the same zero-trip shadows and the
same legality report — on every corpus program under both 2-D patterns,
``synthetic_source(1..8)`` and figure-4 micro-programs, illegal ones
included — and the value-flow arrows built from the rows to the per-edge
loop with its dedup set.  The edge order no longer depends on ``PYTHONHASHSEED``.
"""

import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

from repro.analysis import (
    AccessMap,
    build_depgraph,
    check_legality,
    detect_idioms,
    reaching_uses,
)
from repro.analysis.reaching import set_bits
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
from repro.lang import CFG, EXIT, parse_subroutine
from repro.placement.dfg import build_value_flow_graph
from repro.spec import PartitionSpec, spec_for_testiv

from tests.analysis.reference_reaching import (
    reaching_definitions as ref_reaching_definitions,
    reaching_uses as ref_reaching_uses,
    reference_arrows,
    reference_edges,
    reference_legality,
)

SRC = Path(__file__).resolve().parents[2] / "src"

PATTERNS = ("overlap-elements-2d", "shared-nodes-2d")
_TRI = ("pattern {pattern}\nextent node nsom\nextent triangle ntri\n"
        "indexmap som triangle node\n")
_TEXTS = {
    "heat": (HEAT_SOURCE, _TRI + "array u0 node\narray u1 node\n"
             "array u node\narray rhs node\narray mass node\n"
             "array area triangle\n"),
    "advect": (ADVECTION_SOURCE, _TRI + "array c0 node\narray c1 node\n"
               "array c node\narray acc node\narray w triangle\n"),
    "jacobi": (JACOBI_NODE_SOURCE, "pattern {pattern}\nextent node nsom\n"
               "array x0 node\narray x1 node\narray x node\narray b node\n"),
    "shallow": (SHALLOW_SOURCE, SHALLOW_SPEC_TEXT),
}
_EDGE3D = ("pattern overlap-elements-3d\nextent node nsom\nextent edge nseg\n"
           "indexmap nubo edge node\narray v0 node\narray v1 node\n"
           "array v node\narray acc node\narray elen edge\n")

_MICRO_SPEC = ("pattern overlap-elements-2d\n"
               "extent node nsom\nextent triangle ntri\n"
               "indexmap m triangle node\n"
               "array a node\narray b node\narray t triangle\n"
               "array r replicated\n")
#: figure-4 situations, legal and illegal
_MICRO = {
    "carried-true": "      do i = 1,ntri\n         a(m(i,1)) = a(m(i,2))\n"
                    "      end do\n",
    "carried-anti": "      do i = 1,ntri\n         x = a(m(i,2))\n"
                    "         a(m(i,1)) = x\n      end do\n",
    "carried-output": "      do i = 1,ntri\n         a(m(i,1)) = 1.0\n"
                      "      end do\n",
    "explicit": "      x = a(7)\n      do i = 1,nsom\n         a(i) = b(3)\n"
                "      end do\n",
    "index-value": "      do i = 1,nsom\n         a(i) = i\n      end do\n",
    "replicated": "      do i = 1,nsom\n         r(1) = a(i)\n      end do\n",
    "reduction": "      x = 0.0\n      do i = 1,nsom\n         x = x + a(i)\n"
                 "      end do\n      y = x\n",
    "branchy": "      if (x .gt. 0.0) then\n         y = 1.0\n      end if\n"
               "      do i = 1,nsom\n         if (a(i) .gt. y) then\n"
               "            b(i) = a(i) + a(i)\n         end if\n"
               "      end do\n",
}


def _micro_source(body):
    return ("      subroutine t(a, b, t, m, r, nsom, ntri)\n"
            "      integer nsom, ntri\n"
            "      real a(100), b(100), t(200), r(4)\n"
            "      integer m(200,3)\n"
            "      integer i, k, s\n"
            "      real x, y\n"
            f"{body}"
            "      end\n")


def _cases():
    for p in PATTERNS:
        yield f"testiv-{p}", TESTIV_SOURCE, spec_for_testiv(p)
        for name, (source, text) in _TEXTS.items():
            yield (f"{name}-{p}", source,
                   PartitionSpec.parse(text.format(pattern=p)))
    yield "edge-smooth-3d", EDGE_SMOOTH_3D_SOURCE, PartitionSpec.parse(_EDGE3D)
    for n in range(1, 9):
        yield f"synthetic-{n}", synthetic_source(n), synthetic_spec()
    for name, body in _MICRO.items():
        yield f"micro-{name}", _micro_source(body), \
            PartitionSpec.parse(_MICRO_SPEC)


CASES = {name: (source, spec) for name, source, spec in _cases()}


@pytest.fixture(scope="module", params=sorted(CASES))
def analysed(request):
    source, spec = CASES[request.param]
    sub = parse_subroutine(source)
    cfg = CFG.build(sub)
    amap = AccessMap(sub, spec)
    return sub, spec, cfg, amap, build_depgraph(sub, spec, cfg, amap)


def _sites_at(sets, node):
    return frozenset(sets.sites[i] for i in set_bits(sets.ins[node]))


def test_reaching_sets_equal_reference(analysed):
    sub, spec, cfg, amap, graph = analysed
    ref = ref_reaching_definitions(cfg, amap)
    rdefs = graph.rdefs
    assert set(rdefs.ins) == set(ref.rd_in)
    for node, sites in ref.rd_in.items():
        assert _sites_at(rdefs, node) == sites, node
    assert rdefs.kills_var == ref.kills_var
    assert rdefs.covering == ref.covering
    ref_ru = ref_reaching_uses(cfg, amap, ref)
    ruses = reaching_uses(cfg, amap, rdefs)
    assert set(ruses.ins) == set(ref_ru)
    for node, sites in ref_ru.items():
        assert _sites_at(ruses, node) == sites, node


def test_edge_multiset_and_shadows_equal_reference(analysed):
    sub, spec, cfg, amap, graph = analysed
    ref, shadows = reference_edges(sub, cfg, amap)
    assert len(graph.edges) == len(ref)
    assert Counter(graph.edges) == Counter(ref)
    assert graph.zero_trip_shadows == shadows


def test_legality_report_equals_reference(analysed):
    sub, spec, cfg, amap, graph = analysed
    idioms = detect_idioms(sub, spec, amap)
    report = check_legality(sub, spec, graph, idioms)
    ref = reference_legality(sub, spec, graph, idioms,
                             reference_edges(sub, cfg, amap)[0])
    assert report.cases == ref.cases
    assert Counter(report.violations) == Counter(ref.violations)
    assert Counter(report.discharged) == Counter(ref.discharged)
    assert report.summary() == ref.summary()


def test_value_flow_arrows_equal_reference(analysed):
    sub, spec, cfg, amap, graph = analysed
    report = check_legality(sub, spec, graph)
    if not report.ok:
        pytest.skip("the placement engine never sees an illegal program")
    vfg = build_value_flow_graph(graph, report.idioms)
    ref = reference_arrows(graph, report.idioms, list(graph.edges),
                           ref_reaching_definitions(cfg, amap).rd_in[EXIT])
    assert vfg.edges == ref
    assert {e.src for e in ref} | {e.dst for e in ref} <= vfg.nodes


def test_micro_programs_exercise_violations():
    # the reference comparison above means something for illegal programs
    # only if some of them are illegal
    illegal = set()
    for name in CASES:
        if name.startswith("micro-"):
            source, spec = CASES[name]
            report = check_legality(parse_subroutine(source), spec)
            illegal |= {v.case for v in report.violations}
    assert {"a", "c", "d", "g"} <= illegal


def test_rows_follow_sid_order(analysed):
    """Each access's sources come in ascending sid order, and statements
    in CFG order within the true/output block and the anti block."""
    sub, spec, cfg, amap, graph = analysed
    e = graph.edges
    order = {sid: i for i, sid in enumerate(cfg.nodes)}
    last = {}
    for i in range(len(e)):
        kind, src, dst, acc = e.kind[i], e.src[i], e.dst[i], e.dst_access[i]
        block = {"true": 0, "output": 0, "anti": 1}.get(kind, 2)
        if block == 2:
            continue
        key = (block, dst, id(acc))
        if key in last:
            assert last[key] < src
        prev = last.get(block)
        assert prev is None or order[prev] <= order[dst]
        last[key] = src
        last[block] = dst


def test_selection_methods_read_the_columns():
    sub = parse_subroutine(TESTIV_SOURCE)
    graph = build_depgraph(sub, spec_for_testiv())
    edges = list(graph.edges)
    assert len(edges) == len(graph.edges) > 0
    assert graph.edges[-1] == edges[-1]
    assert graph.edges[2:5] == edges[2:5]
    for kind in ("true", "anti", "output", "control"):
        assert graph.by_kind(kind) == [x for x in edges if x.kind == kind]


_ORDER_SCRIPT = """
import json
from repro.analysis import detect_idioms
from repro.corpus import TESTIV_SOURCE, synthetic_source, synthetic_spec
from repro.lang import parse_subroutine
from repro.analysis import build_depgraph
from repro.placement.dfg import build_value_flow_graph
from repro.spec import spec_for_testiv
out = []
for source, spec in ((TESTIV_SOURCE, spec_for_testiv()),
                     (synthetic_source(8), synthetic_spec())):
    sub = parse_subroutine(source)
    graph = build_depgraph(sub, spec)
    vfg = build_value_flow_graph(graph, detect_idioms(sub, spec, graph.amap))
    out.append({
        "edges": [[e.kind, e.src, e.dst, e.var] for e in graph.edges],
        "shadows": graph.zero_trip_shadows,
        "vfg": [[e.src.name, e.dst.name, e.guard, e.var]
                for e in vfg.edges],
    })
print(json.dumps(out))
"""


def _run_with_hashseed(seed):
    env = dict(os.environ, PYTHONHASHSEED=str(seed),
               PYTHONPATH=str(SRC) + os.pathsep + os.environ.get(
                   "PYTHONPATH", ""))
    proc = subprocess.run([sys.executable, "-c", _ORDER_SCRIPT], env=env,
                          capture_output=True, text=True, check=True)
    return json.loads(proc.stdout)


def test_edge_order_independent_of_hash_seed():
    first, second = _run_with_hashseed(1), _run_with_hashseed(2)
    assert first == second
    assert all(prog["edges"] and prog["vfg"] for prog in first)
