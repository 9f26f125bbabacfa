"""One placed schedule: every reader runs, prints and judges one order.

:func:`repro.placement.comms.placed_schedule` orders each anchor's
collective events once.  The executor's pre-actions, the annotated
directives, the MP net :func:`~repro.analysis.mpnet.compile_placement`
builds and commcheck's side events must each be that order, for every
placement of TESTIV, SHALLOW and ``synthetic_source(8)`` (the
``place-corpus`` limit of 64), blocking and widened.
"""

import pytest

from repro.analysis import commcheck
from repro.analysis.mpnet import CommEvent, compile_placement
from repro.corpus import (
    SHALLOW_SOURCE,
    SHALLOW_SPEC_TEXT,
    TESTIV_SOURCE,
    synthetic_source,
    synthetic_spec,
)
from repro.lang.cfg import EXIT
from repro.lang.printer import source_layout
from repro.mesh import structured_tri_mesh
from repro.mesh.overlap import build_partition
from repro.placement.annotate import annotate_source
from repro.placement.comms import (
    BLOCK,
    POST,
    WAIT,
    placed_schedule,
    widen_placement,
)
from repro.placement.engine import enumerate_placements
from repro.runtime import SPMDExecutor
from repro.spec import PartitionSpec, spec_for_testiv

PROGRAMS = {
    "testiv": (TESTIV_SOURCE, spec_for_testiv(), None),
    "shallow": (SHALLOW_SOURCE, PartitionSpec.parse(
        SHALLOW_SPEC_TEXT.format(pattern="overlap-elements-2d")), None),
    "synthetic-8": (synthetic_source(8), synthetic_spec(), 64),
}


@pytest.fixture(scope="module", params=sorted(PROGRAMS))
def program(request):
    source, spec, limit = PROGRAMS[request.param]
    result = enumerate_placements(source, spec, limit=limit)
    placements = [p for rp in result.ranked
                  for p in (rp.placement,
                            widen_placement(result.vfg, rp.placement))]
    partition = build_partition(structured_tri_mesh(4, 4), 2, spec.pattern)
    return result, placements, partition


def the_rule(comms, anchor):
    """At an anchor, every wait and blocking collective before any post,
    each in ``comms`` order."""
    return ([(WAIT if op.is_split else BLOCK, op) for op in comms
             if op.wait_anchor == anchor]
            + [(POST, op) for op in comms
               if op.is_split and op.post_anchor == anchor])


def in_source_order(sub, schedule):
    position = {sid: k for k, sid in
                enumerate([st.sid for st in sub.walk()] + [EXIT])}
    return [ev for anchor in sorted(schedule, key=position.__getitem__)
            for ev in schedule[anchor]]


def directives_before(sub, text):
    """Each anchor's ``C$SYNCHRONIZE`` lines in the annotated text."""
    layout = source_layout(sub)
    line_of = {v: k for k, v in layout.starts.items()}
    line_of[len(layout.lines) - 1] = EXIT
    found, pending, line = {}, [], 0
    for row in text.splitlines():
        if row.startswith("C$SYNCHRONIZE"):
            pending.append(row)
        elif not row.startswith("C$"):
            if pending:
                found[line_of[line]] = pending
                pending = []
            line += 1
    return found


def test_the_derivation_states_the_rule(program):
    _result, placements, _partition = program
    for placement in placements:
        comms = placement.comms
        schedule = placed_schedule(comms)
        anchors = {op.wait_anchor for op in comms} \
            | {op.post_anchor for op in comms if op.is_split}
        assert schedule == {a: the_rule(comms, a) for a in anchors}


def test_every_reader_reads_the_one_order(program):
    result, placements, partition = program
    sub = result.sub
    everywhere = set(result.vfg.graph.cfg.nodes) | {EXIT}
    for placement in placements:
        schedule = placed_schedule(placement.comms)
        # the executor runs it: the pre-actions of every rank's interpreter
        interp = SPMDExecutor(sub, result.spec, placement, partition
                              )._interpreter(1, partition.subs[0],
                                             frozenset())
        ran = {a: [act.payload for act in acts]
               for a, acts in interp.pre_actions.items()}
        if interp.on_return:
            ran[EXIT] = [act.payload for act in interp.on_return]
        assert ran == schedule
        # the annotated text prints it
        printed = directives_before(
            sub, annotate_source(sub, result.vfg, placement))
        assert printed == {a: [op.directive(phase) for phase, op in events]
                           for a, events in schedule.items()}
        # the MP net and commcheck's side events judge it, in source order
        ordered = in_source_order(sub, schedule)
        net = compile_placement(sub, placement)
        assert [ev.label for ev in net.events[0]] == [
            CommEvent((op.var, op.method), phase).label
            for phase, op in ordered]
        assert commcheck._side_events(sub, schedule, everywhere) == [
            (op.var, op.method) + ((POST,) if phase == POST else ())
            for phase, op in ordered]
