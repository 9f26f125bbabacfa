"""Test mode: read a hand-annotated SPMD program back — paper section 5.2.

"Suppose that we start with the dfg with communication calls already
placed.  Then our algorithm may run in test mode, checking that this
particular placement gives a behavior compatible with the overlap."

The annotated source (figures 9/10) is the interchange format:
:func:`parse_annotated` reads it back into the placement it was printed
from, and :func:`repro.analysis.commcheck.check_placement` — the judge
every generated placement faces — decides.
"""

from __future__ import annotations

import re

from ..analysis.diagnostics import Diagnostic, DiagnosticSink, anchor_for
from ..automata.library import automaton_for
from ..errors import PlacementError
from ..lang.ast import DoLoop
from ..lang.cfg import EXIT
from ..lang.lexer import scan_directives, sync_phase
from ..spec import PartitionSpec
from .comms import CommOp, Placement, kind_and_op
from .engine import PlacementResult, analyze, ranked_result
from .propagate import Propagator, Solution

_DOMAIN_RE = re.compile(r"ITERATION\s+DOMAIN:\s*(KERNEL|OVERLAP)", re.I)
_SYNC_RE = re.compile(
    r"SYNCHRONIZE\s+METHOD:\s*(?P<method>[^ ]+(?: reduction)?)\s+ON\s+"
    r"(?:ARRAY|SCALAR):\s*(?P<var>\w+)", re.I)


def parse_annotated(source: str, spec: PartitionSpec,
                    sink: DiagnosticSink | None = None) -> PlacementResult:
    """Annotated text → the one-entry result it declares.

    Directives attach to the next statement by *source line*, trailing
    ones to EXIT; the k-th POST of a (variable, method) pairs with its k-th
    WAIT.  A lone half is a CC003 in ``sink``, else a :class:`PlacementError`.
    """
    sub, _graph, _idioms, legality, vfg = analyze(source, spec)
    stmts = sorted(sub.walk(), key=lambda s: (s.line, s.sid))
    domains: dict[int, str] = {}
    halves: dict[tuple, dict] = {}   # (var, method) -> phase -> anchors
    for line, text in scan_directives(source):
        st = next((s for s in stmts if s.line > line), None)
        m = _DOMAIN_RE.search(text)
        if m:
            if not isinstance(st, DoLoop):
                raise PlacementError(f"line {line}: ITERATION DOMAIN "
                                     f"directive not followed by a do loop")
            domains[st.sid] = m.group(1).upper()
            continue
        phase, body = sync_phase(text)
        m = _SYNC_RE.search(body)
        if not m:
            raise PlacementError(f"line {line}: unrecognized directive "
                                 f"{text!r}")
        key = m.group("var").lower(), m.group("method").lower()
        halves.setdefault(key, {}).setdefault(phase, []).append(
            EXIT if st is None else st.sid)
    comms = []
    for (var, method), phases in halves.items():
        kind, op = kind_and_op(method)
        posts, waits = phases.get("POST", []), phases.get("WAIT", [])
        windows = list(zip(posts, waits))
        windows += [(a, a) for a in phases.get(None, [])]
        comms += [CommOp(post, wait, kind, var, method,
                         spec.entity_of_array(var), op)
                  for post, wait in windows]
        for phase, lone in (("POST", posts[len(waits):]),
                            ("WAIT", waits[len(posts):])):
            for at in (anchor_for(sub, a) for a in lone):
                message = f"{phase} of {method} on {var!r} has no partner"
                if sink is None:
                    raise PlacementError(f"{at.label()}: {message}")
                sink.emit(Diagnostic(
                    code="CC003", var=var, anchors=(at,), witness=(at,),
                    message=message,
                    data={"fault": f"unpaired-{phase.lower()}"}))
    automaton = automaton_for(spec.pattern)
    solution = None  # a loop left bare, or no state for the domains: CC014
    if set(vfg.loops) <= set(domains):
        solution = Propagator(vfg, automaton).evaluate(domains)
    placement = Placement(solution or Solution(domains, {}, {}), sorted(comms))
    return ranked_result(sub, spec, automaton, legality, vfg, [placement],
                         any(c.is_split for c in comms))


def check_annotated_program(source: str, spec: PartitionSpec
                            ) -> DiagnosticSink:
    """Run the section-5.2 test mode: commcheck's verdict on the text."""
    from ..analysis.commcheck import check_placement

    sink = DiagnosticSink()
    result = parse_annotated(source, spec, sink)
    return check_placement(result.vfg, result.best().placement,
                           result.automaton, sink=sink)
