"""Annotated SPMD source generation — the output of figures 9 and 10.

The transformed program is the original source, untouched, plus:

* ``C$ITERATION DOMAIN: KERNEL|OVERLAP`` before every partitioned loop;
* ``C$SYNCHRONIZE METHOD: <m> ON ARRAY|SCALAR: <v>`` before each
  communication anchor (or before ``end`` for end-of-program updates);
* for split-phase windows, a ``C$SYNCHRONIZE POST …`` / ``C$SYNCHRONIZE
  WAIT …`` pair brackets the window instead — a degenerate window
  (post == wait) still renders as the single blocking directive, which
  keeps the figure-9/10 outputs stable.

Paper section 4: "In the generated output, the communication instructions
appear as comments.  The user replaces them by calls to subroutines using
any communications package" — our :mod:`repro.runtime.executor` plays the
role of that user, interpreting the directives over SimMPI.
"""

from __future__ import annotations

from ..lang.ast import Subroutine
from ..lang.cfg import EXIT
from ..lang.printer import source_layout
from .comms import Placement, placed_schedule
from .dfg import ValueFlowGraph


def domain_directive(domain: str) -> str:
    return f"C$ITERATION DOMAIN: {domain}"


def annotate_source(sub: Subroutine, vfg: ValueFlowGraph,
                    placement: Placement) -> str:
    """Render the annotated SPMD program for one placement.

    The subroutine's text is printed once per program
    (:func:`~repro.lang.printer.source_layout`); a placement only splices
    its directive lines in front of the statements they anchor to.
    """
    layout = source_layout(sub)
    last = len(layout.lines) - 1   # the closing ``end``: EXIT's anchor
    inserts: dict[int, list[str]] = {}

    def at(sid: int) -> list[str]:
        return inserts.setdefault(
            last if sid == EXIT else layout.starts[sid], [])

    for anchor, events in placed_schedule(placement.comms).items():
        at(anchor).extend(op.directive(phase) for phase, op in events)
    for lsid, domain in placement.domains.items():
        at(lsid).append(domain_directive(domain))
    return layout.splice(inserts)


def placement_summary(sub: Subroutine, vfg: ValueFlowGraph,
                      placement: Placement) -> str:
    """Compact one-placement description for reports and benchmarks."""
    parts = []
    for lsid in sorted(placement.domains):
        st = sub.stmt(lsid)
        ent = vfg.loops.get(lsid, "?")
        parts.append(f"loop@{st.line}({ent})={placement.domains[lsid]}")
    def at(sid: int) -> str:
        return "@end" if sid == EXIT else f"@{sub.stmt(sid).line}"

    for c in placement.comms:
        if c.is_split:
            where = f"post{at(c.post_anchor)}→wait{at(c.wait_anchor)}"
        else:
            where = "end" if c.anchor == EXIT else at(c.anchor)
        parts.append(f"sync[{c.method}:{c.var}]{where}")
    return "  ".join(parts)
