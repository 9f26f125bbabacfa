"""Structured diagnostics shared by static checks and the runtime.

The paper's selling point for automatic checking — "this checking, when
performed manually, is an important source of errors" (§3.2) — deserves
compiler-grade reporting.  Every check in the system (figure-4 legality,
the commcheck verifier, the executor's window-leak detector, the
transport drain assertions) speaks one vocabulary:

* a :class:`Diagnostic` — a stable ``CCnnn`` code, a severity, a message,
  source anchors, and (for path-sensitive findings) a concrete statement
  path witness;
* a :class:`DiagnosticSink` collecting them, honouring source-level
  ``commcheck: disable=CCnnn`` suppressions;
* a machine-readable JSON form (:meth:`Diagnostic.to_json`) identical for
  static findings and runtime faults, so one grep / one dashboard covers
  both.

The module is dependency-light on purpose: the runtime imports it to tag
its faults, and it must not drag the analysis stack along.

Diagnostic codes
================

=====  ========================  =========================================
code   name                      meaning
=====  ========================  =========================================
CC001  stale-overlap-read        OVERLAP read not covered by an update
                                 communication on some path
CC002  window-write              definition of a variable inside its own
                                 open post→wait window
CC003  window-pairing            double post / unmatched wait /
                                 wait-before-post / leaked window
CC004  divergent-comm            collective under rank-divergent control
                                 flow with unmatched participants
CC005  deadlock-cycle            cycle in the channel wait-for graph of
                                 per-rank communication orders
CC006  checkpoint-window         checkpoint boundary can fall inside an
                                 open window (quiescence never holds)
CC007  missing-combine           reduction/combine contribution missing
                                 or doubled on some path
CC008  halo-schedule-gap         halo schedule does not cover the overlap
                                 it must keep coherent
CC009  illegal-dependence        figure-4 legality violation (case letter
                                 in the data payload)
CC010  tag-conflict              two in-flight messages share one
                                 (src, dst, tag) channel — the receive
                                 match is schedule-dependent
CC013  superfluous-sync          a declared communication outside every
                                 update group: no dependence needs it
CC014  domain-inconsistent       a partitioned loop without an iteration
                                 domain, or domains no overlap state fits
CC101  undrained-channel         runtime: messages sent but never received
CC103  leaked-window             runtime: communication window never waited
CC104  nonquiescent-checkpoint   runtime: checkpoint requested with traffic
                                 still in flight
=====  ========================  =========================================

Numbers 011 and 012 named the verdicts of a retired second model-checking
engine (engine divergence, truncated exploration); they are not reused.
Nor is 102, which named a nonblocking request posted but never waited:
halo windows hold no request handles, and a POST without its WAIT is
CC103 (window never waited) or CC101 (message never received).
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from typing import Iterable, Optional

SEV_ERROR = "error"
SEV_WARNING = "warning"
SEV_NOTE = "note"

#: code -> (short kebab-case name, default severity)
CODES: dict[str, tuple[str, str]] = {
    "CC001": ("stale-overlap-read", SEV_ERROR),
    "CC002": ("window-write", SEV_ERROR),
    "CC003": ("window-pairing", SEV_ERROR),
    "CC004": ("divergent-comm", SEV_ERROR),
    "CC005": ("deadlock-cycle", SEV_ERROR),
    "CC006": ("checkpoint-window", SEV_WARNING),
    "CC007": ("missing-combine", SEV_ERROR),
    "CC008": ("halo-schedule-gap", SEV_ERROR),
    "CC009": ("illegal-dependence", SEV_ERROR),
    "CC010": ("tag-conflict", SEV_WARNING),
    "CC013": ("superfluous-sync", SEV_WARNING),
    "CC014": ("domain-inconsistent", SEV_ERROR),
    "CC101": ("undrained-channel", SEV_ERROR),
    "CC103": ("leaked-window", SEV_ERROR),
    "CC104": ("nonquiescent-checkpoint", SEV_ERROR),
}


@dataclass(frozen=True)
class SourceAnchor:
    """A program point a diagnostic talks about."""

    sid: int                      # statement id (ENTRY/EXIT use sentinels)
    line: Optional[int] = None    # source line, when the sid has one
    text: str = ""                # one-line rendering of the statement

    def label(self) -> str:
        if self.line is not None:
            return f"L{self.line}"
        return self.text or f"sid{self.sid}"

    def to_json(self) -> dict:
        return {"sid": self.sid, "line": self.line, "text": self.text}

    @classmethod
    def from_json(cls, payload: dict) -> "SourceAnchor":
        return cls(sid=payload["sid"], line=payload.get("line"),
                   text=payload.get("text") or "")


def anchor_for(sub, sid: int) -> SourceAnchor:
    """Build an anchor from a subroutine (duck-typed: ``sub.stmt(sid)``)."""
    from ..lang.cfg import ENTRY, EXIT
    if sid == ENTRY:
        return SourceAnchor(sid=sid, text="entry")
    if sid == EXIT:
        return SourceAnchor(sid=sid, text="exit")
    try:
        st = sub.stmt(sid)
    except Exception:
        return SourceAnchor(sid=sid, text=f"sid{sid}")
    line = getattr(st, "line", None)
    text = " ".join(str(st).split())
    return SourceAnchor(sid=sid, line=line, text=text)


@dataclass(frozen=True)
class Diagnostic:
    """One finding, static or runtime, in the shared format."""

    code: str
    message: str
    severity: str = ""            # defaults from the code table
    var: Optional[str] = None
    anchors: tuple[SourceAnchor, ...] = ()
    witness: tuple[SourceAnchor, ...] = ()   # offending path, in order
    data: dict = field(default_factory=dict, compare=False)

    def __post_init__(self) -> None:
        if not self.severity:
            _, sev = CODES.get(self.code, ("", SEV_ERROR))
            object.__setattr__(self, "severity", sev)
        if not isinstance(self.anchors, tuple):
            object.__setattr__(self, "anchors", tuple(self.anchors))
        if not isinstance(self.witness, tuple):
            object.__setattr__(self, "witness", tuple(self.witness))

    @property
    def name(self) -> str:
        return CODES.get(self.code, (self.code.lower(), ""))[0]

    def render(self) -> str:
        where = f" at {self.anchors[0].label()}" if self.anchors else ""
        head = (f"{self.code} {self.severity}{where}: {self.message}"
                f" [{self.name}]")
        lines = [head]
        if self.witness:
            path = " -> ".join(a.label() for a in self.witness)
            lines.append(f"    witness path: {path}")
        return "\n".join(lines)

    def to_json(self) -> dict:
        return {
            "code": self.code,
            "name": self.name,
            "severity": self.severity,
            "message": self.message,
            "var": self.var,
            "anchors": [a.to_json() for a in self.anchors],
            "witness": [a.to_json() for a in self.witness],
            "data": self.data,
        }

    @classmethod
    def from_json(cls, payload: dict) -> "Diagnostic":
        """Inverse of :meth:`to_json` (``name`` is derived, not stored).

        This is what lets cached commcheck verdicts round-trip through the
        placement service's content-addressed store and come back as the
        same structured findings a fresh check would emit.
        """
        return cls(
            code=payload["code"],
            message=payload["message"],
            severity=payload.get("severity") or "",
            var=payload.get("var"),
            anchors=tuple(SourceAnchor.from_json(a)
                          for a in payload.get("anchors", ())),
            witness=tuple(SourceAnchor.from_json(a)
                          for a in payload.get("witness", ())),
            data=dict(payload.get("data") or {}))


_SUPPRESS_RE = re.compile(
    r"commcheck:\s*disable=([A-Z]{2}\d{3}(?:\s*,\s*[A-Z]{2}\d{3})*)")


def parse_suppressions(source: str) -> set[str]:
    """Codes disabled by ``commcheck: disable=CCnnn[,CCnnn…]`` comments.

    Recognized in FORTRAN comments (``C``/``!``/``*``) and ``#`` lines
    anywhere in the program; suppressions are whole-program (the checks
    are path-global, so a per-line scope would be misleading).
    """
    out: set[str] = set()
    for line in source.splitlines():
        stripped = line.strip()
        if not stripped:
            continue
        if stripped[0] in "Cc!*#":
            m = _SUPPRESS_RE.search(stripped)
            if m:
                out.update(c.strip() for c in m.group(1).split(","))
    return out


class DiagnosticSink:
    """Collects diagnostics, applying suppressions; renders / serializes."""

    def __init__(self, suppress: Iterable[str] = ()):
        self.suppress: set[str] = set(suppress)
        self.diagnostics: list[Diagnostic] = []
        self.suppressed: list[Diagnostic] = []

    def emit(self, diag: Diagnostic) -> bool:
        """Record a diagnostic; returns False when it was suppressed."""
        if diag.code in self.suppress:
            self.suppressed.append(diag)
            return False
        self.diagnostics.append(diag)
        return True

    @property
    def errors(self) -> list[Diagnostic]:
        return [d for d in self.diagnostics if d.severity == SEV_ERROR]

    @property
    def warnings(self) -> list[Diagnostic]:
        return [d for d in self.diagnostics if d.severity == SEV_WARNING]

    @property
    def ok(self) -> bool:
        """No errors (warnings allowed)."""
        return not self.errors

    @property
    def clean(self) -> bool:
        """Nothing at all was emitted."""
        return not self.diagnostics

    def codes(self) -> set[str]:
        return {d.code for d in self.diagnostics}

    def sorted(self) -> list[Diagnostic]:
        def key(d: Diagnostic):
            line = d.anchors[0].line if d.anchors and \
                d.anchors[0].line is not None else 1 << 30
            return (line, d.code, d.var or "", d.message)
        return sorted(self.diagnostics, key=key)

    def render(self) -> str:
        if self.clean:
            n = len(self.suppressed)
            tail = f" ({n} suppressed)" if n else ""
            return f"commcheck: clean{tail}"
        lines = [d.render() for d in self.sorted()]
        lines.append(f"commcheck: {len(self.errors)} error(s), "
                     f"{len(self.warnings)} warning(s), "
                     f"{len(self.suppressed)} suppressed")
        return "\n".join(lines)

    def to_json(self) -> list[dict]:
        return [d.to_json() for d in self.sorted()]

    def dumps(self, **kwargs) -> str:
        return json.dumps(self.to_json(), **kwargs)

    @classmethod
    def from_json(cls, payload: Iterable[dict],
                  suppress: Iterable[str] = ()) -> "DiagnosticSink":
        """Rebuild a sink from :meth:`to_json` output (suppressions were
        already applied when the original sink was filled, so the restored
        sink re-emits the recorded findings verbatim)."""
        sink = cls(suppress=suppress)
        for item in payload:
            sink.diagnostics.append(Diagnostic.from_json(item))
        return sink
