"""Exception hierarchy for the repro package.

Every error raised by the library derives from :class:`ReproError`, so a
driver can catch one type.  Front-end errors carry source locations; analysis
and placement errors carry enough program context to be actionable, because
the whole point of the tool (paper section 6) is replacing an error-prone
manual process with checked, explainable automation.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class of all errors raised by the repro library."""


class SourceError(ReproError):
    """An error tied to a location in a source program."""

    def __init__(self, message: str, line: int = 0, column: int = 0):
        self.line = line
        self.column = column
        if line:
            message = f"line {line}:{column}: {message}"
        super().__init__(message)


class LexError(SourceError):
    """Raised when the lexer meets a character sequence it cannot tokenize."""


class ParseError(SourceError):
    """Raised when the parser meets an unexpected token."""


class InterpError(ReproError):
    """Raised by the sequential/SPMD interpreters on a runtime fault."""


class AnalysisError(ReproError):
    """Raised by dependence analysis on programs outside the target class."""


class LegalityError(AnalysisError):
    """Raised when a user partitioning violates a dependence (fig. 4 cases).

    Attributes
    ----------
    violations:
        The list of offending dependences, when available.
    """

    def __init__(self, message: str, violations: list | None = None):
        super().__init__(message)
        self.violations = violations or []


class CommCheckError(AnalysisError):
    """Raised by ``repro lint --strict`` when commcheck finds diagnostics.

    Attributes
    ----------
    diagnostics:
        The list of :class:`~repro.analysis.diagnostics.Diagnostic`
        findings that caused the failure, in rendered order.
    """

    def __init__(self, message: str, diagnostics: list | None = None):
        super().__init__(message)
        self.diagnostics = diagnostics or []


class PlacementError(ReproError):
    """Raised when no consistent communication placement exists."""


class SpecError(ReproError):
    """Raised for ill-formed or inconsistent partitioning specifications."""


class MeshError(ReproError):
    """Raised for invalid meshes, partitions or overlap constructions."""


class RuntimeFault(ReproError):
    """Raised by the SimMPI runtime (deadlock, rank mismatch, bad buffer)."""


class CommTimeout(RuntimeFault):
    """A receive exhausted its retry budget (or had none) with no message.

    Carries the full outstanding-communication ledger at expiry so a fault
    injected deep inside an SPMD run is debuggable from the exception
    alone.

    Attributes
    ----------
    src, dst, tag:
        The channel the stalled receive was waiting on (``src`` is the
        missing peer).
    waited:
        How many retry steps were spent before giving up (0 = fail-fast).
    ledger:
        Mapping with the fabric state at expiry: ``"messages"`` — leftover
        ``(src, dst, tag, count)`` channels, plus fabric-specific keys
        (``"dropped"``, ``"delayed"``) when a fault-injection fabric
        raised it.
    op, anchor:
        Filled in by the executor's deadlock watchdog: the stalled
        :class:`~repro.placement.comms.CommOp` and its anchor sid.
    """

    def __init__(self, message: str, *, src: int | None = None,
                 dst: int | None = None, tag: int | None = None,
                 waited: int = 0, ledger: dict | None = None,
                 op=None, anchor: int | None = None):
        super().__init__(message)
        self.src = src
        self.dst = dst
        self.tag = tag
        self.waited = waited
        self.ledger = ledger or {}
        self.op = op
        self.anchor = anchor


class RankKilled(RuntimeFault):
    """A simulated rank died mid-iteration (fault-injection kill rule).

    Raised by the SPMD executor when a :class:`~repro.runtime.faults.KillRule`
    fires and no checkpoint is available to recover from.
    """

    def __init__(self, message: str, *, rank: int = -1, event: int = -1):
        super().__init__(message)
        self.rank = rank
        self.event = event
