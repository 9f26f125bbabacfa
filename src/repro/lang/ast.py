"""Abstract syntax tree for the mini-FORTRAN subset.

Every statement node carries a unique integer ``sid`` (assigned by the
parser in textual order) used as the anchor for dependence analysis,
placement and directive annotation, plus the source line it came from.

Expressions are immutable value objects; statements are mutable only in
their annotation fields (the transformation pass never rewrites the
computational statements — paper section 2.2: "the computational part of
the FORTRAN program remains exactly the same").
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Iterator, Optional, Union


# --------------------------------------------------------------------------
# Expressions
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class Expr:
    """Base class for expressions."""

    def walk(self) -> Iterator["Expr"]:
        """Yield this expression and all sub-expressions, pre-order."""
        yield self


@dataclass(frozen=True)
class Const(Expr):
    """Integer, real or logical literal."""

    value: Union[int, float, bool]

    def walk(self) -> Iterator[Expr]:
        yield self


@dataclass(frozen=True)
class Var(Expr):
    """Scalar variable reference (or whole-array reference in a call)."""

    name: str

    def walk(self) -> Iterator[Expr]:
        yield self


@dataclass(frozen=True)
class ArrayRef(Expr):
    """Array element reference ``name(subs...)``."""

    name: str
    subs: tuple[Expr, ...]

    def walk(self) -> Iterator[Expr]:
        yield self
        for s in self.subs:
            yield from s.walk()


@dataclass(frozen=True)
class BinOp(Expr):
    """Binary operation; ``op`` is one of + - * / ** relationals .and. .or."""

    op: str
    left: Expr
    right: Expr

    def walk(self) -> Iterator[Expr]:
        yield self
        yield from self.left.walk()
        yield from self.right.walk()


@dataclass(frozen=True)
class UnOp(Expr):
    """Unary operation; ``op`` is ``-``, ``+`` or ``.not.``."""

    op: str
    operand: Expr

    def walk(self) -> Iterator[Expr]:
        yield self
        yield from self.operand.walk()


@dataclass(frozen=True)
class Intrinsic(Expr):
    """Intrinsic function call such as ``sqrt(x)`` or ``max(a, b)``."""

    name: str
    args: tuple[Expr, ...]

    def walk(self) -> Iterator[Expr]:
        yield self
        for a in self.args:
            yield from a.walk()


# --------------------------------------------------------------------------
# Statements
# --------------------------------------------------------------------------

_sid_counter = itertools.count(1)


def _next_sid() -> int:
    return next(_sid_counter)


@dataclass
class Stmt:
    """Base class for statements."""

    sid: int = field(default_factory=_next_sid, init=False, compare=False)
    line: int = field(default=0, compare=False)
    label: Optional[int] = None

    def walk(self) -> Iterator["Stmt"]:
        """Yield this statement and all nested statements, pre-order."""
        yield self

    def children(self) -> list["Stmt"]:
        """Directly nested statements (loop/if bodies)."""
        return []


@dataclass
class Assign(Stmt):
    """Assignment ``target = value``; target is Var or ArrayRef."""

    target: Union[Var, ArrayRef] = None  # type: ignore[assignment]
    value: Expr = None  # type: ignore[assignment]


@dataclass
class DoLoop(Stmt):
    """``do var = lo, hi [, step] ... end do``."""

    var: str = ""
    lo: Expr = None  # type: ignore[assignment]
    hi: Expr = None  # type: ignore[assignment]
    step: Optional[Expr] = None
    body: list[Stmt] = field(default_factory=list)

    def walk(self) -> Iterator[Stmt]:
        yield self
        for s in self.body:
            yield from s.walk()

    def children(self) -> list[Stmt]:
        return list(self.body)


@dataclass
class IfGoto(Stmt):
    """Logical if with a goto: ``if (cond) goto target``."""

    cond: Expr = None  # type: ignore[assignment]
    target: int = 0


@dataclass
class IfBlock(Stmt):
    """Block if: ``if (cond) then ... [else ...] end if``."""

    cond: Expr = None  # type: ignore[assignment]
    then_body: list[Stmt] = field(default_factory=list)
    else_body: list[Stmt] = field(default_factory=list)

    def walk(self) -> Iterator[Stmt]:
        yield self
        for s in self.then_body:
            yield from s.walk()
        for s in self.else_body:
            yield from s.walk()

    def children(self) -> list[Stmt]:
        return list(self.then_body) + list(self.else_body)


@dataclass
class Goto(Stmt):
    """Unconditional ``goto target``."""

    target: int = 0


@dataclass
class Continue(Stmt):
    """``continue`` (label carrier / no-op)."""


@dataclass
class CallStmt(Stmt):
    """``call name(args...)`` — opaque external call."""

    name: str = ""
    args: tuple[Expr, ...] = ()


@dataclass
class Return(Stmt):
    """``return`` from the subroutine."""


@dataclass
class Stop(Stmt):
    """``stop`` the program."""


# --------------------------------------------------------------------------
# Declarations and program units
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class Decl:
    """One declared name with its base type and constant dimensions.

    ``dims`` is empty for scalars.  Dimensions are declared sizes; the
    *meaningful* extent of a partitioned array is a runtime value such as
    ``nsom`` (resolved by the partitioning spec, not the declaration).
    """

    name: str
    base: str  # "integer" | "real" | "logical"
    dims: tuple[int, ...] = ()

    @property
    def is_array(self) -> bool:
        return bool(self.dims)


@dataclass
class Subroutine:
    """A parsed subroutine: parameters, declarations and statement list."""

    name: str
    params: list[str]
    decls: dict[str, Decl]
    body: list[Stmt]
    # derived lazily, once per program: the statement list is fixed after
    # parsing.  ``_layout`` belongs to :mod:`repro.lang.printer`.
    _index: Optional[dict[int, Stmt]] = field(default=None, repr=False,
                                              compare=False)
    _layout: Optional[object] = field(default=None, repr=False, compare=False)
    _positions: Optional[dict[int, int]] = field(default=None, repr=False,
                                                 compare=False)

    def walk(self) -> Iterator[Stmt]:
        """All statements in the body, pre-order."""
        for s in self.body:
            yield from s.walk()

    @property
    def positions(self) -> dict[int, int]:
        """Source position of each statement (its :meth:`walk` index), and
        of the closing ``end`` — the CFG's EXIT, sid -1 — after them all.
        Statement ids are not source order: a ``do`` or ``if`` takes its
        sid after its body's."""
        if self._positions is None:
            order = [s.sid for s in self.walk()] + [-1]
            self._positions = {sid: k for k, sid in enumerate(order)}
        return self._positions

    def stmt(self, sid: int) -> Stmt:
        """Look up a statement by its ``sid``."""
        if self._index is None:
            self._index = {s.sid: s for s in self.walk()}
        try:
            return self._index[sid]
        except KeyError:
            raise KeyError(f"no statement with sid {sid}") from None

    def labels(self) -> dict[int, Stmt]:
        """Map label number -> labelled statement."""
        return {s.label: s for s in self.walk() if s.label is not None}

    def decl(self, name: str) -> Decl:
        """Declaration for ``name`` (implicit typing applied by the parser)."""
        return self.decls[name.lower()]


@dataclass
class Program:
    """A source file: one or more subroutines."""

    units: list[Subroutine]

    def unit(self, name: str) -> Subroutine:
        for u in self.units:
            if u.name.lower() == name.lower():
                return u
        raise KeyError(f"no subroutine named {name}")
