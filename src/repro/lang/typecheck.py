"""Static semantic checks for the mini-FORTRAN front end.

The parser accepts anything grammatical; this pass rejects the programs
that would only fail at run time, with source positions — the kind of
diagnostics an engineer pointing the tool at legacy code needs *before*
dependence analysis runs:

* subscript count vs declared rank, subscripting scalars, whole-array
  references in scalar expressions;
* non-integer subscripts and ``do`` bounds/steps;
* conditions that are not logical (relational/logical) expressions, and
  logical values used arithmetically;
* ``goto`` jumps into the body of a ``do`` loop (the interpreter's loop
  state would be undefined — the one control shape the flat machine does
  not support);
* intrinsic arity errors.

``check_types`` returns every diagnostic rather than stopping at the
first; ``raise_if_errors`` turns them into a :class:`TypeCheckError`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from ..errors import SourceError
from .ast import (
    ArrayRef,
    Assign,
    BinOp,
    CallStmt,
    Const,
    DoLoop,
    Expr,
    Goto,
    IfBlock,
    IfGoto,
    Intrinsic,
    Stmt,
    Subroutine,
    UnOp,
    Var,
)
from .semantics import INTRINSICS

T_INT = "integer"
T_REAL = "real"
T_LOGICAL = "logical"

_REL_OPS = ("<", "<=", ">", ">=", "==", "/=")
_LOGIC_OPS = (".and.", ".or.")


class TypeCheckError(SourceError):
    """Raised by :func:`raise_if_errors` when diagnostics exist."""


@dataclass(frozen=True)
class Diagnostic:
    """One semantic problem, with its source line."""

    line: int
    message: str

    def __str__(self) -> str:
        return f"line {self.line}: {self.message}"


@dataclass
class TypeReport:
    """All diagnostics of one subroutine."""

    sub: Subroutine
    errors: list[Diagnostic] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.errors

    def raise_if_errors(self) -> None:
        if self.errors:
            lines = "\n  ".join(str(d) for d in self.errors)
            raise TypeCheckError(f"semantic errors:\n  {lines}")


class _Checker:
    def __init__(self, sub: Subroutine):
        self.sub = sub
        self.report = TypeReport(sub=sub)

    def error(self, line: int, message: str) -> None:
        self.report.errors.append(Diagnostic(line=line, message=message))

    # -- expression typing -------------------------------------------------

    def type_of(self, ex: Expr, line: int) -> Optional[str]:
        """Kind of an expression, or None after reporting a problem."""
        if isinstance(ex, Const):
            if isinstance(ex.value, bool):
                return T_LOGICAL
            return T_INT if isinstance(ex.value, int) else T_REAL
        if isinstance(ex, Var):
            decl = self.sub.decls.get(ex.name)
            if decl is None:
                self.error(line, f"undeclared name {ex.name!r}")
                return None
            if decl.is_array:
                self.error(line, f"whole array {ex.name!r} used as a value")
                return None
            return decl.base
        if isinstance(ex, ArrayRef):
            decl = self.sub.decls.get(ex.name)
            if decl is None:
                self.error(line, f"undeclared array {ex.name!r}")
                return None
            if not decl.is_array:
                self.error(line, f"{ex.name!r} is a scalar, not an array")
                return None
            if len(ex.subs) != len(decl.dims):
                self.error(line,
                           f"{ex.name!r} has rank {len(decl.dims)}, "
                           f"subscripted with {len(ex.subs)} index(es)")
            for sub_ex in ex.subs:
                kind = self.type_of(sub_ex, line)
                if kind is not None and kind != T_INT:
                    self.error(line,
                               f"subscript of {ex.name!r} is {kind}, "
                               f"must be integer")
            return decl.base
        if isinstance(ex, BinOp):
            return self.type_of_binop(ex, line)
        if isinstance(ex, UnOp):
            inner = self.type_of(ex.operand, line)
            if ex.op == ".not.":
                if inner is not None and inner != T_LOGICAL:
                    self.error(line, f".not. applied to {inner} value")
                return T_LOGICAL
            if inner == T_LOGICAL:
                self.error(line, f"arithmetic {ex.op!r} on logical value")
                return None
            return inner
        if isinstance(ex, Intrinsic):
            return self.type_of_intrinsic(ex, line)
        self.error(line, f"unsupported expression {type(ex).__name__}")
        return None

    def type_of_binop(self, ex: BinOp, line: int) -> Optional[str]:
        left = self.type_of(ex.left, line)
        right = self.type_of(ex.right, line)
        if ex.op in _LOGIC_OPS:
            for side, kind in (("left", left), ("right", right)):
                if kind is not None and kind != T_LOGICAL:
                    self.error(line, f"{ex.op} {side} operand is {kind}, "
                                     f"must be logical")
            return T_LOGICAL
        if ex.op in _REL_OPS:
            for kind in (left, right):
                if kind == T_LOGICAL:
                    self.error(line, f"relational {ex.op!r} on logical value")
            return T_LOGICAL
        # arithmetic
        for kind in (left, right):
            if kind == T_LOGICAL:
                self.error(line, f"arithmetic {ex.op!r} on logical value")
                return None
        if left is None or right is None:
            return None
        return T_REAL if T_REAL in (left, right) else T_INT

    def type_of_intrinsic(self, ex: Intrinsic, line: int) -> Optional[str]:
        sig = INTRINSICS.get(ex.name)
        if sig is None:
            self.error(line, f"unknown intrinsic {ex.name!r}")
            return None
        (lo, hi), result = sig.arity, sig.result
        if not lo <= len(ex.args) <= hi:
            want = str(lo) if lo == hi else f"{lo}..{hi}"
            self.error(line, f"{ex.name} takes {want} argument(s), "
                             f"got {len(ex.args)}")
        kinds = [self.type_of(a, line) for a in ex.args]
        for kind in kinds:
            if kind == T_LOGICAL:
                self.error(line, f"{ex.name} applied to logical value")
        if result is not None:
            return result
        usable = [k for k in kinds if k is not None]
        if not usable:
            return None
        return T_REAL if T_REAL in usable else T_INT

    def expect_logical(self, ex: Expr, line: int, where: str) -> None:
        kind = self.type_of(ex, line)
        if kind is not None and kind != T_LOGICAL:
            self.error(line, f"{where} is {kind}, must be a logical "
                             f"(relational) expression")

    def expect_integer(self, ex: Expr, line: int, where: str) -> None:
        kind = self.type_of(ex, line)
        if kind is not None and kind != T_INT:
            self.error(line, f"{where} is {kind}, must be integer")

    # -- statements -----------------------------------------------------------

    def check_stmt(self, st: Stmt) -> None:
        if isinstance(st, Assign):
            target_kind = self.type_of(st.target, st.line) \
                if isinstance(st.target, ArrayRef) else self._scalar_kind(st)
            value_kind = self.type_of(st.value, st.line)
            if target_kind == T_LOGICAL and value_kind not in (None, T_LOGICAL):
                self.error(st.line, "assigning arithmetic value to logical")
            if value_kind == T_LOGICAL and target_kind not in (None, T_LOGICAL):
                self.error(st.line, "assigning logical value to "
                                    f"{target_kind} variable")
        elif isinstance(st, DoLoop):
            loop_decl = self.sub.decls.get(st.var)
            if loop_decl is not None and loop_decl.base != T_INT:
                self.error(st.line, f"do variable {st.var!r} is "
                                    f"{loop_decl.base}, must be integer")
            self.expect_integer(st.lo, st.line, "do lower bound")
            self.expect_integer(st.hi, st.line, "do upper bound")
            if st.step is not None:
                self.expect_integer(st.step, st.line, "do step")
        elif isinstance(st, (IfGoto, IfBlock)):
            self.expect_logical(st.cond, st.line, "if condition")
        elif isinstance(st, CallStmt):
            for a in st.args:
                if not isinstance(a, Var):
                    self.type_of(a, st.line)

    def _scalar_kind(self, st: Assign) -> Optional[str]:
        assert isinstance(st.target, Var)
        decl = self.sub.decls.get(st.target.name)
        if decl is None:
            self.error(st.line, f"undeclared name {st.target.name!r}")
            return None
        if decl.is_array:
            self.error(st.line,
                       f"array {st.target.name!r} assigned without subscript")
            return None
        return decl.base

    # -- goto-into-loop ----------------------------------------------------------

    def check_gotos(self) -> None:
        loop_members: dict[int, set[int]] = {}
        for st in self.sub.walk():
            if isinstance(st, DoLoop):
                loop_members[st.sid] = {s.sid for s in st.walk()} - {st.sid}
        labels = self.sub.labels()
        for st in self.sub.walk():
            target_label = None
            if isinstance(st, (Goto, IfGoto)):
                target_label = st.target
            if target_label is None:
                continue
            target = labels.get(target_label)
            if target is None:
                self.error(st.line, f"goto to undefined label {target_label}")
                continue
            for loop_sid, members in loop_members.items():
                if target.sid in members and st.sid not in members \
                        and st.sid != loop_sid:
                    loop = self.sub.stmt(loop_sid)
                    self.error(st.line,
                               f"goto {target_label} jumps into the body of "
                               f"the do loop at line {loop.line}")

    def run(self) -> TypeReport:
        for st in self.sub.walk():
            self.check_stmt(st)
        self.check_gotos()
        return self.report


def check_types(sub: Subroutine) -> TypeReport:
    """Run every semantic check; returns all diagnostics."""
    return _Checker(sub).run()
