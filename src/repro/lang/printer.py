"""Source printer for the mini-FORTRAN AST.

Regenerates FORTRAN-77-style text in the layout of the paper's figures 9
and 10: six-space statement indent, labels in columns 1–5, three extra
spaces per nesting level.  A subroutine is printed once into a
:class:`SourceLayout` — its lines plus the index at which each statement
starts and ends — and every rendering splices comment lines into that:
``before``/``after`` hooks per statement, ``trailer`` lines ahead of the
closing ``end`` for end-of-program synchronizations.  The placement
annotator splices its ``C$`` directives (including the split-phase
``C$SYNCHRONIZE POST``/``WAIT`` pairs) the same way, so the printer knows
nothing about directives and a program with hundreds of placements is
still printed once.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from .ast import (
    ArrayRef,
    Assign,
    BinOp,
    CallStmt,
    Const,
    Continue,
    DoLoop,
    Expr,
    Goto,
    IfBlock,
    IfGoto,
    Intrinsic,
    Program,
    Return,
    Stmt,
    Stop,
    Subroutine,
    UnOp,
    Var,
)

#: Binding strength per operator, used to parenthesize minimally.
_PREC = {
    ".or.": 1, ".and.": 2, ".not.": 3,
    "<": 4, "<=": 4, ">": 4, ">=": 4, "==": 4, "/=": 4,
    "+": 5, "-": 5, "*": 6, "/": 6, "**": 8,
}
_UNARY_PREC = 7

#: Canonical operators rendered back in dotted FORTRAN spelling.
_DOTTED_OUT = {
    "<": ".lt.", "<=": ".le.", ">": ".gt.", ">=": ".ge.",
    "==": ".eq.", "/=": ".ne.",
}

BeforeHook = Callable[[Stmt], list[str]]
AfterHook = Callable[[Stmt], list[str]]


def format_expr(ex: Expr, parent_prec: int = 0) -> str:
    """Render an expression, parenthesizing only where precedence demands."""
    if isinstance(ex, Const):
        return _format_const(ex.value)
    if isinstance(ex, Var):
        return ex.name
    if isinstance(ex, ArrayRef):
        return f"{ex.name}({','.join(format_expr(s) for s in ex.subs)})"
    if isinstance(ex, Intrinsic):
        return f"{ex.name}({','.join(format_expr(a) for a in ex.args)})"
    if isinstance(ex, UnOp):
        # .not. binds between .and. and the relationals (precedence 3);
        # arithmetic sign binds between * and ** (precedence 7)
        prec = _PREC[".not."] if ex.op == ".not." else _UNARY_PREC
        inner = format_expr(ex.operand, prec)
        spell = ".not. " if ex.op == ".not." else ex.op
        text = f"{spell}{inner}"
        return f"({text})" if parent_prec > prec else text
    if isinstance(ex, BinOp):
        prec = _PREC[ex.op]
        op = _DOTTED_OUT.get(ex.op, ex.op)
        # relationals do not chain in FORTRAN: parenthesize both sides at
        # equal precedence; left-assoc arithmetic keeps a-b-c shape;
        # ** is right-assoc
        non_assoc = ex.op in _DOTTED_OUT
        left = format_expr(ex.left, prec + (1 if non_assoc else 0))
        right = format_expr(ex.right, prec + (0 if ex.op == "**" else 1))
        sep = " " if (op.startswith(".") or op in ("+", "-")) else ""
        text = f"{left}{sep}{op}{sep}{right}"
        return f"({text})" if parent_prec > prec else text
    raise TypeError(f"cannot format {type(ex).__name__}")


def _format_const(value) -> str:
    if isinstance(value, bool):
        return ".true." if value else ".false."
    if isinstance(value, int):
        return str(value)
    text = repr(float(value))
    return text


@dataclass(frozen=True)
class SourceLayout:
    """A subroutine printed once, with the places hook lines splice in.

    ``lines`` is the plain text (header, declarations, statements, ``end``
    last).  ``starts`` maps each statement's ``sid``, in print order, to
    the index of its first line — ``before`` lines go in front of it;
    ``ends`` to the index one past its last line (``end do``/``end if``
    included) — ``after`` lines go there.
    """

    lines: tuple[str, ...]
    starts: dict[int, int]
    ends: dict[int, int]

    def splice(self, inserts: dict[int, list[str]]) -> str:
        """The text with ``inserts[i]`` placed in front of line ``i``."""
        out: list[str] = []
        prev = 0
        for at in sorted(inserts):
            out.extend(self.lines[prev:at])
            out.extend(inserts[at])
            prev = at
        out.extend(self.lines[prev:])
        return "\n".join(out) + "\n"


class _Printer:
    def __init__(self) -> None:
        self.lines: list[str] = []
        self.starts: dict[int, int] = {}
        self.ends: dict[int, int] = {}

    def emit(self, text: str, label: Optional[int], depth: int) -> None:
        if label is not None:
            head = f"{label:<5d} "[:6]
        else:
            head = " " * 6
        self.lines.append(head + "   " * depth + text)

    def stmt(self, st: Stmt, depth: int) -> None:
        self.starts[st.sid] = len(self.lines)
        label = st.label
        if isinstance(st, Assign):
            self.emit(f"{format_expr(st.target)} = {format_expr(st.value)}",
                      label, depth)
        elif isinstance(st, DoLoop):
            head = f"do {st.var} = {format_expr(st.lo)},{format_expr(st.hi)}"
            if st.step is not None:
                head += f",{format_expr(st.step)}"
            self.emit(head, label, depth)
            for inner in st.body:
                self.stmt(inner, depth + 1)
            self.emit("end do", None, depth)
        elif isinstance(st, IfGoto):
            self.emit(f"if ({format_expr(st.cond)}) goto {st.target}",
                      label, depth)
        elif isinstance(st, IfBlock):
            self.emit(f"if ({format_expr(st.cond)}) then", label, depth)
            for inner in st.then_body:
                self.stmt(inner, depth + 1)
            if st.else_body:
                self.emit("else", None, depth)
                for inner in st.else_body:
                    self.stmt(inner, depth + 1)
            self.emit("end if", None, depth)
        elif isinstance(st, Goto):
            self.emit(f"goto {st.target}", label, depth)
        elif isinstance(st, Continue):
            self.emit("continue", label, depth)
        elif isinstance(st, CallStmt):
            args = ",".join(format_expr(a) for a in st.args)
            self.emit(f"call {st.name}({args})", label, depth)
        elif isinstance(st, Return):
            self.emit("return", label, depth)
        elif isinstance(st, Stop):
            self.emit("stop", label, depth)
        else:  # pragma: no cover - exhaustiveness guard
            raise TypeError(f"cannot print {type(st).__name__}")
        self.ends[st.sid] = len(self.lines)


def source_layout(sub: Subroutine) -> SourceLayout:
    """Print ``sub`` once; later calls return the same layout."""
    if sub._layout is not None:
        return sub._layout
    pr = _Printer()
    params = ", ".join(sub.params)
    pr.emit(f"subroutine {sub.name}({params})", None, 0)
    # declarations: parameters first in stable order, then locals
    emitted: set[str] = set()
    order = [p.lower() for p in sub.params] + sorted(
        n for n in sub.decls if n not in {p.lower() for p in sub.params}
    )
    for name in order:
        if name in emitted or name not in sub.decls:
            continue
        emitted.add(name)
        decl = sub.decls[name]
        dims = f"({','.join(str(d) for d in decl.dims)})" if decl.dims else ""
        pr.emit(f"{decl.base} {decl.name}{dims}", None, 0)
    for st in sub.body:
        pr.stmt(st, 0)
    pr.emit("end", None, 0)
    sub._layout = SourceLayout(tuple(pr.lines), pr.starts, pr.ends)
    return sub._layout


def format_subroutine(
    sub: Subroutine,
    before: Optional[BeforeHook] = None,
    after: Optional[AfterHook] = None,
    trailer: Optional[list[str]] = None,
) -> str:
    """Render a subroutine back to source text.

    Parameters
    ----------
    before / after:
        Optional hooks returning full comment lines (e.g. ``C$`` directives)
        to print immediately before / after each statement.
    trailer:
        Comment lines printed after the last statement, before ``end``
        (figure 10 places a final SYNCHRONIZE there).
    """
    layout = source_layout(sub)
    inserts: dict[int, list[str]] = {}
    # a statement's ``after`` lines precede the next one's ``before`` lines
    for hook, points in ((after, layout.ends), (before, layout.starts)):
        if hook is not None:
            for sid, at in points.items():
                lines = hook(sub.stmt(sid))
                if lines:
                    inserts.setdefault(at, []).extend(lines)
    if trailer:
        inserts.setdefault(len(layout.lines) - 1, []).extend(trailer)
    return layout.splice(inserts)


def format_program(prog: Program) -> str:
    """Render a whole program (units separated by a blank line)."""
    return "\n".join(format_subroutine(u) for u in prog.units)
