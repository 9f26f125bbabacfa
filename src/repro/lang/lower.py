"""Lowering of the structured AST to a flat instruction list.

Gotos may jump anywhere (the convergence loop of figures 9/10 is a
label-100/goto-100 loop with two conditional exits), so both the sequential
interpreter and the SPMD executor run a simple program-counter machine over
this flat form instead of recursing over the tree.

Every instruction remembers the ``sid`` of the source statement it was
lowered from; the SPMD executor uses that to attach communication actions
and iteration-domain overrides to source statements.

``do`` loops follow FORTRAN-77 semantics: the limit is evaluated once on
entry, the trip count is ``max(0, floor((hi - lo + step)/step))``, and the
loop variable retains its final value afterwards.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Union

from .ast import (
    ArrayRef,
    Assign,
    CallStmt,
    Continue,
    DoLoop,
    Expr,
    Goto,
    IfBlock,
    IfGoto,
    Return,
    Stmt,
    Stop,
    Subroutine,
    Var,
)
from ..errors import AnalysisError


@dataclass
class Instr:
    """Base flat instruction; ``sid`` links back to the source statement."""

    sid: int


@dataclass
class IAssign(Instr):
    target: Union[Var, ArrayRef]
    value: Expr


@dataclass
class IJump(Instr):
    pc: int = -1


@dataclass
class IBranch(Instr):
    """Jump to ``pc_false`` when ``cond`` is false; fall through otherwise."""

    cond: Expr
    pc_false: int = -1


@dataclass
class ILoopInit(Instr):
    """Evaluate bounds of loop ``sid``, set the loop variable, store the trip state."""

    var: str = ""
    lo: Expr = None  # type: ignore[assignment]
    hi: Expr = None  # type: ignore[assignment]
    step: Optional[Expr] = None


@dataclass
class ILoopTest(Instr):
    """Exit to ``pc_exit`` when loop ``sid`` is exhausted."""

    var: str = ""
    pc_exit: int = -1


@dataclass
class ILoopIncr(Instr):
    """Advance loop ``sid`` and jump back to its test."""

    var: str = ""
    pc_test: int = -1


@dataclass
class ICall(Instr):
    name: str = ""
    args: tuple[Expr, ...] = ()


@dataclass
class IReturn(Instr):
    pass


@dataclass
class FlatCode:
    """The lowered subroutine."""

    sub: Subroutine
    instrs: list[Instr] = field(default_factory=list)
    #: sid of source statement -> pc of its first instruction
    first_pc: dict[int, int] = field(default_factory=dict)
    #: loop sid -> (pc of ILoopInit)
    loop_pc: dict[int, int] = field(default_factory=dict)
    #: what :mod:`repro.lang.interp` executes, built by it on first use and
    #: shared by every interpreter over this code
    compiled: Optional[tuple] = field(default=None, repr=False, compare=False)

    def __len__(self) -> int:
        return len(self.instrs)


class _Lowerer:
    def __init__(self, sub: Subroutine):
        self.sub = sub
        self.code = FlatCode(sub=sub)
        self.labels: dict[int, int] = {}       # label -> pc, filled as emitted
        self.fixups: list[tuple[int, int]] = []  # (pc of IJump/IBranch, label)

    def emit(self, instr: Instr) -> int:
        pc = len(self.code.instrs)
        self.code.instrs.append(instr)
        return pc

    def note_stmt(self, st: Stmt, pc: int) -> None:
        self.code.first_pc.setdefault(st.sid, pc)
        if st.label is not None:
            self.labels[st.label] = pc

    def lower_block(self, stmts: list[Stmt]) -> None:
        for st in stmts:
            self.lower_stmt(st)

    def lower_stmt(self, st: Stmt) -> None:
        pc = len(self.code.instrs)
        if isinstance(st, Assign):
            self.note_stmt(st, self.emit(IAssign(st.sid, st.target, st.value)))
        elif isinstance(st, Continue):
            # a label carrier: lower to a jump-to-next so the label has a pc
            self.note_stmt(st, self.emit(IJump(st.sid, pc + 1)))
        elif isinstance(st, Goto):
            jpc = self.emit(IJump(st.sid))
            self.note_stmt(st, jpc)
            self.fixups.append((jpc, st.target))
        elif isinstance(st, IfGoto):
            bpc = self.emit(IBranch(st.sid, st.cond))
            self.note_stmt(st, bpc)
            jpc = self.emit(IJump(st.sid))
            self.fixups.append((jpc, st.target))
            self.code.instrs[bpc].pc_false = len(self.code.instrs)
        elif isinstance(st, IfBlock):
            bpc = self.emit(IBranch(st.sid, st.cond))
            self.note_stmt(st, bpc)
            self.lower_block(st.then_body)
            if st.else_body:
                jend = self.emit(IJump(st.sid))
                self.code.instrs[bpc].pc_false = len(self.code.instrs)
                self.lower_block(st.else_body)
                self.code.instrs[jend].pc = len(self.code.instrs)
            else:
                self.code.instrs[bpc].pc_false = len(self.code.instrs)
        elif isinstance(st, DoLoop):
            ipc = self.emit(ILoopInit(st.sid, st.var, st.lo, st.hi, st.step))
            self.note_stmt(st, ipc)
            self.code.loop_pc[st.sid] = ipc
            tpc = self.emit(ILoopTest(st.sid, st.var))
            self.lower_block(st.body)
            self.emit(ILoopIncr(st.sid, st.var, pc_test=tpc))
            self.code.instrs[tpc].pc_exit = len(self.code.instrs)
        elif isinstance(st, CallStmt):
            self.note_stmt(st, self.emit(ICall(st.sid, st.name, st.args)))
        elif isinstance(st, (Return, Stop)):
            self.note_stmt(st, self.emit(IReturn(st.sid)))
        else:  # pragma: no cover - exhaustiveness guard
            raise AnalysisError(f"cannot lower {type(st).__name__}")

    def finish(self) -> FlatCode:
        self.emit(IReturn(0))
        for pc, label in self.fixups:
            if label not in self.labels:
                raise AnalysisError(f"goto to undefined label {label}")
            self.code.instrs[pc].pc = self.labels[label]
        return self.code


def lower_subroutine(sub: Subroutine) -> FlatCode:
    """Lower ``sub`` to flat code (final instruction is always IReturn)."""
    low = _Lowerer(sub)
    low.lower_block(sub.body)
    return low.finish()


def format_flat(code: FlatCode) -> str:
    """Disassemble flat code (debugging aid; round-trips nothing)."""
    from .printer import format_expr

    lines = []
    for pc, ins in enumerate(code.instrs):
        if isinstance(ins, IAssign):
            text = f"assign  {format_expr(ins.target)} = {format_expr(ins.value)}"
        elif isinstance(ins, IJump):
            text = f"jump    -> {ins.pc}"
        elif isinstance(ins, IBranch):
            text = f"branch  {format_expr(ins.cond)} else -> {ins.pc_false}"
        elif isinstance(ins, ILoopInit):
            step = f",{format_expr(ins.step)}" if ins.step else ""
            text = (f"loop    {ins.var} = {format_expr(ins.lo)},"
                    f"{format_expr(ins.hi)}{step}")
        elif isinstance(ins, ILoopTest):
            text = f"test    {ins.var} exhausted -> {ins.pc_exit}"
        elif isinstance(ins, ILoopIncr):
            text = f"incr    {ins.var} -> {ins.pc_test}"
        elif isinstance(ins, ICall):
            args = ",".join(format_expr(a) for a in ins.args)
            text = f"call    {ins.name}({args})"
        elif isinstance(ins, IReturn):
            text = "return"
        else:  # pragma: no cover
            text = repr(ins)
        lines.append(f"{pc:>4}  [s{ins.sid:<3}] {text}")
    return "\n".join(lines)
