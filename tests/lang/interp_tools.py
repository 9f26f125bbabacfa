"""Interpreter conveniences for tests: one-call runs, one-expression
compiles and a flat-code disassembler.

Production lowers a subroutine once and runs it through
:class:`~repro.lang.interp.Interpreter`; these wrap that path for tests
that check one program or one expression at a time.
"""

from typing import Any, Callable, Optional

from repro.lang.ast import Expr, Subroutine
from repro.lang.interp import (DEFAULT_MAX_STEPS, Interpreter, RunResult,
                               _Emitter)
from repro.lang.lower import (FlatCode, IAssign, IBranch, ICall, IJump,
                              ILoopIncr, ILoopInit, ILoopTest, IReturn,
                              lower_subroutine)
from repro.lang.printer import format_expr


def run_subroutine(
    sub: Subroutine,
    env: dict,
    max_steps: int = DEFAULT_MAX_STEPS,
    externals: Optional[dict[str, Callable]] = None,
) -> RunResult:
    """Lower and execute ``sub`` over ``env``."""
    code = lower_subroutine(sub)
    return Interpreter(code, max_steps=max_steps, externals=externals).run(env)


def compile_expr(ex: Expr) -> Callable[[dict], Any]:
    """Compile an expression to a function ``f(env) -> value``.

    The interpreter's own emitter, applied to one expression: out-of-bounds
    accesses raise :class:`~repro.errors.InterpError` rather than wrap,
    and an unknown operator or intrinsic raises when *evaluated*.
    """
    em = _Emitter()
    name = em.function("expression", (ex,), "{}", None)
    return em.load("<repro:expression>")[name]


def eval_expr(ex: Expr, env: dict) -> Any:
    """Evaluate an expression in ``env`` (see :func:`compile_expr`)."""
    return compile_expr(ex)(env)


def format_flat(code: FlatCode) -> str:
    """Disassemble flat code, one instruction a line."""
    lines = []
    for pc, ins in enumerate(code.instrs):
        if isinstance(ins, IAssign):
            text = (f"assign  {format_expr(ins.target)} = "
                    f"{format_expr(ins.value)}")
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
