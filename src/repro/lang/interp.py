"""Interpreter for the mini-FORTRAN subset: compile once to Python functions.

Runs the flat code of :mod:`repro.lang.lower` over an environment of
Python scalars and 1-based-indexed numpy arrays.  It is the default backend
*and* the oracle every SPMD execution is checked against (DESIGN.md
section 5); :mod:`repro.lang.vectorize` must agree with it.

*Compile once.*  The first :class:`Interpreter` over a ``FlatCode`` writes
it as one Python module (a function per assignment, branch condition,
loop-bounds triple, call-argument list and straight-line ``do`` loop; in
:mod:`linecache` as ``<repro:SUBNAME>``), compiled by one ``compile()``,
cached with an opcode list on the ``FlatCode`` for every rank interpreter.
The module calls the scalar forms of :mod:`repro.lang.semantics`; the
vector kernels are written by the same :class:`_Emitter` over the array
forms.  Outside loops every check runs inline on every evaluation, in the
tree walker's order; program text never becomes code
(docs/architecture.md, "The interpreter").

*Checks once per loop entry.*  A straight-line loop (assignments only, no
jump target) is one function ``lPC(env, trips, step)`` that first checks,
in a few numpy calls, every fact its per-trip checks would establish —
loop variable and step are ``int``, each array the body names is an
``ndarray`` of the referenced rank (fetched once), each subscript with a
range fact lies in its axis — then runs all trips without them.  If a fact
fails it returns ``False`` with ``env`` untouched, and the ``ILoopInit``
arm takes the per-instruction path, as it does past ``max_steps`` (the
budget then fires at its step).  The checked functions of the loop bodies'
statements, which that path runs, are a second module
(``<repro:SUBNAME:checked>``), loaded the first time one is called.

Extension hooks used by the SPMD executor (:mod:`repro.runtime.executor`):

``pre_actions``
    Map ``sid -> [callable(env)]`` run every time control reaches the first
    instruction of that statement — communication calls are injected here.
``loop_bounds``
    Map ``loop sid -> callable(env, lo, hi, step) -> (lo, hi, step)`` that
    overrides iteration bounds — KERNEL/OVERLAP domains are applied here.
``on_return``
    Callables run when the subroutine returns (end-of-program comms).
``loop_requests``
    Sids of vector loops the executor runs itself: reaching one, the
    generator yields a :class:`LoopRequest` instead of calling the kernel
    and does the loop's bookkeeping when resumed — so the executor can
    serve the same loop of every rank in one kernel sweep.
"""

from __future__ import annotations

import linecache
from dataclasses import dataclass, field
from typing import Any, Callable, Collection, Optional, Sequence

import numpy as np

from .ast import (ArrayRef, BinOp, Const, Expr, Intrinsic, Subroutine, UnOp,
                  Var)
from .lower import (FlatCode, IAssign, IBranch, ICall, IJump, ILoopIncr,
                    ILoopInit, ILoopTest, IReturn)
from ..errors import InterpError
from .semantics import INTEGERS, INTRINSICS, OPERATORS, bindings

Env = dict[str, Any]

#: the runaway guard every ``max_steps`` defaults to (interpreter,
#: executor, pipeline, service worker): a program passes all doors or none
DEFAULT_MAX_STEPS = 200_000_000

#: anything callable as ``kernel(env, lo, hi, spaces)`` with a
#: ``body_weight`` attribute — in practice
#: :class:`repro.lang.vectorize.LoopKernel`, keeping each loop's address
#: space in ``spaces`` for the rest of the run
LoopKernelLike = Any

def _fault(env: Env, name: str, rank: int, raw: Any = None,
           axis: int = 0) -> InterpError:
    """Which check of an array reference failed, in their order."""
    arr = env.get(name)
    if name not in env:
        return InterpError(f"read of unset array {name!r}")
    if not isinstance(arr, np.ndarray):
        return InterpError(f"{name!r} is not an array")
    if arr.ndim != rank:
        return InterpError(
            f"{name!r}: {rank} subscripts for rank-{arr.ndim} array")
    if not isinstance(raw, INTEGERS):
        return InterpError(f"{name!r}: non-integer subscript {raw!r}")
    return InterpError(f"{name!r}: subscript {raw} out of bounds "
                       f"1..{arr.shape[axis]}")


def _raised(exc: Exception, line: int) -> InterpError:
    """What a statement's ``KeyError`` or arithmetic fault leaves it as."""
    unset = isinstance(exc, KeyError)
    err = InterpError(f"read of unset variable {exc.args[0]!r}" if unset
                      else f"line {line}: {exc}")
    err.__cause__ = None if unset else exc
    return err


def _unknown(kind: str, name: str, *operands: Any):
    raise InterpError(f"unknown {kind} {name!r}")


#: the emitted module's namespace besides builtins, constants, functions
#: and the operations of :mod:`repro.lang.semantics` it calls
_HELPERS: dict[str, Any] = {
    "ndarray": np.ndarray, "integers": INTEGERS,
    "may_share": np.may_share_memory,
    "fault": _fault, "raised": _raised, "unknown": _unknown,
    # what a statement's arithmetic raises besides InterpError, and the
    # KeyError of an unset variable
    "CAUGHT": (ArithmeticError, ValueError, KeyError),
}


def _indent(lines: list[str]) -> list[str]:
    return ["    " + line for line in lines]


def _fast(var: Any, body: Sequence[IAssign]) -> bool:
    """Whether a straight-line body keeps what its loop function hoists:
    no statement rebinds the loop variable or a name the body indexes."""
    scalars = {ins.target.name for ins in body if isinstance(ins.target, Var)}
    arrays = {ex.name for ins in body for side in (ins.value, ins.target)
              for ex in side.walk() if isinstance(ex, ArrayRef)}
    return var not in scalars and scalars.isdisjoint(arrays)


class _Loop:
    """A fast loop's entry facts, gathered while its body is emitted: the
    arrays fetched once, and the check each subscript's range fact needs.

    A range fact is the least and greatest value a subscript takes over
    the trips: a constant's own, the loop variable's, and for ``m(i, c)``
    the min/max of index array ``m``'s trip rows in column ``c`` — which a
    scalar assigned ``s = m(i, c)`` carries to its uses up to its next
    assignment.  ``m`` qualifies while the body stores nothing into it and
    the entry finds it an integer array sharing no memory with an array
    the body stores into."""

    def __init__(self, em: "_Emitter", var: Any, body: Sequence[IAssign],
                 real: Collection):
        self.em, self.var, self.real = em, var, real
        #: the loop variable's local, its least and its greatest value
        self.local, self.low, self.high = em.new("t"), em.new("t"), em.new("t")
        self.stored = {ins.target.name: None for ins in body
                       if isinstance(ins.target, ArrayRef)}
        self.temps: dict[Any, str] = {}
        #: scalar -> the index column its latest assignment read, if any
        self.carried: dict[Any, Optional[tuple]] = {}
        self.columns: dict[tuple, tuple[str, str]] = {}
        # the entry's lines in the order they run (dicts as ordered sets):
        # fetches, direct facts, dtype kinds, then the index columns' facts
        self.fetches: dict[str, None] = {}
        self.facts: dict[str, None] = {}
        self.kinds: dict[str, None] = {}
        self.bounds: dict[str, None] = {}

    def temp(self, name: Any) -> str:
        if name not in self.temps:
            self.temps[name] = self.em.new("t")
        return self.temps[name]

    def array(self, name: Any, rank: int) -> str:
        """The temporary holding array ``name``, checked at entry."""
        arr = self.temp(name)
        self.fetches[f"if not isinstance({arr} := env.get("
                     f"{self.em.key(name)}), ndarray) or {arr}.ndim != "
                     f"{rank:d}: return False"] = None
        return arr

    def fact(self, sub: Expr) -> Optional[tuple[str, str, dict]]:
        """``sub``'s least and greatest value over the trips and the entry
        lines its checks join, or None: ``sub`` is checked every trip."""
        if isinstance(sub, Const):
            value = sub.value
            return ((f"{value:d}", f"{value:d}", self.facts)
                    if type(value) is int else None)
        if isinstance(sub, Var):
            if sub.name == self.var:
                return self.low, self.high, self.facts
            key = self.carried.get(sub.name)
        else:
            key = self.index(sub)
        return None if key is None else (*self.column(key), self.bounds)

    def index(self, ex: Expr) -> Optional[tuple]:
        """``(m, (c, ...))`` when ``ex`` is ``m(i, c, ...)``: the loop
        variable, then integer constants, into an array the body never
        stores into."""
        if (isinstance(ex, ArrayRef) and ex.name not in self.stored
                and ex.subs and isinstance(ex.subs[0], Var)
                and ex.subs[0].name == self.var
                and all(isinstance(c, Const) and type(c.value) is int
                        for c in ex.subs[1:])):
            return ex.name, tuple(c.value for c in ex.subs[1:])
        return None

    def column(self, key: tuple) -> tuple[str, str]:
        """The least and greatest element of ``m``'s trip rows in column
        ``c`` (all rows between the loop variable's extremes), once ``m``
        qualifies."""
        if key not in self.columns:
            name, cols = key
            m, rows = self.temp(name), self.em.new("t")
            low, high = self.em.new("t"), self.em.new("t")
            self.kinds[f"if {m}.dtype.kind != 'i'" + "".join(
                f" or may_share({m}, {self.temp(x)})" for x in self.stored)
                + ": return False"] = None
            cols = "".join(f", {c - 1:d}" for c in cols)
            self.bounds[f"{rows} = {m}[{self.low} - 1:{self.high}{cols}]"] \
                = None
            self.bounds[f"{low}, {high} = {rows}.min(), {rows}.max()"] = None
            self.columns[key] = low, high
        return self.columns[key]

    def within(self, fact: tuple[str, str, dict], arr: str, axis: int):
        low, high, lines = fact
        lines[f"if {low} < 1 or {high} > {arr}.shape[{axis:d}]: "
              f"return False"] = None

    def real_array(self, name: Any) -> bool:
        """Whether ``name``'s elements are floats: it is declared real and
        the entry checks its dtype kind."""
        if name not in self.real:
            return False
        self.kinds[f"if {self.temp(name)}.dtype.kind != 'f': return False"] \
            = None
        return True

    def assigned(self, ins: IAssign) -> None:
        if isinstance(ins.target, Var):
            self.carried[ins.target.name] = self.index(ins.value)

    def entry(self) -> list[str]:
        return [*self.fetches, *self.facts, *self.kinds, *self.bounds]


class _Emitter:
    """Writes code as the source of one Python module and loads it.
    :meth:`expr` gives ``(lines, text, safe)``: after ``lines``, ``text`` is
    the value; ``safe``: ``text`` can neither raise nor read ``env``.
    While :attr:`loop` is set, expressions are emitted for its fast body.
    The module calls the :attr:`FORM` of each operation it applies."""

    FORM = "scalar"
    HELPERS = _HELPERS

    def __init__(self):
        self.source: list[str] = []
        self.namespace: dict[str, Any] = {**self.HELPERS,
                                          **bindings(self.FORM)}
        self.count = 0
        self.loop: Optional[_Loop] = None

    def new(self, prefix: str) -> str:
        self.count += 1
        return f"{prefix}{self.count}"

    def const(self, value: Any) -> str:
        self.namespace[name := self.new("k")] = value
        return name

    def key(self, name: Any) -> str:
        return repr(name) if type(name) is str else self.const(name)

    def expr(self, ex: Expr) -> tuple[list[str], str, bool]:
        if isinstance(ex, Const):
            return [], self.const(ex.value), True
        if isinstance(ex, Var):
            return self.var(ex.name)
        if isinstance(ex, ArrayRef):
            return self.ref(ex)
        if (isinstance(ex, BinOp) and ex.op in (".and.", ".or.")
                or isinstance(ex, UnOp) and ex.op not in ("+", "-")):
            return self.logical(ex)
        if isinstance(ex, BinOp):
            lines, (a, b) = self.operands((ex.left, ex.right))
            if ex.op not in OPERATORS:
                return lines, self.unknown("operator", ex.op, a, b), False
            return lines, self.binop(ex, a, b), False
        if isinstance(ex, UnOp):
            lines, text, safe = self.expr(ex.operand)
            return lines, f"(-{text})" if ex.op == "-" else text, \
                safe and ex.op == "+"
        if isinstance(ex, Intrinsic):
            lines, args = self.operands(ex.args)
            op = INTRINSICS.get(ex.name)
            if op is None or op.call not in self.namespace:
                # raises before its args
                return [], self.unknown("intrinsic", ex.name), False
            return lines, op.text(args), False
        raise InterpError(f"cannot evaluate {type(ex).__name__}")

    def var(self, name: Any) -> tuple[list[str], str, bool]:
        if self.loop is not None and name == self.loop.var:
            return [], self.loop.local, True
        return [], f"env[{self.key(name)}]", False

    def unknown(self, kind: str, name: str, *operands: str) -> str:
        """A call that raises ``unknown {kind} {name!r}`` when evaluated,
        after ``operands``."""
        return f"unknown({kind!r}, {', '.join((self.const(name), *operands))})"

    def operands(self, exprs: Sequence[Expr]) -> tuple[list[str], list[str]]:
        """Texts of ``exprs`` evaluated left to right: an operand with lines
        first moves the unsafe texts before it to temporaries."""
        lines: list[str] = []
        done: list[tuple[str, bool]] = []       # (text, safe) per operand
        for ex in exprs:
            sub, text, safe = self.expr(ex)
            if sub:
                for k, (before, ok) in enumerate(done):
                    if not ok:
                        done[k] = self.new("t"), True
                        lines.append(f"{done[k][0]} = {before}")
                lines += sub
            done.append((text, safe))
        return lines, [text for text, _ in done]

    def logical(self, ex: Expr) -> tuple[list[str], str, bool]:
        """``.not.``, and ``.and.``/``.or.`` short-circuiting."""
        if isinstance(ex, UnOp):
            lines, a, _ = self.expr(ex.operand)
            return lines, f"(not bool({a}))", False
        lines, a, _ = self.expr(ex.left)
        right, b, _ = self.expr(ex.right)
        word = "and" if ex.op == ".and." else "or"
        if not right:
            return lines, f"(bool({a}) {word} bool({b}))", False
        t = self.new("t")
        return (lines + [f"{t} = bool({a})",
                         f"if {t if word == 'and' else 'not ' + t}:"]
                + _indent(right + [f"{t} = bool({b})"]), t, True)

    def binop(self, ex: BinOp, a: str, b: str) -> str:
        """``/`` with a statically real operand is Python's, which is what
        ``div`` returns for it; ``**`` is ``power``'s unless its exponent
        is a non-negative integer constant."""
        if ex.op == "/" and (self.real(ex.left) or self.real(ex.right)):
            return f"({a} / {b})"
        right = ex.right
        if ex.op == "**" and isinstance(right, Const) \
                and type(right.value) is int and right.value >= 0:
            return f"({a} ** {b})"
        return OPERATORS[ex.op].text((a, b))

    def real(self, ex: Expr) -> bool:
        """Whether ``ex`` is statically no integer: a real constant, an
        element of a real array in a fast loop, or arithmetic over one."""
        if isinstance(ex, Const):
            return type(ex.value) is float
        if isinstance(ex, BinOp) and ex.op in ("+", "-", "*", "/", "**"):
            return self.real(ex.left) or self.real(ex.right)
        if isinstance(ex, UnOp) and ex.op in ("+", "-"):
            return self.real(ex.operand)
        return (isinstance(ex, ArrayRef) and self.loop is not None
                and self.loop.real_array(ex.name))

    def ref(self, ref: ArrayRef) -> tuple[list[str], str, bool]:
        """The lines that fetch and check, the element's text, whether it
        is safe.  In a fast loop the array is a temporary fetched at entry,
        and a subscript with a range fact is checked there, not here."""
        name, rank, loop = self.key(ref.name), len(ref.subs), self.loop
        if loop is None:
            arr = self.new("t")
            lines = [f"if not isinstance({arr} := env.get({name}), ndarray) "
                     f"or {arr}.ndim != {rank:d}: "
                     f"raise fault(env, {name}, {rank:d})"]
        else:
            arr, lines = loop.array(ref.name, rank), []
        index, safe = [], True
        for axis, sub in enumerate(ref.subs):
            fact = loop and loop.fact(sub)
            if fact:
                loop.within(fact, arr, axis)
            if fact and isinstance(sub, Const):
                index.append(f"{sub.value - 1:d}")
                continue
            sub_lines, text, ok = self.expr(sub)
            lines += sub_lines
            if fact:    # a carried scalar's read from env cannot raise
                index.append(f"{text} - 1")
                safe = safe and ok
                continue
            if isinstance(sub, Const) and type(sub.value) is int:
                i = raw = text
            else:   # np.int64 (or bool) converted; not an integer: 0 fails
                i, raw = self.new("t"), self.new("t")
                lines.append(f"{i} = {raw} if type({raw} := {text}) is int "
                             f"else int({raw}) if isinstance({raw}, integers) "
                             f"else 0")
            lines.append(f"if not 1 <= {i} <= {arr}.shape[{axis:d}]: "
                         f"raise fault(env, {name}, {rank:d}, {raw}, {axis})")
            index.append(f"{i} - 1")
        return lines, f"{arr}[{', '.join(index)}]", safe

    def assign(self, ins: IAssign, line: int) -> list[str]:
        """The statement in its ``try``: the value, then the target's
        checks (a target's text is a place to store to)."""
        lines, (value, target) = self.operands((ins.value, ins.target))
        return self.guard(lines + [f"{target} = {value}"], line)

    @staticmethod
    def guard(body: list[str], line: Optional[int]) -> list[str]:
        # line None: an expression, whose arithmetic faults pass unchanged
        caught = "KeyError" if line is None else "CAUGHT"
        return (["try:"] + _indent(body) + [
            f"except {caught} as exc: raise raised(exc, {line or 0:d})"])

    def function(self, name: str, exprs: Sequence[Expr], form: str,
                 line: Optional[int]) -> str:
        """``def name(env)`` returning ``form`` of the values of ``exprs``."""
        lines, texts = self.operands(exprs)
        self.define(name, "env", self.guard(
            lines + ["return " + form.format(", ".join(texts))], line))
        return name

    def fast_loop(self, name: str, var: Any,
                  body: Sequence[tuple[IAssign, int]], real: Collection):
        """``def name(env, trips, step)``: every trip without the checks
        whose facts the entry establishes, or ``False`` before touching
        ``env`` when one fails.  The loop variable is a local, stored back
        in a ``finally``: at a fault in trip k it holds ``lo + k·step``."""
        self.loop = loop = _Loop(self, var, [ins for ins, _ in body], real)
        trip = []
        for ins, line in body:
            trip += self.assign(ins, line)
            loop.assigned(ins)
        self.loop = None
        i, low, high, key = loop.local, loop.low, loop.high, self.key(var)
        self.define(name, "env, trips, step", [
            "if not trips: return True",
            f"if type({i} := env[{key}]) is not int or type(step) is not int: "
            f"return False",
            f"{high} = {i} + (trips - 1) * step",
            f"{low}, {high} = ({i}, {high}) if step > 0 else ({high}, {i})",
            *loop.entry(),
            "try:",
            f"    for {i} in range({i}, {i} + trips * step, step):",
            *_indent(_indent(trip)),
            f"    {i} += step",
            "finally:",
            f"    env[{key}] = {i}",
            "return True"])

    def define(self, name: str, params: str, body: list[str]) -> None:
        self.source += [f"def {name}({params}):"] + _indent(body)

    def load(self, filename: str) -> dict[str, Any]:
        text = "\n".join(self.source) + "\n"
        linecache.cache[filename] = (len(text), None, text.splitlines(True),
                                     filename)
        exec(compile(text, filename, "exec"), self.namespace)
        return self.namespace


@dataclass
class RunResult:
    """Outcome of one interpreted execution."""

    env: Env
    steps: int
    #: number of times each statement sid started executing
    visits: dict[int, int] = field(default_factory=dict)


@dataclass
class MachineState:
    """Snapshotable control state of one :meth:`Interpreter.run_gen`.

    The interpreter is a program-counter machine, so its whole control
    state is this handful of fields; everything else lives in the
    environment.  The generator keeps the state object it was given in
    sync at every :class:`CollectiveAction` yield (the only points a
    suspended rank can be observed), which is what lets the SPMD
    executor's checkpointing (:mod:`repro.runtime.checkpoint`) snapshot a
    rank with :meth:`copy` and later restore it by starting a *fresh*
    generator from the copy — the killed rank resumes exactly at the
    collective it was suspended at.
    """

    pc: int = 0
    steps: int = 0
    #: index of the next pre-action (or on-return action) to run when
    #: resuming a generator suspended at a collective yield
    action_index: int = 0
    #: True while suspended between a statement's pre-actions and its body
    mid_statement: bool = False
    #: True once control entered the on-return action list
    returned: bool = False
    remaining: dict[int, int] = field(default_factory=dict)
    stepval: dict[int, Any] = field(default_factory=dict)
    visits: dict[int, int] = field(default_factory=dict)

    def copy(self) -> "MachineState":
        return MachineState(
            pc=self.pc, steps=self.steps, action_index=self.action_index,
            mid_statement=self.mid_statement, returned=self.returned,
            remaining=dict(self.remaining), stepval=dict(self.stepval),
            visits=dict(self.visits))


class CollectiveAction:
    """A pre-action that suspends the interpreter for the SPMD harness.

    When the interpreter (run as a generator via :meth:`Interpreter.run_gen`)
    meets one of these among a statement's pre-actions, it *yields* it
    instead of calling it: the SPMD executor then performs the matching
    communication across all ranks and resumes every interpreter.  The
    plain :meth:`Interpreter.run` refuses them — a sequential run has no
    peers to talk to.
    """

    def __init__(self, payload):
        self.payload = payload

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"CollectiveAction({self.payload!r})"


class LoopRequest:
    """A vector loop one rank asks the SPMD harness to run for it.

    Yielded by :meth:`Interpreter.run_gen` in place of the kernel call for
    the loops named in ``loop_requests``; the harness runs the loop over
    ``lo..hi`` of that rank (alone or fused with the other ranks' requests
    for the same loop) and resumes the generator.  Never a checkpoint
    boundary: :class:`MachineState` is synced at collectives only.
    """

    __slots__ = ("sid", "lo", "hi")

    def __init__(self, sid: int, lo: int, hi: int):
        self.sid, self.lo, self.hi = sid, lo, hi

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"LoopRequest({self.sid}, {self.lo}, {self.hi})"


# opcodes of the compiled program, in the order run_gen tests them
(_ASSIGN, _LOOP_TEST, _LOOP_INCR, _BRANCH, _LOOP_INIT, _JUMP, _CALL,
 _RETURN) = range(8)


class _Checked:
    """Stands in the opcode list for a fast loop body's statement, run
    instruction by instruction.  The first call emits the checked ``aPC``
    of every such statement as a second module and puts them in place."""

    __slots__ = ("code", "pc")

    def __init__(self, code: FlatCode, pc: int):
        self.code, self.pc = code, pc

    def __call__(self, env: Env) -> None:
        ops = self.code.compiled[0]
        if ops[self.pc][2] is self:
            _load_checked(self.code)
        ops[self.pc][2](env)


def _load_checked(code: FlatCode) -> None:
    """Emit and load the checked functions the stand-ins of ``code`` wait
    for, through the same emitter as the first module."""
    ops, em = code.compiled[0], _Emitter()
    pcs = [pc for pc, op in enumerate(ops) if isinstance(op[2], _Checked)]
    if not pcs:
        return
    for pc in pcs:
        ins = code.instrs[pc]
        em.define(f"a{pc:d}", "env", em.assign(ins, code.sub.stmt(ins.sid).line))
    fns = em.load(f"<repro:{code.sub.name}:checked>")
    for pc in pcs:
        op, sid, _, b, c = ops[pc]
        ops[pc] = op, sid, fns[f"a{pc:d}"], b, c


def _compile(code: FlatCode) -> tuple[list, dict[int, tuple]]:
    """Compile ``code`` once (cached on it): ``(opcode, sid, a, b, c)`` per
    instruction, and ``ILoopInit`` pc -> ``(lPC, body length)`` per fast
    loop: straight-line, and no statement rebinds what it hoists.  Its body
    statements' checked functions wait in a :class:`_Checked` each."""
    if code.compiled is not None:
        return code.compiled
    instrs, em = code.instrs, _Emitter()
    lines = [code.sub.stmt(ins.sid).line if ins.sid else 0 for ins in instrs]
    targets = ({ins.pc for ins in instrs if isinstance(ins, IJump)}
               | {ins.pc_false for ins in instrs if isinstance(ins, IBranch)})
    real = {name for name, decl in code.sub.decls.items()
            if decl.is_array and decl.base == "real"}
    loops = {}
    for pc, ins in enumerate(instrs):
        if isinstance(ins, ILoopInit):
            end = instrs[pc + 1].pc_exit
            body = range(pc + 2, end - 1)   # between ILoopTest and ILoopIncr
            if (all(isinstance(instrs[b], IAssign) for b in body)
                    and targets.isdisjoint(range(pc + 1, end))
                    and _fast(ins.var, [instrs[b] for b in body])):
                loops[pc] = body
    in_loop = {b: pc for pc, body in loops.items() for b in body}
    ops = []
    for pc, ins in enumerate(instrs):
        sid, line = ins.sid, lines[pc]
        if isinstance(ins, IAssign):
            if pc not in in_loop:
                em.define(f"a{pc:d}", "env", em.assign(ins, line))
            op = (_ASSIGN, sid, f"a{pc:d}", None, None)
        elif isinstance(ins, ILoopTest):
            op = (_LOOP_TEST, sid, ins.pc_exit, None, None)
        elif isinstance(ins, ILoopIncr):
            op = (_LOOP_INCR, sid, ins.var, ins.pc_test, None)
        elif isinstance(ins, IBranch):
            op = (_BRANCH, sid, em.function(f"b{pc:d}", (ins.cond,), "{}",
                                            line), ins.pc_false, None)
        elif isinstance(ins, ILoopInit):
            step = Const(1) if ins.step is None else ins.step
            op = (_LOOP_INIT, sid, em.function(
                f"r{pc:d}", (ins.lo, ins.hi, step), "({})", line),
                ins.var, instrs[pc + 1].pc_exit)
        elif isinstance(ins, IJump):
            op = (_JUMP, sid, ins.pc, None, None)
        elif isinstance(ins, ICall):
            op = (_CALL, sid, ins.name,
                  em.function(f"c{pc:d}", ins.args, "[{}]", line), None)
        elif isinstance(ins, IReturn):
            op = (_RETURN, sid, None, None, None)
        else:  # pragma: no cover - exhaustiveness guard
            raise InterpError(f"unknown instruction {type(ins).__name__}")
        ops.append(op)
        if pc in loops:
            em.fast_loop(f"l{pc:d}", ins.var,
                         [(instrs[b], lines[b]) for b in loops[pc]], real)
    fns = em.load(f"<repro:{code.sub.name}>")
    for b in in_loop:
        fns[f"a{b:d}"] = _Checked(code, b)
    code.compiled = [
        (op, sid, fns[a] if op in (_ASSIGN, _BRANCH, _LOOP_INIT) else a,
         fns[b] if op == _CALL else b, c) for op, sid, a, b, c in ops], {
        pc: (fns[f"l{pc:d}"], len(body)) for pc, body in loops.items()}
    return code.compiled


class Interpreter:
    """Program-counter machine over :class:`FlatCode`."""

    def __init__(
        self,
        code: FlatCode,
        max_steps: int = DEFAULT_MAX_STEPS,
        pre_actions: Optional[dict[int, list[Callable[[Env], None]]]] = None,
        loop_bounds: Optional[dict[int, Callable]] = None,
        on_return: Optional[list[Callable[[Env], None]]] = None,
        externals: Optional[dict[str, Callable]] = None,
        count_visits: bool = False,
        vector_loops: Optional[dict[int, "LoopKernelLike"]] = None,
        loop_requests: Collection[int] = (),
    ):
        self.code = code
        self.max_steps = max_steps
        self.pre_actions = pre_actions or {}
        self.loop_bounds = loop_bounds or {}
        self.on_return = on_return or []
        self.externals = externals or {}
        self.count_visits = count_visits
        #: steps executed so far, refreshed at every collective yield and
        #: at return — cheap progress observability for the SPMD executor
        self.last_steps = 0
        # pcs that are "first instruction of a statement with pre-actions"
        self._action_pcs: dict[int, list[Callable[[Env], None]]] = {}
        for sid, actions in self.pre_actions.items():
            pc = code.first_pc.get(sid)
            if pc is None:
                raise InterpError(f"pre_action on unknown statement sid {sid}")
            self._action_pcs.setdefault(pc, []).extend(actions)
        self._ops, loops = _compile(code)

        def action_free(init_pc: int) -> bool:
            # a whole-range sweep would never visit an action pc inside
            body = range(init_pc + 1, self._ops[init_pc][4])
            return not any(pc in body for pc in self._action_pcs)

        #: straight-line loops run inside ILoopInit (not when counting visits)
        self._inline_loops = {} if count_visits else {
            pc: body for pc, body in loops.items() if action_free(pc)}
        self.vector_loops: dict[int, "LoopKernelLike"] = {
            sid: kernel for sid, kernel in (vector_loops or {}).items()
            if sid in code.loop_pc and action_free(code.loop_pc[sid])}
        #: loops whose kernel the harness runs (see :class:`LoopRequest`)
        self.loop_requests = (frozenset(loop_requests)
                              & self.vector_loops.keys())

    def run(self, env: Env) -> RunResult:
        """Execute to completion, mutating and returning ``env``.

        Raises :class:`InterpError` if a :class:`CollectiveAction` (or a
        :class:`LoopRequest`) is met — those only make sense under the
        SPMD executor (:meth:`run_gen`).
        """
        gen = self.run_gen(env)
        try:
            next(gen)
        except StopIteration as stop:
            return stop.value
        raise InterpError("collective action encountered in sequential run")

    def _run_actions(self, actions: list, first: int, env: Env,
                     st: MachineState, pc: int, steps: int):
        """Run ``actions[first:]``; a collective is yielded, ``st`` in sync."""
        for i in range(first, len(actions)):
            act = actions[i]
            if isinstance(act, CollectiveAction):
                self.last_steps = st.steps = steps
                st.pc, st.action_index, st.mid_statement = pc, i + 1, True
                yield act
                st.mid_statement = False
            else:
                act(env)

    def run_gen(self, env: Env, state: Optional[MachineState] = None):
        """Generator execution: yields each CollectiveAction (and each
        armed LoopRequest), returns RunResult.

        ``state`` (default: a fresh :class:`MachineState`) is kept in sync
        at every yield, so a copy taken while the generator is suspended
        at a collective fully describes the rank; passing such a copy back
        in starts a new generator that resumes exactly there (with the
        already-performed collective *not* re-yielded).
        """
        st = state if state is not None else MachineState()
        ops, inline_loops = self._ops, self._inline_loops
        action_pcs, vector_loops = self._action_pcs, self.vector_loops
        count_visits, max_steps = self.count_visits, self.max_steps
        remaining, stepval, visits = st.remaining, st.stepval, st.visits
        steps, pc = st.steps, st.pc
        spaces: dict = {}   # each vector loop's address space, for this run
        n = 0 if st.returned else len(ops)
        # resuming mid-statement: the step was already counted and the
        # first st.action_index pre-actions already ran before the snapshot
        first_action = st.action_index if st.mid_statement else -1
        while pc < n:
            if first_action < 0:
                steps += 1
                if steps > max_steps:
                    raise InterpError(f"step budget exceeded ({max_steps})")
                first_action = 0
            if action_pcs and pc in action_pcs:
                yield from self._run_actions(action_pcs[pc], first_action,
                                             env, st, pc, steps)
            first_action = -1
            op, sid, a, b, c = ops[pc]
            if count_visits:
                visits[sid] = visits.get(sid, 0) + 1
            if op == _ASSIGN:
                a(env)
                pc += 1
            elif op == _LOOP_TEST:
                pc = pc + 1 if remaining.get(sid, 0) > 0 else a
            elif op == _LOOP_INCR:
                # FORTRAN-77: the loop variable advances every iteration,
                # so after normal exit it holds lo + trips*step.
                remaining[sid] -= 1
                env[a] = env[a] + stepval[sid]
                pc = b
            elif op == _BRANCH:
                pc = pc + 1 if a(env) else b
            elif op == _LOOP_INIT:
                lo, hi, step = a(env)
                hook = self.loop_bounds.get(sid)
                if hook is not None:
                    lo, hi, step = hook(env, lo, hi, step)
                if step == 0:
                    raise InterpError(f"zero do-step at line "
                                      f"{self.code.sub.stmt(sid).line}")
                kernel = vector_loops.get(sid)
                if kernel is not None and step == 1:
                    # the whole iteration range vectorized, by the
                    # harness when it asked to run this loop itself
                    if sid in self.loop_requests:
                        yield LoopRequest(sid, lo, hi)
                    else:
                        kernel(env, lo, hi, spaces)
                    trips = max(0, hi - lo + 1)
                    env[b] = lo + trips
                    steps += trips * kernel.body_weight
                    pc = c
                    continue
                env[b] = lo
                stepval[sid] = step
                trips = max(0, (hi - lo + step) // step)
                loop = inline_loops.get(pc) if type(trips) is int else None
                # per trip: test + body + incr; then the test that exits
                if (loop is not None
                        and steps + trips * (loop[1] + 2) + 1 <= max_steps
                        and loop[0](env, trips, step)):
                    steps += trips * (loop[1] + 2) + 1
                    remaining[sid] = 0
                    pc = c
                else:
                    # per instruction: a budget that runs out raises in place
                    remaining[sid] = trips
                    pc += 1
            elif op == _JUMP:
                pc = a
            elif op == _CALL:
                func = self.externals.get(a.lower())
                if func is None:
                    raise InterpError(f"call to unknown subroutine {a!r}")
                func(env, *b(env))
                pc += 1
            else:  # _RETURN
                break
        start = st.action_index if st.returned else 0
        st.returned = True
        yield from self._run_actions(self.on_return, start, env, st, st.pc,
                                     steps)
        self.last_steps = st.steps = steps
        return RunResult(env=env, steps=steps, visits=visits)


def make_env(sub: Subroutine, **values: Any) -> Env:
    """Build an initial environment from declarations.

    Scalar parameters must be supplied via ``values``; arrays not supplied
    are zero-initialized at their declared size (integer arrays as int64,
    real as float64, logical as bool).
    """
    values = {name.lower(): v for name, v in values.items()}
    env: Env = {}
    for name, decl in sub.decls.items():
        if name in values:
            v = values[name]
            env[name] = np.asarray(v) if decl.is_array else v
            continue
        if decl.is_array:
            dtype = {"integer": np.int64, "real": np.float64,
                     "logical": np.bool_}[decl.base]
            env[name] = np.zeros(decl.dims, dtype=dtype)
    for name, v in values.items():
        if name not in env:
            env[name] = v
    return env
