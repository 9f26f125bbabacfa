"""Interpreter for the mini-FORTRAN subset: compile once, run closures.

Runs the flat code of :mod:`repro.lang.lower` over an environment of
Python scalars and 1-based-indexed numpy arrays.  It is the default backend
*and* the oracle every SPMD execution is checked against (DESIGN.md
section 5); :mod:`repro.lang.vectorize` must agree with it.

*Compile once.*  The first :class:`Interpreter` over a ``FlatCode`` lowers
it into what the program-counter machine executes — a closure per
expression (:func:`compile_expr`), an ``(array, 0-based index)`` locator
per array reference (:func:`compile_ref`), an opcode tuple per instruction
— cached on the ``FlatCode``, so an executor's rank interpreters share it;
:meth:`Interpreter.run_gen` dispatches on the opcode, no node type is
rediscovered per visit.

*Every check still runs on every evaluation*, inside the closures: unset
variable / array, not an array, rank mismatch, non-integer or out-of-bounds
subscript (compared on Python ints), integer division / modulo by zero;
Python's own arithmetic faults (``1.0 / 0.0``, ``sqrt(-1.0)``) leave a
statement's closure as :class:`InterpError` naming the source line.  Step
budget, pre-actions and :class:`MachineState` sync stay in the dispatch
loop.  *Bit-equal by construction*: the closures apply the same Python /
numpy scalar operations in the same order as the tree walker they replaced
(now the reference of a property test in ``tests/lang/test_interp.py``;
``tests/lang/golden_interp.json`` pins steps, visits and output digests).

*The loop path.*  A ``do`` loop whose body is assignments only, holds no
pre-action pc and is no jump target runs its trips inside the ``ILoopInit``
arm, charging ``trips * (len(body) + 2) + 1`` steps at once — or, when
that would cross ``max_steps``, instruction by instruction, so the budget
error fires at the same step.  Read off the code; not an option.

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

import math
import operator
from dataclasses import dataclass, field
from typing import Any, Callable, Collection, Optional

import numpy as np

from .ast import (ArrayRef, BinOp, Const, Expr, Intrinsic, Subroutine, UnOp,
                  Var)
from .lower import (FlatCode, IAssign, IBranch, ICall, IJump, ILoopIncr,
                    ILoopInit, ILoopTest, IReturn, lower_subroutine)
from ..errors import InterpError

Env = dict[str, Any]

#: the runaway guard every ``max_steps`` defaults to (interpreter,
#: executor, pipeline, service worker): a program passes all doors or none
DEFAULT_MAX_STEPS = 200_000_000

#: anything callable as ``kernel(env, lo, hi)`` with a ``body_weight``
#: attribute — in practice :class:`repro.lang.vectorize.LoopKernel`
LoopKernelLike = Any

# an integer loaded from an array is np.int64, not int
_INTEGERS = (int, np.integer)

#: what a statement's arithmetic can raise besides :class:`InterpError`
_FAULTS = (ArithmeticError, ValueError)


def _is_integer(x: Any) -> bool:
    return isinstance(x, _INTEGERS) and not isinstance(x, bool)


def _div(a: Any, b: Any) -> Any:
    """FORTRAN ``/``: integer operands truncate toward zero."""
    if not (_is_integer(a) and _is_integer(b)):
        return a / b
    if b == 0:
        raise InterpError("integer division by zero")
    q = a // b
    if q < 0 and q * b != a:
        q += 1
    return q


def _mod(a: Any, b: Any) -> Any:
    """FORTRAN-77 ``MOD(a, p) = a - INT(a/p)*p``: sign of the dividend."""
    if _is_integer(a) and _is_integer(b):
        if b == 0:
            raise InterpError("integer modulo by zero")
        return a - _div(a, b) * b
    return math.fmod(a, b)


def _nint(x: Any) -> int:
    """FORTRAN-77 ``NINT``: halves round away from zero."""
    r = math.floor(abs(x))
    if abs(x) - r >= 0.5:       # exact, where floor(|x| + 0.5) rounds
        r += 1
    return r if x >= 0 else -r


_INTRINSIC_FUNCS: dict[str, Callable] = {
    "abs": abs, "sqrt": math.sqrt, "exp": math.exp, "log": math.log,
    "sin": math.sin, "cos": math.cos, "tan": math.tan, "atan": math.atan,
    "max": max, "min": min, "amax1": max, "amin1": min,
    "max0": max, "min0": min,
    "mod": _mod,
    "sign": lambda a, b: abs(a) if b >= 0 else -abs(a),
    "float": float, "real": float, "dble": float,
    "int": int, "nint": _nint,
}

_BINOPS: dict[str, Callable] = {
    "+": operator.add, "-": operator.sub, "*": operator.mul, "/": _div,
    "**": operator.pow, "<": operator.lt, "<=": operator.le,
    ">": operator.gt, ">=": operator.ge, "==": operator.eq,
    "/=": operator.ne,
}


def compile_expr(ex: Expr) -> Callable[[Env], Any]:
    """Compile an expression to a closure ``f(env) -> value``.

    Arrays use FORTRAN 1-based indexing; out-of-bounds accesses raise
    :class:`InterpError` rather than wrap: silent wraparound is the class of
    bug the paper's tool exists to prevent.  An unknown operator or
    intrinsic raises when *evaluated*, not here.
    """
    if isinstance(ex, Const):
        value = ex.value
        return lambda env: value
    if isinstance(ex, Var):
        name = ex.name

        def var(env):
            try:
                return env[name]
            except KeyError:
                raise InterpError(f"read of unset variable {name!r}") from None
        return var
    if isinstance(ex, ArrayRef):
        ref = compile_ref(ex)

        def load(env):
            arr, idx = ref(env)
            return arr[idx]
        return load
    if isinstance(ex, BinOp):
        left, right = compile_expr(ex.left), compile_expr(ex.right)
        if ex.op == ".and.":
            return lambda env: bool(left(env)) and bool(right(env))
        if ex.op == ".or.":
            return lambda env: bool(left(env)) or bool(right(env))
        fn = _BINOPS.get(ex.op)
        if fn is None:
            def unknown(env):
                left(env), right(env)
                raise InterpError(f"unknown operator {ex.op!r}")
            return unknown
        return lambda env: fn(left(env), right(env))
    if isinstance(ex, UnOp):
        operand = compile_expr(ex.operand)
        if ex.op == "-":
            return lambda env: -operand(env)
        if ex.op == "+":
            return operand
        return lambda env: not bool(operand(env))
    if isinstance(ex, Intrinsic):
        fn = _INTRINSIC_FUNCS.get(ex.name)
        args = [compile_expr(a) for a in ex.args]
        if fn is None:
            def unknown(env):
                raise InterpError(f"unknown intrinsic {ex.name!r}")
            return unknown
        if len(args) == 1:
            arg, = args
            return lambda env: fn(arg(env))
        if len(args) == 2:
            first, second = args
            return lambda env: fn(first(env), second(env))
        return lambda env: fn(*[a(env) for a in args])
    raise InterpError(f"cannot evaluate {type(ex).__name__}")


def eval_expr(ex: Expr, env: Env) -> Any:
    """Evaluate an expression in ``env`` (see :func:`compile_expr`)."""
    return compile_expr(ex)(env)


def compile_ref(ref: ArrayRef) -> Callable[[Env], tuple[np.ndarray, Any]]:
    """Compile an array reference to ``f(env) -> (array, 0-based index)``.

    Checks on every call, in order: unset array, not an array, rank mismatch,
    per subscript non-integer, out of bounds.  1-D: a bare index, not a tuple.
    """
    name, rank = ref.name, len(ref.subs)
    subs = [compile_expr(s) for s in ref.subs]

    def fault(env, raw=None, axis=0):
        # off the hot path: which of the checks failed, in their order
        arr = env.get(name)
        if name not in env:
            return InterpError(f"read of unset array {name!r}")
        if not isinstance(arr, np.ndarray):
            return InterpError(f"{name!r} is not an array")
        if arr.ndim != rank:
            return InterpError(
                f"{name!r}: {rank} subscripts for rank-{arr.ndim} array")
        if not isinstance(raw, _INTEGERS):
            return InterpError(f"{name!r}: non-integer subscript {raw!r}")
        return InterpError(f"{name!r}: subscript {raw} out of bounds "
                           f"1..{arr.shape[axis]}")

    if rank == 1:
        sub, = subs

        def locate(env):
            arr = env.get(name)
            if not isinstance(arr, np.ndarray) or arr.ndim != 1:
                raise fault(env)
            i = raw = sub(env)
            if type(i) is not int:      # np.int64 — or not an index: 0
                i = int(i) if isinstance(i, _INTEGERS) else 0
            if not 1 <= i <= arr.shape[0]:
                raise fault(env, raw)
            return arr, i - 1
    else:
        def locate(env):
            arr = env.get(name)
            if not isinstance(arr, np.ndarray) or arr.ndim != rank:
                raise fault(env)
            idx = []
            for axis, sub in enumerate(subs):
                i = raw = sub(env)
                if type(i) is not int:
                    i = int(i) if isinstance(i, _INTEGERS) else 0
                if not 1 <= i <= arr.shape[axis]:
                    raise fault(env, raw, axis)
                idx.append(i - 1)
            return arr, tuple(idx)
    return locate


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


def _guarded(fn: Callable[[Env], Any], line: int) -> Callable[[Env], Any]:
    # ``fn`` with arithmetic faults re-raised as InterpError at ``line``
    def guarded(env):
        try:
            return fn(env)
        except _FAULTS as exc:
            raise InterpError(f"line {line}: {exc}") from exc
    return guarded


def _compile_assign(ins: IAssign, line: int) -> Callable[[Env], None]:
    # value first, then the target's subscripts; own try = one call fewer
    value = compile_expr(ins.value)
    if isinstance(ins.target, Var):
        name = ins.target.name

        def store(env):
            try:
                env[name] = value(env)
            except _FAULTS as exc:
                raise InterpError(f"line {line}: {exc}") from exc
    else:
        ref = compile_ref(ins.target)

        def store(env):
            try:
                v = value(env)
                arr, idx = ref(env)
                arr[idx] = v
            except _FAULTS as exc:
                raise InterpError(f"line {line}: {exc}") from exc
    return store


def _compile(code: FlatCode) -> tuple[tuple, dict[int, tuple]]:
    """Lower ``code`` once (cached on it): an ``(opcode, sid, a, b, c)`` per
    instruction, and ``ILoopInit`` pc -> statement closures of every loop
    whose body is assignments only and no jump target."""
    if code.compiled is not None:
        return code.compiled
    ops = []
    for ins in code.instrs:
        line = code.sub.stmt(ins.sid).line if ins.sid else 0
        if isinstance(ins, IAssign):
            op = (_ASSIGN, ins.sid, _compile_assign(ins, line), None, None)
        elif isinstance(ins, ILoopTest):
            op = (_LOOP_TEST, ins.sid, ins.pc_exit, None, None)
        elif isinstance(ins, ILoopIncr):
            op = (_LOOP_INCR, ins.sid, ins.var, ins.pc_test, None)
        elif isinstance(ins, IBranch):
            op = (_BRANCH, ins.sid, _guarded(compile_expr(ins.cond), line),
                  ins.pc_false, None)
        elif isinstance(ins, ILoopInit):
            lo, hi = compile_expr(ins.lo), compile_expr(ins.hi)
            step = compile_expr(Const(1) if ins.step is None else ins.step)
            bounds = _guarded(lambda env, lo=lo, hi=hi, step=step:
                              (lo(env), hi(env), step(env)), line)
            op = (_LOOP_INIT, ins.sid, bounds, ins.var,
                  code.instrs[len(ops) + 1].pc_exit)    # the ILoopTest's
        elif isinstance(ins, IJump):
            op = (_JUMP, ins.sid, ins.pc, None, None)
        elif isinstance(ins, ICall):
            args = [compile_expr(a) for a in ins.args]
            op = (_CALL, ins.sid, ins.name,
                  _guarded(lambda env, args=args: [a(env) for a in args],
                           line), None)
        elif isinstance(ins, IReturn):
            op = (_RETURN, ins.sid, None, None, None)
        else:  # pragma: no cover - exhaustiveness guard
            raise InterpError(f"unknown instruction {type(ins).__name__}")
        ops.append(op)
    targets = ({op[2] for op in ops if op[0] == _JUMP}
               | {op[3] for op in ops if op[0] == _BRANCH})
    loops = {}
    for pc, op in enumerate(ops):
        if op[0] != _LOOP_INIT:
            continue
        body = ops[pc + 2:op[4] - 1]    # between ILoopTest and ILoopIncr
        if (all(b[0] == _ASSIGN for b in body)
                and targets.isdisjoint(range(pc + 1, op[4]))):
            loops[pc] = tuple(b[2] for b in body)
    code.compiled = tuple(ops), loops
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
                        kernel(env, lo, hi)
                    trips = max(0, hi - lo + 1)
                    env[b] = lo + trips
                    steps += trips * kernel.body_weight
                    pc = c
                    continue
                env[b] = lo
                stepval[sid] = step
                trips = max(0, (hi - lo + step) // step)
                stmts = inline_loops.get(pc) if type(trips) is int else None
                # per trip: test + body + incr; then the test that exits
                if (stmts is not None
                        and steps + trips * (len(stmts) + 2) + 1 <= max_steps):
                    for _ in range(trips):
                        for stmt in stmts:
                            stmt(env)
                        env[b] = env[b] + step
                    steps += trips * (len(stmts) + 2) + 1
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


def run_subroutine(
    sub: Subroutine,
    env: Env,
    max_steps: int = DEFAULT_MAX_STEPS,
    externals: Optional[dict[str, Callable]] = None,
) -> RunResult:
    """Convenience wrapper: lower and execute ``sub`` over ``env``."""
    code = lower_subroutine(sub)
    return Interpreter(code, max_steps=max_steps, externals=externals).run(env)


def make_env(sub: Subroutine, **values: Any) -> Env:
    """Build an initial environment from declarations.

    Scalar parameters must be supplied via ``values``; arrays not supplied
    are zero-initialized at their declared size (integer arrays as int64,
    real as float64, logical as bool).
    """
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
        if name.lower() not in env:
            env[name.lower()] = v
    return env
