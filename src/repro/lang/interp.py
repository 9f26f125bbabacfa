"""Reference interpreter for the mini-FORTRAN subset.

Runs the flat code produced by :mod:`repro.lang.lower` over an environment
of Python scalars and 1-based-indexed numpy arrays.  Deliberately simple
and observable — it is the *oracle* against which every SPMD execution is
checked (DESIGN.md section 5), so clarity beats speed here; the fast path
is :mod:`repro.lang.vectorize`, which must agree with this interpreter.

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
    generator yields a :class:`LoopRequest` instead of calling the
    kernel, and does the loop's bookkeeping when resumed — which lets the
    executor serve the same loop of every rank in one kernel sweep.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Callable, Collection, Optional

import numpy as np

from .ast import (
    ArrayRef,
    BinOp,
    Const,
    Expr,
    Intrinsic,
    Subroutine,
    UnOp,
    Var,
)
from .lower import (
    FlatCode,
    IAssign,
    IBranch,
    ICall,
    IJump,
    ILoopIncr,
    ILoopInit,
    ILoopTest,
    IReturn,
    lower_subroutine,
)
from ..errors import InterpError

Env = dict[str, Any]

#: the runaway guard every ``max_steps`` defaults to (interpreter,
#: executor, pipeline, service worker): a program passes all doors or none
DEFAULT_MAX_STEPS = 200_000_000

#: anything callable as ``kernel(env, lo, hi)`` with a ``body_weight``
#: attribute — in practice :class:`repro.lang.vectorize.LoopKernel`
LoopKernelLike = Any

_INTRINSIC_FUNCS: dict[str, Callable] = {
    "abs": abs,
    "sqrt": math.sqrt,
    "exp": math.exp,
    "log": math.log,
    "sin": math.sin,
    "cos": math.cos,
    "tan": math.tan,
    "atan": math.atan,
    "max": max,
    "min": min,
    "amax1": max,
    "amin1": min,
    "max0": max,
    "min0": min,
    "mod": lambda a, b: a % b,
    "sign": lambda a, b: abs(a) if b >= 0 else -abs(a),
    "float": float,
    "real": float,
    "dble": float,
    "int": int,
    "nint": lambda x: int(round(x)),
}


def eval_expr(ex: Expr, env: Env) -> Any:
    """Evaluate an expression in ``env``.

    Arrays use FORTRAN 1-based indexing; out-of-bounds accesses raise
    :class:`InterpError` rather than wrapping, because silent wraparound is
    exactly the class of bug the paper's tool exists to prevent.
    """
    if isinstance(ex, Const):
        return ex.value
    if isinstance(ex, Var):
        try:
            return env[ex.name]
        except KeyError:
            raise InterpError(f"read of unset variable {ex.name!r}") from None
    if isinstance(ex, ArrayRef):
        arr = _array(ex.name, env)
        idx = _index(ex, arr, env)
        return arr[idx]
    if isinstance(ex, BinOp):
        if ex.op == ".and.":
            return bool(eval_expr(ex.left, env)) and bool(eval_expr(ex.right, env))
        if ex.op == ".or.":
            return bool(eval_expr(ex.left, env)) or bool(eval_expr(ex.right, env))
        a = eval_expr(ex.left, env)
        b = eval_expr(ex.right, env)
        return _binop(ex.op, a, b)
    if isinstance(ex, UnOp):
        v = eval_expr(ex.operand, env)
        if ex.op == "-":
            return -v
        if ex.op == "+":
            return v
        return not bool(v)
    if isinstance(ex, Intrinsic):
        func = _INTRINSIC_FUNCS.get(ex.name)
        if func is None:
            raise InterpError(f"unknown intrinsic {ex.name!r}")
        return func(*(eval_expr(a, env) for a in ex.args))
    raise InterpError(f"cannot evaluate {type(ex).__name__}")


def _binop(op: str, a: Any, b: Any) -> Any:
    if op == "+":
        return a + b
    if op == "-":
        return a - b
    if op == "*":
        return a * b
    if op == "/":
        if _is_integer(a) and _is_integer(b):
            if b == 0:
                raise InterpError("integer division by zero")
            q = a // b
            # FORTRAN truncates toward zero
            if q < 0 and q * b != a:
                q += 1
            return q
        return a / b
    if op == "**":
        return a ** b
    if op == "<":
        return a < b
    if op == "<=":
        return a <= b
    if op == ">":
        return a > b
    if op == ">=":
        return a >= b
    if op == "==":
        return a == b
    if op == "/=":
        return a != b
    raise InterpError(f"unknown operator {op!r}")


def _is_integer(x: Any) -> bool:
    # an integer loaded from an array is np.int64, not int
    return isinstance(x, (int, np.integer)) and not isinstance(x, bool)


def _array(name: str, env: Env) -> np.ndarray:
    try:
        arr = env[name]
    except KeyError:
        raise InterpError(f"read of unset array {name!r}") from None
    if not isinstance(arr, np.ndarray):
        raise InterpError(f"{name!r} is not an array")
    return arr


def _index(ref: ArrayRef, arr: np.ndarray, env: Env) -> tuple[int, ...]:
    if arr.ndim != len(ref.subs):
        raise InterpError(
            f"{ref.name!r}: {len(ref.subs)} subscripts for rank-{arr.ndim} array")
    out = []
    for axis, sub in enumerate(ref.subs):
        i = eval_expr(sub, env)
        if not isinstance(i, (int, np.integer)):
            raise InterpError(f"{ref.name!r}: non-integer subscript {i!r}")
        if not 1 <= i <= arr.shape[axis]:
            raise InterpError(
                f"{ref.name!r}: subscript {i} out of bounds 1..{arr.shape[axis]}")
        out.append(int(i) - 1)
    return tuple(out)


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
        # vectorized loops: skip kernels whose body contains an action pc
        # (the whole-range sweep would never visit it)
        self.vector_loops: dict[int, "LoopKernelLike"] = {}
        for sid, kernel in (vector_loops or {}).items():
            init_pc = code.loop_pc.get(sid)
            if init_pc is None:
                continue
            test = code.instrs[init_pc + 1]
            if not isinstance(test, ILoopTest):
                continue
            body_range = range(init_pc + 1, test.pc_exit)
            if any(pc in body_range for pc in self._action_pcs):
                continue
            self.vector_loops[sid] = kernel
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
        instrs = self.code.instrs
        remaining = st.remaining
        stepval = st.stepval
        visits = st.visits
        steps = st.steps
        pc = st.pc
        n = len(instrs)
        # resuming mid-statement: the step was already counted and the
        # first st.action_index pre-actions already ran before the snapshot
        skip = st.action_index if (st.mid_statement
                                   and not st.returned) else -1
        while pc < n and not st.returned:
            if skip < 0:
                steps += 1
                if steps > self.max_steps:
                    raise InterpError(
                        f"step budget exceeded ({self.max_steps})")
                first_action = 0
            else:
                first_action = skip
                skip = -1
            actions = self._action_pcs.get(pc)
            if actions:
                for i in range(first_action, len(actions)):
                    act = actions[i]
                    if isinstance(act, CollectiveAction):
                        self.last_steps = steps
                        st.pc, st.steps = pc, steps
                        st.action_index, st.mid_statement = i + 1, True
                        yield act
                        st.mid_statement = False
                    else:
                        act(env)
            ins = instrs[pc]
            if self.count_visits:
                visits[ins.sid] = visits.get(ins.sid, 0) + 1
            if isinstance(ins, IAssign):
                value = eval_expr(ins.value, env)
                tgt = ins.target
                if isinstance(tgt, Var):
                    env[tgt.name] = value
                else:
                    arr = _array(tgt.name, env)
                    arr[_index(tgt, arr, env)] = value
                pc += 1
            elif isinstance(ins, ILoopInit):
                lo = eval_expr(ins.lo, env)
                hi = eval_expr(ins.hi, env)
                step = eval_expr(ins.step, env) if ins.step is not None else 1
                hook = self.loop_bounds.get(ins.sid)
                if hook is not None:
                    lo, hi, step = hook(env, lo, hi, step)
                if step == 0:
                    raise InterpError(f"zero do-step at line "
                                      f"{self.code.sub.stmt(ins.sid).line}")
                kernel = self.vector_loops.get(ins.sid)
                if kernel is not None and step == 1:
                    # fast path: the whole iteration range vectorized,
                    # by the harness when it asked to run this loop itself
                    if ins.sid in self.loop_requests:
                        yield LoopRequest(ins.sid, lo, hi)
                    else:
                        kernel(env, lo, hi)
                    trips = max(0, hi - lo + 1)
                    env[ins.var] = lo + trips
                    steps += trips * kernel.body_weight
                    test = instrs[pc + 1]
                    assert isinstance(test, ILoopTest)
                    pc = test.pc_exit
                    continue
                env[ins.var] = lo
                remaining[ins.sid] = max(0, (hi - lo + step) // step)
                stepval[ins.sid] = step
                pc += 1
            elif isinstance(ins, ILoopTest):
                if remaining.get(ins.sid, 0) > 0:
                    pc += 1
                else:
                    pc = ins.pc_exit
            elif isinstance(ins, ILoopIncr):
                # FORTRAN-77: the loop variable advances every iteration,
                # so after normal exit it holds lo + trips*step.
                remaining[ins.sid] -= 1
                env[ins.var] = env[ins.var] + stepval[ins.sid]
                pc = ins.pc_test
            elif isinstance(ins, IBranch):
                if bool(eval_expr(ins.cond, env)):
                    pc += 1
                else:
                    pc = ins.pc_false
            elif isinstance(ins, IJump):
                pc = ins.pc
            elif isinstance(ins, ICall):
                func = self.externals.get(ins.name.lower())
                if func is None:
                    raise InterpError(f"call to unknown subroutine {ins.name!r}")
                func(env, *(eval_expr(a, env) for a in ins.args))
                pc += 1
            elif isinstance(ins, IReturn):
                break
            else:  # pragma: no cover - exhaustiveness guard
                raise InterpError(f"unknown instruction {type(ins).__name__}")
        start = st.action_index if st.returned else 0
        st.returned = True
        for i in range(start, len(self.on_return)):
            act = self.on_return[i]
            if isinstance(act, CollectiveAction):
                self.last_steps = steps
                st.steps = steps
                st.action_index, st.mid_statement = i + 1, True
                yield act
                st.mid_statement = False
            else:
                act(env)
        self.last_steps = steps
        st.steps = steps
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
