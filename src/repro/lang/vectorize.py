"""Vectorized loop kernels: a fast numpy backend for partitioned loops.

The reference interpreter executes statement by statement — ideal as an
oracle, slow for big meshes.  This module compiles the common loop shapes
of the target class into numpy kernels executed over the whole index range
at once:

* direct stores ``A(i) = expr``      → ``A[idx] = expr_vec``
* gather reads ``A(M(i,k))``, ``A(s)`` with ``s = M(i,k)``
                                     → fancy indexing
* scatter accumulations ``A(x) = A(x) ± e`` → ``np.add.at`` (unbuffered)
* scalar reductions ``s = s ⊕ e``    → ``s = reduce(e_vec)``
* localized scalars                  → per-iteration vectors

Anything else (branches in the body, non-accumulating indirect stores,
reduction accumulators read mid-loop, unknown intrinsics) makes
:func:`try_vectorize_loop` return None and the caller falls back to the
interpreter — correctness never depends on the fast path.

Floating-point caveat: vector execution reorders additions (per-statement
sweeps, pairwise sums), so results match the scalar order to rounding
(~1e-15 relative), not bitwise.  Tests compare with tolerances, and the
oracle-grade sequential run is the scalar interpreter's — though
``run_sequential(backend="vector")`` runs these kernels too, which is
what the vector pipeline verifies against.

A kernel is compiled once and executed over an *address space*: one
environment (:meth:`LoopKernel.__call__` — the sequential run, a single
rank) or a :class:`RankBatch`, the concatenated iterations of many SPMD
ranks addressing each array through one all-ranks buffer
(:class:`Slab`).  The batch is bitwise equal to calling the kernel rank
by rank: elementwise steps and ``np.add.at`` see every rank's elements
in the per-rank order, and each rank's reduction partial is the same
reducer over that rank's contiguous slice of the operand vector.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, NamedTuple, Optional, Sequence

import numpy as np

from ..errors import InterpError
from .ast import (
    ArrayRef,
    Assign,
    BinOp,
    Const,
    DoLoop,
    Expr,
    Intrinsic,
    Subroutine,
    UnOp,
    Var,
)
from .interp import _is_integer

Env = dict


def _np_mod(a, b):
    """FORTRAN-77 ``MOD``: the remainder takes the sign of the dividend."""
    if _is_integral(a) and _is_integral(b) and np.any(b == 0):
        raise InterpError("integer modulo by zero")
    return np.fmod(a, b)


def _np_nint(x):
    """FORTRAN-77 ``NINT``: halves round away from zero."""
    r = np.floor(np.abs(x))
    return (np.sign(x) * (r + (np.abs(x) - r >= 0.5))).astype(np.int64)


_NP_INTRINSICS: dict[str, Callable] = {
    "abs": np.abs, "sqrt": np.sqrt, "exp": np.exp, "log": np.log,
    "sin": np.sin, "cos": np.cos, "tan": np.tan, "atan": np.arctan,
    "max": np.maximum, "min": np.minimum,
    "amax1": np.maximum, "amin1": np.minimum,
    "max0": np.maximum, "min0": np.minimum,
    "mod": _np_mod,
    "float": lambda x: np.asarray(x, dtype=np.float64),
    "real": lambda x: np.asarray(x, dtype=np.float64),
    "dble": lambda x: np.asarray(x, dtype=np.float64),
    "int": lambda x: np.trunc(x).astype(np.int64),
    "nint": _np_nint,
}

_REDUCERS = {"+": np.sum, "*": np.prod, "max": np.max, "min": np.min}


def _fold(op: str, base, partial):
    """Fold one sweep's reduction partial into the accumulator."""
    if op == "+":
        return base + partial
    if op == "*":
        return base * partial
    if op == "max":
        return max(base, float(partial))
    return min(base, float(partial))


class _OneEnv:
    """The address space of one environment: a whole-range call."""

    def __init__(self, env: Env, lo: int, hi: int):
        self.env = env
        self.idx = np.arange(lo - 1, hi)  # 0-based iteration indices

    def scalar(self, name: str):
        return self.env[name]

    def locate(self, name: str, subs: list):
        """(buffer, 0-based key) addressing ``name(subs)``."""
        arr = self.env[name]
        return arr, _index_key(subs, arr.shape)

    def reduce(self, name: str, op: str, vec: np.ndarray) -> None:
        self.env[name] = _fold(op, self.env[name], _REDUCERS[op](vec))


class Slab(NamedTuple):
    """One array's rows for every rank, rank segments concatenated along
    axis 0 in rank order; each rank's own array is a view of its segment
    (a flat-store field, an index map)."""

    flat: np.ndarray
    #: per-rank row count; rank r's rows start at ``sum(rows[:r])``
    rows: tuple
    #: the per-rank views the envs were bound to (empty when unknown)
    views: tuple = ()

    def installed_in(self, envs: Sequence[Env], name: str) -> bool:
        """Whether every rank env still binds ``name`` to its view here."""
        return len(self.views) == len(envs) and all(
            env.get(name) is view for env, view in zip(envs, self.views))


class RankBatch:
    """Many ranks' iterations of one loop as one address space.

    ``idx`` concatenates ``arange(lo_r - 1, hi_r)`` over the ranks with at
    least one trip, in rank order (a zero-trip rank takes no part: its
    accumulators stay untouched, as the per-rank call leaves them).
    Subscripts stay rank-local and 1-based; an array is addressed at
    ``local + offset[rank of the iteration]`` in its :class:`Slab`, after
    the same bounds check as the per-rank call — against the rows of the
    iteration's *own* rank, so an index that would spill into the next
    rank's segment still raises.
    """

    def __init__(self, envs: Sequence[Env], bounds: Sequence[tuple],
                 slabs: dict[str, Slab]):
        #: the per-rank ``(lo, hi)`` this batch was built for
        self.bounds = bounds
        self.slabs = slabs
        live = [(r, lo, hi) for r, (lo, hi) in enumerate(bounds) if hi >= lo]
        self.envs = [envs[r] for r, _lo, _hi in live]
        self.ranks = np.array([r for r, _lo, _hi in live], dtype=np.int64)
        self.trips = np.array([hi - lo + 1 for _r, lo, hi in live],
                              dtype=np.int64)
        #: rank k of the batch owns ``idx[starts[k]:starts[k + 1]]``
        self.starts = np.concatenate(([0], np.cumsum(self.trips)))
        self.idx = np.concatenate([np.arange(0)] + [
            np.arange(lo - 1, hi) for _r, lo, hi in live])
        #: per distinct slab geometry: (rows per batch rank, row offset
        #: of every iteration's rank)
        self._geometry: dict[tuple, tuple] = {}

    def scalar(self, name: str):
        """The ranks' common value, or one value per iteration."""
        vals = [env[name] for env in self.envs]
        if vals.count(vals[0]) == len(vals) \
                and len({type(v) for v in vals}) == 1:
            return vals[0]
        return np.repeat(np.array(vals), self.trips)

    def locate(self, name: str, subs: list):
        slab = self.slabs[name]
        geometry = self._geometry.get(slab.rows)
        if geometry is None:
            rows = np.array(slab.rows, dtype=np.int64)
            offsets = np.cumsum(rows) - rows
            geometry = self._geometry[slab.rows] = (
                rows[self.ranks], np.repeat(offsets[self.ranks], self.trips))
        rows, base = geometry
        key = _index_key(subs, slab.flat.shape, (self.starts[:-1], rows))
        if isinstance(key, tuple):
            return slab.flat, (key[0] + base,) + key[1:]
        return slab.flat, key + base

    def reduce(self, name: str, op: str, vec: np.ndarray) -> None:
        reducer = _REDUCERS[op]
        starts = self.starts.tolist()
        for env, a, b in zip(self.envs, starts, starts[1:]):
            env[name] = _fold(op, env[name], reducer(vec[a:b]))


@dataclass
class LoopKernel:
    """A compiled vector execution of one ``do`` loop.

    Calling it runs the whole iteration range at once; ``body_weight`` is
    the per-iteration instruction count (so interpreters can keep their
    step accounting comparable to scalar execution).  :meth:`sweep` runs
    the same steps over any address space — a :class:`RankBatch` executes
    the loop for many ranks in one pass.
    """

    loop: DoLoop
    steps: list[Callable]
    body_weight: int
    #: every array the body reads or writes
    arrays: frozenset

    def __call__(self, env: Env, lo: int, hi: int) -> None:
        self.sweep(_OneEnv(env, lo, hi))

    def sweep(self, space) -> None:
        if not len(space.idx):
            return
        locals_: dict[str, np.ndarray] = {}
        for step in self.steps:
            step(space, locals_)


class _Bail(Exception):
    """Internal: the loop shape is not vectorizable."""


@dataclass
class _Ctx:
    loop: DoLoop
    arrays: set[str]
    localized: set[str] = field(default_factory=set)
    reduced: set[str] = field(default_factory=set)
    env_scalar_reads: set[str] = field(default_factory=set)
    #: (array, first-subscript-is-the-loop-var) for every expression read
    array_reads: list[tuple[str, bool]] = field(default_factory=list)
    #: array -> {"direct", "indirect"} write modes seen in the body
    array_writes: dict[str, set[str]] = field(default_factory=dict)


def try_vectorize_loop(loop: DoLoop, sub: Subroutine) -> Optional[LoopKernel]:
    """Compile ``loop`` to a :class:`LoopKernel`, or None if unsupported."""
    try:
        return _compile(loop, sub)
    except _Bail:
        return None


def _compile(loop: DoLoop, sub: Subroutine) -> LoopKernel:
    if loop.step is not None and not (
            isinstance(loop.step, Const) and loop.step.value == 1):
        raise _Bail
    ctx = _Ctx(loop=loop,
               arrays={n for n, d in sub.decls.items() if d.is_array})
    steps: list[Callable] = []
    weight = 0
    for st in loop.body:
        if not isinstance(st, Assign):
            raise _Bail
        weight += 1
        steps.append(_compile_stmt(st, ctx))
    # a reduction accumulator read as an ordinary scalar in the same body
    # would see the evolving per-iteration value; the whole-range sweep
    # cannot reproduce that, so refuse
    if ctx.reduced & ctx.env_scalar_reads:
        raise _Bail
    # a scalar read before its in-body definition is a recurrence
    # (s = s + c·a(i) − d and friends): iterations see the evolving value,
    # the broadcast sweep would not
    if ctx.localized & ctx.env_scalar_reads:
        raise _Bail
    # loop-carried flow through a written array: an iteration may read an
    # element another iteration wrote.  Safe only when every write to the
    # array is element-local (direct a(i)) and every read of it addresses
    # the same iteration's element (first subscript is the loop variable).
    for name, modes in ctx.array_writes.items():
        reads = [lv for n, lv in ctx.array_reads if n == name]
        if "indirect" in modes:
            if reads or "direct" in modes:
                # scatter target also read (beyond its self-reads), or
                # interleaved with element-local overwrites: the scalar
                # iteration order is observable
                raise _Bail
        elif not all(reads):
            raise _Bail
    return LoopKernel(loop=loop, steps=steps, body_weight=weight + 2,
                      arrays=frozenset(ctx.array_writes)
                      | {name for name, _lv in ctx.array_reads})


def _compile_stmt(st: Assign, ctx: _Ctx) -> Callable:
    tgt = st.target
    if isinstance(tgt, Var):
        if tgt.name in ctx.reduced:
            # a second reduction step on the same scalar interleaves with
            # the first in iteration order; fall back to the interpreter
            raise _Bail
        shape = _reduction_shape(st) if tgt.name not in ctx.localized else None
        if shape is not None:
            op, operand = shape
            if _mentions(operand, tgt.name):
                raise _Bail
            if isinstance(st.value, BinOp) and st.value.op == "-":
                operand = UnOp("-", operand)  # s = s - e sums -e
            operand_fn = _compile_expr(operand, ctx)
            ctx.reduced.add(tgt.name)
            name = tgt.name

            def reduce_step(space, locals_, _fn=operand_fn, _name=name,
                            _op=op):
                space.reduce(_name, _op, np.broadcast_to(
                    _fn(space, locals_), space.idx.shape))

            return reduce_step
        value_fn = _compile_expr(st.value, ctx)
        ctx.localized.add(tgt.name)
        name = tgt.name

        def local_step(space, locals_, _fn=value_fn, _name=name):
            locals_[_name] = np.broadcast_to(_fn(space, locals_),
                                             space.idx.shape)

        return local_step

    # array target
    accum = _accum_operand(st)
    name = tgt.name
    is_direct = (tgt.subs and isinstance(tgt.subs[0], Var)
                 and tgt.subs[0].name == ctx.loop.var)
    ctx.array_writes.setdefault(name, set()).add(
        "direct" if is_direct else "indirect")
    if accum is not None:
        op, operand = accum
        if op != "+":
            raise _Bail  # only additive scatters occur in the class
        index_fns = [_compile_expr(s, ctx) for s in tgt.subs]
        operand_fn = _compile_expr(operand, ctx)

        def accum_step(space, locals_, _fns=index_fns, _fn=operand_fn,
                       _name=name):
            arr, key = space.locate(_name,
                                    [f(space, locals_) for f in _fns])
            vec = np.broadcast_to(_fn(space, locals_), space.idx.shape)
            np.add.at(arr, key, vec)

        return accum_step

    # plain store: only safe when the first subscript is the loop variable
    # (distinct element per iteration — no write order to preserve)
    if not (tgt.subs and isinstance(tgt.subs[0], Var)
            and tgt.subs[0].name == ctx.loop.var):
        raise _Bail
    index_fns = [_compile_expr(s, ctx) for s in tgt.subs]
    value_fn = _compile_expr(st.value, ctx)

    def store_step(space, locals_, _fns=index_fns, _fn=value_fn,
                   _name=name):
        arr, key = space.locate(_name, [f(space, locals_) for f in _fns])
        arr[key] = _fn(space, locals_)

    return store_step


def _index_key(subs, shape, segments=None):
    """0-based key for 1-based subscript values, bounds-checked.

    ``segments`` — a rank batch's ``(segment starts, rows per rank)`` —
    checks axis 0 segment by segment against each rank's own row count
    rather than against ``shape[0]``.
    """
    parts = []
    for axis, iv in enumerate(subs):
        iv = np.asarray(iv) - 1
        limit = shape[axis]
        if iv.ndim == 0:
            iv = int(iv)
            if axis == 0 and segments is not None:
                limit = segments[1].min()
            if not 0 <= iv < limit:
                raise InterpError(
                    f"vector subscript {iv + 1} out of bounds on axis {axis}")
        else:
            if axis == 0 and segments is not None:
                starts, limit = segments
                low = np.minimum.reduceat(iv, starts)
                high = np.maximum.reduceat(iv, starts)
            elif iv.size:
                low, high = iv.min(), iv.max()
            else:
                low, high = 0, -1
            if np.any(low < 0) or np.any(high >= limit):
                raise InterpError(
                    f"vector subscript out of bounds on axis {axis}")
        parts.append(iv)
    return tuple(parts) if len(parts) > 1 else parts[0]


def _compile_expr(ex: Expr, ctx: _Ctx) -> Callable:
    if isinstance(ex, Const):
        v = ex.value
        return lambda space, locals_: v
    if isinstance(ex, Var):
        name = ex.name
        if name == ctx.loop.var:
            return lambda space, locals_: space.idx + 1  # FORTRAN index
        if name in ctx.localized:
            return lambda space, locals_: locals_[name]
        if name in ctx.arrays:
            raise _Bail  # whole-array reference in expression
        ctx.env_scalar_reads.add(name)
        return lambda space, locals_: space.scalar(name)
    if isinstance(ex, ArrayRef):
        name = ex.name
        if name not in ctx.arrays:
            raise _Bail
        first_is_loopvar = bool(ex.subs and isinstance(ex.subs[0], Var)
                                and ex.subs[0].name == ctx.loop.var)
        ctx.array_reads.append((name, first_is_loopvar))
        index_fns = [_compile_expr(s, ctx) for s in ex.subs]

        def read(space, locals_, _name=name, _fns=index_fns):
            arr, key = space.locate(_name,
                                    [f(space, locals_) for f in _fns])
            return arr[key]

        return read
    if isinstance(ex, BinOp):
        if ex.op in (".and.", ".or."):
            raise _Bail
        left = _compile_expr(ex.left, ctx)
        right = _compile_expr(ex.right, ctx)
        op = ex.op

        def binop(space, locals_, _l=left, _r=right, _op=op):
            return _apply_binop(_op, _l(space, locals_), _r(space, locals_))

        return binop
    if isinstance(ex, UnOp):
        if ex.op == ".not.":
            raise _Bail
        inner = _compile_expr(ex.operand, ctx)
        if ex.op == "+":
            return inner
        return lambda space, locals_, _f=inner: -_f(space, locals_)
    if isinstance(ex, Intrinsic):
        fn = _NP_INTRINSICS.get(ex.name)
        if fn is None:
            raise _Bail
        arg_fns = [_compile_expr(a, ctx) for a in ex.args]

        def call(space, locals_, _fn=fn, _args=arg_fns):
            return _fn(*(a(space, locals_) for a in _args))

        return call
    raise _Bail


def _apply_binop(op: str, a, b):
    if op == "+":
        return a + b
    if op == "-":
        return a - b
    if op == "*":
        return a * b
    if op == "/":
        if _is_integral(a) and _is_integral(b):
            # FORTRAN integer division truncates toward zero
            if np.any(b == 0):
                raise InterpError("integer division by zero")
            q = np.floor_divide(np.abs(a), np.abs(b))
            return q * np.sign(a) * np.sign(b)
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
    raise _Bail


def _is_integral(x) -> bool:
    return _is_integer(x) or (isinstance(x, np.ndarray)
                              and np.issubdtype(x.dtype, np.integer))


def _reduction_shape(st: Assign):
    from ..analysis.idioms import _reduction_shape as shape

    return shape(st)


def _accum_operand(st: Assign):
    from ..analysis.idioms import _split_accum

    op, other = _split_accum(st)
    if op is None:
        return None
    # subtraction was canonicalized to "+" of -e by the idiom splitter;
    # reconstruct the sign from the source expression
    v = st.value
    if isinstance(v, BinOp) and v.op == "-" and other is v.right:
        return "+", UnOp("-", other)
    return op, other


def _mentions(ex: Expr, name: str) -> bool:
    return any(getattr(n, "name", None) == name for n in ex.walk())


def build_vector_kernels(sub: Subroutine,
                         loops: Optional[list[DoLoop]] = None) -> dict[int, LoopKernel]:
    """Compile every vectorizable loop of ``sub`` (or just ``loops``)."""
    if loops is None:
        loops = [s for s in sub.walk() if isinstance(s, DoLoop)]
    kernels: dict[int, LoopKernel] = {}
    for loop in loops:
        kernel = try_vectorize_loop(loop, sub)
        if kernel is not None:
            kernels[loop.sid] = kernel
    return kernels
