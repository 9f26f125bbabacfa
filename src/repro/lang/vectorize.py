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
reduction accumulators read mid-loop, operations with no array form)
leaves the loop out of :func:`build_vector_kernels`, and the caller falls
back to the interpreter — correctness never depends on the fast path.

The kernels of a subroutine are one module of Python source, written by
the interpreter's emitter (:class:`_KernelEmitter`): the same
expressions, calling the array forms of :mod:`repro.lang.semantics`, and
the same ``try`` around each statement.

Floating-point caveat: vector execution reorders additions (per-statement
sweeps, pairwise sums), so results match the scalar order to rounding
(~1e-15 relative), not bitwise.  Tests compare with tolerances, and the
oracle-grade sequential run is the scalar interpreter's — though
``run_sequential(backend="vector")`` runs these kernels too, which is
what the vector pipeline verifies against.

A kernel is executed over an *address space*: one environment
(:meth:`LoopKernel.__call__` — the sequential run, a single rank) or a
:class:`RankBatch`, the concatenated iterations of many SPMD ranks
addressing each array through one all-ranks buffer (:class:`Slab`),
bitwise equal to calling the kernel rank by rank.  A space computes and
checks each *address-invariant* subscript — built from constants, the
loop variable, localized scalars and reads of index arrays no statement
assigns — once, on its first sweep (docs/architecture.md, "Rank-fused
compute").
"""

from __future__ import annotations

import mmap
from dataclasses import dataclass, field
from typing import Callable, NamedTuple, Optional, Sequence

import numpy as np

from ..errors import InterpError
from .ast import (ArrayRef, Assign, BinOp, CallStmt, Const, DoLoop, Expr,
                  Intrinsic, Subroutine, UnOp, Var)
from .interp import _HELPERS, Env, _Emitter
from .semantics import REDUCTIONS, accumulation_shape, reduction_shape


def _stable(arr, written: list) -> bool:
    """Whether ``arr`` is an integer array sharing no memory with any
    array in ``written`` — an index array whose addresses may be reused."""
    return (isinstance(arr, np.ndarray) and arr.dtype.kind == "i"
            and not any(np.may_share_memory(arr, w) for w in written
                        if isinstance(w, np.ndarray)))


class _Space:
    """What an address space keeps between the sweeps over it.

    The first sweep (:meth:`adopt`) decides whether the kernel's invariant
    addresses may be reused here: every index array it reads must pass
    :func:`_stable` against every array the subroutine writes.  Then each
    invariant subscript is addressed — and bounds-checked — once per
    geometry, and a warm sweep (one that follows a complete sweep) also
    skips the localized scalars that only fed those addresses.
    """

    kernel = None

    def adopt(self, kernel: "LoopKernel") -> None:
        self.kernel, self.warm = kernel, False
        #: (subscript key, geometry) -> the checked 0-based address
        self.addresses: dict[tuple, object] = {}
        written = [a for name in kernel.written for a in self._views(name)]
        self.reuse = all(_stable(self._buffer(name)[0], written)
                         for name in kernel.index_arrays)

    def locate(self, name: str, fns: list, locals_: dict,
               key: Optional[tuple]):
        """(buffer, 0-based key) addressing ``name`` at the subscripts
        ``fns`` compute; under an invariant ``key`` the address computed
        the first time."""
        buf, geometry = self._buffer(name)
        if key is None or not self.reuse:
            return buf, self._address(buf, geometry,
                                      [f(self, locals_) for f in fns])
        addr = self.addresses.get((key, geometry))
        if addr is None:
            addr = self.addresses[key, geometry] = self._address(
                buf, geometry, [f(self, locals_) for f in fns])
        return buf, addr


class _OneEnv(_Space):
    """The address space of one environment: a whole-range call.  It
    serves the next call of its loop while the bounds are the same and
    every array the loop addresses is still the same object."""

    def __init__(self, env: Env, lo: int, hi: int, arrays: frozenset):
        self.env = env
        self.bounds = (lo, hi)
        self.bound = {name: env.get(name) for name in arrays}
        self.idx = np.arange(lo - 1, hi)  # 0-based iteration indices

    def serves(self, env: Env, lo: int, hi: int) -> bool:
        return (env is self.env and (lo, hi) == self.bounds
                and all(env.get(name) is arr
                        for name, arr in self.bound.items()))

    def scalar(self, name: str):
        return self.env[name]

    def _views(self, name: str) -> list:
        return [self.env.get(name)]

    def _buffer(self, name: str):
        arr = self.env[name]
        return arr, arr.shape

    def _address(self, arr, _shape, subs: list):
        return _index_key(subs, arr.shape)

    def reduce(self, name: str, op: str, vec: np.ndarray) -> None:
        red = REDUCTIONS[op]
        self.env[name] = red.fold(self.env[name], red.partial(vec))


class Slab(NamedTuple):
    """One array's rows for every rank, rank segments concatenated along
    axis 0 in rank order; each rank's own array is a view of its segment.

    The SPMD executor keeps every declared array of its rank envs in one
    slab, so a write through a rank's view lands in the all-ranks buffer
    that a rank-fused loop or a halo wave reads:

    >>> slab = Slab.zeros((3, 2), (), np.float64)
    >>> slab.views[1][0] = 7.0          # write through a rank view…
    >>> slab.flat.tolist()              # …lands in the one buffer
    [0.0, 0.0, 0.0, 7.0, 0.0]
    >>> [view.shape for view in Slab.zeros((1, 2), (3,), np.int64).views]
    [(1, 3), (2, 3)]
    """

    flat: np.ndarray
    #: per-rank row count; rank r's rows start at ``sum(rows[:r])``
    rows: tuple
    #: the per-rank views the envs were bound to (empty when unknown)
    views: tuple = ()

    @classmethod
    def zeros(cls, rows: Sequence[int], shape: tuple, dtype) -> "Slab":
        """A zero slab of ``rows[r]`` rows per rank, each row of trailing
        ``shape``, with its views.  The buffer is an anonymous mapping:
        its pages take physical memory only once written (``np.zeros``
        promises that only for what malloc happens to serve by mmap)."""
        dtype = np.dtype(dtype)
        full = (sum(rows),) + tuple(shape)
        count = int(np.prod(full))
        flat = np.frombuffer(mmap.mmap(-1, max(1, dtype.itemsize * count)),
                             dtype, count).reshape(full)
        return cls.over(flat, rows)

    @classmethod
    def over(cls, flat: np.ndarray, rows: Sequence[int]) -> "Slab":
        """``flat`` as a slab of ``rows[r]`` rows per rank, with its views."""
        starts = np.cumsum((0,) + tuple(rows)).tolist()
        return cls(flat, tuple(rows),
                   tuple(flat[a:b] for a, b in zip(starts, starts[1:])))


class RankBatch(_Space):
    """Many ranks' iterations of one loop as one address space.

    ``idx`` concatenates ``arange(lo_r - 1, hi_r)`` over the ranks with at
    least one trip, in rank order (a zero-trip rank takes no part: its
    accumulators stay untouched, as the per-rank call leaves them).
    Subscripts stay rank-local and 1-based; an array is addressed at
    ``local + offset[rank of the iteration]`` in its :class:`Slab`, after
    the same bounds check as the per-rank call — against the rows of the
    iteration's *own* rank, so an index that would spill into the next
    rank's segment still raises.  A slab's geometry is its rows per rank
    and its trailing shape; arrays of one geometry share every reused
    address.
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
        #: per distinct slab row counts: (rows per batch rank, row offset
        #: of every iteration's rank)
        self._offsets: dict[tuple, tuple] = {}

    def scalar(self, name: str):
        """The ranks' common value, or one value per iteration."""
        vals = [env[name] for env in self.envs]
        if vals.count(vals[0]) == len(vals) \
                and len({type(v) for v in vals}) == 1:
            return vals[0]
        return np.repeat(np.array(vals), self.trips)

    def _views(self, name: str) -> list:
        slab = self.slabs.get(name)
        return ([] if slab is None else [slab.flat]) \
            + [env.get(name) for env in self.envs]

    def _buffer(self, name: str):
        slab = self.slabs[name]
        return slab.flat, (slab.rows, slab.flat.shape[1:])

    def _address(self, flat, geometry, subs: list):
        counts = geometry[0]
        offsets = self._offsets.get(counts)
        if offsets is None:
            rows = np.array(counts, dtype=np.int64)
            starts = np.cumsum(rows) - rows
            offsets = self._offsets[counts] = (
                rows[self.ranks], np.repeat(starts[self.ranks], self.trips))
        rows, base = offsets
        key = _index_key(subs, flat.shape, (self.starts[:-1], rows))
        if isinstance(key, tuple):
            return (key[0] + base,) + key[1:]
        return key + base

    def reduce(self, name: str, op: str, vec: np.ndarray) -> None:
        red = REDUCTIONS[op]
        starts = self.starts.tolist()
        for env, a, b in zip(self.envs, starts, starts[1:]):
            env[name] = red.fold(env[name], red.partial(vec[a:b]))


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
    #: every array a statement of the subroutine may assign (all of them
    #: when it calls an external)
    written: frozenset = frozenset()
    #: the integer arrays the body reads that no statement assigns: the
    #: index arrays reused addresses rest on
    index_arrays: frozenset = frozenset()
    #: body positions of the localized scalars whose value only feeds
    #: invariant addresses: a warm sweep that reuses them skips these
    address_only: frozenset = frozenset()

    def __call__(self, env: Env, lo: int, hi: int,
                 spaces: Optional[dict] = None) -> None:
        """Run iterations ``lo..hi`` over ``env``; ``spaces`` (loop sid ->
        space), when given, keeps the address space for the next call."""
        sid = self.loop.sid
        space = spaces.get(sid) if spaces is not None else None
        if space is None or not space.serves(env, lo, hi):
            space = _OneEnv(env, lo, hi, self.arrays)
            if spaces is not None:
                spaces[sid] = space
        self.sweep(space)

    def sweep(self, space) -> None:
        if not len(space.idx):
            return
        if space.kernel is not self:
            space.adopt(self)
        skip = self.address_only if space.warm and space.reuse else ()
        locals_: dict[str, np.ndarray] = {}
        for k, step in enumerate(self.steps):
            if k not in skip:
                step(space, locals_)
        space.warm = True


class _Bail(Exception):
    """Internal: the loop shape is not vectorizable."""


@dataclass
class _Ctx:
    loop: DoLoop
    #: integer arrays no statement of the subroutine assigns
    index_arrays: set[str]
    #: localized scalar -> (body position of its current definition,
    #: that definition's address key or None)
    localized: dict[str, tuple] = field(default_factory=dict)
    reduced: set[str] = field(default_factory=set)
    env_scalar_reads: set[str] = field(default_factory=set)
    #: (array, first-subscript-is-the-loop-var) for every expression read
    array_reads: list[tuple[str, bool]] = field(default_factory=list)
    #: array -> {"direct", "indirect"} write modes seen in the body
    array_writes: dict[str, set[str]] = field(default_factory=dict)
    #: invariant localized definitions no value read has needed so far
    address_only: set[int] = field(default_factory=set)
    #: compiling the subscripts of a reused address
    addressing: bool = False


class _KernelEmitter(_Emitter):
    """Writes every kernel of one subroutine as the source of one module:
    a function ``vN(space, locals_)`` per body statement, in the
    interpreter's ``try``, and one ``xN(space, locals_)`` per subscript of
    an array reference, which :meth:`_Space.locate` calls unless it
    reuses the address.  Expressions are the interpreter's, over vectors:
    the same operands and calls, bound to the array forms; the loop
    variable is ``space.idx + 1``, a localized scalar is read from
    ``locals_`` and any other scalar from the space.  What has no vector
    form raises :class:`_Bail`; :attr:`ctx` is the loop being written."""

    FORM = "array"
    HELPERS = {"raised": _HELPERS["raised"], "CAUGHT": _HELPERS["CAUGHT"],
               "broadcast_to": np.broadcast_to, "add_at": np.add.at}

    def __init__(self, sub: Subroutine):
        super().__init__()
        self.arrays = {n for n, d in sub.decls.items() if d.is_array}
        written = {st.target.name for st in sub.walk()
                   if isinstance(st, Assign)}
        if any(isinstance(st, CallStmt) for st in sub.walk()):
            written |= self.arrays  # an external is handed the whole env
        self.written = frozenset(written & self.arrays)
        self.index_arrays = {n for n in self.arrays - written
                             if sub.decls[n].base == "integer"}
        self.ctx: Optional[_Ctx] = None

    def kernel(self, loop: DoLoop) -> LoopKernel:
        """``loop``'s kernel; its steps are the names of the functions
        written for them until the module is loaded."""
        if loop.step is not None and not (
                isinstance(loop.step, Const) and loop.step.value == 1):
            raise _Bail
        ctx = self.ctx = _Ctx(loop=loop, index_arrays=self.index_arrays)
        steps: list = []
        for position, st in enumerate(loop.body):
            if not isinstance(st, Assign):
                raise _Bail
            steps.append(self.new("v"))
            self.define(steps[-1], "space, locals_",
                        self.guard(self.statement(st, position), st.line))
        # a reduction accumulator read as an ordinary scalar in the same body
        # would see the evolving per-iteration value; the whole-range sweep
        # cannot reproduce that, so refuse
        if ctx.reduced & ctx.env_scalar_reads:
            raise _Bail
        # a scalar read before its in-body definition is a recurrence
        # (s = s + c·a(i) − d and friends): iterations see the evolving
        # value, the broadcast sweep would not
        if ctx.localized.keys() & ctx.env_scalar_reads:
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
        reads = {name for name, _lv in ctx.array_reads}
        return LoopKernel(loop=loop, steps=steps, body_weight=len(steps) + 2,
                          arrays=frozenset(ctx.array_writes) | reads,
                          written=self.written,
                          index_arrays=frozenset(reads & ctx.index_arrays),
                          address_only=frozenset(ctx.address_only))

    def statement(self, st: Assign, position: int) -> list[str]:
        """The lines of body statement ``position``."""
        ctx, tgt = self.ctx, st.target
        if isinstance(tgt, Var):
            name = self.key(tgt.name)
            if tgt.name in ctx.reduced:
                # a second reduction step on the same scalar interleaves with
                # the first in iteration order; fall back to the interpreter
                raise _Bail
            shape = (reduction_shape(st) if tgt.name not in ctx.localized
                     else None)
            if shape is not None:
                op, operand, sign = shape
                lines, vec = self.vector(operand, sign)
                ctx.reduced.add(tgt.name)
                return lines + [
                    f"space.reduce({name}, {self.const(op)}, {vec})"]
            key = _address_key(st.value, ctx)
            lines, vec = self.vector(st.value)
            ctx.localized[tgt.name] = position, key
            if key is not None:
                ctx.address_only.add(position)
            return lines + [f"locals_[{name}] = {vec}"]
        # array target
        accum = accumulation_shape(st)
        direct = bool(tgt.subs) and tgt.subs[0] == Var(ctx.loop.var)
        ctx.array_writes.setdefault(tgt.name, set()).add(
            "direct" if direct else "indirect")
        if accum is not None and accum[0] != "+":
            raise _Bail  # only additive scatters occur in the class
        if accum is None and not direct:
            # plain store: only safe when the first subscript is the loop
            # variable (distinct element per iteration — no write order)
            raise _Bail
        locate, buf, key = self.locate(tgt)
        if accum is None:
            lines, value, _ = self.expr(st.value)
            return [locate, *lines, f"{buf}[{key}] = {value}"]
        lines, vec = self.vector(accum[1], accum[2])
        return [locate, *lines, f"add_at({buf}, {key}, {vec})"]

    def vector(self, ex: Expr, sign: int = 1) -> tuple[list[str], str]:
        """``ex``, negated for ``sign`` −1, as one value per iteration."""
        lines, text, _ = self.expr(ex)
        if sign < 0:
            text = f"(-{text})"
        return lines, f"broadcast_to({text}, space.idx.shape)"

    def var(self, name):
        ctx = self.ctx
        if name == ctx.loop.var:
            return [], "(space.idx + 1)", True      # FORTRAN index
        if name in ctx.localized:
            if not ctx.addressing:
                ctx.address_only.discard(ctx.localized[name][0])
            return [], f"locals_[{self.key(name)}]", True
        if name in self.arrays:
            raise _Bail  # whole-array reference in expression
        ctx.env_scalar_reads.add(name)
        return [], f"space.scalar({self.key(name)})", False

    def ref(self, ref: ArrayRef):
        ctx = self.ctx
        if ref.name not in self.arrays:
            raise _Bail
        ctx.array_reads.append(
            (ref.name, bool(ref.subs) and ref.subs[0] == Var(ctx.loop.var)))
        locate, buf, key = self.locate(ref)
        return [locate], f"{buf}[{key}]", True

    def locate(self, ref: ArrayRef) -> tuple[str, str, str]:
        """The line addressing ``ref`` in the space, and the names of the
        buffer and the 0-based key it binds.  Its address is reused under
        a key unless a subscript is not address-invariant or ``ref`` is
        itself inside a reused address (whose intermediate addresses are
        not kept)."""
        ctx, at = self.ctx, None
        if not ctx.addressing:
            at = tuple(_address_key(sub, ctx) for sub in ref.subs)
            if None in at:
                at = None
        outer = ctx.addressing
        ctx.addressing = outer or at is not None
        fns = []
        for sub in ref.subs:
            lines, text, _ = self.expr(sub)
            fns.append(self.new("x"))
            self.define(fns[-1], "space, locals_", lines + [f"return {text}"])
        ctx.addressing = outer
        buf, key = self.new("t"), self.new("t")
        return (f"{buf}, {key} = space.locate({self.key(ref.name)}, "
                f"({', '.join(fns)},), locals_, {self.const(at)})"), buf, key

    def unknown(self, *_):
        raise _Bail     # no array form; no logical operator has one either

    logical = unknown


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


def _address_key(ex: Expr, ctx: _Ctx) -> Optional[tuple]:
    """``ex`` as a hashable key when its value is address-invariant — the
    same on every sweep of a space — else None.  Invariant are constants,
    the loop variable, localized scalars defined by invariant expressions,
    reads of the index arrays (integer arrays no statement of the
    subroutine assigns) and arithmetic and intrinsics over them; never an
    environment scalar."""
    if isinstance(ex, Const):
        return "c", type(ex.value).__name__, ex.value
    if isinstance(ex, Var):
        if ex.name == ctx.loop.var:
            return ("i",)
        _position, key = ctx.localized.get(ex.name, (None, None))
        return None if key is None else ("v", key)  # broadcast to a vector
    parts = None
    if isinstance(ex, ArrayRef) and ex.name in ctx.index_arrays:
        parts = "a", ex.name, ex.subs
    elif isinstance(ex, BinOp):
        parts = "b", ex.op, (ex.left, ex.right)
    elif isinstance(ex, UnOp):
        parts = "u", ex.op, (ex.operand,)
    elif isinstance(ex, Intrinsic):
        parts = "f", ex.name, ex.args
    if parts is None:
        return None
    keys = tuple(_address_key(arg, ctx) for arg in parts[2])
    return None if None in keys else (parts[0], parts[1], keys)


def build_vector_kernels(sub: Subroutine) -> dict[int, LoopKernel]:
    """Compile every vectorizable loop of ``sub`` as one module,
    ``<repro:SUBNAME:vector>`` in :mod:`linecache`."""
    em = _KernelEmitter(sub)
    kernels: dict[int, LoopKernel] = {}
    for loop in [st for st in sub.walk() if isinstance(st, DoLoop)]:
        mark = len(em.source)
        try:
            kernels[loop.sid] = em.kernel(loop)
        except _Bail:
            del em.source[mark:]
    fns = em.load(f"<repro:{sub.name}:vector>")
    for kernel in kernels.values():
        kernel.steps = [fns[name] for name in kernel.steps]
    return kernels

