"""Idiom detection: induction variables, reductions, localization.

Paper section 3.2: "classical parallelization methods, such as induction
variable detection, variable localization, or reduction operation
detection, may help removing some dependences.  We shall use these methods
to remove forbidden dependences."

Detected idioms:

``ScalarReduction``
    ``s = s op e`` (op ∈ +, *, max, min) inside a partitioned loop, where
    ``s`` is a scalar not otherwise touched in the loop and ``e`` does not
    read ``s``.  Its carried true/anti/output self-dependences are benign
    because the operation is associative and commutative; SPMD execution
    leaves a *partial* result per processor (state Sca₁).
``ArrayAccumulation``
    ``A(x) = A(x) + e`` with a syntactically identical index on both sides
    — the gather–scatter assembly idiom.  Carried dependences through
    ``A`` among accumulation statements of the same loop are benign.
``InductionVariable``
    ``k = k ± c`` with loop-invariant ``c`` — removable by rephrasing as a
    function of the iteration number.
``LocalizedScalar``
    a scalar whose every read inside the loop body is preceded (on every
    path from the loop header) by a write inside the same iteration; the
    paper localizes ("privatizes") these per iteration, removing their
    carried dependences.  ``s1``/``s2``/``s3``/``vm``/``diff`` of TESTIV
    are the canonical examples.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from ..lang.ast import Assign, Const, DoLoop, IfBlock, Stmt, Subroutine, Var
from ..lang.semantics import accumulation_shape, reduction_shape
from ..spec import PartitionSpec
from .accesses import AccessMap


@dataclass(frozen=True)
class ScalarReduction:
    var: str
    op: str
    sids: tuple[int, ...]  # the accumulation statements
    loop_sid: int


@dataclass(frozen=True)
class ArrayAccumulation:
    array: str
    op: str
    sids: tuple[int, ...]
    loop_sid: int


@dataclass(frozen=True)
class InductionVariable:
    var: str
    sid: int
    loop_sid: int


@dataclass(frozen=True)
class LocalizedScalar:
    var: str
    loop_sid: int


@dataclass
class Idioms:
    """All idioms detected in one subroutine."""

    scalar_reductions: list[ScalarReduction] = field(default_factory=list)
    array_accumulations: list[ArrayAccumulation] = field(default_factory=list)
    inductions: list[InductionVariable] = field(default_factory=list)
    localized: list[LocalizedScalar] = field(default_factory=list)

    def reduction_for(self, sid: int) -> Optional[ScalarReduction]:
        for r in self.scalar_reductions:
            if sid in r.sids:
                return r
        return None

    def accumulation_for(self, sid: int) -> Optional[ArrayAccumulation]:
        for a in self.array_accumulations:
            if sid in a.sids:
                return a
        return None

    def is_localized(self, var: str, loop_sid: int) -> bool:
        return any(l.var == var and l.loop_sid == loop_sid
                   for l in self.localized)


def _mentions(ex, name: str) -> bool:
    return any(getattr(n, "name", None) == name for n in ex.walk())


def _scalar_refs_in(st: Stmt, name: str) -> bool:
    if isinstance(st, Assign):
        if isinstance(st.target, Var) and st.target.name == name:
            return True
        if _mentions(st.value, name):
            return True
        if not isinstance(st.target, Var):
            return any(_mentions(s, name) for s in st.target.subs)
        return False
    for ex in _stmt_top_exprs(st):
        if _mentions(ex, name):
            return True
    return False


def _stmt_top_exprs(st: Stmt):
    for attr in ("cond", "lo", "hi", "step", "value"):
        ex = getattr(st, attr, None)
        if ex is not None:
            yield ex
    for a in getattr(st, "args", ()) or ():
        yield a


def detect_idioms(sub: Subroutine, spec: PartitionSpec,
                  amap: Optional[AccessMap] = None) -> Idioms:
    """Scan every partitioned loop of ``sub`` for the four idioms."""
    idioms = Idioms()
    for st in sub.walk():
        if isinstance(st, DoLoop) and spec.entity_of_loop(st) is not None:
            _scan_loop(st, spec, idioms)
    return idioms


def _scan_loop(loop: DoLoop, spec: PartitionSpec, idioms: Idioms) -> None:
    body = list(loop.walk())[1:]  # statements inside, pre-order
    assigns = [s for s in body if isinstance(s, Assign)]

    # --- scalar reductions and inductions ----------------------------------
    by_scalar: dict[str, list[Assign]] = {}
    for st in assigns:
        if isinstance(st.target, Var):
            by_scalar.setdefault(st.target.name, []).append(st)
    for var, sts in by_scalar.items():
        shapes = [reduction_shape(st) for st in sts]
        if not all(shapes):
            continue
        ops = {op for op, _e, _sign in shapes}
        if len(ops) != 1:
            continue
        op = ops.pop()
        # no other statement in the loop may read the accumulator (a read
        # would see a partial value)
        others = [s for s in body if s not in sts and _scalar_refs_in(s, var)]
        if others:
            continue
        # k = k ± c, one step with a constant operand
        if op == "+" and len(sts) == 1 and isinstance(shapes[0][1], Const):
            idioms.inductions.append(InductionVariable(
                var=var, sid=sts[0].sid, loop_sid=loop.sid))
        else:
            idioms.scalar_reductions.append(ScalarReduction(
                var=var, op=op, sids=tuple(s.sid for s in sts),
                loop_sid=loop.sid))

    # --- array accumulations -------------------------------------------------
    by_array: dict[str, list[Assign]] = {}
    for st in assigns:
        if not isinstance(st.target, Var):
            by_array.setdefault(st.target.name, []).append(st)
    for arr, sts in by_array.items():
        shapes = [accumulation_shape(st) for st in sts]
        if not all(shapes) or len({op for op, _e, _sign in shapes}) != 1:
            continue
        # reads of the array outside the accumulation statements would see
        # partial values; forbid them
        if any(isinstance(st, Assign) and _scalar_refs_in(st, arr)
               for st in body if st not in sts):
            continue
        idioms.array_accumulations.append(ArrayAccumulation(
            array=arr, op=shapes[0][0], sids=tuple(s.sid for s in sts),
            loop_sid=loop.sid))

    # --- localized scalars ----------------------------------------------------
    for var in _localizable_scalars(loop, spec):
        idioms.localized.append(LocalizedScalar(var=var, loop_sid=loop.sid))


def _localizable_scalars(loop: DoLoop, spec: PartitionSpec) -> list[str]:
    """Scalars written-before-read on every path through one iteration.

    Conservative structural check: walking the body in order (descending
    into branch arms pessimistically), the scalar's first reference must be
    an unconditional definition.
    """
    status: dict[str, str] = {}  # var -> "def-first" | "use-first" | "cond"

    def note_use(name: str) -> None:
        status.setdefault(name, "use-first")

    def note_def(name: str, conditional: bool) -> None:
        status.setdefault(name, "cond" if conditional else "def-first")

    def scan(stmts: list[Stmt], conditional: bool) -> None:
        for st in stmts:
            if isinstance(st, Assign):
                for ex in ([st.value]
                           + (list(st.target.subs)
                              if not isinstance(st.target, Var) else [])):
                    for n in ex.walk():
                        if isinstance(n, Var):
                            note_use(n.name)
                if isinstance(st.target, Var):
                    note_def(st.target.name, conditional)
            elif isinstance(st, IfBlock):
                for n in st.cond.walk():
                    if isinstance(n, Var):
                        note_use(n.name)
                scan(st.then_body, True)
                scan(st.else_body, True)
            elif isinstance(st, DoLoop):
                for ex in filter(None, (st.lo, st.hi, st.step)):
                    for n in ex.walk():
                        if isinstance(n, Var):
                            note_use(n.name)
                scan(st.body, True)
            else:
                for ex in _stmt_top_exprs(st):
                    for n in ex.walk():
                        if isinstance(n, Var):
                            note_use(n.name)

    scan(loop.body, False)
    return sorted(v for v, s in status.items()
                  if s == "def-first" and v != loop.var)
