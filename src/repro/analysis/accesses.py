"""Def/use extraction with mesh-aware access descriptors.

For every statement this module computes the variables it defines and uses,
and *how* each array access relates to the enclosing partitioned loop:

``direct``
    ``A(i)`` where ``i`` is the loop variable of an ``entity``-partitioned
    loop and ``A`` is partitioned on the same entity.
``indirect``
    ``A(x)`` where ``x`` carries identifiers of another entity obtained
    through an index map — either literally ``A(SOM(i,k))`` or through an
    id-holding scalar (``s1 = SOM(i,1)`` … ``A(s1)``), the idiom the paper's
    gather–scatter class is built on.
``invariant``
    a subscript that does not vary with the partitioned loop (e.g. ``A(1)``
    inside a node loop) — the "explicit partitioned iteration" of paper
    section 3.2's case *g*, which the legality checker forbids.
``whole``
    an element access to a partitioned array *outside* any partitioned
    loop — also case *g*.
``scalar`` / ``replicated``
    non-partitioned data, executed identically on all processors.

The id-holding-scalar tracking is a tiny forward abstract interpretation
over each loop body (branch arms are met by intersection), standing in for
the corresponding Partita machinery.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Iterator, Optional

from ..errors import AnalysisError
from ..lang.ast import (
    ArrayRef,
    Assign,
    CallStmt,
    Const,
    DoLoop,
    Expr,
    IfBlock,
    IfGoto,
    Intrinsic,
    Stmt,
    Subroutine,
    UnOp,
    BinOp,
    Var,
)
from ..spec import PartitionSpec

# access modes
SCALAR = "scalar"
DIRECT = "direct"
INDIRECT = "indirect"
INVARIANT = "invariant"
WHOLE = "whole"
REPLICATED = "replicated"

# use contexts
CTX_VALUE = "value"
CTX_CONTROL = "control"
CTX_BOUND = "bound"
CTX_SUBSCRIPT = "subscript"


@dataclass(frozen=True)
class Access:
    """One variable access of one statement."""

    name: str
    is_def: bool
    mode: str
    sid: int
    #: entity the accessed array is partitioned on (None for scalars etc.)
    entity: Optional[str] = None
    #: index-map name mediating an indirect access
    via: Optional[str] = None
    #: innermost *partitioned* loop around the access (sid), if any
    loop_sid: Optional[int] = None
    #: entity of that loop
    loop_entity: Optional[str] = None
    #: how the value is consumed (uses only)
    context: str = CTX_VALUE
    #: True for `x = x op e` shapes — candidate reduction/accumulation
    self_update: bool = False

    def is_array(self) -> bool:
        return self.mode not in (SCALAR,)


@dataclass
class StmtAccesses:
    """All accesses of one statement."""

    sid: int
    defs: list[Access]
    uses: list[Access]


class AccessMap:
    """Per-statement accesses for a subroutine under a partitioning spec."""

    def __init__(self, sub: Subroutine, spec: PartitionSpec):
        self.sub = sub
        self.spec = spec
        self.by_sid: dict[int, StmtAccesses] = {}
        #: scalar name -> entity of identifiers it holds, at each statement
        self.id_scalars: dict[int, dict[str, str]] = {}
        _Extractor(self).run()

    def __getitem__(self, sid: int) -> StmtAccesses:
        return self.by_sid[sid]

    def __iter__(self) -> Iterator[StmtAccesses]:
        return iter(self.by_sid.values())

    def all_names(self) -> set[str]:
        out: set[str] = set()
        for sa in self.by_sid.values():
            out |= {a.name for a in sa.defs} | {a.name for a in sa.uses}
        return out


class _Extractor:
    def __init__(self, amap: AccessMap):
        self.amap = amap
        self.sub = amap.sub
        self.spec = amap.spec

    def run(self) -> None:
        self.walk_block(self.sub.body, loop=None, ids={})

    # ``ids``: scalar -> entity of ids it currently holds (within loop body)
    def walk_block(self, stmts: list[Stmt], loop: Optional[DoLoop],
                   ids: dict[str, str]) -> dict[str, str]:
        for st in stmts:
            ids = self.walk_stmt(st, loop, ids)
        return ids

    def walk_stmt(self, st: Stmt, loop: Optional[DoLoop],
                  ids: dict[str, str]) -> dict[str, str]:
        if isinstance(st, DoLoop):
            self.record_loop_header(st, loop, ids)
            ent = self.spec.entity_of_loop(st)
            inner_loop = st if ent is not None else loop
            inner_ids = {} if ent is not None else dict(ids)
            self.walk_block(st.body, inner_loop, inner_ids)
            # ids established inside a loop are not valid after it
            return {k: v for k, v in ids.items()
                    if k not in self.defined_scalars(st)}
        if isinstance(st, IfBlock):
            self.record(st, loop, ids, defs=[], uses=self.expr_uses(
                st.cond, loop, ids, CTX_CONTROL))
            ids_then = self.walk_block(st.then_body, loop, dict(ids))
            ids_else = self.walk_block(st.else_body, loop, dict(ids))
            return {k: v for k, v in ids_then.items()
                    if ids_else.get(k) == v}
        if isinstance(st, IfGoto):
            self.record(st, loop, ids, defs=[], uses=self.expr_uses(
                st.cond, loop, ids, CTX_CONTROL))
            return ids
        if isinstance(st, Assign):
            return self.walk_assign(st, loop, ids)
        if isinstance(st, CallStmt):
            self.walk_call(st, loop, ids)
            # conservative: any scalar argument may be rewritten
            return {k: v for k, v in ids.items()
                    if all(not self.expr_mentions(a, k) for a in st.args)}
        # Continue/Goto/Return/Stop: no data accesses
        self.record(st, loop, ids, defs=[], uses=[])
        return ids

    def record_loop_header(self, st: DoLoop, loop: Optional[DoLoop],
                           ids: dict[str, str]) -> None:
        uses = []
        for ex in filter(None, (st.lo, st.hi, st.step)):
            uses.extend(self.expr_uses(ex, loop, ids, CTX_BOUND))
        loop_var_def = Access(name=st.var, is_def=True, mode=SCALAR, sid=st.sid)
        self.record(st, loop, ids, defs=[loop_var_def], uses=uses)

    def walk_assign(self, st: Assign, loop: Optional[DoLoop],
                    ids: dict[str, str]) -> dict[str, str]:
        uses = self.expr_uses(st.value, loop, ids, CTX_VALUE)
        tgt = st.target
        if isinstance(tgt, Var):
            self_upd = self.expr_mentions(st.value, tgt.name)
            d = Access(name=tgt.name, is_def=True, mode=SCALAR, sid=st.sid,
                       self_update=self_upd)
            self.record(st, loop, ids, defs=[d], uses=uses)
            new_ids = dict(ids)
            ent = self.id_entity_of_expr(st.value, loop, ids)
            if ent is not None:
                new_ids[tgt.name] = ent
            else:
                new_ids.pop(tgt.name, None)
            return new_ids
        # array target: subscripts are uses too
        for sub_ex in tgt.subs:
            uses.extend(self.expr_uses(sub_ex, loop, ids, CTX_SUBSCRIPT))
        acc = self.classify_array(tgt, loop, ids, is_def=True, sid=st.sid)
        self_upd = self.array_self_update(st)
        acc = replace(acc, self_update=self_upd)
        self.record(st, loop, ids, defs=[acc], uses=uses)
        return ids

    def walk_call(self, st: CallStmt, loop: Optional[DoLoop],
                  ids: dict[str, str]) -> None:
        defs, uses = [], []
        for a in st.args:
            uses.extend(self.expr_uses(a, loop, ids, CTX_VALUE))
            if isinstance(a, Var):
                decl = self.sub.decls.get(a.name)
                if decl is not None and decl.is_array:
                    ent = self.spec.entity_of_array(a.name)
                    mode = WHOLE if ent else REPLICATED
                    defs.append(Access(name=a.name, is_def=True, mode=mode,
                                       sid=st.sid, entity=ent))
                    uses.append(Access(name=a.name, is_def=False, mode=mode,
                                       sid=st.sid, entity=ent))
                else:
                    defs.append(Access(name=a.name, is_def=True, mode=SCALAR,
                                       sid=st.sid))
        self.record(st, loop, ids, defs=defs, uses=uses)

    # -- expression traversal ------------------------------------------------

    def expr_uses(self, ex: Expr, loop: Optional[DoLoop],
                  ids: dict[str, str], context: str) -> list[Access]:
        out: list[Access] = []
        if isinstance(ex, Const):
            return out
        if isinstance(ex, Var):
            decl = self.sub.decls.get(ex.name)
            if decl is not None and decl.is_array:
                ent = self.spec.entity_of_array(ex.name)
                out.append(Access(name=ex.name, is_def=False,
                                  mode=WHOLE if ent else REPLICATED,
                                  sid=0, entity=ent, context=context))
            else:
                out.append(Access(name=ex.name, is_def=False, mode=SCALAR,
                                  sid=0, context=context))
            return out
        if isinstance(ex, ArrayRef):
            out.append(self.classify_array(ex, loop, ids, is_def=False,
                                           sid=0, context=context))
            for sub_ex in ex.subs:
                out.extend(self.expr_uses(sub_ex, loop, ids, CTX_SUBSCRIPT))
            return out
        if isinstance(ex, BinOp):
            return (self.expr_uses(ex.left, loop, ids, context)
                    + self.expr_uses(ex.right, loop, ids, context))
        if isinstance(ex, UnOp):
            return self.expr_uses(ex.operand, loop, ids, context)
        if isinstance(ex, Intrinsic):
            for a in ex.args:
                out.extend(self.expr_uses(a, loop, ids, context))
            return out
        raise AnalysisError(f"cannot analyze expression {type(ex).__name__}")

    def classify_array(self, ref: ArrayRef, loop: Optional[DoLoop],
                       ids: dict[str, str], is_def: bool, sid: int,
                       context: str = CTX_VALUE) -> Access:
        name = ref.name
        arr_ent = self.spec.entity_of_array(name)
        loop_ent = self.spec.entity_of_loop(loop) if loop is not None else None
        loop_sid = loop.sid if loop is not None else None
        if arr_ent is None:
            return Access(name=name, is_def=is_def, mode=REPLICATED, sid=sid,
                          loop_sid=loop_sid, loop_entity=loop_ent,
                          context=context)
        if loop is None:
            return Access(name=name, is_def=is_def, mode=WHOLE, sid=sid,
                          entity=arr_ent, context=context)
        sub0 = ref.subs[0]
        # direct: A(i) with i the partitioned loop variable
        if isinstance(sub0, Var) and sub0.name == loop.var:
            mode = DIRECT if arr_ent == loop_ent else INDIRECT
            via = None
            if arr_ent != loop_ent:
                # using the loop index of entity E directly into an array of
                # another entity is not a mapped access; flag as invariant-like
                mode = INVARIANT
            return Access(name=name, is_def=is_def, mode=mode, sid=sid,
                          entity=arr_ent, via=via, loop_sid=loop_sid,
                          loop_entity=loop_ent, context=context)
        # indirect via literal map read: A(M(i, k))
        via = self.map_of_expr(sub0, loop, ids)
        if via is not None:
            im = self.spec.index_map(via)
            if im is not None and im.dst == arr_ent:
                return Access(name=name, is_def=is_def, mode=INDIRECT,
                              sid=sid, entity=arr_ent, via=via,
                              loop_sid=loop_sid, loop_entity=loop_ent,
                              context=context)
        # subscript varies with the loop var in some other way?
        if self.expr_mentions(sub0, loop.var) or self.mentions_id_scalar(sub0, ids):
            # affine or unknown variation — treat as indirect without a map
            return Access(name=name, is_def=is_def, mode=INDIRECT, sid=sid,
                          entity=arr_ent, via=via, loop_sid=loop_sid,
                          loop_entity=loop_ent, context=context)
        return Access(name=name, is_def=is_def, mode=INVARIANT, sid=sid,
                      entity=arr_ent, loop_sid=loop_sid,
                      loop_entity=loop_ent, context=context)

    def map_of_expr(self, ex: Expr, loop: DoLoop,
                    ids: dict[str, str]) -> Optional[str]:
        """Name of the index map whose values ``ex`` evaluates to, if known."""
        if isinstance(ex, ArrayRef):
            im = self.spec.index_map(ex.name)
            if im is not None and ex.subs and isinstance(ex.subs[0], Var) \
                    and ex.subs[0].name == loop.var:
                return ex.name
            return None
        if isinstance(ex, Var):
            ent = ids.get(ex.name)
            if ent is not None:
                # find some map that produces this entity from the loop entity
                loop_ent = self.spec.entity_of_loop(loop)
                for im in self.spec.index_maps.values():
                    if im.src == loop_ent and im.dst == ent:
                        return im.name
            return None
        return None

    def id_entity_of_expr(self, ex: Expr, loop: Optional[DoLoop],
                          ids: dict[str, str]) -> Optional[str]:
        """Entity of identifiers ``ex`` yields (for id-scalar tracking)."""
        if loop is None:
            return None
        if isinstance(ex, ArrayRef):
            im = self.spec.index_map(ex.name)
            if im is not None and ex.subs and isinstance(ex.subs[0], Var) \
                    and ex.subs[0].name == loop.var \
                    and im.src == self.spec.entity_of_loop(loop):
                return im.dst
            return None
        if isinstance(ex, Var):
            return ids.get(ex.name)
        return None

    def mentions_id_scalar(self, ex: Expr, ids: dict[str, str]) -> bool:
        return any(isinstance(n, Var) and n.name in ids for n in ex.walk())

    @staticmethod
    def expr_mentions(ex: Expr, name: str) -> bool:
        return any(isinstance(n, (Var, ArrayRef)) and n.name == name
                   for n in ex.walk())

    def array_self_update(self, st: Assign) -> bool:
        """True for ``A(x) = A(x) op e`` with a syntactically equal index."""
        tgt = st.target
        assert isinstance(tgt, ArrayRef)
        for node in st.value.walk():
            if isinstance(node, ArrayRef) and node.name == tgt.name \
                    and node.subs == tgt.subs:
                return True
        return False

    def defined_scalars(self, st: Stmt) -> set[str]:
        out = set()
        for s in st.walk():
            if isinstance(s, Assign) and isinstance(s.target, Var):
                out.add(s.target.name)
            elif isinstance(s, DoLoop):
                out.add(s.var)
        return out

    def record(self, st: Stmt, loop: Optional[DoLoop], ids: dict[str, str],
               defs: list[Access], uses: list[Access]) -> None:
        loop_ent = self.spec.entity_of_loop(loop) if loop is not None else None
        loop_sid = loop.sid if loop is not None else None
        fixed_defs = [replace(a, sid=st.sid,
                              loop_sid=a.loop_sid or loop_sid,
                              loop_entity=a.loop_entity or loop_ent)
                      for a in defs]
        fixed_uses = [replace(a, sid=st.sid,
                              loop_sid=a.loop_sid or loop_sid,
                              loop_entity=a.loop_entity or loop_ent)
                      for a in uses]
        self.amap.by_sid[st.sid] = StmtAccesses(sid=st.sid, defs=fixed_defs,
                                                uses=fixed_uses)
        self.amap.id_scalars[st.sid] = dict(ids)
