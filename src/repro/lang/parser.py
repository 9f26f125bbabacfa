"""Recursive-descent parser for the mini-FORTRAN subset.

Produces :class:`repro.lang.ast.Program` values.  The grammar covers exactly
the constructs of the paper's target class (figures 5, 9, 10) plus block
``if/then/else`` and ``call`` for generality:

.. code-block:: text

    program    := subroutine+
    subroutine := 'subroutine' NAME '(' [names] ')' NL decl* stmt* 'end' NL
    decl       := type name [ '(' INT {',' INT} ')' ] {',' ...} NL
    stmt       := [LABEL] core NL
    core       := assign | do | ifgoto | ifblock | goto | 'continue'
                | call | 'return' | 'stop'
    do         := 'do' NAME '=' expr ',' expr [',' expr] NL stmt* ('end' 'do'|'enddo')
    ifgoto     := 'if' '(' expr ')' 'goto' INT
    ifblock    := 'if' '(' expr ')' 'then' NL stmt* ['else' NL stmt*] ('end' 'if'|'endif')

Expression precedence (loosest to tightest): ``.or.``, ``.and.``, ``.not.``,
relationals, additive, multiplicative, unary sign, ``**`` (right-assoc).
"""

from __future__ import annotations

from .ast import (
    ArrayRef,
    Assign,
    BinOp,
    CallStmt,
    Const,
    Continue,
    Decl,
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
from .lexer import tokenize
from .semantics import INTRINSICS
from .tokens import TokKind, Token
from ..errors import ParseError

_TYPES = ("integer", "real", "logical")
_REL_OPS = ("<", "<=", ">", ">=", "==", "/=")


class _Parser:
    def __init__(self, tokens: list[Token]):
        self.toks = tokens
        self.pos = 0

    # -- token plumbing ---------------------------------------------------

    @property
    def cur(self) -> Token:
        return self.toks[self.pos]

    def advance(self) -> Token:
        tok = self.cur
        if tok.kind is not TokKind.EOF:
            self.pos += 1
        return tok

    def expect_op(self, text: str) -> Token:
        if not self.cur.is_op(text):
            raise ParseError(f"expected {text!r}, found {self.cur.text!r}",
                             self.cur.line, self.cur.column)
        return self.advance()

    def expect_name(self, *texts: str) -> Token:
        if texts and not self.cur.is_name(*texts):
            raise ParseError(
                f"expected {' or '.join(texts)!s}, found {self.cur.text!r}",
                self.cur.line, self.cur.column)
        if self.cur.kind is not TokKind.NAME:
            raise ParseError(f"expected identifier, found {self.cur.text!r}",
                             self.cur.line, self.cur.column)
        return self.advance()

    def eat_newlines(self) -> None:
        while self.cur.kind is TokKind.NEWLINE:
            self.advance()

    def end_statement(self) -> None:
        if self.cur.kind is TokKind.EOF:
            return
        if self.cur.kind is not TokKind.NEWLINE:
            raise ParseError(f"trailing tokens: {self.cur.text!r}",
                             self.cur.line, self.cur.column)
        self.eat_newlines()

    # -- program structure -------------------------------------------------

    def parse_program(self) -> Program:
        units = []
        self.eat_newlines()
        while self.cur.kind is not TokKind.EOF:
            units.append(self.parse_subroutine())
            self.eat_newlines()
        if not units:
            raise ParseError("empty program", 1, 1)
        return Program(units)

    def parse_subroutine(self) -> Subroutine:
        self.expect_name("subroutine")
        name = self.expect_name().text
        params: list[str] = []
        if self.cur.is_op("("):
            self.advance()
            while not self.cur.is_op(")"):
                params.append(self.expect_name().text.lower())
                if self.cur.is_op(","):
                    self.advance()
            self.expect_op(")")
        self.end_statement()
        decls = self.parse_decls()
        body = self.parse_stmts(stop=("end",))
        self.expect_name("end")
        if self.cur.kind is TokKind.NEWLINE:
            self.eat_newlines()
        sub = Subroutine(name=name, params=params, decls=decls, body=body)
        _apply_implicit_typing(sub)
        return sub

    def parse_decls(self) -> dict[str, Decl]:
        decls: dict[str, Decl] = {}
        while self.cur.is_name(*_TYPES):
            base = self.advance().text.lower()
            while True:
                nm_tok = self.expect_name()
                nm = nm_tok.text.lower()
                dims: tuple[int, ...] = ()
                if self.cur.is_op("("):
                    self.advance()
                    sizes = []
                    while not self.cur.is_op(")"):
                        if self.cur.kind is not TokKind.INT:
                            raise ParseError(
                                "array dimensions must be integer constants",
                                self.cur.line, self.cur.column)
                        sizes.append(int(self.advance().text))
                        if self.cur.is_op(","):
                            self.advance()
                    self.expect_op(")")
                    dims = tuple(sizes)
                if nm in decls:
                    raise ParseError(f"duplicate declaration of {nm!r}",
                                     nm_tok.line, nm_tok.column)
                decls[nm] = Decl(name=nm, base=base, dims=dims)
                if self.cur.is_op(","):
                    self.advance()
                    continue
                break
            self.end_statement()
        return decls

    # -- statements ---------------------------------------------------------

    def parse_stmts(self, stop: tuple[str, ...]) -> list[Stmt]:
        """Parse statements until a terminator keyword (not consumed)."""
        out: list[Stmt] = []
        while True:
            self.eat_newlines()
            tok = self.cur
            if tok.kind is TokKind.EOF:
                raise ParseError(f"unexpected end of file (missing {stop[0]!r})",
                                 tok.line, tok.column)
            label = None
            if tok.kind is TokKind.LABEL:
                label = int(self.advance().text)
                tok = self.cur
            if tok.kind is TokKind.NAME and self._at_terminator(stop) and label is None:
                return out
            stmt = self.parse_stmt()
            stmt.label = label
            out.append(stmt)

    def _at_terminator(self, stop: tuple[str, ...]) -> bool:
        tok = self.cur
        if not tok.is_name(*stop):
            return False
        if tok.is_name("end"):
            nxt = self.toks[self.pos + 1]
            # "end do" / "end if" terminate blocks, bare "end"/"end\n" the unit
            if "enddo" in stop or "endif" in stop:
                return nxt.is_name("do", "if") or nxt.kind in (TokKind.NEWLINE, TokKind.EOF)
            return nxt.kind in (TokKind.NEWLINE, TokKind.EOF)
        return True

    def parse_stmt(self) -> Stmt:
        tok = self.cur
        if tok.is_name("do"):
            return self.parse_do()
        if tok.is_name("if"):
            return self.parse_if()
        if tok.is_name("goto"):
            self.advance()
            tgt = self._expect_label_ref()
            st: Stmt = Goto(line=tok.line, target=tgt)
            self.end_statement()
            return st
        if tok.is_name("continue"):
            self.advance()
            st = Continue(line=tok.line)
            self.end_statement()
            return st
        if tok.is_name("return"):
            self.advance()
            st = Return(line=tok.line)
            self.end_statement()
            return st
        if tok.is_name("stop"):
            self.advance()
            st = Stop(line=tok.line)
            self.end_statement()
            return st
        if tok.is_name("call"):
            self.advance()
            name = self.expect_name().text
            args: tuple[Expr, ...] = ()
            if self.cur.is_op("("):
                self.advance()
                lst = []
                while not self.cur.is_op(")"):
                    lst.append(self.parse_expr())
                    if self.cur.is_op(","):
                        self.advance()
                self.expect_op(")")
                args = tuple(lst)
            st = CallStmt(line=tok.line, name=name, args=args)
            self.end_statement()
            return st
        return self.parse_assign()

    def _expect_label_ref(self) -> int:
        tok = self.cur
        if tok.kind not in (TokKind.INT, TokKind.LABEL):
            raise ParseError("goto requires a numeric label",
                             tok.line, tok.column)
        self.advance()
        return int(tok.text)

    def parse_do(self) -> DoLoop:
        head = self.expect_name("do")
        var = self.expect_name().text.lower()
        self.expect_op("=")
        lo = self.parse_expr()
        self.expect_op(",")
        hi = self.parse_expr()
        step = None
        if self.cur.is_op(","):
            self.advance()
            step = self.parse_expr()
        self.end_statement()
        body = self.parse_stmts(stop=("end", "enddo"))
        if self.cur.is_name("enddo"):
            self.advance()
        else:
            self.expect_name("end")
            self.expect_name("do")
        self.end_statement()
        return DoLoop(line=head.line, var=var, lo=lo, hi=hi, step=step, body=body)

    def parse_if(self) -> Stmt:
        head = self.expect_name("if")
        self.expect_op("(")
        cond = self.parse_expr()
        self.expect_op(")")
        if self.cur.is_name("goto"):
            self.advance()
            tgt = self._expect_label_ref()
            st = IfGoto(line=head.line, cond=cond, target=tgt)
            self.end_statement()
            return st
        if self.cur.is_name("then"):
            self.advance()
            self.end_statement()
            then_body = self.parse_stmts(stop=("end", "endif", "else"))
            else_body: list[Stmt] = []
            if self.cur.is_name("else"):
                self.advance()
                self.end_statement()
                else_body = self.parse_stmts(stop=("end", "endif"))
            if self.cur.is_name("endif"):
                self.advance()
            else:
                self.expect_name("end")
                self.expect_name("if")
            self.end_statement()
            return IfBlock(line=head.line, cond=cond,
                           then_body=then_body, else_body=else_body)
        # logical if with a single embedded statement: if (c) x = y
        inner = self.parse_stmt()
        blk = IfBlock(line=head.line, cond=cond, then_body=[inner], else_body=[])
        return blk

    def parse_assign(self) -> Assign:
        tok = self.cur
        name_tok = self.expect_name()
        target: Var | ArrayRef
        if self.cur.is_op("("):
            self.advance()
            subs = []
            while not self.cur.is_op(")"):
                subs.append(self.parse_expr())
                if self.cur.is_op(","):
                    self.advance()
            self.expect_op(")")
            target = ArrayRef(name=name_tok.text.lower(), subs=tuple(subs))
        else:
            target = Var(name=name_tok.text.lower())
        self.expect_op("=")
        value = self.parse_expr()
        st = Assign(line=tok.line, target=target, value=value)
        self.end_statement()
        return st

    # -- expressions --------------------------------------------------------

    def parse_expr(self) -> Expr:
        return self.parse_or()

    def parse_or(self) -> Expr:
        left = self.parse_and()
        while self.cur.is_op(".or."):
            self.advance()
            left = BinOp(".or.", left, self.parse_and())
        return left

    def parse_and(self) -> Expr:
        left = self.parse_not()
        while self.cur.is_op(".and."):
            self.advance()
            left = BinOp(".and.", left, self.parse_not())
        return left

    def parse_not(self) -> Expr:
        if self.cur.is_op(".not."):
            self.advance()
            return UnOp(".not.", self.parse_not())
        return self.parse_rel()

    def parse_rel(self) -> Expr:
        left = self.parse_add()
        if self.cur.is_op(*_REL_OPS):
            op = self.advance().text
            return BinOp(op, left, self.parse_add())
        return left

    def parse_add(self) -> Expr:
        left = self.parse_mul()
        while self.cur.is_op("+", "-"):
            op = self.advance().text
            left = BinOp(op, left, self.parse_mul())
        return left

    def parse_mul(self) -> Expr:
        left = self.parse_unary()
        while self.cur.is_op("*", "/"):
            op = self.advance().text
            left = BinOp(op, left, self.parse_unary())
        return left

    def parse_unary(self) -> Expr:
        if self.cur.is_op("-", "+"):
            op = self.advance().text
            return UnOp(op, self.parse_unary())
        return self.parse_pow()

    def parse_pow(self) -> Expr:
        base = self.parse_atom()
        if self.cur.is_op("**"):
            self.advance()
            return BinOp("**", base, self.parse_unary())
        return base

    def parse_atom(self) -> Expr:
        tok = self.cur
        if tok.kind is TokKind.INT or tok.kind is TokKind.LABEL:
            self.advance()
            return Const(int(tok.text))
        if tok.kind is TokKind.REAL:
            self.advance()
            return Const(float(tok.text))
        if tok.is_name(".true."):
            self.advance()
            return Const(True)
        if tok.is_name(".false."):
            self.advance()
            return Const(False)
        if tok.is_op("("):
            self.advance()
            inner = self.parse_expr()
            self.expect_op(")")
            return inner
        if tok.kind is TokKind.NAME:
            self.advance()
            name = tok.text.lower()
            if self.cur.is_op("("):
                self.advance()
                args = []
                while not self.cur.is_op(")"):
                    args.append(self.parse_expr())
                    if self.cur.is_op(","):
                        self.advance()
                self.expect_op(")")
                if name in INTRINSICS:
                    return Intrinsic(name=name, args=tuple(args))
                return ArrayRef(name=name, subs=tuple(args))
            return Var(name=name)
        raise ParseError(f"unexpected token {tok.text!r} in expression",
                         tok.line, tok.column)


def _apply_implicit_typing(sub: Subroutine) -> None:
    """Add implicit FORTRAN declarations (i–n integer, otherwise real)."""
    seen: set[str] = set(sub.decls)

    def note(name: str) -> None:
        nm = name.lower()
        if nm in seen or nm in INTRINSICS:
            return
        seen.add(nm)
        base = "integer" if nm[0] in "ijklmn" else "real"
        sub.decls[nm] = Decl(name=nm, base=base, dims=())

    for p in sub.params:
        note(p)
    for st in sub.walk():
        for ex in _stmt_exprs(st):
            for node in ex.walk():
                if isinstance(node, Var):
                    note(node.name)
                elif isinstance(node, ArrayRef):
                    if node.name not in sub.decls:
                        # implicit arrays are not allowed: dimensions unknown
                        from ..errors import ParseError as PE

                        raise PE(f"array {node.name!r} used without declaration",
                                 st.line, 0)
        if isinstance(st, DoLoop):
            note(st.var)
        if isinstance(st, Assign) and isinstance(st.target, Var):
            note(st.target.name)


def _stmt_exprs(st: Stmt):
    """All top-level expressions of one statement (not nested statements)."""
    if isinstance(st, Assign):
        yield st.target
        yield st.value
    elif isinstance(st, DoLoop):
        yield st.lo
        yield st.hi
        if st.step is not None:
            yield st.step
    elif isinstance(st, (IfGoto, IfBlock)):
        yield st.cond
    elif isinstance(st, CallStmt):
        yield from st.args


def parse_program(text: str) -> Program:
    """Parse a full source file into a :class:`Program`."""
    return _Parser(tokenize(text)).parse_program()


def parse_subroutine(text: str) -> Subroutine:
    """Parse a source file expected to contain exactly one subroutine."""
    prog = parse_program(text)
    if len(prog.units) != 1:
        raise ParseError(f"expected one subroutine, found {len(prog.units)}")
    return prog.units[0]
