"""Unit tests for the mini-FORTRAN parser."""

import pytest

from repro.corpus import TESTIV_SOURCE, FIG5_SKETCH_SOURCE
from repro.errors import ParseError
from repro.lang import (
    ArrayRef,
    Assign,
    BinOp,
    CallStmt,
    Const,
    DoLoop,
    Goto,
    IfBlock,
    IfGoto,
    Intrinsic,
    UnOp,
    Var,
    parse_program,
    parse_subroutine,
)


def sub_of(body: str, head: str = "subroutine t(n)\n", decls: str = ""):
    return parse_subroutine(head + decls + body + "end\n")


class TestStructure:
    def test_testiv_parses(self):
        sub = parse_subroutine(TESTIV_SOURCE)
        assert sub.name == "TESTIV"
        assert sub.params == ["init", "result", "nsom", "ntri", "som",
                              "airetri", "airesom", "epsilon", "maxloop"]
        loops = [s for s in sub.walk() if isinstance(s, DoLoop)]
        assert len(loops) == 6
        gotos = [s for s in sub.walk() if isinstance(s, (Goto, IfGoto))]
        assert len(gotos) == 3

    def test_fig5_sketch_parses(self):
        sub = parse_subroutine(FIG5_SKETCH_SOURCE)
        loops = [s for s in sub.walk() if isinstance(s, DoLoop)]
        assert len(loops) == 3

    def test_labels_recorded(self):
        sub = parse_subroutine(TESTIV_SOURCE)
        labels = sub.labels()
        assert set(labels) == {100, 200}
        assert isinstance(labels[200], DoLoop)

    def test_declarations(self):
        sub = parse_subroutine(TESTIV_SOURCE)
        assert sub.decl("som").dims == (2000, 3)
        assert sub.decl("som").base == "integer"
        assert sub.decl("old").dims == (1000,)
        assert not sub.decl("vm").is_array
        assert sub.decl("vm").base == "real"

    def test_implicit_typing(self):
        sub = sub_of("  k = 1\n  x = 2.0\n")
        assert sub.decl("k").base == "integer"
        assert sub.decl("x").base == "real"
        assert sub.decl("n").base == "integer"

    def test_implicit_array_rejected(self):
        with pytest.raises(ParseError):
            sub_of("  a(1) = 2.0\n")

    def test_duplicate_declaration_rejected(self):
        with pytest.raises(ParseError):
            sub_of("  x = 1.0\n", decls="real x\nreal x\n")

    def test_multiple_units(self):
        prog = parse_program("subroutine a(x)\nx = 1.0\nend\n"
                             "subroutine b(y)\ny = 2.0\nend\n")
        assert [u.name for u in prog.units] == ["a", "b"]
        assert prog.unit("B").name == "b"

    def test_empty_program_rejected(self):
        with pytest.raises(ParseError):
            parse_program("c nothing here\n")

    def test_missing_end_rejected(self):
        with pytest.raises(ParseError):
            parse_program("subroutine t(n)\n  x = 1\n")

    def test_sids_unique_and_ordered(self):
        sub = parse_subroutine(TESTIV_SOURCE)
        sids = [s.sid for s in sub.walk()]
        assert len(sids) == len(set(sids))
        assert sub.stmt(sids[0]) is next(iter(sub.walk()))
        for st in sub.walk():
            assert sub.stmt(st.sid) is st
        with pytest.raises(KeyError, match="no statement with sid 0"):
            sub.stmt(0)


class TestStatements:
    def test_do_loop_with_step(self):
        sub = sub_of("  do i = 1,n,2\n    x = i\n  end do\n")
        loop = sub.body[0]
        assert isinstance(loop, DoLoop)
        assert loop.var == "i"
        assert isinstance(loop.step, Const) and loop.step.value == 2

    def test_enddo_single_word(self):
        sub = sub_of("  do i = 1,n\n    x = i\n  enddo\n")
        assert isinstance(sub.body[0], DoLoop)

    def test_nested_do(self):
        sub = sub_of("  do i = 1,n\n    do j = 1,n\n      x = i+j\n"
                     "    end do\n  end do\n")
        outer = sub.body[0]
        inner = outer.body[0]
        assert isinstance(inner, DoLoop) and inner.var == "j"

    def test_if_goto(self):
        sub = sub_of("  if (x .lt. 1.0) goto 10\n 10   continue\n")
        st = sub.body[0]
        assert isinstance(st, IfGoto) and st.target == 10

    def test_if_block_with_else(self):
        sub = sub_of("  if (n .gt. 0) then\n    x = 1.0\n  else\n"
                     "    x = 2.0\n  end if\n")
        st = sub.body[0]
        assert isinstance(st, IfBlock)
        assert len(st.then_body) == 1 and len(st.else_body) == 1

    def test_endif_single_word(self):
        sub = sub_of("  if (n .gt. 0) then\n    x = 1.0\n  endif\n")
        assert isinstance(sub.body[0], IfBlock)

    def test_logical_if_with_assignment(self):
        sub = sub_of("  if (n .gt. 0) x = 1.0\n")
        st = sub.body[0]
        assert isinstance(st, IfBlock)
        assert isinstance(st.then_body[0], Assign)
        assert not st.else_body

    def test_call_statement(self):
        sub = sub_of("  call foo(x, n)\n")
        st = sub.body[0]
        assert isinstance(st, CallStmt) and st.name == "foo"
        assert len(st.args) == 2

    def test_labeled_do(self):
        sub = parse_subroutine(TESTIV_SOURCE)
        assert sub.labels()[200].label == 200

    def test_goto_undefined_label_is_parse_time_ok(self):
        # label resolution is a CFG/lowering concern, parser accepts it
        sub = sub_of("  goto 999\n")
        assert isinstance(sub.body[0], Goto)


class TestExpressions:
    def expr(self, text):
        sub = sub_of(f"  y = {text}\n",
                     decls="real a, b, c, y\ninteger k\nreal v(10)\n"
                           "integer m(10,3)\n")
        return sub.body[0].value

    def test_precedence_mul_over_add(self):
        ex = self.expr("a + b*c")
        assert isinstance(ex, BinOp) and ex.op == "+"
        assert isinstance(ex.right, BinOp) and ex.right.op == "*"

    def test_parentheses(self):
        ex = self.expr("(a + b)*c")
        assert ex.op == "*" and ex.left.op == "+"

    def test_power_right_assoc(self):
        ex = self.expr("a**b**c")
        assert ex.op == "**"
        assert isinstance(ex.right, BinOp) and ex.right.op == "**"

    def test_unary_minus(self):
        ex = self.expr("-a + b")
        assert ex.op == "+" and isinstance(ex.left, UnOp)

    def test_relational(self):
        ex = self.expr("a .le. b")
        assert ex.op == "<="

    def test_logical_precedence(self):
        ex = self.expr("a .lt. b .and. c .gt. b .or. k .eq. 1")
        assert ex.op == ".or."
        assert ex.left.op == ".and."

    def test_array_reference(self):
        ex = self.expr("v(k) + m(k,2)")
        assert isinstance(ex.left, ArrayRef) and ex.left.name == "v"
        assert isinstance(ex.right, ArrayRef) and len(ex.right.subs) == 2

    def test_intrinsic_call(self):
        ex = self.expr("max(a, abs(b))")
        assert isinstance(ex, Intrinsic) and ex.name == "max"
        assert isinstance(ex.args[1], Intrinsic)

    def test_indirection(self):
        ex = self.expr("v(m(k,1))")
        assert isinstance(ex, ArrayRef)
        assert isinstance(ex.subs[0], ArrayRef)

    def test_trailing_garbage_rejected(self):
        with pytest.raises(ParseError):
            sub_of("  x = 1 2\n")

    def test_unbalanced_paren_rejected(self):
        with pytest.raises(ParseError):
            sub_of("  x = (1 + 2\n")
