"""Unit tests for AST lowering to flat code."""

import pytest

from repro.corpus import TESTIV_SOURCE
from repro.errors import AnalysisError
from repro.lang import parse_subroutine, lower_subroutine
from repro.lang.lower import (
    IAssign,
    IBranch,
    IJump,
    ILoopIncr,
    ILoopInit,
    ILoopTest,
    IReturn,
)
from tests.lang.interp_tools import format_flat


def lower(src):
    return lower_subroutine(parse_subroutine(src))


class TestLowering:
    def test_ends_with_return(self):
        code = lower("subroutine t(n)\n  x = 1.0\nend\n")
        assert isinstance(code.instrs[-1], IReturn)

    def test_loop_shape(self):
        code = lower("subroutine t(n)\n  do i = 1,n\n    x = i\n"
                     "  end do\nend\n")
        kinds = [type(i).__name__ for i in code.instrs]
        assert kinds == ["ILoopInit", "ILoopTest", "IAssign", "ILoopIncr",
                         "IReturn"]
        init, test, body, incr, _ = code.instrs
        assert test.pc_exit == 4
        assert incr.pc_test == 1

    def test_loop_pc_registry(self):
        sub = parse_subroutine("subroutine t(n)\n  do i = 1,n\n    x = i\n"
                               "  end do\nend\n")
        code = lower_subroutine(sub)
        loop = sub.body[0]
        assert isinstance(code.instrs[code.loop_pc[loop.sid]], ILoopInit)

    def test_goto_fixup(self):
        code = lower("subroutine t(n)\n 10   x = 1.0\n  goto 10\nend\n")
        jump = next(i for i in code.instrs if isinstance(i, IJump))
        assert isinstance(code.instrs[jump.pc], IAssign)

    def test_forward_goto(self):
        code = lower("subroutine t(n)\n  goto 20\n  x = 1.0\n"
                     " 20   y = 2.0\nend\n")
        jump = code.instrs[0]
        assert isinstance(jump, IJump)
        target = code.instrs[jump.pc]
        assert isinstance(target, IAssign) and target.target.name == "y"

    def test_undefined_label_raises(self):
        with pytest.raises(AnalysisError, match="undefined label"):
            lower("subroutine t(n)\n  goto 99\nend\n")

    def test_ifgoto_lowering(self):
        code = lower("subroutine t(n)\n  if (n .gt. 0) goto 10\n"
                     "  x = 1.0\n 10   y = 2.0\nend\n")
        branch = next(i for i in code.instrs if isinstance(i, IBranch))
        # fall-through goes past the embedded jump
        assert isinstance(code.instrs[branch.pc_false], IAssign)

    def test_ifblock_else_lowering(self):
        code = lower("subroutine t(n)\n  if (n .gt. 0) then\n    x = 1.0\n"
                     "  else\n    x = 2.0\n  end if\n  y = 3.0\nend\n")
        branch = next(i for i in code.instrs if isinstance(i, IBranch))
        else_first = code.instrs[branch.pc_false]
        assert isinstance(else_first, IAssign)

    def test_first_pc_covers_all_statements(self):
        sub = parse_subroutine(TESTIV_SOURCE)
        code = lower_subroutine(sub)
        for st in sub.walk():
            assert st.sid in code.first_pc

    def test_continue_is_label_carrier(self):
        code = lower("subroutine t(n)\n  goto 10\n 10   continue\n"
                     "  x = 1.0\nend\n")
        jump = code.instrs[0]
        landing = code.instrs[jump.pc]
        assert isinstance(landing, IJump)  # the continue
        assert isinstance(code.instrs[landing.pc], IAssign)

    def test_len(self):
        code = lower("subroutine t(n)\n  x = 1.0\nend\n")
        assert len(code) == 2

    def test_disassembler(self):
        code = lower("subroutine t(n)\n  do i = 1,n\n    x = i*2.0\n"
                     "  end do\n  if (x .gt. 0.0) goto 10\n"
                     " 10   continue\nend\n")
        text = format_flat(code)
        assert "loop    i = 1,n" in text
        assert "assign  x = " in text
        assert "branch" in text and "return" in text
        assert text.count("\n") == len(code) - 1


class TestDotExports:
    def test_vfg_dot(self):
        from repro.placement import enumerate_placements, vfg_to_dot
        from repro.spec import spec_for_testiv

        res = enumerate_placements(TESTIV_SOURCE, spec_for_testiv())
        plain = vfg_to_dot(res.vfg)
        solved = vfg_to_dot(res.vfg, res.best().placement.solution)
        assert plain.startswith("digraph")
        assert "color=red" not in plain
        assert "color=red" in solved          # the Update arrows
        assert "[Nod1]" in solved or "Nod1" in solved
