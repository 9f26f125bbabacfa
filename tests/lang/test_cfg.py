"""Unit tests for CFG construction and dominators."""

import pytest

from repro.corpus import TESTIV_SOURCE
from repro.errors import AnalysisError
from repro.lang import CFG, ENTRY, EXIT, DoLoop, IfGoto, parse_subroutine
from repro.lang.ast import Assign, Goto


def cfg_of(src: str) -> CFG:
    return CFG.build(parse_subroutine(src))


def stmt_like(cfg, pred):
    return [sid for sid, st in cfg.nodes.items() if pred(st)]


class TestConstruction:
    def test_testiv_builds(self):
        cfg = cfg_of(TESTIV_SOURCE)
        assert ENTRY in cfg.succ and EXIT in cfg.pred
        # every real node reachable from entry has at least one successor
        for sid in cfg.nodes:
            assert cfg.succ[sid], f"statement {sid} has no successor"

    def test_straight_line(self):
        cfg = cfg_of("subroutine t(n)\n  x = 1.0\n  y = 2.0\nend\n")
        a, b = [sid for sid, st in sorted(cfg.nodes.items())]
        assert cfg.succ[ENTRY] == [a]
        assert cfg.succ[a] == [b]
        assert cfg.succ[b] == [EXIT]

    def test_do_loop_edges(self):
        cfg = cfg_of("subroutine t(n)\n  do i = 1,n\n    x = i\n  end do\n"
                     "  y = 1.0\nend\n")
        loop = stmt_like(cfg, lambda s: isinstance(s, DoLoop))[0]
        body = stmt_like(cfg, lambda s: isinstance(s, Assign)
                         and s.target.name == "x")[0]
        after = stmt_like(cfg, lambda s: isinstance(s, Assign)
                          and s.target.name == "y")[0]
        assert set(cfg.succ[loop]) == {body, after}
        assert cfg.succ[body] == [loop]  # back edge

    def test_goto_loop_of_testiv(self):
        cfg = cfg_of(TESTIV_SOURCE)
        sub = cfg.sub
        head = sub.labels()[100]
        # some statement jumps back to label 100
        assert any(head.sid in cfg.succ[sid]
                   for sid, st in cfg.nodes.items() if isinstance(st, Goto))

    def test_ifgoto_two_successors(self):
        cfg = cfg_of(TESTIV_SOURCE)
        for sid in stmt_like(cfg, lambda s: isinstance(s, IfGoto)):
            assert len(cfg.succ[sid]) == 2

    def test_undefined_label_raises(self):
        with pytest.raises(AnalysisError):
            cfg_of("subroutine t(n)\n  goto 42\nend\n")

    def test_unreachable_code_pruned(self):
        cfg = cfg_of("subroutine t(n)\n  goto 10\n  x = 1.0\n"
                     " 10   y = 2.0\nend\n")
        dead = [st for st in cfg.nodes.values()
                if isinstance(st, Assign) and st.target.name == "x"]
        assert not dead

    def test_loops_of_tracks_nesting(self):
        cfg = cfg_of("subroutine t(n)\n  do i = 1,n\n    do j = 1,n\n"
                     "      x = i\n    end do\n  end do\nend\n")
        body = stmt_like(cfg, lambda s: isinstance(s, Assign))[0]
        assert len(cfg.loops_of[body]) == 2


class TestDominators:
    def test_entry_dominates_all(self):
        cfg = cfg_of(TESTIV_SOURCE)
        for sid in cfg.nodes:
            assert cfg.dominates(ENTRY, sid)

    def test_loop_header_dominates_body(self):
        cfg = cfg_of("subroutine t(n)\n  do i = 1,n\n    x = i\n  end do\nend\n")
        loop = stmt_like(cfg, lambda s: isinstance(s, DoLoop))[0]
        body = stmt_like(cfg, lambda s: isinstance(s, Assign))[0]
        assert cfg.dominates(loop, body)
        assert not cfg.dominates(body, loop)

    def test_branch_arms_do_not_dominate_join(self):
        cfg = cfg_of("subroutine t(n)\n  if (n .gt. 0) then\n    x = 1.0\n"
                     "  else\n    x = 2.0\n  end if\n  y = 3.0\nend\n")
        join = stmt_like(cfg, lambda s: isinstance(s, Assign)
                         and s.target.name == "y")[0]
        arms = stmt_like(cfg, lambda s: isinstance(s, Assign)
                         and s.target.name == "x")
        for arm in arms:
            assert not cfg.dominates(arm, join)

    def test_common_dominator(self):
        cfg = cfg_of("subroutine t(n)\n  a = 0.0\n  if (n .gt. 0) then\n"
                     "    x = 1.0\n  else\n    x = 2.0\n  end if\nend\n")
        arms = stmt_like(cfg, lambda s: isinstance(s, Assign)
                         and s.target.name == "x")
        cond = stmt_like(cfg, lambda s: hasattr(s, "cond"))[0]
        assert cfg.common_dominator(arms) == cond

    def test_back_edges_found(self):
        cfg = cfg_of(TESTIV_SOURCE)
        # six do-loops plus the goto-100 loop
        backs = cfg.back_edges()
        assert len(backs) >= 7

    def test_loop_queries_repeat_and_see_the_goto_loop(self):
        """Repeated calls agree, and TESTIV's label-100 convergence loop —
        no ``do`` statement — is a natural loop."""
        cfg = cfg_of(TESTIV_SOURCE)
        assert cfg.back_edges() == cfg.back_edges()
        assert cfg.natural_loops() == cfg.natural_loops()
        head = cfg.sub.labels()[100].sid
        loops = cfg.natural_loops()
        assert not isinstance(cfg.nodes[head], DoLoop)
        assert (stmt_like(cfg, lambda s: isinstance(s, Goto))[0],
                head) in cfg.back_edges()
        tests = stmt_like(cfg, lambda s: isinstance(s, IfGoto))
        assert set(tests) <= loops[head]

    def test_loops_containing_and_interior_agree_with_natural_loops(self):
        cfg = cfg_of(TESTIV_SOURCE)
        loops = cfg.natural_loops()
        for sid in list(cfg.nodes) + [ENTRY, EXIT]:
            assert list(cfg.loops_containing(sid)) \
                == [h for h, body in loops.items() if sid in body]
        for sid in stmt_like(cfg, lambda s: isinstance(s, DoLoop)):
            assert cfg.loop_interior(sid) \
                == {s.sid for s in cfg.nodes[sid].walk()}
            # a do loop's natural loop is its interior: no goto leaves one
            assert loops[sid] == cfg.loop_interior(sid)

    def test_testiv_label100_dominates_convergence_test(self):
        cfg = cfg_of(TESTIV_SOURCE)
        sub = cfg.sub
        head = sub.labels()[100].sid
        tests = stmt_like(cfg, lambda s: isinstance(s, IfGoto))
        for t in tests:
            assert cfg.dominates(head, t)
