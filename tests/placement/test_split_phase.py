"""Split-phase windows: post-anchor computation, annotation, check mode.

The window contract extends the paper (which emits a single blocking
collective per Update group): every :class:`CommOp` carries a
``(post_anchor, wait_anchor)`` pair, degenerate by default.  These tests
pin the hand-derived TESTIV windows, the POST/WAIT directive round-trip,
the figure-9/10 golden-output stability of degenerate windows, and the
section-5.2 check mode's window validation.
"""

import pytest

from repro.corpus import TESTIV_SOURCE
from repro.errors import PlacementError
from repro.lang import Assign, DoLoop, IfGoto
from repro.lang.cfg import EXIT
from repro.lang.lexer import scan_directives, sync_phase
from repro.lang.printer import format_expr
from repro.placement import (
    check_annotated_program,
    enumerate_placements,
    extract_comms,
    parse_annotated,
    widen_placement,
)
from repro.placement.engine import analyze
from repro.spec import spec_for_testiv


@pytest.fixture(scope="module")
def testiv():
    return analyze(TESTIV_SOURCE, spec_for_testiv())


@pytest.fixture(scope="module")
def placements():
    return enumerate_placements(TESTIV_SOURCE, spec_for_testiv())


def sid_by_text(sub, fragment):
    for st in sub.walk():
        if isinstance(st, Assign):
            if fragment in (f"{format_expr(st.target)} = "
                            f"{format_expr(st.value)}"):
                return st.sid
    raise AssertionError(fragment)


def comms_by_var(comms):
    return {(c.kind, c.var): c for c in comms}


class TestWindowExtraction:
    def test_default_is_degenerate(self, placements):
        for rp in placements.ranked:
            for c in rp.placement.comms:
                assert not c.is_split
                assert c.post_anchor == c.wait_anchor == c.anchor

    def test_fig9_new_update_posts_at_sqrdiff_zeroing(self, testiv):
        """NEW's wait sits at the convergence tests; its post hoists to
        ``sqrdiff = 0.0`` — the transfer hides behind the reduction loop."""
        sub, _graph, _idioms, _legality, vfg = testiv
        for sol in _solutions(vfg):
            comms = comms_by_var(extract_comms(vfg, sol, split_phase=True))
            c = comms.get(("overlap", "new"))
            if c is None or c.wait_anchor == EXIT:
                continue
            if isinstance(sub.stmt(c.wait_anchor), IfGoto):
                assert c.is_split
                assert c.post_anchor == sid_by_text(sub, "sqrdiff = 0.0")
                return
        raise AssertionError("no placement waits NEW at the convergence test")

    def test_fig10_old_update_posts_at_loop_increment(self, testiv):
        """OLD's wait sits at the triangle-loop header; its post hoists to
        ``loop = loop + 1`` — the transfer hides behind the NEW-zeroing
        loop."""
        sub, _graph, _idioms, _legality, vfg = testiv
        for sol in _solutions(vfg):
            comms = comms_by_var(extract_comms(vfg, sol, split_phase=True))
            c = comms.get(("overlap", "old"))
            if c is None:
                continue
            if isinstance(sub.stmt(c.wait_anchor), DoLoop):
                assert c.is_split
                assert c.post_anchor == sid_by_text(sub, "loop = loop + 1")
                return
        raise AssertionError("no placement waits OLD at the triangle loop")

    def test_reductions_never_split(self, testiv):
        sub, _graph, _idioms, _legality, vfg = testiv
        for sol in _solutions(vfg):
            for c in extract_comms(vfg, sol, split_phase=True):
                if c.kind == "reduce":
                    assert not c.is_split

    def test_exit_window_stays_degenerate(self, testiv):
        """RESULT is consumed at program end right after its producing loop;
        no statement separates def from use, so the window cannot widen."""
        sub, _graph, _idioms, _legality, vfg = testiv
        for sol in _solutions(vfg):
            for c in extract_comms(vfg, sol, split_phase=True):
                if c.var == "result" and c.wait_anchor == EXIT:
                    assert not c.is_split

    def test_widen_preserves_solution_and_waits(self, placements):
        for rp in placements.ranked:
            wide = widen_placement(placements.vfg, rp.placement)
            assert wide.solution is rp.placement.solution
            assert ([c.wait_anchor for c in wide.comms]
                    == [c.wait_anchor for c in rp.placement.comms])
            assert all(c.post_anchor == c.wait_anchor or
                       c.post_anchor != c.wait_anchor for c in wide.comms)

    def test_some_window_actually_widens(self, placements):
        widened = [widen_placement(placements.vfg, rp.placement)
                   for rp in placements.ranked]
        assert any(c.is_split for w in widened for c in w.comms)


def _solutions(vfg):
    from repro.automata import automaton_for
    from repro.placement import Propagator

    prop = Propagator(vfg, automaton_for(vfg.graph.spec.pattern))
    return prop.solutions()


class TestAnnotation:
    def test_degenerate_output_identical_to_blocking(self, placements):
        """A placement with only degenerate windows renders byte-for-byte
        like the blocking annotator — the fig-9/10 goldens stay stable."""
        from repro.placement import annotate_source

        for rp in placements.ranked:
            again = annotate_source(placements.sub, placements.vfg,
                                    rp.placement)
            assert again == rp.annotated
            assert "POST" not in again and "WAIT" not in again

    def test_split_emits_post_wait_pair(self, placements):
        from repro.placement import annotate_source

        for rp in placements.ranked:
            wide = widen_placement(placements.vfg, rp.placement)
            if not any(c.is_split for c in wide.comms):
                continue
            text = annotate_source(placements.sub, placements.vfg, wide)
            directives = [d for _ln, d in scan_directives(text)]
            posts = [d for d in directives if sync_phase(d)[0] == "POST"]
            waits = [d for d in directives if sync_phase(d)[0] == "WAIT"]
            assert posts and len(posts) == len(waits)
            # each POST/WAIT pair names the same method and variable
            assert sorted(sync_phase(d)[1] for d in posts) == \
                sorted(sync_phase(d)[1] for d in waits)
            # the POST precedes its WAIT in the text
            for p in posts:
                body = sync_phase(p)[1]
                ppos = text.index(f"SYNCHRONIZE POST {body.split(' ', 1)[1]}")
                wpos = text.index(f"SYNCHRONIZE WAIT {body.split(' ', 1)[1]}")
                assert ppos < wpos
            return
        raise AssertionError("no placement widened")

    def test_summary_mentions_window(self, placements):
        from repro.placement import placement_summary

        for rp in placements.ranked:
            wide = widen_placement(placements.vfg, rp.placement)
            if any(c.is_split for c in wide.comms):
                text = placement_summary(placements.sub, placements.vfg,
                                         wide)
                assert "post@" in text and "wait@" in text
                return
        raise AssertionError("no placement widened")


class TestSyncPhase:
    def test_blocking_directive_unchanged(self):
        d = "SYNCHRONIZE METHOD: overlap-som ON ARRAY: OLD"
        assert sync_phase(d) == (None, d)

    @pytest.mark.parametrize("kw", ["POST", "WAIT", "post", "Wait"])
    def test_phase_split_off(self, kw):
        d = f"SYNCHRONIZE {kw} METHOD: overlap-som ON ARRAY: OLD"
        phase, rest = sync_phase(d)
        assert phase == kw.upper()
        assert rest == "SYNCHRONIZE METHOD: overlap-som ON ARRAY: OLD"

    def test_non_sync_directive_untouched(self):
        d = "ITERATION DOMAIN: KERNEL"
        assert sync_phase(d) == (None, d)


def widened_text(placements) -> str:
    """The first TESTIV placement with a real window, as annotated text."""
    from repro.placement import annotate_source

    for rp in placements.ranked:
        wide = widen_placement(placements.vfg, rp.placement)
        if any(c.is_split for c in wide.comms):
            return annotate_source(placements.sub, placements.vfg, wide)
    raise AssertionError("no placement widened")


class TestCheckMode:
    def test_widened_annotated_source_checks_compatible(self, placements):
        text = widened_text(placements)
        assert check_annotated_program(text, spec_for_testiv()).clean
        parsed = parse_annotated(text, spec_for_testiv())
        assert any(c.is_split for c in parsed.best().placement.comms)
        assert parsed.flags == {"split_phase": True}

    def test_post_without_wait_is_error(self, placements):
        broken = "\n".join(l for l in widened_text(placements).splitlines()
                           if "SYNCHRONIZE WAIT" not in l) + "\n"
        sink = check_annotated_program(broken, spec_for_testiv())
        assert not sink.ok
        faults = [d.data.get("fault") for d in sink.diagnostics
                  if d.code == "CC003"]
        assert faults and set(faults) == {"unpaired-post"}
        # the use the lost wait covered is stale as well
        assert sink.codes() == {"CC001", "CC003"}
        # read without a sink to report to, no Placement holds a lone half
        with pytest.raises(PlacementError, match="POST .* has no partner"):
            parse_annotated(broken, spec_for_testiv())

    def test_post_after_definition_is_invalid_window(self, placements):
        """Moving a POST in front of the defining loop breaks the window:
        the check must reject it."""
        lines = widened_text(placements).splitlines()
        # move the POST directive to the very top of the body: before
        # the definitions, where the posted values would be stale
        post_lines = [l for l in lines if "SYNCHRONIZE POST" in l]
        rest = [l for l in lines if "SYNCHRONIZE POST" not in l]
        insert_at = next(i for i, l in enumerate(rest)
                         if "subroutine" in l) + 1
        # skip declarations: directives attach to the next statement
        while insert_at < len(rest) and (
                rest[insert_at].strip().startswith(("integer", "real",
                                                    "logical"))):
            insert_at += 1
        moved = rest[:insert_at] + post_lines + rest[insert_at:]
        sink = check_annotated_program("\n".join(moved) + "\n",
                                       spec_for_testiv())
        assert not sink.ok
        assert sink.codes() == {"CC003"}
        # posted once, waited every sweep
        assert {d.data["fault"] for d in sink.diagnostics} \
            == {"unmatched-wait"}
        assert all(d.witness for d in sink.diagnostics)

    def test_post_behind_goto_is_wait_before_post(self, placements):
        """A POST that does not dominate its WAIT: moved behind ``goto
        100``, the first WAIT is reached without it."""
        lines = widened_text(placements).splitlines()
        (post,) = [l for l in lines if "SYNCHRONIZE POST" in l]
        lines.remove(post)
        lines.insert(next(i for i, l in enumerate(lines)
                          if "goto 100" in l) + 1, post)
        sink = check_annotated_program("\n".join(lines) + "\n",
                                       spec_for_testiv())
        assert sink.codes() == {"CC003"} and not sink.ok
        (diag,) = sink.diagnostics
        assert diag.data["fault"] == "wait-before-post" and diag.witness


class TestCostPreference:
    def test_widened_placement_is_strictly_cheaper(self, placements):
        from repro.placement import CostModel, estimate_cost, rank_placements

        model = CostModel()
        vfg = placements.vfg
        found = False
        for rp in placements.ranked:
            wide = widen_placement(vfg, rp.placement)
            if not any(c.is_split for c in wide.comms):
                continue
            found = True
            blocking = estimate_cost(vfg, rp.placement, model)
            split = estimate_cost(vfg, wide, model)
            assert split.total < blocking.total
            assert split.comm_hidden > 0.0
            assert blocking.comm_hidden == 0.0
            # ranked head-to-head, the widened variant wins
            ranked = rank_placements(vfg, [rp.placement, wide], model)
            assert ranked[0][0] is wide
        assert found
